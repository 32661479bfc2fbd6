"""Byte identity of the command-line output.

Each case pins the sha256 of stdout, the exact stderr and the exit code of
one ``main`` call.  The digests were recorded from a commit known to be
right; any change to the bytes a command prints must show up here.
"""

import hashlib

import pytest

from r2subfield.cli import MANIFEST_HEADER, main
from reference import shift_predictions

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()

CODE_M2 = "code --m 2 --D1 deltac --D2 deltac --L - --M - --N 1,2"
CODE_M3 = "code --m 3 --family 2 --L 1 --M 1,2 --N 1,2,3"
CODE_M5 = "code --m 5 --family 5 --L 1,2 --M 3,4 --N 1,3,5"
TABLES_SMALL = "tables --family 5 --m 2 --sL 0 --sM 0 --sN 2"
TABLES_M40 = "tables --family 7 --m 40 --sL 3 --sM 5 --sN 7"

# (argv, exit code, sha256 of stdout, stderr); {wrong}, {bad_header}, {m6}
# and {bad_member} are manifest files that the fixture below writes
CASES = {
    "code-m2-json": (
        f"{CODE_M2} --format json", 0,
        "5e6b29ae30258dec0eefd3d91f006b6fcdcdd5f1f299b060a30600cfcc7d467c",
        "",
    ),
    "code-m2-csv": (
        f"{CODE_M2} --format csv", 0,
        "53fca2f389cfa8cea98ec15c7ea558bd62458e4cc9de94bd6e6f9f92bf420359",
        "",
    ),
    "code-m2-md": (
        CODE_M2, 0,
        "866db00a39883a0d70ff27396ded511721c4eec7cbe70852595412bbf1f9edbe",
        "",
    ),
    "code-m3-json": (
        f"{CODE_M3} --format json", 0,
        "ccaf9950711def68b6a7ec583d574a21f60d5e16ead0c3f5d0fc96531726e6a6",
        "",
    ),
    "code-m3-csv": (
        f"{CODE_M3} --format csv", 0,
        "f9169e7ed6f1b55853fa71a973dff2fb6e9b545965f4dd21d973aefb904c1b19",
        "",
    ),
    "code-m3-md": (
        f"{CODE_M3} --format md", 0,
        "73ab1535ffaaa04aaab01d3c2f4f9425dbc3a35779856fffb654d4b8489c9370",
        "",
    ),
    "code-m5-json": (
        f"{CODE_M5} --format json", 0,
        "5c55dbcf2f34c81065a4af9754d18baa92232693e2324e15a3b925306730275f",
        "",
    ),
    "code-m5-csv": (
        f"{CODE_M5} --format csv", 0,
        "08ee49b6e71b6965670df4723d5eb330ab147b60594b0d7c8b66133fcac854d5",
        "",
    ),
    "code-m5-md": (
        f"{CODE_M5} --format md", 0,
        "2a49c90a0f216efd6cd4ba68395c87dac934e68cddc957f1011d0bd957e1fdc3",
        "",
    ),
    "verify-json": (
        "verify --m 1,2 --format json", 0,
        "6052c1676c110917569d98b37e292380cd2b93004b090d03dc97ffeda8cea8c5",
        "",
    ),
    "verify-csv": (
        "verify --m 1,2 --format csv", 0,
        "64d80fce4d8830042833826b6a38c415b5e03c51bde3339a3f8f055161d55650",
        "",
    ),
    "verify-md": (
        "verify --m 1,2", 0,
        "71f84bb1645581a567813858824a719fdf6b1febd6759dbfd5e4d33cf8aa9e2f",
        "",
    ),
    "verify-m123-json": (
        "verify --m 1,2,3 --format json", 0,
        "a310ae68cd922a6ae1d0bd999b521d9fa72503b08482510c89888cd8b45eefdb",
        "",
    ),
    "verify-m3-csv": (
        "verify --m 3 --format csv", 0,
        "aa3d150fbdaba97712cb65b210cef079ca206b51ddfefdb775f0e7f357f3d427",
        "",
    ),
    "verify-m3-md": (
        "verify --m 3", 0,
        "4c57fa98f4c70bf3572f062169c86bff46533efee7654f0a274c1dc28a6b0c4a",
        "",
    ),
    "scan-json": (
        "scan --format json", 0,
        "f63b3b2a4bfbed30e82292f3196c98da32fd71aefa2184eea057a1425eab5cf2",
        "",
    ),
    "scan-csv": (
        "scan --format csv", 0,
        "a6d023015bf5b55c622a1968168404e7d307ee6acf203295408c37f1238c566e",
        "",
    ),
    "scan-md": (
        "scan", 0,
        "b7d28860cb645f49e8c10d91c805fc18ed033a05daed0e23ad1484c00bbfc301",
        "",
    ),
    "scan-wrong-expectation": (
        "scan --manifest {wrong}", 1,
        "dcbbbcb1668053349cdf252985ed6c8b51d37937fb9805cd1bddaba821be5d0e",
        "",
    ),
    "tables-small-json": (
        f"{TABLES_SMALL} --format json", 0,
        "175222a109d070c6730ff0d1e8cb73c207c296f40bdc86ebdb7c0d0bcdb20d21",
        "",
    ),
    "tables-small-csv": (
        f"{TABLES_SMALL} --format csv", 0,
        "e7b43ddf08485f75f99b4bd84e18262ef6a8355ce05e1a08356f2fecdc09404c",
        "",
    ),
    "tables-small-md": (
        TABLES_SMALL, 0,
        "a256f105b3cb4abc88061319b3d70ed6f0c2f717e53e9e550c7ce4627d06b9a9",
        "",
    ),
    "tables-m40-json": (
        f"{TABLES_M40} --format json", 0,
        "933cd7c7bd2f30a44d7a03d3924994aadf58b374d2ace4681cfbd0d08f11c9db",
        "",
    ),
    "tables-m40-csv": (
        f"{TABLES_M40} --format csv", 0,
        "e45e4a7a4ddf7ef893bcd4018453ba94509f6b0ed3281b9a5a0d744b2f70e717",
        "",
    ),
    "tables-m40-md": (
        TABLES_M40, 0,
        "a379f5dd0152964396aed0c39f3e50b7549e072608ef2f80a7dbeb4f9f2f4ea2",
        "",
    ),
    "code-unknown-family": (
        "code --m 2 --family 10 --L - --M - --N 1", 2,
        EMPTY_SHA256,
        "error: family must be 1..9, got 10\n",
    ),
    "verify-unknown-family": (
        "verify --m 2 --families 0", 2,
        EMPTY_SHA256,
        "error: family must be 1..9, got 0\n",
    ),
    "tables-unknown-family-above-cap": (
        "tables --family 10 --m 300 --sL 0 --sM 0 --sN 0", 2,
        EMPTY_SHA256,
        "error: family must be 1..9, got 10\n",
    ),
    "code-m-out-of-range": (
        "code --m 6 --family 1 --L 1 --M - --N -", 2,
        EMPTY_SHA256,
        "error: m must be in 1..5, got 6\n",
    ),
    "verify-m-out-of-range": (
        "verify --m 0", 2,
        EMPTY_SHA256,
        "error: m must be in 1..5, got 0\n",
    ),
    "code-degenerate": (
        "code --m 1 --family 3 --L - --M 1 --N -", 2,
        EMPTY_SHA256,
        "error: empty defining set\n",
    ),
    "tables-degenerate": (
        "tables --family 3 --m 1 --sL 0 --sM 1 --sN 0", 2,
        EMPTY_SHA256,
        "error: family 3 with |L|,|M|,|N| = 0,1,0 at m = 1 yields an empty or trivial code\n",
    ),
    "code-family-and-flags": (
        "code --m 2 --family 5 --D1 deltac --L - --M - --N 1", 2,
        EMPTY_SHA256,
        "error: give either --family or explicit --D1/--D2/--D3 flags, not both\n",
    ),
    "scan-bad-header": (
        "scan --manifest {bad_header}", 2,
        EMPTY_SHA256,
        "error: manifest header must be family,m,L,M,N,n,k,d, "
        "got ['family', 'm', 'L', 'M', 'N', 'n', 'k']\n",
    ),
    "scan-m-out-of-range": (
        "scan --manifest {m6}", 2,
        EMPTY_SHA256,
        "error: manifest line 2: m must be in 1..5, got 6\n",
    ),
    "scan-bad-member": (
        "scan --manifest {bad_member}", 2,
        EMPTY_SHA256,
        "error: manifest line 3: member 7 outside ground set 1..3\n",
    ),
    "tables-above-cap": (
        "tables --family 9 --m 257 --sL 0 --sM 0 --sN 0", 2,
        EMPTY_SHA256,
        "error: tables are capped at m <= 256, got m = 257\n",
    ),
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    folder = tmp_path_factory.mktemp("manifests")
    wrong = folder / "wrong.csv"
    wrong.write_text(
        ",".join(MANIFEST_HEADER) + "\n" + "5,2,-,-,\"1,2\",36,6,17\n", encoding="utf-8"
    )
    bad_header = folder / "bad_header.csv"
    bad_header.write_text("family,m,L,M,N,n,k\n", encoding="utf-8")
    m6 = folder / "m6.csv"
    m6.write_text(",".join(MANIFEST_HEADER) + "\n" + "5,6,-,-,1,1,1,1\n", encoding="utf-8")
    bad_member = folder / "bad_member.csv"
    bad_member.write_text(
        ",".join(MANIFEST_HEADER) + "\n" + "5,2,-,-,\"1,2\",36,6,16\n" + "2,3,7,1,1,1,1,1\n",
        encoding="utf-8",
    )
    return {"wrong": wrong, "bad_header": bad_header, "m6": m6, "bad_member": bad_member}


def run(capsys, manifests, argv):
    rc = main([arg.format(**manifests) for arg in argv.split()])
    captured = capsys.readouterr()
    return rc, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("case", list(CASES))
def test_output_is_byte_identical(capsys, manifests, case):
    argv, code, digest, err = CASES[case]
    assert run(capsys, manifests, argv) == (code, digest, err)


# sha256 of `verify --m 2 --families 8,2` in each format under predictions
# made wrong on purpose (reference.shift_predictions): every non-degenerate
# row mismatches, so the output holds mismatch rows, family-8 findings and
# a FAIL verdict, and the exit code is 1
FORCED_MISMATCH = {
    "json": "fd9db636610c35e22b465860ed0892aecbcd35d1733694c2cdc52a23c506d246",
    "csv": "3609ad0c7a3be808c9fd2877dbf73055ea9387646b1ac3441b574d5039ec2818",
    "md": "f63129980f4083d3dd0b969d0efd6698d2505a0dbf6a5418bc4bcf9ddf03ddc8",
}


@pytest.mark.parametrize("fmt", list(FORCED_MISMATCH))
def test_forced_mismatch_output_is_byte_identical(capsys, monkeypatch, manifests, fmt):
    shift_predictions(monkeypatch)
    argv = f"verify --m 2 --families 8,2 --format {fmt}"
    assert run(capsys, manifests, argv) == (1, FORCED_MISMATCH[fmt], "")
