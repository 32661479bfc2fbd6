"""End-to-end tests of the command-line interface."""

import argparse
import csv
import io
import itertools
import json
import tracemalloc

import pytest

from r2subfield import analysis, cli
from r2subfield.analysis import SWEEP_ROW_FIELDS, run_sweep, sweep_tasks
from r2subfield.cli import BUNDLED_MANIFEST, MANIFEST_HEADER, TABLES_M_CAP, main
from reference import summarize_rows


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_code_json_matching_example(capsys):
    rc, out, err = run_cli(
        capsys, "code", "--m", "3", "--family", "2",
        "--L", "1", "--M", "1,2", "--N", "1,2,3", "--format", "json",
    )
    assert rc == 0
    assert err == ""
    report = json.loads(out)
    assert (report["n"], report["k"], report["d"]) == (192, 8, 96)
    assert report["match"] is True
    assert report["flags"]["griesmer_equal"] is True
    assert report["flags"]["distance_optimal_by_griesmer"] is True
    assert report["weights"] == [
        {"w": 0, "count": 1}, {"w": 96, "count": 252}, {"w": 128, "count": 3},
    ]


def test_code_explicit_complement_flags(capsys):
    rc, out, _ = run_cli(
        capsys, "code", "--m", "2", "--D1", "deltac", "--D2", "deltac",
        "--L", "-", "--M", "-", "--N", "1,2", "--format", "json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["family"] == 5
    assert (report["n"], report["k"], report["d"]) == (36, 6, 16)


def test_code_family_and_flags_conflict(capsys):
    rc, _, err = run_cli(
        capsys, "code", "--m", "2", "--family", "5", "--D1", "deltac",
        "--L", "-", "--M", "-", "--N", "1",
    )
    assert rc == 2
    assert "error:" in err


def test_code_requires_some_family_selector(capsys):
    rc, _, err = run_cli(capsys, "code", "--m", "2", "--L", "-", "--M", "-", "--N", "1")
    assert rc == 2
    assert "error:" in err


def test_code_degenerate_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, "code", "--m", "1", "--family", "3", "--L", "-", "--M", "1", "--N", "-",
    )
    assert rc == 2
    assert "error:" in err


def test_code_bad_subset_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, "code", "--m", "2", "--family", "1", "--L", "3", "--M", "-", "--N", "-",
    )
    assert rc == 2
    assert "error:" in err


def test_code_m_out_of_range_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, "code", "--m", "6", "--family", "1", "--L", "1", "--M", "-", "--N", "-",
    )
    assert rc == 2
    assert "error:" in err


def test_code_csv_round_trips(capsys):
    rc, out, _ = run_cli(
        capsys, "code", "--m", "2", "--family", "9",
        "--L", "1,2", "--M", "1,2", "--N", "-", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert (row["n"], row["k"], row["d"]) == ("48", "6", "24")
    assert row["weights"] == "0:1;24:60;32:3"
    assert row["match"] == "true"


def test_code_md_contains_tables(capsys):
    rc, out, _ = run_cli(
        capsys, "code", "--m", "2", "--family", "5", "--L", "-", "--M", "-", "--N", "1,2",
    )
    assert rc == 0
    assert "measured  [n,k,d] = [36,6,16]" in out
    assert "| 16 | 9 | 9 |" in out
    assert "| table10_minimal | true |" in out


def test_verify_md_smoke(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--m", "1")
    assert rc == 0
    assert "verdict: PASS" in out
    assert "total: 72" in out
    assert "mismatch: 0" in out


def test_verify_deterministic_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "seq.json"
    out2 = tmp_path / "par.json"
    rc1, _, _ = run_cli(
        capsys, "verify", "--m", "1,2", "--format", "json",
        "--jobs", "1", "--out", str(out1),
    )
    rc2, _, _ = run_cli(
        capsys, "verify", "--m", "1,2", "--format", "json",
        "--jobs", "2", "--out", str(out2),
    )
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def indent2_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("ms", [[1], [2], [1, 2]])
def test_verify_json_renders_sweeps_like_indent2(ms):
    # one piece per task, joined here: the rows of the tasks are separated
    # exactly as in the one list of json.dumps
    rows, summary = run_sweep(ms)
    tasks = sweep_tasks(ms)
    text = "".join(cli._verify_json(tasks, tasks.summary))
    assert text == indent2_json({"rows": rows, "summary": summary})


def test_verify_json_escapes_strings_like_indent2():
    # the C encoder must escape a row's strings as the pure-Python one does,
    # in the body, which is encoded once for the rows that share it, and in
    # the labels, which are encoded apart from it.  Two hand-built m = 1
    # tasks of 8 rows each, with awkward labels and details.  The bodies of
    # a task are encoded in one call and split where one ends and the next
    # begins, so a detail also holds that break as raw text.
    awkward = 'quote " backslash \\ newline \n tab \t non-ASCII é≡ {"a": [1, 2]} },\n      {'
    body = dict.fromkeys(SWEEP_ROW_FIELDS[5:])
    body.update(status="mismatch", n=3, match=False, charsum_ok=True, detail=awkward)
    bodies = [body, {**body, "status": "ok", "detail": "tab\t"}]
    tasks = [
        (8, 1, ['a "label"', "back\\slash"], bodies, [0, 1, 1, 0, 1, 1, 1, 0]),
        (2, 1, ["é≡\n", "{"], bodies[::-1], [1, 1, 0, 0, 1, 0, 0, 1]),
    ]
    rows = [
        {"m": m, "family": family, "L": lset, "M": mset, "N": nset, **shared[number]}
        for family, m, labels, shared, index in tasks
        for (lset, mset, nset), number in zip(itertools.product(labels, repeat=3), index)
    ]
    payload = {"rows": rows, "summary": summarize_rows(rows)}
    assert payload["summary"]["findings"][0]["detail"] == awkward
    assert payload["summary"]["findings"][0]["L"] == 'a "label"'
    pieces = cli._verify_json(tasks, lambda: payload["summary"])
    assert "".join(pieces) == indent2_json(payload)


def test_verify_family_filter_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--m", "2", "--families", "9", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 64
    assert {row["family"] for row in rows} == {"9"}
    assert all(row["status"] in ("ok", "degenerate") for row in rows)


@pytest.mark.parametrize(
    "argv",
    [["--m", "2", "--families", "11"], ["--m", "1,1"], ["--m", "1", "--families", "1,1"]],
    ids=["unknown-family", "repeated-m", "repeated-family"],
)
def test_verify_bad_input_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
@pytest.mark.parametrize(
    "argv", [["--m", "6"], ["--m", "2", "--families", "10"]], ids=["m-6", "family-10"],
)
def test_verify_bad_input_writes_nothing(tmp_path, capsys, fmt, argv):
    # the input is checked before the first byte, to stdout or to --out
    out = tmp_path / "sweep.out"
    for extra in ([], ["--out", str(out)]):
        rc, stdout, err = run_cli(capsys, "verify", *argv, "--format", fmt, *extra)
        assert (rc, stdout) == (2, "")
        assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unwritable_out_fails_before_any_task(tmp_path, capsys, monkeypatch, jobs):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep task was started")

    monkeypatch.setattr(analysis, "_sweep_task", unreachable)
    out = tmp_path / "missing" / "sweep.json"
    rc, stdout, err = run_cli(
        capsys, "verify", "--m", "1", "--jobs", jobs, "--format", "json", "--out", str(out),
    )
    assert (rc, stdout) == (2, "")
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_verify_memory_follows_one_task_not_the_sweep(tmp_path, fmt):
    # verify writes the rows of each (family, m) task as the task finishes,
    # so a sweep of nine families peaks about as high as one of one family;
    # a render of the whole sweep at once peaks 7 to 9 times higher at m = 3.
    # A first untraced sweep fills the per-class caches of every family.
    argv = ["verify", "--m", "3", "--format", fmt, "--out", str(tmp_path / "sweep.out")]
    assert main(argv) == 0

    def peak(*families):
        tracemalloc.start()
        try:
            assert main(argv + list(families)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_family = peak("--families", "5")
    assert peak() < 2 * one_family


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_rejected_at_parsing(capsys, monkeypatch, jobs):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "sweep_tasks", no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_is_a_verify_flag_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", "--m", "2", "--family", "1", "--L", "1", "--M", "-", "--N", "-",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_scan_bundled_manifest_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--format", "json")
    assert rc == 0
    results = json.loads(out)
    assert len(results) == len(BUNDLED_MANIFEST) == 21
    for result in results:
        assert result["result"] == "PASS"
        assert result["expected"] == result["computed"]
        assert result["match"] is True
    griesmer_rows = [r for r in results if r["optimal"] == "yes (Griesmer)"]
    assert len(griesmer_rows) == 6  # families 2 and 9 meet the bound exactly


def test_scan_md_table(capsys):
    rc, out, _ = run_cli(capsys, "scan")
    assert rc == 0
    assert "21 rows, 0 failures" in out
    assert "| [192,8,96] | [192,8,96] |" in out


def test_scan_empty_manifest_passes(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(MANIFEST_HEADER) + "\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "scan", "--manifest", str(path), "--format", "json")
    assert rc == 0
    assert json.loads(out) == []


def test_scan_detects_wrong_expectation(tmp_path, capsys):
    path = tmp_path / "wrong.csv"
    path.write_text(
        ",".join(MANIFEST_HEADER) + "\n" + "5,2,-,-,\"1,2\",36,6,17\n",
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "scan", "--manifest", str(path), "--format", "json")
    assert rc == 1
    results = json.loads(out)
    assert results[0]["result"] == "FAIL"
    assert results[0]["computed"] == [36, 6, 16]


def test_scan_rejects_bad_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("family,m,L,M,N,n,k\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "scan", "--manifest", str(path))
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "row", ["2,3,1", "2,3,1,\"1,2\",\"1,2,3\",192,8,96,0"], ids=["short", "long"]
)
def test_scan_rejects_row_with_wrong_field_count(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    good = "2,3,1,\"1,2\",\"1,2,3\",192,8,96"
    path.write_text("\n".join([",".join(MANIFEST_HEADER), good, row]) + "\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "scan", "--manifest", str(path))
    assert rc == 2
    assert out == ""
    assert "manifest line 3 must have 8 fields" in err


def test_scan_rejects_field_over_the_csv_limit(tmp_path, capsys):
    path = tmp_path / "big.csv"
    field = "1" * (csv.field_size_limit() + 1)
    path.write_text(
        ",".join(MANIFEST_HEADER) + f"\n2,3,{field},-,-,8,3,4\n", encoding="utf-8"
    )
    rc, out, err = run_cli(capsys, "scan", "--manifest", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: manifest line 2: field larger than field limit")


@pytest.mark.parametrize("column", ["family", "m", "n", "k", "d"])
def test_scan_rejects_non_integer_field_naming_its_line(tmp_path, capsys, column):
    path = tmp_path / "bad.csv"
    good = ["2", "3", "1", "\"1,2\"", "\"1,2,3\"", "192", "8", "96"]
    bad = list(good)
    bad[MANIFEST_HEADER.index(column)] = "x"
    path.write_text(
        "\n".join([",".join(MANIFEST_HEADER), ",".join(good), ",".join(bad)]) + "\n",
        encoding="utf-8",
    )
    rc, out, err = run_cli(capsys, "scan", "--manifest", str(path))
    assert rc == 2
    assert out == ""
    assert err == "error: manifest line 3: invalid literal for int() with base 10: 'x'\n"


def test_scan_missing_manifest_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "scan", "--manifest", str(tmp_path / "nope.csv"))
    assert rc == 2
    assert "error:" in err


def test_tables_json(capsys):
    rc, out, _ = run_cli(
        capsys, "tables", "--family", "1", "--m", "3",
        "--sL", "1", "--sM", "1", "--sN", "1", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (8, 3, 4)
    assert payload["weights"] == [{"w": 0, "count": 1}, {"w": 4, "count": 7}]


def test_tables_merges_coincident_weights(capsys):
    # family 5 at |N| = 2, m = 2 produces two formula rows at weight 24 that
    # must appear as one merged row
    rc, out, _ = run_cli(
        capsys, "tables", "--family", "5", "--m", "2",
        "--sL", "0", "--sM", "0", "--sN", "2", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    weights = {e["w"]: e["count"] for e in payload["weights"]}
    assert weights == {0: 1, 16: 9, 18: 48, 24: 6}


def test_tables_counts_sum_to_codebook(capsys):
    rc, out, _ = run_cli(
        capsys, "tables", "--family", "8", "--m", "2",
        "--sL", "0", "--sM", "0", "--sN", "0", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert sum(e["count"] for e in payload["weights"]) == 64 == 1 << payload["k"]


def test_tables_degenerate_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, "tables", "--family", "3", "--m", "1",
        "--sL", "0", "--sM", "1", "--sN", "0",
    )
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("m", [TABLES_M_CAP + 1, 10**12])
def test_tables_m_above_cap_exits_2_before_any_table(capsys, monkeypatch, m):
    def no_table(*args, **kwargs):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(cli, "predicted_weight_table", no_table)
    monkeypatch.setattr(cli, "predicted_parameters", no_table)
    rc, out, err = run_cli(
        capsys, "tables", "--family", "9", "--m", str(m), "--sL", "0", "--sM", "0", "--sN", "0",
    )
    assert rc == 2
    assert out == ""
    assert f"capped at m <= {TABLES_M_CAP}" in err


def test_tables_md(capsys):
    rc, out, _ = run_cli(
        capsys, "tables", "--family", "9", "--m", "2", "--sL", "2", "--sM", "2", "--sN", "0",
    )
    assert rc == 0
    assert "[n,k,d] = [48,6,24]" in out
    assert "| 24 | 60 |" in out


def test_out_file_matches_stdout(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "scan", "--format", "csv")
    assert rc == 0
    path = tmp_path / "scan.csv"
    rc2, out2, _ = run_cli(capsys, "scan", "--format", "csv", "--out", str(path))
    assert rc2 == 0
    assert out2 == ""  # nothing on stdout when writing a file
    assert path.read_text(encoding="utf-8") == out


def test_main_builds_the_parser_once(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()  # the next call builds the parser
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert run_cli(capsys, "tables", "--family", "1", "--m", "2",
                       "--sL", "1", "--sM", "1", "--sN", "0")[0] == 0
    assert progs.count("r2subfield") == 1


def test_parser_is_unchanged_by_failed_calls(capsys):
    argv = ("code", "--m", "3", "--family", "2", "--L", "1", "--M", "1,2", "--N", "1,2,3",
            "--format", "csv")
    cli.build_parser.cache_clear()  # the next call builds the parser
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "1", "--jobs", "0"])
    assert exc.value.code == 2
    assert run_cli(capsys, "code", "--m", "2", "--family", "10",
                   "--L", "-", "--M", "-", "--N", "1")[0] == 2
    assert run_cli(capsys, *argv) == first
