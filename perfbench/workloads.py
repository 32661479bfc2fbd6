"""Workloads of the verifier benchmark and the checks on their output.

A workload is a list of CLI requests (argv lists for ``r2subfield.cli.main``)
sent one at a time, each after the previous one has returned: a closed loop
with a single client.  One pass sends every request once.  After the pass,
``check`` compares the outputs with ``expected.json`` and returns the number
of failed configurations; ``attempted`` is the number checked per pass.

A configuration fails when its output is wrong: a mismatch outside family 8,
a character-sum failure, a non-zero exit, or output that differs from the
recorded expectation.  Griesmer failures in family 1 are the paper's error,
already part of the recorded output, and count as correct.  A wrong sweep
document that cannot be pinned on particular rows (bad exit code, summary or
layout) fails every configuration of the pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SWEEP_M = 3
SWEEP_ARGV = ("verify", "--m", str(SWEEP_M), "--format", "json")
SWEEP_TOTAL = 9 * 8**SWEEP_M

# The fields of a sweep row that depend only on the size class
# (family, |L|, |M|, |N|): each factor of the product set can be relabelled
# on its own without changing any of them.
ROW_FIELDS = (
    "status", "n", "k", "d", "match", "charsum_ok", "griesmer_ok",
    "minimal_claim_ok", "selforth_claim_ok", "ab_implication_ok", "detail",
)

REPORT_M = 5
# (family, |L|, |M|, |N|) of the m = 5 code reports: every family, n from 224
# to 32767.  k = 13 and 14 codes whose exact minimality scan runs to the end
# (all are minimal, so the work does not depend on the labels), k = 15 codes
# past the minimality cap, and two k = 8 codes, the first a manifest row.
REPORT_CLASSES = (
    (2, 1, 1, 2),
    (3, 0, 2, 3),
    (1, 5, 4, 4),
    (1, 5, 5, 4),
    (2, 0, 4, 5),
    (3, 4, 0, 4),
    (4, 4, 4, 0),
    (5, 2, 2, 3),
    (6, 2, 4, 2),
    (7, 3, 2, 2),
    (4, 5, 5, 3),
    (5, 0, 0, 5),
    (8, 0, 0, 0),
    (8, 1, 1, 1),
    (9, 0, 0, 0),
    (9, 1, 1, 1),
)
REPORT_FIELDS = ("n", "k", "d", "weights", "predicted", "flags")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def subset_text(members) -> str:
    """The CLI form of a subset: sorted members joined by commas, ``-`` if empty."""
    return ",".join(str(i) for i in sorted(members)) or "-"


def class_key(family: int, sizes) -> str:
    return ",".join(str(x) for x in (family, *sizes))


def sweep_configurations(m: int = SWEEP_M):
    """(family, L, M, N) text of each sweep row, in the order the sweep reports them."""
    texts = [subset_text(i + 1 for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
    sizes = [bin(mask).count("1") for mask in range(1 << m)]
    for family in range(1, 10):
        for lmask in range(1 << m):
            for mmask in range(1 << m):
                for nmask in range(1 << m):
                    yield (
                        (family, texts[lmask], texts[mmask], texts[nmask]),
                        class_key(family, (sizes[lmask], sizes[mmask], sizes[nmask])),
                    )


class Sweep:
    """``verify --m 3 --format json`` over every configuration, optionally with a pool.

    The sweep is exhaustive, so the seed does not change it.
    """

    attempted = SWEEP_TOTAL

    def __init__(self, expected: dict, jobs: int = 1) -> None:
        self.expected = expected["sweep_m3"]
        argv = list(SWEEP_ARGV)
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        self.requests = [argv]

    def check(self, results) -> int:
        ((code, text),) = results
        if code == 0 and hashlib.sha256(text.encode()).hexdigest() == self.expected["sha256"]:
            return 0
        bad_rows = self.bad_rows(text)
        return bad_rows if bad_rows else self.attempted

    def bad_rows(self, text: str) -> int:
        """Rows that differ from their size class's recorded fields (missing rows count)."""
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError, TypeError):
            return self.attempted
        classes = self.expected["classes"]
        bad = max(0, self.attempted - len(rows))
        for row, (identity, key) in zip(rows, sweep_configurations()):
            try:
                ok = (
                    (row["m"], row["family"], row["L"], row["M"], row["N"]) == (SWEEP_M, *identity)
                    and [row[field] for field in ROW_FIELDS] == classes[key]
                    and not (row["status"] == "mismatch" and row["family"] != 8)
                    and row["charsum_ok"] is not False
                )
            except (KeyError, TypeError):
                ok = False
            bad += not ok
        return bad + max(0, len(rows) - self.attempted)


class Reports:
    """16 ``code --m 5 --format json`` calls, one per size class in REPORT_CLASSES.

    The seed relabels the coordinates of L, M and N inside each size class.
    That keeps n, k, d, the weights, the flags and the work unchanged.
    """

    attempted = len(REPORT_CLASSES)

    def __init__(self, expected: dict, seed: int) -> None:
        self.expected = expected["reports_m5"]
        rng = random.Random(seed)
        self.requests = []
        self.inputs = []
        for family, *sizes in REPORT_CLASSES:
            texts = [subset_text(rng.sample(range(1, REPORT_M + 1), size)) for size in sizes]
            self.inputs.append((family, class_key(family, sizes), texts))
            self.requests.append([
                "code", "--m", str(REPORT_M), "--family", str(family),
                "--L", texts[0], "--M", texts[1], "--N", texts[2], "--format", "json",
            ])

    def check(self, results) -> int:
        return sum(
            not self.report_ok(code, text, family, key, texts)
            for (code, text), (family, key, texts) in zip(results, self.inputs)
        ) + abs(len(results) - len(self.inputs))

    def report_ok(self, code: int, text: str, family: int, key: str, texts) -> bool:
        if code != 0:
            return False
        try:
            report = json.loads(text)
            return (
                report["match"] is True
                and (report["m"], report["family"], report["L"], report["M"], report["N"])
                == (REPORT_M, family, *texts)
                and all(report[field] == self.expected[key][field] for field in REPORT_FIELDS)
            )
        except (ValueError, KeyError, TypeError):
            return False


def make_workload(name: str, seed: int, expected: dict):
    if name == "sweep_m3":
        return Sweep(expected)
    if name == "sweep_m3_jobs2":
        return Sweep(expected, jobs=2)
    if name == "reports_m5":
        return Reports(expected, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep_m3", "sweep_m3_jobs2", "reports_m5")
