"""Record ``expected.json``, the output the benchmark checks every run against.

Usage, from the repository root, at a commit whose output is known to be
right:

    python3 perfbench/record.py

It runs the m = 3 sweep once and stores the sha256 of its JSON output, its
summary, and the class fields of its rows (failing if one size class has two
outcomes).  It runs each m = 5 report under five relabellings and stores the
fields a relabelling must not change (failing if one does change them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from r2subfield import cli  # noqa: E402

from workloads import (  # noqa: E402
    EXPECTED_PATH, REPORT_FIELDS, ROW_FIELDS, SWEEP_ARGV, Reports, sweep_configurations,
)


def run(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def record_sweep() -> dict:
    code, text = run(SWEEP_ARGV)
    if code != 0:
        raise SystemExit(f"sweep exited {code}")
    doc = json.loads(text)
    classes: dict[str, list] = {}
    for row, (_, key) in zip(doc["rows"], sweep_configurations()):
        fields = [row[field] for field in ROW_FIELDS]
        if classes.setdefault(key, fields) != fields:
            raise SystemExit(f"size class {key} has two outcomes")
    return {
        "argv": list(SWEEP_ARGV),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "summary": doc["summary"],
        "classes": classes,
    }


def record_reports(seeds=range(5)) -> dict:
    recorded: dict[str, dict] = {}
    for seed in seeds:
        workload = Reports({"reports_m5": {}}, seed)
        for argv, (_, key, _) in zip(workload.requests, workload.inputs):
            code, text = run(argv)
            report = json.loads(text)
            if code != 0 or report["match"] is not True:
                raise SystemExit(f"{argv} exited {code} with match {report['match']}")
            fields = {field: report[field] for field in REPORT_FIELDS}
            if recorded.setdefault(key, fields) != fields:
                raise SystemExit(f"relabelling changes the report of class {key}")
    return recorded


def main() -> None:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    expected = {"recorded_at": sha, "sweep_m3": record_sweep(), "reports_m5": record_reports()}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(compact_json(expected))
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)} at {sha}")


def compact_json(value) -> str:
    """Indented JSON with every innermost list or object on one line."""
    text = json.dumps(value, indent=1, sort_keys=True)
    # JSON strings hold no raw newline, so only layout whitespace is joined.
    innermost = re.compile(r"([\[{])\n\s*([^\[\]{}]*?)\n\s*([\]}])")
    return innermost.sub(lambda m: m[1] + re.sub(r"\n\s*", " ", m[2]) + m[3], text) + "\n"


if __name__ == "__main__":
    main()
