"""Command-line interface.

Four commands:

* ``code``    -- build one configuration, compare measured against predicted,
                 print the full report.
* ``verify``  -- sweep every (family, L, M, N) configuration for the given m
                 values and compare brute force against the predicted tables.
* ``scan``    -- recompute a manifest of expected [n, k, d] rows (the bundled
                 manifest lists the distance-optimal reference codes).
* ``tables``  -- instantiate a family's predicted weight table from the three
                 subset cardinalities alone.

Global flags on every command: ``--format json|csv|md`` and ``--out PATH``;
``verify`` also accepts ``--jobs N`` (N >= 1), which changes nothing: a
sweep runs its tasks in turn, in one process.  Subsets are written as
comma-separated 1-based indices, or ``-`` for the empty set.  Exit codes: 0
all checks pass, 1 at least one mismatch, 2 invalid input or degenerate
configuration.

Each command turns what :mod:`~r2subfield.analysis` returns into text
pieces in the chosen format, and one renderer (:func:`_render`) writes each
piece to stdout or ``--out`` as it comes.  ``code``, ``scan`` and ``tables``
render one dict: JSON is ``json.dumps(payload, indent=2)`` plus a newline,
and the CSV columns follow the key order of the dict.  ``verify`` streams:
it writes the rows of each (family, m) task as soon as the task finishes,
then the summary, so its memory follows one task, not the sweep.  A task
holds its labels, each distinct row body once and one body number per row,
and each format encodes each label and body once per task.  The JSON is
the same bytes as ``json.dumps(indent=2)`` of ``{"rows", "summary"}``, made
by :func:`_verify_json` with the C encoder that ``indent`` would bypass.
The input is checked, and ``--out`` opened, before the first task runs; a
program fault in the middle of a sweep leaves a truncated document.  The
argument parser is built once per process, on the first call of
:func:`main`, and reused: parsing reads the parser and never changes it, so
a call sees the same parser whatever calls, failed or not, came before it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from functools import cache
from itertools import chain, product, repeat

from .analysis import (
    FAMILIES,
    SWEEP_ROW_FIELDS,
    _check_family,
    _check_m,
    code_report,
    family_of_spec,
    predicted_parameters,
    predicted_weight_table,
    sweep_tasks,
)
from .codegen import CodeSummary, DefiningSetSpec
from .simplicial import ComplexSpec, Subset

__all__ = ["BUNDLED_MANIFEST", "TABLES_M_CAP", "main"]

# Largest m accepted by `tables`.  The tables are closed form, so this sits
# far above the enumeration cap; it only keeps the 3m-bit table entries (and
# their decimal output) small enough that bad input cannot exhaust memory.
TABLES_M_CAP = 256

# One manifest row: (family, m, L, M, N, n, k, d)
_ManifestRow = tuple[int, int, str, str, str, int, int, int]

# Expected parameters of the distance-optimal reference codes, one row per
# (family, m, L, M, N, n, k, d).  `scan` recomputes every row from scratch.
BUNDLED_MANIFEST: tuple[_ManifestRow, ...] = (
    (2, 3, "1", "1,2", "1,2,3", 192, 8, 96),
    (2, 4, "1", "-", "2,3,4", 112, 7, 56),
    (2, 5, "2", "1", "3,5", 240, 8, 120),
    (5, 2, "-", "-", "1,2", 36, 6, 16),
    (5, 2, "-", "1", "-", 6, 4, 2),
    (5, 3, "-", "-", "1,3", 196, 8, 96),
    (5, 3, "-", "3", "-", 42, 6, 20),
    (5, 3, "-", "2", "1", 84, 7, 40),
    (5, 3, "-", "1,3", "-", 28, 6, 12),
    (5, 3, "2", "-", "-", 42, 6, 20),
    (5, 3, "1", "-", "1", 84, 7, 40),
    (5, 3, "3", "2", "-", 36, 6, 16),
    (5, 4, "-", "-", "-", 225, 8, 112),
    (5, 4, "-", "1", "-", 210, 8, 104),
    (5, 4, "-", "2,4", "-", 180, 8, 88),
    (5, 4, "1", "-", "-", 210, 8, 104),
    (5, 4, "3", "4", "-", 196, 8, 96),
    (5, 4, "2,3", "-", "-", 180, 8, 88),
    (9, 2, "1,2", "1,2", "-", 48, 6, 24),
    (9, 3, "1,2", "1,2,3", "1,2,3", 256, 9, 128),
    (9, 3, "1,2,3", "2,3", "1,2,3", 256, 9, 128),
)

MANIFEST_HEADER = ["family", "m", "L", "M", "N", "n", "k", "d"]


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):  # a weight distribution
        return ";".join(f"{e['w']}:{e['count']}" for e in value)
    return str(value)


def _csv_text(rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [_fmt_value(cell) for cell in row] for row in rows
    )
    return buffer.getvalue()


def _report_pieces(fmt: str, payload, csv_table, md_text) -> Iterable[str]:
    """The text of one report ``payload`` in ``fmt``.

    ``csv_table(payload)`` returns the CSV header and rows and
    ``md_text(payload)`` the markdown; only the one asked for is called.
    """
    if fmt == "json":
        return [json.dumps(payload, indent=2) + "\n"]
    if fmt == "csv":
        header, rows = csv_table(payload)
        return [_csv_text([header, *rows])]
    return [md_text(payload)]


def _render(args, pieces: Iterable[str]) -> None:
    """Write each text piece, as it comes, to stdout, or to ``args.out`` if given.

    ``args.out`` is opened before the first piece is asked for, so a path
    that cannot be written fails before the work of any piece starts.
    """
    if args.out:
        output = open(args.out, "w", encoding="utf-8", newline="")
    else:
        output = nullcontext(sys.stdout)
    with output as handle:
        handle.writelines(pieces)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated value in {what} list {text!r}")
    return values


def _family_from_args(args) -> int:
    explicit = args.D1 or args.D2 or args.D3 or args.global_complement
    if args.family is not None and explicit:
        raise ValueError("give either --family or explicit --D1/--D2/--D3 flags, not both")
    if args.family is not None:
        _check_family(args.family)
        return args.family
    if not explicit:
        raise ValueError("one of --family or --D1/--D2/--D3/--global-complement is required")
    empty = Subset(args.m, frozenset())
    flags = (args.D1, args.D2, args.D3)
    parts = (ComplexSpec(empty, (flag or "delta") == "deltac") for flag in flags)
    return family_of_spec(DefiningSetSpec(args.m, *parts, args.global_complement))


# ---------------------------------------------------------------- code


def _code_md(report: dict) -> str:
    predicted = report["predicted"]
    lines = [
        "# code report",
        "",
        f"configuration: m={report['m']} family={report['family']} "
        f"L={report['L']} M={report['M']} N={report['N']}",
        "",
        f"measured  [n,k,d] = [{report['n']},{report['k']},{report['d']}]",
        f"predicted [n,k,d] = [{predicted['n']},{predicted['k']},{predicted['d']}]",
        f"match: {_fmt_value(report['match'])}",
        "",
        "| weight | count | predicted |",
        "|---:|---:|---:|",
    ]
    measured = {e["w"]: e["count"] for e in report["weights"]}
    expected = {e["w"]: e["count"] for e in predicted["weights"]}
    for w in sorted(set(measured) | set(expected)):
        lines.append(f"| {w} | {measured.get(w, 0)} | {expected.get(w, 0)} |")
    lines.extend(["", "| flag | value |", "|---|---|"])
    for flag, value in report["flags"].items():
        lines.append(f"| {flag} | {_fmt_value(value)} |")
    lines.append("")
    return "\n".join(lines)


def _code_csv(report: dict):
    """One row in the report's key order: ``predicted_*`` columns, then the flags by name."""
    cells = {}
    for key, value in report.items():
        if key == "predicted":
            cells.update((f"predicted_{name}", item) for name, item in value.items())
        elif key == "flags":
            cells.update(value)
        else:
            cells[key] = value
    return list(cells), [list(cells.values())]


def cmd_code(args) -> int:
    _check_m(args.m)
    family = _family_from_args(args)
    lset = Subset.parse(args.m, args.L)
    mset = Subset.parse(args.m, args.M)
    nset = Subset.parse(args.m, args.N)
    report = code_report(family, lset, mset, nset)
    _render(args, _report_pieces(args.format, report, _code_csv, _code_md))
    return 0 if report["match"] else 1


# ---------------------------------------------------------------- verify


def _task_text(heads: list, nparts: list, texts: list, index: list, separator: str) -> str:
    """The rows of one sweep task, joined by ``separator``.

    Row L << 2m | M << m | N is the text of its (L, M) in ``heads``, of its
    N in ``nparts`` and of its body, ``texts[index[row]]``: one C-level join
    per row, and no Python frame.
    """
    return separator.join(map("".join, zip(
        chain.from_iterable(map(repeat, heads, repeat(len(nparts)))),
        nparts * len(heads),
        map(texts.__getitem__, index),
    )))


# What the C encoder of _verify_json writes between two bodies of a task's list
_BODY_BREAK = "},\n      {"


def _verify_json(tasks: Iterable[tuple], summary) -> Iterator[str]:
    """The text of ``json.dumps(sweep, indent=2)`` plus a newline, one piece per task.

    ``sweep`` is ``{"rows": [every row of every task], "summary":
    summary()}``, the rows as :func:`~r2subfield.analysis.run_sweep` builds
    them, and ``summary`` is called after the last task.  ``json.dumps``
    runs its pure-Python encoder whenever ``indent`` is set.  A sweep has at
    least one row, and a row holds the fields of
    :data:`~r2subfield.analysis.SWEEP_ROW_FIELDS` in order, each a str,
    int, bool or None, at depth 3 of the payload.  So the C encoder, with a
    newline and six spaces after each field's comma, writes them exactly as
    ``indent=2`` does; only the row's braces go on lines of their own.  A
    task (:func:`~r2subfield.analysis.sweep_tasks`) holds each distinct row
    body (the fields after ``N``) and each label once, so each label is
    encoded once, into the 4^m heads (``m`` to the ``N`` key) and the 2^m N
    labels, and the bodies of a task in one call of the C encoder on their
    list, which puts :data:`_BODY_BREAK` between two bodies.  Splitting on
    it gives each body's text: an encoded string holds no raw newline (it
    writes ``\\n``), and a body holds no nested object, so inside a body the
    separator is always followed by a key's quote, never by ``{``.  Each
    text, with the row's closing brace, is what :func:`_task_text` joins.
    The summary is small and nested, and keeps ``json.dumps``, indented one
    level deeper.
    """
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    yield '{\n  "rows": [\n'
    separator = ""
    for family, m, labels, bodies, index in tasks:
        encoded = [encode(label) for label in labels]
        heads = [
            f'    {{\n      "m": {m},\n      "family": {family},\n      "L": {lset},\n'
            f'      "M": {mset},\n      "N": ' for lset, mset in product(encoded, repeat=2)
        ]
        nparts = [f"{nset},\n      " for nset in encoded]
        texts = [f"{text}\n    }}" for text in encode(bodies)[2:-2].split(_BODY_BREAK)]
        yield separator + _task_text(heads, nparts, texts, index, ",\n")
        separator = ",\n"
    text = json.dumps(summary(), indent=2).replace("\n", "\n  ")
    yield f'\n  ],\n  "summary": {text}\n}}\n'


def _verify_csv(tasks: Iterable[tuple], summary) -> Iterator[str]:
    """The header, then one CSV row per sweep row, one piece per task; no summary."""
    yield _csv_text([SWEEP_ROW_FIELDS])
    for family, m, labels, bodies, index in tasks:
        cells = [_csv_text([[label, None]])[:-2] for label in labels]  # quoted as in a row
        heads = [f"{m},{family},{lset},{mset}," for lset, mset in product(cells, repeat=2)]
        nparts = [f"{nset}," for nset in cells]
        texts = [_csv_text([body.values()]) for body in bodies]
        yield _task_text(heads, nparts, texts, index, "")


def _verify_md(tasks: Iterable[tuple], summary) -> Iterator[str]:
    """One line per sweep row, one piece per task, then the summary, findings and verdict."""
    yield "# verification sweep\n\n"
    for family, m, labels, bodies, index in tasks:
        heads = [
            f"m={m} family={family} L={lset} M={mset} N=" for lset, mset in product(labels, repeat=2)
        ]
        nparts = [f"{nset} status=" for nset in labels]
        texts = [
            f"{b['status']} [n,k,d]=[{b['n']},{b['k']},{b['d']}]\n" if b["status"] == "ok"
            else f"{b['status']} {b['detail']}\n" if b["status"] == "mismatch"
            else f"{b['status']}\n"
            for b in bodies
        ]
        yield _task_text(heads, nparts, texts, index, "")
    summary = summary()
    lines = ["", "## summary", ""]
    for key, value in summary.items():
        if key not in ("findings", "passed"):
            lines.append(f"{key}: {value}")
    if summary["findings"]:
        lines.extend(["", "## family-8 findings", ""])
        for finding in summary["findings"]:
            lines.append(
                f"m={finding['m']} L={finding['L']} M={finding['M']} "
                f"N={finding['N']}: {finding['detail']}"
            )
    lines.extend(["", f"verdict: {'PASS' if summary['passed'] else 'FAIL'}", ""])
    yield "\n".join(lines)


_VERIFY_PIECES = {"json": _verify_json, "csv": _verify_csv, "md": _verify_md}


def cmd_verify(args) -> int:
    ms = _parse_int_list(args.m, "m")
    for m in ms:
        _check_m(m)
    families = FAMILIES if args.families is None else _parse_int_list(args.families, "family")
    tasks = sweep_tasks(ms, families)
    _render(args, _VERIFY_PIECES[args.format](tasks, tasks.summary))
    return 0 if tasks.summary()["passed"] else 1


# ---------------------------------------------------------------- scan


def _load_manifest(path: str | None) -> list[tuple[int, _ManifestRow]]:
    """The manifest's rows, each with its line number.

    The bundled rows are numbered as the lines they would have in a file,
    under the header.
    """
    if path is None:
        return list(enumerate(BUNDLED_MANIFEST, 2))
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = []
        try:
            if reader.fieldnames != MANIFEST_HEADER:
                raise ValueError(
                    f"manifest header must be {','.join(MANIFEST_HEADER)}, "
                    f"got {reader.fieldnames}"
                )
            for record in reader:
                # DictReader files a long row's extra fields under None and fills
                # a short row's missing fields with None.
                if None in record or None in record.values():
                    raise ValueError(
                        f"manifest line {reader.line_num} must have "
                        f"{len(MANIFEST_HEADER)} fields"
                    )
                try:
                    family, m, n, k, d = (
                        int(record[key]) for key in ("family", "m", "n", "k", "d")
                    )
                except ValueError as exc:
                    raise ValueError(f"manifest line {reader.line_num}: {exc}") from None
                row = (family, m, record["L"], record["M"], record["N"], n, k, d)
                rows.append((reader.line_num, row))
        except csv.Error as exc:
            # DictReader copies line_num only once a row parses; its reader counts every line
            raise ValueError(f"manifest line {reader.reader.line_num}: {exc}") from None
    return rows


# The keys of a scan result, in the order of its JSON object and CSV columns;
# the CSV spreads the two [n, k, d] triples into _n, _k and _d columns.
_SCAN_FIELDS = (
    "family", "m", "L", "M", "N", "expected", "computed", "nonzero_weights",
    "optimal", "match", "result",
)
_SCAN_TRIPLES = ("expected", "computed")


def _scan_result(row: _ManifestRow) -> dict:
    family, m, l_text, m_text, n_text, n, k, d = row
    _check_m(m)
    report = code_report(
        family,
        Subset.parse(m, l_text),
        Subset.parse(m, m_text),
        Subset.parse(m, n_text),
    )
    computed = (report["n"], report["k"], report["d"])
    flags = report["flags"]
    if flags["griesmer_equal"]:
        optimal = "yes (Griesmer)"
    elif flags["distance_optimal_by_griesmer"]:
        optimal = "yes"
    else:
        optimal = "unknown"
    result = dict.fromkeys(_SCAN_FIELDS)
    result.update(
        family=family,
        m=m,
        L=l_text,
        M=m_text,
        N=n_text,
        expected=[n, k, d],
        computed=list(computed),
        nonzero_weights=sum(e["w"] > 0 for e in report["weights"]),
        optimal=optimal,
        match=report["match"],
        result="PASS" if computed == (n, k, d) else "FAIL",
    )
    return result


def _scan_md(results: Sequence[dict]) -> str:
    lines = [
        "# distance-optimal code scan",
        "",
        "| family | m | L | M | N | expected [n,k,d] | computed [n,k,d] | weights | optimal | result |",
        "|---:|---:|---|---|---|---|---|---:|---|---|",
    ]
    for r in results:
        expected = ",".join(str(x) for x in r["expected"])
        computed = ",".join(str(x) for x in r["computed"])
        lines.append(
            f"| {r['family']} | {r['m']} | {r['L']} | {r['M']} | {r['N']} "
            f"| [{expected}] | [{computed}] | {r['nonzero_weights']} "
            f"| {r['optimal']} | {r['result']} |"
        )
    failures = sum(r["result"] == "FAIL" for r in results)
    lines.extend(["", f"{len(results)} rows, {failures} failures", ""])
    return "\n".join(lines)


def _scan_csv(results: Sequence[dict]):
    header = [
        name
        for key in _SCAN_FIELDS
        for name in ([f"{key}_{x}" for x in "nkd"] if key in _SCAN_TRIPLES else [key])
    ]
    rows = [
        [cell for key in _SCAN_FIELDS for cell in (r[key] if key in _SCAN_TRIPLES else [r[key]])]
        for r in results
    ]
    return header, rows


def cmd_scan(args) -> int:
    results = []
    for line, row in _load_manifest(args.manifest):
        try:
            results.append(_scan_result(row))
        except ValueError as exc:
            raise ValueError(f"manifest line {line}: {exc}") from None
    _render(args, _report_pieces(args.format, results, _scan_csv, _scan_md))
    return 0 if all(r["result"] == "PASS" for r in results) else 1


# ---------------------------------------------------------------- tables


def _tables_csv(payload: dict):
    return ["w", "count"], [[e["w"], e["count"]] for e in payload["weights"]]


def _tables_md(payload: dict) -> str:
    sizes = payload["sizes"]
    lines = [
        f"# predicted weight table: family {payload['family']}, m={payload['m']}, "
        f"|L|={sizes['L']} |M|={sizes['M']} |N|={sizes['N']}",
        "",
        f"[n,k,d] = [{payload['n']},{payload['k']},{payload['d']}]",
        "",
        "| weight | codewords |",
        "|---:|---:|",
    ]
    lines.extend(f"| {e['w']} | {e['count']} |" for e in payload["weights"])
    lines.append("")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    _check_family(args.family)
    if args.m > TABLES_M_CAP:
        raise ValueError(f"tables are capped at m <= {TABLES_M_CAP}, got m = {args.m}")
    key = (args.family, args.m, args.sL, args.sM, args.sN)
    payload = {
        "family": args.family,
        "m": args.m,
        "sizes": {"L": args.sL, "M": args.sM, "N": args.sN},
        **CodeSummary(*predicted_parameters(*key), predicted_weight_table(*key)).as_dict(),
    }
    _render(args, _report_pieces(args.format, payload, _tables_csv, _tables_md))
    return 0


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="r2subfield",
        description="Binary subfield codes with simplicial-complex defining sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "md"), default="md")
        p.add_argument("--out", default=None, help="write output to this path")

    p_code = sub.add_parser("code", help="report on a single configuration")
    p_code.add_argument("--m", type=int, required=True)
    p_code.add_argument("--family", type=int, default=None)
    p_code.add_argument("--D1", choices=("delta", "deltac"), default=None)
    p_code.add_argument("--D2", choices=("delta", "deltac"), default=None)
    p_code.add_argument("--D3", choices=("delta", "deltac"), default=None)
    p_code.add_argument("--global-complement", action="store_true")
    p_code.add_argument("--L", required=True, help="subset, e.g. '1,3' or '-'")
    p_code.add_argument("--M", required=True)
    p_code.add_argument("--N", required=True)
    add_common(p_code)
    p_code.set_defaults(func=cmd_code)

    p_verify = sub.add_parser("verify", help="sweep all configurations for given m")
    p_verify.add_argument("--m", required=True, help="m value or comma list, e.g. '2' or '2,3'")
    p_verify.add_argument("--families", default=None, help="comma list, default all")
    p_verify.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted and ignored: the sweep runs in one process",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="recompute a manifest of expected codes")
    p_scan.add_argument("--manifest", default=None, help="CSV path; bundled manifest if omitted")
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_tables = sub.add_parser("tables", help="instantiate a predicted weight table")
    p_tables.add_argument("--family", type=int, required=True)
    p_tables.add_argument("--m", type=int, required=True)
    p_tables.add_argument("--sL", type=int, required=True, help="|L|")
    p_tables.add_argument("--sM", type=int, required=True, help="|M|")
    p_tables.add_argument("--sN", type=int, required=True, help="|N|")
    add_common(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # DegenerateConfigurationError subclasses ValueError: both are
        # invalid-input conditions under the exit-code contract.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
