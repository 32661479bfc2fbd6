"""Benchmark of the r2subfield verifier, driven through ``r2subfield.cli.main``.

Usage, from the repository root (the package is imported from ``src``):

    python3 perfbench/run.py --workload sweep_m3 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``), each a closed loop with a single client
that sends one request at a time:

* ``sweep_m3``: ``verify --m 3 --format json``, serial, 4608 configurations;
* ``sweep_m3_jobs2``: the same sweep with ``--jobs 2``, byte-identical output;
* ``reports_m5``: 16 ``code --m 5 --format json`` calls over all nine
  families; the seed relabels L, M and N inside each size class.

A run repeats whole passes over the workload's requests while the next pass
still fits in ``--seconds`` (at least one pass), checks every output, and
reports medians over the passes.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (first
``main()`` call to the last report byte), ``cpu_s`` (user + system time of
the process and its children), ``peak_rss_mib`` (the larger of the process's
and its children's peak RSS) and ``setup_s`` (median over fresh interpreters
of ``import r2subfield.cli`` plus ``build_parser()``).  The three times are
rescaled to a reference machine speed sampled while they are measured
(``speed.py``); the raw wall times and slowdowns of the passes are printed
beside them.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``PER_LAYER``: self times, call and work counts of the
package's functions, timed by wrapping them from outside (``tracer.py``).
The spans are written to ``perfbench/out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the fail rate over configurations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from speed import SpeedSampler  # noqa: E402
from tracer import COUNTED, SPAN, TIMED, Tracer  # noqa: E402
from workloads import WORKLOADS, load_expected, make_workload  # noqa: E402

SETUP_REPEATS = 15
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import r2subfield.cli
r2subfield.cli.build_parser()
print(time.perf_counter() - start)
"""

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Traced names: (module, attribute, trace name, mode, unit count).  The
# attributes are the names that ``cli`` and ``analysis`` look up at call time,
# plus ``algebra.f2_row_basis`` (imported inside ``code_words_from_rows``)
# and ``codegen.char_sum`` (looked up by ``weight_via_charsum``).
HOOKS = (
    ("cli", "run_sweep", "analysis.run_sweep", SPAN, None),
    ("cli", "code_report", "analysis.code_report", SPAN, None),
    ("analysis", "sweep_configuration", "analysis.sweep_configuration", SPAN, None),
    ("analysis", "_instantiate", "analysis.predicted", SPAN, None),
    ("analysis", "exact_minimality", "analysis.minimality", SPAN, lambda a, r: len(a[0])),
    ("analysis", "build_defining_set", "codegen.defining_set", SPAN, None),
    ("analysis", "subfield_defining_set", "codegen.flatten", SPAN, None),
    ("analysis", "subfield_generator_rows", "codegen.rows", SPAN, None),
    ("analysis", "message_weights_from_rows", "codegen.gray_walk", SPAN, lambda a, r: len(r)),
    ("analysis", "summarize_message_weights", "codegen.summarize", SPAN, None),
    ("analysis", "code_words_from_rows", "codegen.codewords", SPAN, lambda a, r: len(r)),
    ("analysis", "f2_gram_is_zero", "algebra.gram", SPAN, None),
    ("analysis", "weight_via_charsum", "codegen.charsum", TIMED, None),
    ("algebra", "f2_row_basis", "algebra.row_basis", SPAN, None),
    ("codegen", "char_sum", "simplicial.char_sum", COUNTED, None),
)

# Per-layer metrics: (name, unit, end-to-end metrics it should move, workloads
# where it does).  ``.s`` is self time per pass; counts are per pass.
PER_LAYER = (
    ("codegen.charsum.s", "s", "wall_s cpu_s", "sweep_m3 sweep_m3_jobs2; zero on reports_m5"),
    ("codegen.charsum.calls", "count", "wall_s cpu_s", "sweep_m3 sweep_m3_jobs2"),
    ("simplicial.char_sum.calls", "count", "wall_s cpu_s", "sweep_m3 sweep_m3_jobs2"),
    ("codegen.defining_set.s", "s", "wall_s peak_rss_mib", "reports_m5; part of sweep_m3"),
    ("codegen.flatten.s", "s", "wall_s peak_rss_mib", "reports_m5; part of sweep_m3"),
    ("codegen.rows.s", "s", "wall_s peak_rss_mib", "reports_m5; part of sweep_m3"),
    ("codegen.gray_walk.s", "s", "wall_s", "reports_m5"),
    ("codegen.gray_walk.messages", "count", "wall_s", "reports_m5"),
    ("codegen.summarize.s", "s", "wall_s", "reports_m5"),
    ("codegen.codewords.s", "s", "wall_s peak_rss_mib", "reports_m5 (k = 13, 14)"),
    ("codegen.codewords.words", "count", "wall_s peak_rss_mib", "reports_m5 (k = 13, 14)"),
    ("algebra.row_basis.s", "s", "wall_s peak_rss_mib", "reports_m5 (k = 13, 14)"),
    ("analysis.minimality.s", "s", "wall_s", "reports_m5; small in sweep_m3"),
    ("analysis.minimality.calls", "count", "wall_s", "reports_m5; sweep_m3"),
    ("analysis.minimality.words", "count", "wall_s", "reports_m5; sweep_m3"),
    ("analysis.predicted.s", "s", "wall_s", "small everywhere"),
    ("algebra.gram.s", "s", "wall_s", "small everywhere"),
    ("analysis.sweep_configuration.s", "s", "wall_s", "sweep_m3"),
    ("analysis.sweep_configuration.calls", "count", "wall_s", "sweep_m3"),
    ("analysis.sweep_configuration.p50_ms", "ms", "wall_s", "sweep_m3"),
    ("analysis.sweep_configuration.p99_ms", "ms", "wall_s", "sweep_m3"),
    ("analysis.code_report.s", "s", "wall_s", "reports_m5"),
    ("analysis.code_report.calls", "count", "wall_s", "reports_m5"),
    ("analysis.code_report.p50_ms", "ms", "wall_s", "reports_m5"),
    ("analysis.code_report.max_ms", "ms", "wall_s", "reports_m5"),
    ("analysis.run_sweep.s", "s", "wall_s cpu_s", "sweep_m3_jobs2 (pool wall time)"),
    ("cli.self.s", "s", "wall_s", "sweep_m3 sweep_m3_jobs2"),
    ("cli.out_bytes", "bytes", "wall_s", "sweep_m3 sweep_m3_jobs2"),
    ("trace.overhead_s", "s", "", "every workload"),
)


def measure_setup(sampler: SpeedSampler, repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of importing the CLI and building its parser.

    The median is rescaled by the machine speed sampled while the imports
    run.  One extra interpreter runs first, untimed, so that every timed
    import finds the bytecode cache written.
    """
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                   cwd=ROOT, capture_output=True, timeout=120, check=True)
    times = []
    sampler.start()
    try:
        for _ in range(repeats):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(float(done.stdout))
    finally:
        reading = sampler.stop()
    return statistics.median(times) / reading.slowdown


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


class Run:
    """Passes over one workload, with their failure tally."""

    def __init__(self, workload, cli, seconds: float) -> None:
        self.workload = workload
        self.cli = cli
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0

    def send(self, main) -> tuple[list, float, float]:
        """Send every request once; return the (exit code, output) pairs, wall s and CPU s."""
        results = []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for argv in self.workload.requests:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            results.append((code, buffer.getvalue()))
        wall = time.perf_counter() - start
        return results, wall, cpu_seconds() - cpu0

    def check(self, results) -> None:
        self.attempted += self.workload.attempted
        self.failed += self.workload.check(results)
        self.out_bytes = sum(len(text.encode()) for _, text in results)

    def repeat(self, step) -> list:
        """Call ``step`` while another call is predicted to fit in the run; at least once."""
        start = time.perf_counter()
        samples, lengths = [], []
        while True:
            began = time.perf_counter()
            samples.append(step())
            lengths.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(lengths) > self.seconds:
                return samples

    def end_to_end(self) -> tuple[dict, list[float], list[float]]:
        """End-to-end metrics, plus the raw wall time and slowdown of each pass."""
        sampler = SpeedSampler()
        setup = measure_setup(sampler)

        def timed_pass():
            sampler.start()
            try:
                results, wall, cpu = self.send(self.cli.main)
            finally:
                reading = sampler.stop()
            self.check(results)
            wall -= reading.own_wall_s
            cpu -= reading.cpu_s
            return wall / reading.slowdown, cpu / reading.slowdown, wall, reading.slowdown

        passes = self.repeat(timed_pass)
        metrics = {
            "wall_s": statistics.median(p[0] for p in passes),
            "cpu_s": statistics.median(p[1] for p in passes),
            "setup_s": setup,
            "peak_rss_mib": peak_rss_mib(),
        }
        return metrics, [p[2] for p in passes], [p[3] for p in passes]

    def traced(self, modules: dict, trace_path: Path) -> tuple[dict, list[str]]:
        tracer = Tracer(["cli.self"] + [hook[2] for hook in HOOKS])
        main = tracer.root("cli.self", self.cli.main)

        def pair():
            results, plain, _ = self.send(self.cli.main)
            self.check(results)
            for module, attr, name, mode, unit in HOOKS:
                tracer.install(modules[module], attr, name, mode, unit)
            first_span = len(tracer.spans)
            try:
                results, traced, _ = self.send(main)
            finally:
                tracer.uninstall()
            self.check(results)
            return plain, traced, tracer.take(), tracer.spans[first_span:]

        pairs = self.repeat(pair)
        per_pass = [layer_metrics(taken, spans) for _, _, taken, spans in pairs]
        overhead = (statistics.median(traced for _, traced, _, _ in pairs)
                    - statistics.median(plain for plain, _, _, _ in pairs))
        metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["cli.out_bytes"] = self.out_bytes
        metrics["trace.overhead_s"] = overhead
        write_spans(trace_path, tracer)
        return metrics, tracer.absent


def layer_metrics(taken, spans) -> dict:
    """The per-layer metrics of one traced pass, but for the last two of PER_LAYER.

    A metric ``<trace name>.<kind>`` reads the trace name's self time (``s``),
    calls, unit count (``messages``, ``words``) or span latencies (``_ms``).
    """
    self_ns, calls, units = taken
    metrics = {}
    for name, *_ in PER_LAYER[:-2]:
        traced, _, kind = name.rpartition(".")
        if kind == "s":
            metrics[name] = self_ns[traced] / 1e9
        elif kind == "calls":
            metrics[name] = calls[traced]
        elif kind in ("messages", "words"):
            metrics[name] = units[traced]
        else:
            latencies = sorted((end - start) / 1e6 for _, _, _, span_name, start, end in spans
                               if span_name == traced)
            metrics[name] = latency(latencies, kind)
    return metrics


def latency(values: list[float], kind: str) -> float:
    """The ``p50_ms``, ``p99_ms`` or ``max_ms`` of sorted latencies.

    0 when there are none, or, for p99, too few to have ten beyond it.
    """
    if not values or (kind == "p99_ms" and len(values) < 1000):
        return 0
    if kind == "max_ms":
        return values[-1]
    if kind == "p50_ms":
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[98]


def write_spans(path: Path, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
            "spans": tracer.spans,
        }, handle)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "r2subfield" / "cli.py").is_file():
        print(f"error: no r2subfield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from r2subfield import algebra, analysis, cli, codegen

    workload = make_workload(args.workload, args.seed, load_expected())
    run = Run(workload, cli, args.seconds)
    print(f"machine: cpu_count={os.cpu_count()} python={platform.python_version()} "
          f"start_method={multiprocessing.get_start_method()}")
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(workload.requests)} request(s) and {workload.attempted} configurations per pass")
    if args.trace:
        modules = {"cli": cli, "analysis": analysis, "codegen": codegen, "algebra": algebra}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, absent = run.traced(modules, trace_path)
        units = {name: unit for name, unit, *_ in PER_LAYER}
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        if absent:
            print("absent (reported as 0): " + " ".join(absent))
    else:
        metrics, raw_walls, slowdowns = run.end_to_end()
        units = dict(END_TO_END)
        print(f"passes {len(raw_walls)}: raw wall s {' '.join(f'{w:.3f}' for w in raw_walls)}; "
              f"slowdown {' '.join(f'{s:.3f}' for s in slowdowns)}")
    print(f"fail_rate {run.failed / run.attempted} ratio ({run.failed} of {run.attempted} "
          "configurations failed)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
