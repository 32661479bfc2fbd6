"""Self-test of the benchmark: wrong output must count as failed.

Usage, from the repository root (about 20 s; it runs the m = 3 sweep and
the m = 5 reports once each):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import multiprocessing
import sys
import time
import types
import unittest
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from r2subfield import analysis, cli  # noqa: E402

import run  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402
from workloads import SWEEP_ARGV, SWEEP_TOTAL, Reports, Sweep, load_expected  # noqa: E402

EXPECTED = load_expected()


def call(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class SweepCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.code, cls.text = call(SWEEP_ARGV)

    def failed(self, code, text, expected=EXPECTED) -> int:
        return Sweep(expected).check([(code, text)])

    def test_recorded_output_passes(self):
        self.assertEqual(self.failed(self.code, self.text), 0)

    def test_corrupted_digest_fails_every_configuration(self):
        expected = copy.deepcopy(EXPECTED)
        expected["sweep_m3"]["sha256"] = "0" * 64
        self.assertEqual(self.failed(self.code, self.text, expected), SWEEP_TOTAL)

    def test_forced_mismatch_fails_its_row(self):
        wrong = self.text.replace('"status": "ok"', '"status": "mismatch"', 1)
        self.assertEqual(self.failed(1, wrong), 1)

    def test_wrong_row_value_fails_its_row(self):
        wrong = self.text.replace('"n": 8,', '"n": 9,', 1)
        self.assertNotEqual(wrong, self.text)
        self.assertEqual(self.failed(self.code, wrong), 1)

    def test_bad_exit_or_output_fails_every_configuration(self):
        self.assertEqual(self.failed(1, self.text), SWEEP_TOTAL)
        self.assertEqual(self.failed(2, ""), SWEEP_TOTAL)

    def test_failures_raise_the_fail_rate(self):
        expected = copy.deepcopy(EXPECTED)
        expected["sweep_m3"]["sha256"] = "0" * 64
        bench = run.Run(Sweep(expected), cli, seconds=1)
        bench.check([(self.code, self.text)])
        bench.check([(self.code, self.text)])
        self.assertEqual((bench.failed, bench.attempted), (2 * SWEEP_TOTAL, 2 * SWEEP_TOTAL))


class ReportsCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.workload = Reports(EXPECTED, seed=11)
        cls.results = [call(argv) for argv in cls.workload.requests]

    def test_recorded_output_passes(self):
        self.assertEqual(self.workload.check(self.results), 0)

    def test_seed_relabels_inputs(self):
        other = Reports(EXPECTED, seed=12)
        self.assertNotEqual(other.requests, self.workload.requests)
        self.assertEqual(Reports(EXPECTED, seed=11).requests, self.workload.requests)

    def test_forced_program_mismatch_fails_the_report(self):
        original = analysis._instantiate

        def wrong_prediction(*args):
            n, k, table = original(*args)
            return n + 1, k, table

        analysis._instantiate = wrong_prediction
        try:
            first = call(self.workload.requests[0])
        finally:
            analysis._instantiate = original
        self.assertEqual(first[0], 1)
        self.assertEqual(self.workload.check([first] + self.results[1:]), 1)

    def test_corrupted_expectation_fails_the_report(self):
        expected = copy.deepcopy(EXPECTED)
        key = next(iter(expected["reports_m5"]))
        expected["reports_m5"][key]["d"] += 1
        workload = Reports(expected, seed=11)
        self.assertEqual(workload.check(self.results), 1)

    def test_missing_report_fails(self):
        self.assertEqual(self.workload.check(self.results[:-1]), 1)


class TracerTest(unittest.TestCase):
    def test_absent_name_is_reported_not_raised(self):
        module = types.ModuleType("fake")
        tracer = Tracer(["fake.gone"])
        tracer.install(module, "gone", "fake.gone")
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["fake.gone"])

    def test_self_times_sum_to_the_root_span(self):
        module = types.ModuleType("fake")
        module.leaf = lambda x: sum(range(x))
        module.inner = lambda x: module.leaf(x) + module.leaf(x)
        tracer = Tracer(["inner", "leaf"])
        tracer.install(module, "leaf", "leaf")
        tracer.install(module, "inner", "inner")
        root = tracer.root("root", lambda x: module.inner(x) + module.leaf(x))
        root(10_000)
        tracer.uninstall()
        self_ns, calls, _ = tracer.take()
        self.assertEqual((calls["leaf"], calls["inner"], calls["root"]), (3, 1, 1))
        _, _, _, _, start, end = tracer.spans[-1]
        self.assertEqual(sum(self_ns.values()), end - start)

    def test_unaccounted_time_is_an_error(self):
        tracer = Tracer(["root"])

        def leaky(x):
            tracer.self_ns["phantom"] += 1
            return x

        with self.assertRaises(TraceError):
            tracer.root("root", leaky)(1)


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpeedSamplerTest(unittest.TestCase):
    def test_forked_workers_send_their_samples(self):
        sampler = SpeedSampler()
        sampler.start()
        try:
            with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
                list(pool.map(spin, [1.0, 1.0]))
        finally:
            reading = sampler.stop()
        # About 5 samples per process and second; the parent alone gives about 5.
        self.assertGreaterEqual(reading.samples, 12)
        self.assertGreater(reading.slowdown, 0)


class DefinitionTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, *_ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
