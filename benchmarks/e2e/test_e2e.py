"""Self-tests of the end-to-end benchmark (about 25 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They check that ``BENCHMARK.json`` is well formed, that the
correctness reference is consistent with Table 3, that a smoke-sized
run of every workload emits exactly the metrics ``BENCHMARK.json``
names, that wrong outputs and missing sources make the run fail, that
``compare.py`` flags a planted slowdown, and that a slowdown planted in
the program's code survives the host-speed scaling.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_benchmark(root: Path, *args: str):
    """Run ``run.py`` from ``root``; returns (exit status, stdout lines)."""
    process = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return process.returncode, process.stdout.strip().splitlines()


def copy_benchmark(target: Path, with_sources: bool) -> None:
    """``BENCHMARK.json`` and the benchmark directory (plus ``src``)."""
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        target / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if with_sources:
        os.symlink(ROOT / "src", target / "src")


def write_runs(path: str, runs: List[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle)


@functools.lru_cache(maxsize=None)
def smoke_runs(trace: int) -> Tuple[int, Tuple[str, ...], Tuple[dict, ...]]:
    """One smoke-sized run of every workload from the repository.

    Returns the exit status, the stdout lines and each workload's
    result, with a traced run's trace events under ``trace_events``;
    shared by the tests that need an unmodified run.
    """
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "runs.json")
        trace_out = os.path.join(scratch, "trace.json")
        status, lines = run_benchmark(
            ROOT, "--size", "smoke", "--seconds", "1",
            "--trace", str(trace), "--out", out, "--trace-out", trace_out,
        )
        runs = []
        if os.path.isfile(out):
            with open(out) as handle:
                runs = json.load(handle)["runs"]
        for run in runs if trace else ():
            path = os.path.join(scratch, "trace.%s.1.json" % run["workload"])
            with open(path) as handle:
                run["trace_events"] = json.load(handle)
    return status, tuple(lines), tuple(runs)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        spec = load_spec()
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(spec["paths"], ["benchmarks/e2e"])
        self.assertLessEqual(len(spec["command"]), 32)
        self.assertTrue(all(not part.startswith("/") for part in spec["command"]))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [entry["name"] for entry in spec["workloads"]]
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"])
        )
        # A full measurement (4 + 22 runs per workload) ends within
        # 3420 s with 10 s a run for interpreter start, set-up, checks
        # and a pass that overruns the run's seconds (the serial sweep's
        # single pass does, by a few seconds; the README records the
        # measured total).
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLessEqual(runs * (spec["run_seconds"] + 10), 3420)
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)


class ExpectedTest(unittest.TestCase):
    def test_machine_rows_sum_to_table3_totals(self):
        with open(HERE / "expected.json") as handle:
            expected = json.load(handle)
        totals = {}
        for row in expected["machines"].values():
            for column, value in row.items():
                totals[column] = totals.get(column, 0) + value
        self.assertEqual(totals, expected["table3_totals"])


class SmokeTest(unittest.TestCase):
    def check_run(self, trace: int) -> None:
        spec = load_spec()
        kind = "per_layer" if trace else "end_to_end"
        wanted = [metric["name"] for metric in spec[kind]]
        status, lines, runs = smoke_runs(trace)
        self.assertEqual(status, 0, "\n".join(lines[-20:]))
        self.assertEqual(
            [run["workload"] for run in runs],
            [workload["name"] for workload in spec["workloads"]],
        )
        for run in runs:
            self.assertTrue(run["correct"], run["mismatches"])
            self.assertEqual(run["failed"], 0)
            self.assertGreaterEqual(run["attempted"], 1)
            self.assertEqual(sorted(run["metrics"]), sorted(wanted), run["workload"])
            for value in run["metrics"].values():
                self.assertIsInstance(value, (int, float))
            if trace:
                from repro.obs.trace import validate_events

                # The self-time rows account for the traced pass's wall,
                # and the written trace is one Perfetto can load.
                self.assertLess(run["metrics"]["trace.unaccounted_pct"], 2.0)
                validate_events(run["trace_events"])
                self.assertIn("workload", {e["name"] for e in run["trace_events"]})
            else:
                for value in run["metrics"].values():
                    self.assertGreater(value, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_every_end_to_end_metric_is_emitted(self):
        self.check_run(trace=0)

    def test_every_per_layer_metric_is_emitted(self):
        self.check_run(trace=1)


class FailureTest(unittest.TestCase):
    def test_planted_wrong_total_fails_the_run(self):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            copy_benchmark(root, with_sources=True)
            path = root / "benchmarks" / "e2e" / "expected.json"
            with open(path) as handle:
                expected = json.load(handle)
            expected["machines"]["tlc"]["osm_bt"] += 1
            with open(path, "w") as handle:
                json.dump(expected, handle)
            status, lines = run_benchmark(
                root, "--workload", "sweep_serial", "--size", "smoke",
                "--seconds", "0.1",
            )
        self.assertNotEqual(status, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any("tlc osm_bt" in line for line in lines))

    def test_missing_sources_fail_without_a_result(self):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            copy_benchmark(root, with_sources=False)
            status, lines = run_benchmark(root, "--workload", "traversal")
        self.assertNotEqual(status, 0)
        self.assertEqual(lines, [])


class CompareTest(unittest.TestCase):
    def runs(self, wall_scale: float) -> List[dict]:
        runs = []
        for index in range(6):
            jitter = 1.0 + 0.01 * ((index * 7) % 5 - 2)
            runs.append(
                {
                    "workload": "sweep_serial",
                    "metrics": {
                        "setup_s": 0.3 * jitter,
                        "wall_s": 30.0 * jitter * wall_scale,
                        "p50_ms": 0.3 * jitter,
                        "peak_rss_mb": 107.0,
                    },
                }
            )
        return runs

    def verdicts(self, scale: float) -> dict:
        with tempfile.TemporaryDirectory() as scratch:
            a = os.path.join(scratch, "a.json")
            b = os.path.join(scratch, "b.json")
            write_runs(a, self.runs(1.0))
            write_runs(b, self.runs(scale))
            rows = compare.compare(a, b)
            status = compare.main([a, b])
        return status, {row["metric"]: row["verdict"] for row in rows}

    def test_flags_a_planted_wall_slowdown(self):
        status, verdicts = self.verdicts(1.2)
        self.assertEqual(verdicts["wall_s"], "regressed")
        self.assertEqual(verdicts["setup_s"], "ok")
        self.assertEqual(status, 1)

    def test_same_code_agrees(self):
        status, verdicts = self.verdicts(1.0)
        self.assertEqual(set(verdicts.values()), {"ok"})
        self.assertEqual(status, 0)


#: Appended to a copy of ``repro/bdd/manager.py``: every node lookup
#: first spins a fixed loop, in whichever process runs the kernel.
BURN = """

_BURN_LOOPS = %d
_unburnt_make_node = Manager.make_node


def _burnt_make_node(self, level, high, low):
    for _ in range(_BURN_LOOPS):
        pass
    return _unburnt_make_node(self, level, high, low)


Manager.make_node = _burnt_make_node
"""
#: Loop steps per node lookup: slows every workload's times 2-5x, far
#: beyond the bounds and the host's noise between two single runs.
BURN_LOOPS = 1000


class ScalingTest(unittest.TestCase):
    """A slowdown in the program's code survives host-speed scaling.

    Scaling multiplies times by a probe that runs in the benchmark's
    main thread; if the program's extra load slowed the probe too, the
    scaling would cancel a real regression.  The planted loop runs in
    the benchmark's process on the serial workloads and in the pool
    workers on the pooled sweep and serving.
    """

    def test_planted_kernel_slowdown_is_flagged(self):
        base_status, _, base_runs = smoke_runs(0)
        self.assertEqual(base_status, 0)
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            copy_benchmark(root, with_sources=False)
            shutil.copytree(
                ROOT / "src", root / "src",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            with open(root / "src" / "repro" / "bdd" / "manager.py", "a") as handle:
                handle.write(BURN % BURN_LOOPS)
            a = os.path.join(scratch, "a.json")
            b = os.path.join(scratch, "b.json")
            status, lines = run_benchmark(
                root, "--size", "smoke", "--seconds", "1", "--out", b
            )
            self.assertEqual(status, 0, "\n".join(lines[-20:]))
            write_runs(a, list(base_runs))
            rows = compare.compare(a, b)
        scaled = [row for row in rows if row["metric"] in ("wall_s", "p50_ms")]
        self.assertEqual(len(scaled), 8)
        for row in scaled:
            with self.subTest(metric=row["metric"], workload=row["workload"]):
                self.assertIsNotNone(row["raw_worse_pct"])
                self.assertEqual(row["verdict"], "regressed", row)


if __name__ == "__main__":
    unittest.main()
