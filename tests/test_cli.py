"""Tests for the command-line interface."""

import json
import multiprocessing
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.registry import register_heuristic, unregister_heuristic

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="serve's worker pool requires the fork start method",
)


class TestMinimize:
    def test_leaf_instance(self, capsys):
        assert main(["minimize", "d1 01"]) == 0
        out = capsys.readouterr().out
        assert "osm_bt" in out
        assert "|g| = 2" in out

    def test_all_heuristics(self, capsys):
        assert main(["minimize", "d1 01", "--all"]) == 0
        out = capsys.readouterr().out
        assert "constrain" in out and "opt_lv" in out

    def test_expression_mode(self, capsys):
        code = main(
            [
                "minimize",
                "(a & b) | c",
                "--expression",
                "--care",
                "a | b",
                "--method",
                "restrict",
            ]
        )
        assert code == 0
        assert "restrict" in capsys.readouterr().out

    def test_expression_requires_care(self, capsys):
        assert main(["minimize", "a & b", "--expression"]) == 2

    def test_bad_leaf_string(self):
        with pytest.raises(ValueError):
            main(["minimize", "d1 0"])


class TestEquivalence:
    def test_self_check(self, capsys):
        assert main(["equivalence", "tlc"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_two_machines_differ(self, capsys):
        # Same input interface ('en'), different output behaviour.
        assert main(["equivalence", "count4", "gray4"]) == 1
        out = capsys.readouterr().out
        assert "NOT EQUIVALENT" in out
        assert "counterexample" in out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["equivalence", "nope"])


class TestBlif:
    def test_inspect_and_reachable(self, tmp_path, capsys):
        path = tmp_path / "toggle.blif"
        path.write_text(
            ".model toggle\n.inputs en\n.outputs out\n"
            ".latch q_next q 0\n"
            ".names en q q_next\n10 1\n01 1\n"
            ".names q out\n1 1\n.end\n"
        )
        assert main(["blif", str(path), "--reachable"]) == 0
        out = capsys.readouterr().out
        assert "1 latches" in out
        assert "reachable states: 2 of 2" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "--quick", "--csv", "out.csv"]
        )
        assert args.quick and args.csv == "out.csv"


class TestServeCommands:
    def test_minimize_isolate(self, capsys):
        code = main(
            ["minimize", "d1 01", "--isolate", "--deadline", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "osm_bt" in out
        assert "|g| = 2" in out

    def test_serve_json_lines(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"instance": "d1 01", "method": "osm_bt"}\n'
            '{"f": "a & b | c", "care": "a | b"}\n'
            "not json\n"
            '{"instance": "d1 01", "method": "no_such"}\n'
        )
        code = main(
            [
                "serve",
                "--workers",
                "1",
                "--deadline",
                "10",
                "--input",
                str(requests),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        import json

        lines = [
            json.loads(line)
            for line in captured.out.strip().splitlines()
        ]
        assert len(lines) == 4
        assert lines[0]["ok"] and lines[0]["method"] == "osm_bt"
        assert lines[1]["ok"]
        assert not lines[2]["ok"] and "bad request" in lines[2]["error"]
        assert not lines[3]["ok"]
        assert "UnknownHeuristic" in lines[3]["reason"]
        assert "served 3 request(s)" in captured.err

    @needs_fork
    def test_serve_runs_workers_lines_at_once_in_input_order(
        self, tmp_path, capsys
    ):
        # The first request waits, up to its deadline, for a flag that
        # only the second request creates: both succeed only if the two
        # run at once, and the first reply must still be written first.
        flag = str(tmp_path / "raised.flag")

        def await_flag(manager, f, c):
            while not os.path.exists(flag):
                time.sleep(0.01)
            return f

        def raise_flag(manager, f, c):
            with open(flag, "w"):
                pass
            return f

        register_heuristic("test_await_flag", await_flag, replace=True)
        register_heuristic("test_raise_flag", raise_flag, replace=True)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"instance": "d1 01", "method": "test_await_flag"}\n'
            '{"f": "a & b | c", "care": "a | b", '
            '"method": "test_raise_flag"}\n'
        )
        try:
            code = main(
                ["serve", "--workers", "2", "--deadline", "5",
                 "--input", str(requests)]
            )
        finally:
            unregister_heuristic("test_await_flag")
            unregister_heuristic("test_raise_flag")
        assert code == 0
        replies = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [(reply["method"], reply["f_size"]) for reply in replies] == [
            ("test_await_flag", 2),
            ("test_raise_flag", 4),
        ]
        assert all(reply["ok"] for reply in replies), replies

    @needs_fork
    def test_serve_answers_a_non_string_method_as_bad_request(
        self, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"instance": "d1 01", "method": 5}\n{"instance": "d1 01"}\n'
        )
        assert main(["serve", "--workers", "1", "--input", str(requests)]) == 0
        captured = capsys.readouterr()
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert replies[0] == {
            "ok": False,
            "error": "bad request: method must be a string",
        }
        assert replies[1]["ok"] and replies[1]["method"] == "osm_bt"
        assert "served 1 request(s)" in captured.err

    @needs_fork
    def test_serve_replies_while_stdin_is_idle(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--deadline", "10"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as process:
            try:
                for request, f_size in (
                    ('{"instance": "d1 01", "method": "osm_bt"}', 2),
                    ('{"f": "a & b | c", "care": "a | b"}', 4),
                ):
                    process.stdin.write(request + "\n")
                    process.stdin.flush()
                    # stdin stays open: the reply must come while serve
                    # waits for the next line.
                    readable, _, _ = select.select(
                        [process.stdout], [], [], 30
                    )
                    assert readable, "no reply while stdin was idle"
                    reply = json.loads(process.stdout.readline())
                    assert reply["ok"] and reply["f_size"] == f_size
                process.stdin.close()
                assert process.wait(timeout=30) == 0
                assert "served 2 request(s)" in process.stderr.read()
            finally:
                if process.poll() is None:
                    process.kill()

    def test_parallel_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "--parallel", "2", "--memory-limit", "1000"]
        )
        assert args.parallel == 2 and args.memory_limit == 1000
        args = build_parser().parse_args(["minimize", "x", "--isolate"])
        assert args.isolate
        args = build_parser().parse_args(["serve", "--workers", "3"])
        assert args.workers == 3

    def test_loadtest_quick_run(self, tmp_path, capsys):
        import json
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("loadtest requires fork")
        output = tmp_path / "load.json"
        code = main(
            [
                "loadtest",
                "--quick",
                "--schedule",
                "calm",
                "--requests",
                "20",
                "--concurrency",
                "3",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "calm" in captured.out
        assert "all serve-layer invariants held" in captured.out
        record = json.loads(output.read_text())
        assert record["violations"] == []
        assert record["schedules"][0]["schedule"] == "calm"
        assert record["schedules"][0]["invalid_covers"] == 0
        # The commit is None only when the tests run outside a checkout.
        provenance = record["provenance"]
        assert provenance["commit"] is None or len(provenance["commit"]) == 40
        # Whether the tree had uncommitted changes, None outside a
        # checkout just as the commit is.
        assert provenance["dirty"] in (True, False, None)
        assert (provenance["dirty"] is None) == (provenance["commit"] is None)
        assert provenance["nproc"] >= 1

    def test_loadtest_unknown_schedule_is_usage_error(self):
        assert main(["loadtest", "--schedule", "earthquake"]) == 2

    def test_loadtest_flags_parse(self):
        args = build_parser().parse_args(
            ["loadtest", "--quick", "--max-p99", "3.0",
             "--max-shed-rate", "0.5"]
        )
        assert args.quick and args.max_p99 == 3.0
        assert args.max_shed_rate == 0.5


class TestObservability:
    def test_minimize_metrics_and_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "minimize",
                "d1 01",
                "--method",
                "sched",
                "--metrics",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "manager.ite_calls" in out
        assert "trace written to" in out
        from repro.obs.trace import validate_events

        events = json.loads(trace_path.read_text())
        validate_events(events)
        assert any(e["name"] == "heuristic.sched" for e in events)

    def test_metrics_subcommand(self, capsys):
        code = main(
            [
                "metrics",
                "tlc",
                "styr",
                "--heuristics",
                "constrain",
                "osm_bt",
                "--max-iterations",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BDD engine counters per heuristic" in out
        assert "total ite calls:" in out

        def total(label):
            line = next(
                line for line in out.splitlines() if line.startswith(label)
            )
            return int(line.split(":")[1])

        # The acceptance bar: a sweep shows non-zero engine activity —
        # ITE calls plus the match tests' agree steps.
        assert total("total ite calls:") + total("total agree steps:") > 0
        # tlc's constrain/osm_bt cells do no ITE work at all; styr's
        # osm_bt cells do, and reuse the ITE table.
        assert total("total ite cache hits:") > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the pool and gateway lanes require the fork start method",
    )
    def test_metrics_parallel_exports_complete_serve_key_set(self, capsys):
        from repro.obs.metrics import SERVE_COUNTER_KEYS

        assert main(
            ["metrics", "tlc", "--max-iterations", "1", "--parallel", "1"]
        ) == 0
        out = capsys.readouterr().out
        for key in SERVE_COUNTER_KEYS:
            assert key in out, "missing counter %s in metrics output" % key
        # Phase percentiles from the pooled lane ride along.
        assert "phase percentiles" in out
        assert "worker.compute" in out

    def test_observability_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "--metrics", "--trace", "out.json"]
        )
        assert args.metrics and args.trace == "out.json"
        args = build_parser().parse_args(["metrics", "--max-iterations", "3"])
        assert args.max_iterations == 3
