"""CLI smoke tests: ``repro`` subcommands driven through ``subprocess``.

The console script entry point is ``repro.cli:main`` (see setup.py); the
tests invoke it as ``python -m repro`` so they work without an installed
package, with ``PYTHONPATH`` pointing at the live source tree.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import parse_budget
from repro.server import ServeClient, SolveServer


def run_cli(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestParseBudget:
    def test_units(self):
        assert parse_budget("1024") == 1024
        assert parse_budget("512MiB") == 512 * 2**20
        assert parse_budget("2GiB") == 2 * 2**30
        assert parse_budget("1.5 GiB") == 1.5 * 2**30
        assert parse_budget("2GB") == 2 * 10**9

    def test_unbounded(self):
        assert parse_budget("none") is None
        assert parse_budget("unbounded") is None

    def test_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget("a lot")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget("12parsecs")


class TestCliOffline:
    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("serve", "submit", "sweep", "status", "strategies"):
            assert sub in proc.stdout

    def test_strategies_local(self):
        proc = run_cli("strategies")
        assert proc.returncode == 0
        assert "checkmate_ilp" in proc.stdout
        assert "checkpoint_all" in proc.stdout

    def test_missing_graph_source_is_clean_usage_error(self):
        proc = run_cli("submit", "--strategy", "chen_sqrt_n")
        assert proc.returncode == 2
        assert "exactly one of --preset or --graph" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unreachable_server_is_clean_error(self):
        proc = run_cli("status", "--server", "http://127.0.0.1:9",
                       "--http-timeout", "2")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_execute_local(self):
        proc = run_cli("execute", "--preset", "linear_mlp",
                       "--strategy", "checkmate_ilp",
                       "--budget-fraction", "0.7")
        assert proc.returncode == 0, proc.stderr
        assert "verdict         OK" in proc.stdout
        assert "within budget: True" in proc.stdout

    def test_execute_local_json(self):
        import json as json_mod
        proc = run_cli("execute", "--preset", "linear_mlp",
                       "--strategy", "checkpoint_all", "--json")
        assert proc.returncode == 0, proc.stderr
        report = json_mod.loads(proc.stdout)
        assert report["ok"] is True
        assert report["outputs_match"] is True

    def test_execute_rejects_conflicting_budgets(self):
        proc = run_cli("execute", "--preset", "linear_mlp",
                       "--strategy", "checkmate_ilp",
                       "--budget", "1GiB", "--budget-fraction", "0.5")
        assert proc.returncode == 2
        assert "at most one" in proc.stderr

    def test_execute_rejects_unknown_option_cleanly(self):
        proc = run_cli("execute", "--preset", "linear_mlp",
                       "--strategy", "checkmate_ilp",
                       "--option", "time_limit=60")  # typo for time_limit_s
        assert proc.returncode == 2
        assert "unknown solver options" in proc.stderr
        assert "time_limit_s" in proc.stderr  # the known list is shown
        assert "Traceback" not in proc.stderr

    def test_lint_clean_preset(self):
        proc = run_cli("lint", "--preset", "deepblock")
        assert proc.returncode == 0, proc.stderr
        assert "0 error(s)" in proc.stdout
        assert "C002" in proc.stdout  # the identity aliases are flagged

    def test_lint_json(self):
        import json as json_mod
        proc = run_cli("lint", "--preset", "linear_cnn",
                       "--budget-fraction", "0.8", "--json")
        assert proc.returncode == 0, proc.stderr
        report = json_mod.loads(proc.stdout)
        assert report["ok"] is True
        assert set(report["counts"]) == {"error", "warning", "info"}

    def test_lint_rejects_conflicting_budgets(self):
        proc = run_cli("lint", "--preset", "linear_cnn",
                       "--budget", "1GiB", "--budget-fraction", "0.5")
        assert proc.returncode == 2
        assert "at most one" in proc.stderr


class TestCliPareto:
    def test_pareto_local_table(self):
        proc = run_cli("pareto", "--preset", "linear_cnn")
        assert proc.returncode == 0, proc.stderr
        assert "pareto frontier of" in proc.stdout
        assert "solver calls" in proc.stdout
        assert "knee" in proc.stdout  # table header

    def test_pareto_local_json(self):
        import json as json_mod
        proc = run_cli("pareto", "--preset", "linear_cnn", "--json")
        assert proc.returncode == 0, proc.stderr
        front = json_mod.loads(proc.stdout)
        assert front["strategy"] == "checkmate_ilp"
        assert front["num_points"] == len(front["points"]) >= 2
        budgets = [p["budget"] for p in front["points"]]
        assert budgets == sorted(budgets)

    def test_pareto_rejects_unknown_option(self):
        proc = run_cli("pareto", "--preset", "linear_cnn",
                       "--option", "time_limit=60")
        assert proc.returncode == 2
        assert "unknown solver options" in proc.stderr


class TestCliAgainstServer:
    @pytest.fixture()
    def server(self):
        with SolveServer(port=0, num_workers=2) as srv:
            yield srv

    def test_submit_roundtrip(self, server, tmp_path):
        schedule_path = tmp_path / "plan.json"
        proc = run_cli("submit", "--server", server.url,
                       "--preset", "resnet_tiny", "--strategy", "ap_sqrt_n",
                       "--budget", "8GiB", "--save-schedule", str(schedule_path))
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert schedule_path.exists()
        # The saved artifact is a loadable schedule.
        from repro.utils import schedule_from_json
        matrices = schedule_from_json(schedule_path.read_text())
        assert matrices.num_stages == matrices.num_nodes

    @staticmethod
    def _record_requests(monkeypatch):
        """Record the job requests the in-process server answers: each
        ``POST`` with its payload, and every status or result fetch."""
        from repro.server import http as server_http

        seen = []
        post = server_http._App.post

        def recorded_post(app, op, payload):
            seen.append(("post", dict(payload)))
            return post(app, op, payload)

        monkeypatch.setattr(server_http._App, "post", recorded_post)
        for name in ("get_job", "get_result"):
            def recorded(app, *args, _name=name,
                         _original=getattr(server_http._App, name)):
                seen.append((_name, None))
                return _original(app, *args)
            monkeypatch.setattr(server_http._App, name, recorded)
        return seen

    def test_submit_settles_in_one_exchange(self, server, monkeypatch):
        seen = self._record_requests(monkeypatch)
        proc = run_cli("submit", "--server", server.url,
                       "--preset", "resnet_tiny", "--strategy", "ap_sqrt_n",
                       "--budget", "8GiB")
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert [kind for kind, _ in seen] == ["post"]
        assert seen[0][1]["wait_s"] > 0

    def test_submit_no_wait_prints_the_handle(self, server, monkeypatch):
        seen = self._record_requests(monkeypatch)
        proc = run_cli("submit", "--server", server.url,
                       "--preset", "resnet_tiny", "--strategy", "checkpoint_all",
                       "--no-wait")
        assert proc.returncode == 0, proc.stderr
        words = proc.stdout.split()
        assert words[:2] == ["submit", "job"]
        assert words[3] in ("queued", "running", "done")
        assert [kind for kind, _ in seen] == ["post"]
        assert "wait_s" not in seen[0][1]

    def test_sweep_and_status(self, server):
        proc = run_cli("sweep", "--server", server.url,
                       "--preset", "resnet_tiny",
                       "--strategies", "checkpoint_all,ap_sqrt_n",
                       "--budgets", "none,8GiB")
        assert proc.returncode == 0, proc.stderr
        assert "checkpoint-all" in proc.stdout

        proc = run_cli("status", "--server", server.url)
        assert proc.returncode == 0, proc.stderr
        assert "queue depth" in proc.stdout
        assert "solve latency" in proc.stdout

    def test_status_of_single_job(self, server):
        client = ServeClient(server.url)
        handle = client.submit_solve(preset="resnet_tiny",
                                     strategy="checkpoint_all")
        client.wait(handle["job_id"], timeout=60)
        proc = run_cli("status", "--server", server.url, handle["job_id"])
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout

    def test_submit_infeasible_result_renders(self, server):
        # Infeasible results arrive with compute_cost=null over the wire;
        # the table must render them, not crash formatting None.
        proc = run_cli("submit", "--server", server.url,
                       "--preset", "resnet_tiny",
                       "--strategy", "linearized_greedy", "--budget", "1")
        assert proc.returncode == 0, proc.stderr
        assert "no (" in proc.stdout

    def test_submit_unknown_strategy_fails_cleanly(self, server):
        proc = run_cli("submit", "--server", server.url,
                       "--preset", "resnet_tiny", "--strategy", "nope")
        assert proc.returncode == 1
        assert "unknown solver" in proc.stderr

    def test_pareto_against_server(self, server):
        proc = run_cli("pareto", "--server", server.url,
                       "--preset", "linear_cnn")
        assert proc.returncode == 0, proc.stderr
        assert "pareto job" in proc.stdout
        assert "pareto frontier of" in proc.stdout

    def test_execute_against_server(self, server):
        import json as json_mod
        proc = run_cli("execute", "--server", server.url,
                       "--preset", "linear_mlp",
                       "--strategy", "checkmate_ilp",
                       "--budget-fraction", "0.7")
        assert proc.returncode == 0, proc.stderr
        report = json_mod.loads(proc.stdout.split("\n", 1)[1])
        assert report["ok"] is True
        assert report["within_budget"] is True
