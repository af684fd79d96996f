#!/usr/bin/env python3
"""Benchmark the ``repro serve`` solve daemon end to end and per layer.

Usage, from the repository root::

    python3 servebench/run.py --workload exact-cold --seed 1 --seconds 32 --trace 0

Starts ``python -m repro serve`` as a subprocess (2 workers) and drives it
from two closed-loop client threads through ``ServeClient``.  Workloads:

* ``exact-cold``  (thread backend) fresh exact ILP solves by preset name;
  HiGHS is nearly all of the server's time.
* ``hot-serving`` (thread backend) 80% plan-cache hits on pre-warmed cells
  plus 20% unique-budget heuristic solves; fixed serving overhead dominates.
* ``fresh-wire``  (process backend) a distinct graph by wire value in every
  request, solved by a cheap heuristic: cache misses, wire codecs, worker IPC.

``--trace 0`` sets the daemon up three times (reporting the median set-up
time), then measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` measures half the time untraced and half with layer spans
installed (in this process and, through ``servebench/inject``, in the daemon
and its workers), reports the per-layer metrics, the tracing overhead and
coverage, and writes a Chrome trace to ``servebench-out/``.

Every result is decoded and validated against the client's graph; any
failed, refused, infeasible or over-budget request makes the run exit 1.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
INJECT = os.path.join(ROOT, "servebench", "inject")
OUT = os.path.join(ROOT, "servebench-out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Requests whose schedules form the printed digest, per workload: a prefix
#: every full-length run serves, so two commits compare byte for byte.
DIGEST_PREFIX = {"exact-cold": 48, "hot-serving": 2000, "fresh-wire": 600}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-cold", "hot-serving", "fresh-wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _say(text: str = "") -> None:
    print(text, flush=True)


def _set_up(workload, log_path, **daemon_kwargs):
    """Spawn a daemon, wait until healthy and solve the warm-up cells;
    returns (daemon, seconds taken)."""
    from servebench.daemon import Daemon
    from servebench.loop import run_closed_loop

    start = time.perf_counter()
    daemon = Daemon(SRC, workload.backend, log_path, **daemon_kwargs)
    try:
        daemon.wait_healthy()
        warm = run_closed_loop(daemon.url, workload.warmup, float("inf"))
        if warm.failed:
            raise RuntimeError("warm-up failed: " + "; ".join(warm.errors[:3]))
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def _print_metrics(table, values) -> None:
    for name, unit in table:
        _say(f"  {name:<36s} {values[name]:>14.6g} {unit}")


def _loop_summary(label: str, loop) -> None:
    from servebench.loop import quantile, tail_count

    done = loop.done
    latencies = [o.latency_s * 1e3 for o in done]
    attempted = len(loop.outcomes)
    line = (f"  {label}: attempted {attempted}, served {len(done)}, "
            f"failed {loop.failed} (failed_frac "
            f"{loop.failed / max(attempted, 1):.4f}) in {loop.elapsed_s:.2f} s")
    if latencies:
        line += (f"; p50 {quantile(latencies, 0.5):.2f} ms, "
                 f"p95 {quantile(latencies, 0.95):.2f} ms "
                 f"({tail_count(len(latencies), 0.95)} samples beyond p95)")
    _say(line)
    for error in loop.errors[:10]:
        _say(f"    FAILED {error}")
    if loop.exhausted:
        print("warning: the generated request list ran out before the time "
              "limit; raise the workload's max_rate", file=sys.stderr)


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from servebench.loop import digest, run_closed_loop
    from servebench.metrics import END_TO_END, end_to_end

    log = os.path.join(OUT, f"daemon-{workload.name}-{seed}.log")
    setups = []
    daemon = None
    for i in range(SETUPS):
        daemon, took = _set_up(workload, log)
        setups.append(took)
        if i < SETUPS - 1:
            daemon.stop()
    try:
        loop = run_closed_loop(daemon.url, workload.requests, seconds)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    _say(f"  set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    _loop_summary("timed phase", loop)
    prefix = DIGEST_PREFIX[workload.name]
    _say(f"  schedule digest (requests 0..{prefix - 1}): "
         f"{digest(loop.outcomes, prefix) or 'n/a (run served fewer)'}")
    values = end_to_end(loop, setups, rss) if loop.done else {}
    if values:
        _say("end-to-end metrics:")
        _print_metrics(END_TO_END, values)
    return {"loop": loop, "metrics": values, "table": END_TO_END}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from servebench import layers
    from servebench.loop import run_closed_loop
    from servebench.metrics import PER_LAYER, per_layer, solver_scaling

    log = os.path.join(OUT, f"daemon-{workload.name}-{seed}-traced.log")
    half = seconds / 2.0
    daemon, _ = _set_up(workload, log)
    try:
        untraced = run_closed_loop(daemon.url, workload.requests, half)
    finally:
        daemon.stop()
    _loop_summary("untraced phase", untraced)

    spans_path = os.path.join(OUT, f"spans-{workload.name}-{seed}.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    daemon, _ = _set_up(workload, log, inject=INJECT,
                        env={"SERVEBENCH_SPANS": spans_path})
    recorder = layers.Recorder()
    try:
        layers.install_client(recorder)
        traced = run_closed_loop(daemon.url, workload.requests, half)
    finally:
        daemon.stop()
    _loop_summary("traced phase", traced)
    with open(spans_path) as handle:
        server_rows = [tuple(row) for row in json.load(handle)["rows"]]
    os.remove(spans_path)
    server_rows = layers.within_window(server_rows, traced.start, traced.end)
    client_rows = recorder.rows
    if not (untraced.done and traced.done):
        return {"loop": traced, "extra_failed": untraced.failed,
                "metrics": {}, "table": PER_LAYER}
    values = per_layer(client_rows, server_rows, traced, untraced)

    trace_path = os.path.join(OUT, f"trace-{workload.name}-{seed}.json")
    with open(trace_path, "w") as handle:
        json.dump({"traceEvents": layers.chrome_events(client_rows)
                   + layers.chrome_events(server_rows),
                   "displayTimeUnit": "ms"}, handle)
    _say(f"  chrome trace: {os.path.relpath(trace_path, ROOT)} "
         f"({len(client_rows) + len(server_rows)} spans)")
    _say("per-layer metrics (ms are per request, self time):")
    _print_metrics(PER_LAYER, values)
    ranked = sorted(((v, k) for k, v in values.items()
                     if k.endswith("_ms") and not k.startswith("jobs.")),
                    reverse=True)
    _say("  dominant layers: " + ", ".join(f"{k} {v:.3f} ms"
                                           for v, k in ranked[:5]))
    scaling = solver_scaling(server_rows)
    if scaling:
        _say("solver scaling (exact solves in the traced phase):")
        _say(f"  {'preset':<16s} {'nodes':>6s} {'solves':>7s} {'highs_ms':>10s} "
             f"{'variables':>10s} {'nnz':>10s}")
        for entry in scaling:
            _say(f"  {entry['preset']:<16s} {entry['nodes']:>6d} "
                 f"{entry['solves']:>7d} {entry['highs_ms']:>10.2f} "
                 f"{entry['variables']:>10.0f} {entry['nnz']:>10.0f}")
    return {"loop": traced, "extra_failed": untraced.failed,
            "metrics": values, "table": PER_LAYER}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is this directory; import the benchmark
    # as the ``servebench`` package and the program from ``src`` instead.
    sys.path[0:1] = [ROOT, SRC]
    os.makedirs(OUT, exist_ok=True)
    from servebench.workloads import build_workload

    start = time.perf_counter()
    workload = build_workload(args.workload, args.seed, args.seconds)
    _say(f"servebench {workload.name} seed={args.seed} backend={workload.backend} "
         f"trace={args.trace}: {len(workload.requests)} requests generated in "
         f"{time.perf_counter() - start:.2f} s")
    _say(f"  why: {workload.why}")
    run = (run_traced if args.trace else run_untraced)(
        workload, args.seed, args.seconds)
    loop = run["loop"]
    failed = loop.failed + run.get("extra_failed", 0)
    correct = failed == 0 and bool(run["metrics"])
    units = dict(run["table"])
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
