"""Metric definitions: end-to-end figures from the closed loop, per-layer
figures from the traced run's spans.

Per-layer times are self times summed over the timed phase and divided by
the requests it served, so every ``*_ms`` figure is milliseconds per request.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from .layers import Row, self_times
from .loop import LoopResult, quantile

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer",
           "solver_scaling"]

#: (name, unit) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("success_frac", "ratio"),
    ("recompute_overhead", "ratio"),
    ("server_peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (name, unit) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("client.round_trips", "count"),
    ("client.bytes_sent", "B"),
    ("client.bytes_received", "B"),
    ("client.encode_ms", "ms"),
    ("client.decode_ms", "ms"),
    ("http.submit_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("http.result_ms", "ms"),
    ("http.build_graph_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("backends.ship_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.hash_ms", "ms"),
    ("service.cache_lookup_ms", "ms"),
    ("service.cache_hit_frac", "ratio"),
    ("service.lint_ms", "ms"),
    ("service.solver_calls_per_request", "count"),
    ("solvers.compile_ms", "ms"),
    ("solvers.formulation_hit_frac", "ratio"),
    ("solvers.highs_ms", "ms"),
    ("solvers.highs_share", "ratio"),
    ("solvers.variables", "count"),
    ("solvers.nnz", "count"),
    ("solvers.heuristic_ms", "ms"),
    ("solvers.decode_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("serialization.graph_decode_ms", "ms"),
    ("serialization.graph_encode_ms", "ms"),
    ("serialization.result_encode_ms", "ms"),
    ("serialization.result_decode_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Daemon root spans.  Their self time is what no layer span explains.
CONTAINERS = ("daemon.http", "jobs.run")
EXACT = "checkmate_ilp"


def end_to_end(loop: LoopResult, setups: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    done = loop.done
    latencies = [o.latency_s for o in done]
    attempted = len(loop.outcomes)
    return {
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        "latency_p95_ms": quantile(latencies, 0.95) * 1e3,
        "throughput_rps": len(done) / loop.elapsed_s,
        "success_frac": (attempted - loop.failed) / attempted,
        "recompute_overhead": statistics.fmean(o.overhead for o in done),
        "server_peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


class _SpanTotals:
    """Self time, duration and count of each span name."""

    def __init__(self, rows: Sequence[Row]) -> None:
        own = self_times(rows)
        self.rows = rows
        self.self_s: Dict[str, float] = defaultdict(float)
        self.dur_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        for row in rows:
            self.self_s[row[0]] += own[row[2]]
            self.dur_s[row[0]] += row[5] - row[4]
            self.count[row[0]] += 1
        self.own = own

    def attrs(self, name: str) -> List[dict]:
        return [row[9] or {} for row in self.rows if row[0] == name]


def per_layer(client_rows: Sequence[Row], server_rows: Sequence[Row],
              traced: LoopResult, untraced: LoopResult) -> Dict[str, float]:
    n = max(1, len(traced.done))
    client = _SpanTotals(client_rows)
    server = _SpanTotals(server_rows)

    def ms(totals: Dict[str, float], name: str) -> float:
        return totals.get(name, 0.0) * 1e3 / n

    lookups = server.attrs("service.cache_lookup")
    compiles = server.attrs("solvers.compile")
    builds = sum(1 for a in compiles if a.get("build"))
    formulations = len(compiles) - builds
    highs = server.attrs("solvers.highs")
    heuristic_s = sum(server.own[row[2]] for row in server_rows
                      if row[0] == "solvers.solve"
                      and (row[9] or {}).get("strategy") != EXACT)
    container_dur = sum(server.dur_s[c] for c in CONTAINERS)
    container_self = sum(server.self_s[c] for c in CONTAINERS)
    traced_p50 = quantile([o.latency_s for o in traced.done], 0.5)
    untraced_p50 = quantile([o.latency_s for o in untraced.done], 0.5)
    return {
        "client.round_trips": client.count["client.roundtrip"] / n,
        "client.bytes_sent": sum(a.get("bytes", 0)
                                 for a in client.attrs("client.send")) / n,
        "client.bytes_received": sum(a.get("bytes", 0) for a in
                                     client.attrs("client.roundtrip")) / n,
        "client.encode_ms": ms(client.dur_s, "client.encode"),
        "client.decode_ms": ms(client.dur_s, "client.decode"),
        "http.submit_ms": ms(server.self_s, "http.submit"),
        "http.poll_ms": ms(server.self_s, "http.poll"),
        "http.result_ms": ms(server.self_s, "http.result"),
        "http.build_graph_ms": ms(server.self_s, "http.build_graph"),
        "jobs.queue_wait_ms": statistics.fmean(
            o.queue_wait_s for o in traced.done) * 1e3,
        "jobs.run_ms": statistics.fmean(o.run_s for o in traced.done) * 1e3,
        "backends.ship_ms": ms(server.self_s, "backends.ship"),
        "service.solve_ms": ms(server.self_s, "service.solve"),
        "service.hash_ms": ms(server.self_s, "service.hash"),
        "service.cache_lookup_ms": ms(server.self_s, "service.cache_lookup"),
        "service.cache_hit_frac": (sum(1 for a in lookups if a.get("hit"))
                                   / len(lookups)) if lookups else 0.0,
        "service.lint_ms": ms(server.self_s, "service.lint"),
        "service.solver_calls_per_request": server.count["solvers.solve"] / n,
        "solvers.compile_ms": ms(server.self_s, "solvers.compile"),
        "solvers.formulation_hit_frac": (1.0 - builds / formulations
                                         if formulations else 0.0),
        "solvers.highs_ms": ms(server.self_s, "solvers.highs"),
        "solvers.highs_share": (server.dur_s["solvers.highs"]
                                / server.dur_s["jobs.run"]
                                if server.dur_s["jobs.run"] else 0.0),
        "solvers.variables": (statistics.fmean(a["variables"] for a in highs)
                              if highs else 0.0),
        "solvers.nnz": statistics.fmean(a["nnz"] for a in highs) if highs else 0.0,
        "solvers.heuristic_ms": heuristic_s * 1e3 / n,
        "solvers.decode_ms": ms(server.self_s, "solvers.decode"),
        "core.validate_ms": ms(server.self_s, "core.validate"),
        "core.simulate_ms": ms(server.self_s, "core.simulate"),
        "core.plan_ms": ms(server.self_s, "core.plan"),
        "serialization.graph_decode_ms": ms(server.self_s,
                                            "serialization.graph_decode"),
        "serialization.graph_encode_ms": ms(server.self_s,
                                            "serialization.graph_encode"),
        "serialization.result_encode_ms": ms(server.self_s,
                                             "serialization.result_encode"),
        "serialization.result_decode_ms": ms(server.self_s,
                                             "serialization.result_decode"),
        "trace.coverage": (1.0 - container_self / container_dur
                           if container_dur else 0.0),
        "trace.overhead": traced_p50 / untraced_p50 - 1.0,
    }


def solver_scaling(server_rows: Sequence[Row]) -> List[dict]:
    """HiGHS time, variables and nnz per preset against node count: the
    solver-scaling axis, from the exact solves of one traced run."""
    by_id = {row[2]: row for row in server_rows}
    groups: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for row in server_rows:
        if row[0] != "solvers.highs":
            continue
        parent = by_id.get(row[3])
        info = (parent[9] or {}) if parent is not None else {}
        family = str(info.get("graph", "?")).split("-b")[0]
        groups[(family, int(info.get("nodes", 0)))].append(
            dict(row[9] or {}, seconds=row[5] - row[4]))
    return [{
        "preset": family,
        "nodes": nodes,
        "solves": len(entries),
        "highs_ms": statistics.fmean(e["seconds"] for e in entries) * 1e3,
        "variables": statistics.fmean(e["variables"] for e in entries),
        "nnz": statistics.fmean(e["nnz"] for e in entries),
    } for (family, nodes), entries in sorted(groups.items(),
                                             key=lambda kv: kv[0][1])]
