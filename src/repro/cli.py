"""The ``repro`` command line interface (``repro --help`` lists the verbs).

``repro serve`` runs the solve daemon.  The operation verbs -- ``submit``
and ``race`` (solve), ``sweep``, ``execute``, ``pareto`` and ``lint`` --
each run one entry of :data:`repro.server.ops.OPERATIONS`: in-process, or
through a daemon with ``--server`` (``submit``/``sweep`` always use one,
``http://127.0.0.1:8765`` by default; ``lint`` always runs locally).  Either
way the verb renders the same JSON result body.  ``trace``, ``status`` and
``strategies`` inspect solves, jobs and the solver registry.  Budgets accept
raw bytes or units (``512MiB``, ``2GiB``); solver options are ``--option
key=value`` pairs matching :class:`repro.service.SolverOptions` fields.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Sequence

__all__ = ["main"]

_BUDGET_UNITS = {
    "b": 1,
    "kb": 10**3, "mb": 10**6, "gb": 10**9, "tb": 10**12,
    "kib": 2**10, "mib": 2**20, "gib": 2**30, "tib": 2**40,
}


def parse_budget(text: str) -> Optional[float]:
    """``"2GiB"`` -> bytes; ``"none"`` -> unbounded (``None``)."""
    cleaned = text.strip().lower()
    if cleaned in ("none", "null", "unbounded", ""):
        return None
    match = re.fullmatch(r"([0-9]*\.?[0-9]+)\s*([a-z]*)", cleaned)
    if not match:
        raise argparse.ArgumentTypeError(
            f"cannot parse budget {text!r}; use bytes or units like 512MiB, 2GiB")
    value, unit = float(match.group(1)), match.group(2) or "b"
    if unit not in _BUDGET_UNITS:
        raise argparse.ArgumentTypeError(
            f"unknown budget unit {unit!r}; known: {sorted(_BUDGET_UNITS)}")
    return value * _BUDGET_UNITS[unit]


def _parse_option_pairs(pairs: Sequence[str]) -> Optional[dict]:
    """``["mip_gap=0.05", "checkpoints=[2,4]"]`` -> options dict;
    values are JSON when they parse as JSON, else plain strings."""
    if not pairs:
        return None
    options = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--option expects key=value, got {pair!r}")
        try:
            options[key] = json.loads(raw)
        except ValueError:
            options[key] = raw
    return options


def _format_bytes(num: Optional[float]) -> str:
    if num is None:
        return "unbounded"
    from .utils.formatting import format_bytes
    return format_bytes(int(num))


def _print_result_rows(results: List[dict]) -> None:
    from .utils.formatting import format_table
    rows = []
    for r in results:
        cost = r["compute_cost"]  # null on the wire for infeasible results
        rows.append((
            r["strategy"],
            _format_bytes(r.get("budget")),
            "yes" if r["feasible"] else f"no ({r['solver_status']})",
            "-" if cost is None else f"{cost:.4g}",
            _format_bytes(r["peak_memory"]),
            f"{r['solve_time_s']:.3f}s",
        ))
    print(format_table(
        ["strategy", "budget", "feasible", "cost", "peak mem", "solve time"],
        rows))


def _client(args):
    from .server.client import ServeClient
    return ServeClient(args.server, timeout=args.http_timeout)


class _UsageError(Exception):
    """Bad command-line arguments: ``main`` prints it and exits 2."""


def _load_graph(args):
    """The ``--graph`` file, or the ``--preset`` workload built locally."""
    if args.graph is not None:
        from .utils.serialization import graph_from_json
        with open(args.graph, encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    from .cost_model import COST_MODELS
    from .experiments.presets import build_training_graph
    return build_training_graph(
        args.preset, scale=args.scale, batch_size=args.batch_size,
        cost_model=COST_MODELS[args.cost_model or "flop"]())


def _resolve_request(args, fields: dict, *, need_graph: bool):
    """Check the graph-source, budget and option arguments the operation
    verbs share.  Returns the graph -- built only when ``need_graph`` or
    ``--budget-fraction`` asks for it, else ``None`` -- and resolves
    ``--budget-fraction`` into ``fields["budget"]``."""
    from .service import SolverOptions

    if (args.preset is None) == (args.graph is None):
        raise _UsageError("pass exactly one of --preset or --graph")
    fraction = getattr(args, "budget_fraction", None)
    if fraction is not None and fields.get("budget") is not None:
        raise _UsageError("pass at most one of --budget or --budget-fraction")
    known = set(SolverOptions.__dataclass_fields__)
    unknown = set(fields.get("options") or ()) - known
    if unknown:
        raise _UsageError(f"unknown solver options {sorted(unknown)}; "
                          f"known: {sorted(known)}")
    graph = _load_graph(args) if need_graph or fraction is not None else None
    if fraction is not None:
        fields["budget"] = float(int(graph.constant_overhead
                                     + fraction * graph.total_activation_memory()))
    return graph


def _run_operation(args, name: str, render, **fields) -> int:
    """Run one :data:`~repro.server.ops.OPERATIONS` entry -- through the
    ``--server`` daemon when given, else in-process -- and ``render(args,
    body)`` the encoded result, which is the same JSON either way."""
    from .server.ops import OPERATIONS

    op = OPERATIONS[name]
    server = getattr(args, "server", None)
    if hasattr(args, "option"):
        fields["options"] = {**(_parse_option_pairs(args.option) or {}),
                             **fields.get("options", {})} or None
    # The graph is needed locally to run, to resolve --budget-fraction and to
    # upload a --graph file; a preset-by-name submission to a daemon skips
    # the (potentially expensive) client-side build entirely.
    graph = _resolve_request(args, fields,
                             need_graph=not server or args.graph is not None)
    if not server:
        from .service import get_default_service
        work = op.parse(fields, graph)
        return render(args, op.encode(op.run(get_default_service(), work, None)))

    client = _client(args)
    source = dict(graph=graph if args.graph is not None else None,
                  preset=args.preset, scale=args.scale,
                  batch_size=args.batch_size, cost_model=args.cost_model)
    # Without --no-wait the job may settle inside the submit exchange; then
    # ``wait`` and ``result`` below answer without another request.
    handle = client.post(name, **source, priority=args.priority,
                         wait_s=None if args.no_wait else args.timeout,
                         **fields)
    job = f"{args.command} job {handle['job_id']}"
    dedup = (" (deduplicated: riding an identical in-flight job)"
             if handle["deduplicated"] else "")
    print(f"{job} {handle['state']}{dedup}",
          file=sys.stdout if args.no_wait else sys.stderr)
    if args.no_wait:
        return 0
    status = client.wait(handle["job_id"], timeout=args.timeout)
    print(f"{job} {status['state']}"
          + (f" in {status['run_s']:.3f}s" if status.get("run_s") else ""))
    if status["state"] != "done":
        print(f"error: {status.get('error')}", file=sys.stderr)
        return 1
    return render(args, client.result(handle["job_id"])[op.result_key])


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


_DEFAULT_SERVER = "http://127.0.0.1:8765"
_BUDGET_HELP = "memory budget (bytes or 512MiB/2GiB/...; default none)"


def _add_operation_args(parser: argparse.ArgumentParser, *,
                        budget: Optional[str] = _BUDGET_HELP,
                        fraction: bool = True, option: bool = True,
                        json: bool = False,
                        timeout: Optional[float] = None,
                        server: Optional[str] = None,
                        remote: bool = True, source: bool = True) -> None:
    """The arguments the operation verbs share, each group optional: the
    graph source (``--preset``/``--graph``; the preset knobs always),
    ``--budget``/``--budget-fraction``, ``--option`` pairs, ``--json``, the
    queue's ``--priority/--no-wait/--timeout`` (when a ``timeout`` default
    is given) and ``--server``/``--http-timeout`` (``server`` is the
    default daemon URL; ``None`` runs locally)."""
    from .cost_model import COST_MODELS
    if source:
        parser.add_argument("--preset", help="experiment preset key (see "
                                             "'repro strategies' for solvers, "
                                             "/v1/presets for presets)")
        parser.add_argument("--graph", metavar="FILE", default=None,
                            help="upload a DFGraph serialized with "
                                 "graph_to_json instead of naming a preset")
    parser.add_argument("--scale", choices=("ci", "paper"), default="ci",
                        help="preset scale (default: ci)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override the preset's batch size")
    parser.add_argument("--cost-model", choices=sorted(COST_MODELS),
                        default=None, help="cost model for preset graphs")
    if budget is not None:
        parser.add_argument("--budget", type=parse_budget, default=None,
                            help=budget)
    if fraction:
        parser.add_argument("--budget-fraction", type=float, default=None,
                            metavar="F",
                            help="budget as overhead + F * total activation "
                                 "memory (alternative to --budget)")
    if option:
        parser.add_argument("--option", action="append", default=[],
                            metavar="KEY=VALUE",
                            help="solver option, repeatable "
                                 "(e.g. --option time_limit_s=60)")
    if json:
        parser.add_argument("--json", action="store_true",
                            help="print the result as JSON instead of a "
                                 "table or summary")
    if timeout is not None:
        parser.add_argument("--priority", type=int, default=0,
                            help="queue priority (lower runs first)")
        parser.add_argument("--no-wait", action="store_true",
                            help="(with a daemon) print the job id and exit")
        parser.add_argument("--timeout", type=float, default=timeout,
                            help="seconds to wait for completion")
    if remote:
        _add_server_args(parser, server)


def _add_server_args(parser: argparse.ArgumentParser,
                     default: Optional[str] = None) -> None:
    parser.add_argument("--server", default=default,
                        help="base URL of a running 'repro serve' daemon"
                             + ("" if default else " (default: run locally)"))
    parser.add_argument("--http-timeout", type=float, default=30.0,
                        help="per-request HTTP timeout in seconds")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def cmd_serve(args) -> int:
    from .obs import configure_logging
    from .server.http import SolveServer
    from .service import PlanCache, SolveService

    configure_logging()
    cache = PlanCache(max_entries=args.cache_entries, cache_dir=args.cache_dir)
    service = SolveService(cache=cache)
    server = SolveServer(args.host, args.port, service=service,
                         num_workers=args.workers, verbose=args.verbose,
                         tracing=not args.no_trace,
                         backend=args.backend,
                         max_queue_depth=args.max_queue_depth,
                         default_deadline_s=args.default_deadline_s)
    disk = f", disk cache at {args.cache_dir}" if args.cache_dir else ""
    trace = "off" if args.no_trace else "on"
    shed = (f", shed at depth {args.max_queue_depth}"
            if args.max_queue_depth else "")
    print(f"repro solve server listening on {server.url} "
          f"({server.queue.num_workers} {args.backend} workers{disk}{shed}, "
          f"tracing {trace}); Ctrl-C to stop",
          flush=True)
    server.serve_forever()
    return 0


def cmd_submit(args) -> int:
    def render(args, result: dict) -> int:
        _print_result_rows([result])
        if args.save_schedule:
            if result.get("schedule") is None:
                print("no schedule to save (infeasible result)", file=sys.stderr)
                return 1
            with open(args.save_schedule, "w", encoding="utf-8") as fh:
                fh.write(result["schedule"])
            print(f"schedule written to {args.save_schedule}")
        return 0

    return _run_operation(args, "solve", render, strategy=args.strategy,
                          budget=args.budget)


def cmd_race(args) -> int:
    if args.budget is None and args.budget_fraction is None:
        raise _UsageError("race requires --budget or --budget-fraction")
    options = {"deadline_s": args.deadline_s}
    if args.entrants:
        options["entrants"] = [e for e in args.entrants.split(",") if e]

    def render(args, result: dict) -> int:
        result.pop("schedule", None)
        if args.json:
            _print_json(result)
        else:
            _print_result_rows([result])
            _print_race_provenance((result.get("extra") or {}).get("race") or {})
        return 0 if result["feasible"] else 1

    return _run_operation(args, "solve", render, strategy="race",
                          budget=args.budget, options=options)


def _print_race_provenance(race: dict) -> None:
    from .utils.formatting import format_table
    rows = []
    for lane in race.get("entrants", []):
        wall = lane.get("wall_s")
        objective = lane.get("objective")
        rows.append((
            lane.get("strategy", "?"),
            str(lane.get("status", "?")),
            "-" if wall is None else f"{wall:.3f}s",
            "-" if objective is None else f"{objective:.4g}",
        ))
    winner = race.get("winner") or "none"
    hit = " (deadline hit)" if race.get("deadline_hit") else ""
    print(f"race: winner {winner} in {race.get('wall_s', 0.0):.3f}s "
          f"of a {race.get('deadline_s')}s deadline{hit}")
    print(format_table(["entrant", "status", "wall", "objective"], rows))


def cmd_sweep(args) -> int:
    def render(args, results: List[dict]) -> int:
        _print_result_rows(results)
        return 0

    return _run_operation(
        args, "sweep", render,
        strategies=[s for s in args.strategies.split(",") if s],
        budgets=([parse_budget(b) for b in args.budgets.split(",")]
                 if args.budgets else None))


def cmd_execute(args) -> int:
    def render(args, report: dict) -> int:
        # Scripts parse a daemon run's stdout, so it is JSON even without --json.
        if args.json or args.server:
            _print_json(report)
        else:
            from .execution.report import ExecutionReport
            print(ExecutionReport.from_dict(report).summary())
        return 0 if report["ok"] else 1

    return _run_operation(args, "execute", render, strategy=args.strategy,
                          budget=args.budget, seed=args.seed)


def cmd_pareto(args) -> int:
    return _run_operation(args, "pareto", _render_pareto,
                          strategy=args.strategy, low=args.low, high=args.high,
                          resolution=args.resolution)


def _render_pareto(args, front: dict) -> int:
    if args.json:
        _print_json(front)
        return 0
    from .utils.formatting import format_table
    rows = []
    prev_cost = None
    for point in front["points"]:
        cost = point["compute_cost"]
        if point["feasible"]:
            knee = (prev_cost is None
                    or abs(cost - prev_cost) > 2e-4 * max(abs(prev_cost), 1.0))
            rows.append((_format_bytes(point["budget"]),
                         f"{cost:.4g}",
                         _format_bytes(point["peak_memory"]),
                         point["solver_status"],
                         "*" if knee else ""))
            prev_cost = cost
        else:
            rows.append((_format_bytes(point["budget"]), "-", "-",
                         point["solver_status"], ""))
    print(f"pareto frontier of {front['graph']} / {front['strategy']}: "
          f"{front['num_points']} points, {front['solver_calls']} solver calls, "
          f"range [{_format_bytes(front['low'])}, {_format_bytes(front['high'])}] "
          f"at {_format_bytes(front['resolution'])} resolution")
    print(format_table(
        ["budget", "cost", "peak mem", "status", "knee"], rows))
    return 0


def cmd_lint(args) -> int:
    def render(args, report: dict) -> int:
        if args.json:
            _print_json(report)
            return 0 if report["ok"] else 1
        counts = report["counts"]
        print(f"lint {report['graph']!r}: {counts['error']} error(s), "
              f"{counts['warning']} warning(s), {counts['info']} info(s)")
        for diag in report["diagnostics"]:
            locus = ("" if diag["node"] is None
                     else f" [node {diag['node']}"
                          + (f" {diag['node_name']!r}" if diag["node_name"] else "")
                          + "]")
            print(f"  {diag['severity']:<7} {diag['code']}{locus}: "
                  f"{diag['message']}")
        return 0 if report["ok"] else 1

    return _run_operation(args, "lint", render, budget=args.budget)


def cmd_status(args) -> int:
    client = _client(args)
    if args.job_id:
        status = client.job(args.job_id)
        for key in ("id", "kind", "description", "state", "deduplicated",
                    "error", "wait_s", "run_s", "trace_id"):
            print(f"{key:>14}: {status.get(key)}")
        phases = status.get("phases")
        if phases:
            widest = max(len(name) for name in phases)
            print(f"{'phases':>14}:")
            for name, seconds in sorted(phases.items(),
                                        key=lambda kv: -kv[1]):
                print(f"{'':>16}{name:<{widest}}  {seconds:.4f}s")
        return 0 if status["state"] in ("queued", "running", "done") else 1
    health = client.healthz()
    metrics = client.metrics()
    cache = (metrics["service"].get("cache") or {})
    latency = metrics["solve_latency"]

    def fmt(value, spec: str, unit: str = "") -> str:
        return "n/a" if value is None else format(value, spec) + unit

    print(f"server:        {args.server} ({health['status']}, "
          f"uptime {health['uptime_s']:.0f}s)")
    print(f"workers:       {metrics['workers']}")
    print(f"queue depth:   {metrics['queue_depth']} queued, "
          f"{metrics['running']} running")
    print(f"jobs:          {metrics['jobs']}")
    print(f"cache:         entries={cache.get('entries')} "
          f"hits={cache.get('hits')} misses={cache.get('misses')} "
          f"evictions={cache.get('evictions')} "
          f"hit_rate={fmt(cache.get('hit_rate'), '.1%')}")
    print(f"solve latency: count={latency['count']} " + " ".join(
        f"{q}={fmt(latency.get(f'{q}_s'), '.3f', 's')}"
        for q in ("p50", "p95", "p99")))
    return 0


def _emit_trace(args, spans, *, wall_s: Optional[float] = None,
                header: Optional[str] = None) -> int:
    from .obs import chrome_trace, format_waterfall, span_tree
    if not spans:
        print("error: no spans recorded (tracing disabled?)", file=sys.stderr)
        return 1
    if header:
        print(header)
    if args.json:
        print(json.dumps(span_tree(spans), indent=2, sort_keys=True))
    else:
        print(format_waterfall(spans))
    if wall_s is not None:
        covered = sum(s.duration_s for s in spans if s.parent_id is None)
        print(f"span coverage: {min(covered / wall_s, 1.0):.1%} "
              f"of {wall_s * 1e3:.2f} ms solve wall time")
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans), fh, indent=2)
        print(f"chrome trace ({len(spans)} spans) written to "
              f"{args.chrome_trace}; load in chrome://tracing or "
              f"https://ui.perfetto.dev")
    return 0


def cmd_trace(args) -> int:
    if args.server:
        # Remote mode: the target is a settled job id on a traced daemon.
        from .obs import spans_from_tree
        payload = _client(args).trace(args.target)
        spans = spans_from_tree(payload["tree"], payload["trace_id"])
        return _emit_trace(
            args, spans,
            header=f"job {payload['job_id']} ({payload['state']}), "
                   f"trace {payload['trace_id']}")

    # Local mode: the target is a preset; run one traced solve and render
    # where the time went.
    import time

    from .obs import get_tracer, install_phase_histograms
    from .server.ops import OPERATIONS
    from .service import get_default_service
    solve = OPERATIONS["solve"]
    args.preset, args.graph = args.target, None  # the graph source to build
    fields = dict(strategy=args.strategy, budget=args.budget,
                  options=_parse_option_pairs(args.option))
    work = solve.parse(fields, _resolve_request(args, fields, need_graph=True))
    tracer = get_tracer()
    install_phase_histograms()
    tracer.enable()
    start = time.perf_counter()
    result = solve.run(get_default_service(), work, None)
    wall_s = time.perf_counter() - start

    trace_ids = tracer.store.trace_ids()
    spans = tracer.store.spans(trace_ids[-1]) if trace_ids else []
    header = (f"{work.graph.name} / {args.strategy} @ {_format_bytes(work.budget)}: "
              f"{'feasible' if result.feasible else 'infeasible'}"
              + (f", cost {result.compute_cost:.4g}" if result.feasible else "")
              + f" ({result.solve_time_s:.3f}s solve)")
    return _emit_trace(args, spans, wall_s=wall_s, header=header)


def cmd_strategies(args) -> int:
    from .utils.formatting import format_table
    if args.server:
        entries = _client(args).strategies()
    else:
        from .server.http import strategy_entries
        from .service import default_registry
        entries = strategy_entries(default_registry())

    def flag(value) -> str:
        return {True: "yes", False: "no"}.get(value, str(value))

    rows = [(e["key"], flag(e["general_graphs"]), flag(e["cost_aware"]),
             flag(e["memory_aware"]), "yes" if e["in_table1"] else "",
             e["description"]) for e in entries]
    print(format_table(
        ["strategy", "general", "cost-aware", "mem-aware", "table1", "description"],
        rows))
    return 0


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Checkmate reproduction: solve-as-a-service CLI.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the solve daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--workers", type=int, default=None,
                   help="worker pool size (default: min(4, cpu count))")
    p.add_argument("--backend", choices=("thread", "process"), default="thread",
                   help="worker backend: 'thread' (in-process, default) or "
                        "'process' (a spawn-based process pool; solves run "
                        "in parallel across cores)")
    p.add_argument("--max-queue-depth", type=int, default=None,
                   help="admission control: shed new submissions with 503 + "
                        "Retry-After once this many flights are queued "
                        "(default: unbounded)")
    p.add_argument("--default-deadline-s", type=float, default=None,
                   help="default per-job deadline in seconds; jobs still "
                        "queued or running past it fail with "
                        "'deadline-exceeded' (default: none)")
    p.add_argument("--cache-dir", default=None,
                   help="persist solved plans as JSON under this directory")
    p.add_argument("--cache-entries", type=int, default=512,
                   help="in-memory plan cache size (0 disables)")
    p.add_argument("--verbose", action="store_true", help="log HTTP requests")
    p.add_argument("--no-trace", action="store_true",
                   help="disable span tracing (on by default for the daemon; "
                        "feeds /v1/trace/{id} and per-phase histograms)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit one solve and wait for the result")
    _add_operation_args(p, fraction=False, timeout=600.0, server=_DEFAULT_SERVER)
    p.add_argument("--strategy", required=True)
    p.add_argument("--save-schedule", metavar="FILE", default=None,
                   help="write the solved (R, S) schedule JSON to FILE")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("sweep", help="submit a (strategy x budget) sweep")
    _add_operation_args(p, budget=None, fraction=False, timeout=1800.0,
                        server=_DEFAULT_SERVER)
    p.add_argument("--strategies", required=True,
                   help="comma-separated strategy keys")
    p.add_argument("--budgets", default=None,
                   help="comma-separated budgets (512MiB,1GiB,none,...)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("race",
                       help="race the rounding portfolio + exact ILP under a "
                            "deadline; best feasible schedule wins")
    _add_operation_args(p, budget="memory budget (bytes or 512MiB/2GiB/...)",
                        json=True, timeout=600.0)
    p.add_argument("--deadline-s", type=float, default=10.0,
                   help="wall-clock deadline for the race (default: 10)")
    p.add_argument("--entrants", default=None,
                   help="comma-separated strategy keys to race (default: the "
                        "four approx_* portfolio schemes + checkmate_ilp)")
    p.set_defaults(fn=cmd_race)

    p = sub.add_parser("execute",
                       help="solve a schedule, run it over NumPy tensors and "
                            "cross-check predicted vs measured")
    _add_operation_args(p, json=True, timeout=600.0)
    p.add_argument("--strategy", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the deterministic parameter/input binding")
    p.set_defaults(fn=cmd_execute)

    p = sub.add_parser("pareto",
                       help="trace the memory-vs-recompute Pareto frontier by "
                            "warm-seeded budget bisection")
    _add_operation_args(p, budget=None, fraction=False, json=True,
                        timeout=1800.0)
    p.add_argument("--strategy", default="checkmate_ilp",
                   help="warm-capable strategy to trace (default: checkmate_ilp)")
    p.add_argument("--low", type=parse_budget, default=None,
                   help="lower budget bound (default: min-feasible floor)")
    p.add_argument("--high", type=parse_budget, default=None,
                   help="upper budget bound (default: checkpoint-all peak)")
    p.add_argument("--resolution", type=parse_budget, default=None,
                   help="stop bisecting below this budget width "
                        "(default: 1/64 of the range)")
    p.set_defaults(fn=cmd_pareto)

    p = sub.add_parser("trace",
                       help="run one traced solve and show its span waterfall, "
                            "or fetch a job's trace from a daemon")
    p.add_argument("target",
                   help="preset key to solve locally, or (with --server) the "
                        "job id whose trace to fetch")
    _add_operation_args(p, source=False, json=True)
    p.add_argument("--strategy", default="checkmate_ilp",
                   help="strategy for the local solve (default: checkmate_ilp)")
    p.add_argument("--chrome-trace", metavar="FILE", default=None,
                   help="also write Chrome trace-event JSON to FILE "
                        "(chrome://tracing / Perfetto)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("status", help="server health/metrics, or one job's status")
    p.add_argument("job_id", nargs="?", default=None)
    _add_server_args(p, _DEFAULT_SERVER)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("lint",
                       help="run the graph linter and print structured "
                            "diagnostics (exit 1 if any errors)")
    _add_operation_args(p, budget="memory budget to feasibility-check (bytes or "
                                  "512MiB/2GiB/...; enables the B001 diagnostic)",
                        option=False, remote=False, json=True)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("strategies", help="list the solver registry")
    _add_server_args(p)
    p.set_defaults(fn=cmd_strategies)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .server.client import ServeAPIError
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ServeAPIError, TimeoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
