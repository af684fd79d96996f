#!/usr/bin/env python
"""Repeatable perf harness for the compiled-formulation fast path.

Measures, per experiment preset (stdlib ``time.perf_counter`` only, no
pytest-benchmark):

* **compile** -- one cold ``CompiledFormulation`` assembly, next to one cold
  loop-built ``MILPFormulation(...).build()`` for scale;
* **re-budget** -- ``with_budget`` on the compiled object (the per-budget cost
  a sweep actually pays);
* **solve** -- one LP solve of the compiled arrays (the HiGHS floor the
  Python-side optimizations sit on top of);
* **decode** -- vectorized solution decoding;
* **sweep** -- a cold-cache sequential 8-budget ``budget_sweep``, run twice in
  identical subprocesses: once against the *pre-PR tree* (extracted from git,
  ``--baseline-ref``) and once against the current tree.  Schedules are
  SHA-256'd on both sides, so the speedup claim is only reported together
  with a byte-identical (R, S) check.

The exact-MILP strategy is excluded from the sweep set by default: its cells
are HiGHS branch-and-cut bound, which this PR does not (and cannot) change --
the compiled layer targets everything around the solver.  Pass
``--strategies`` to override.

Writes ``BENCH_PR3.json`` at the repo root (``--out``).  CI runs
``--smoke --min-rebudget-speedup 10`` on the smallest preset as a loose
regression guard (relative check only; no flaky absolute-time assertions).

``--pr6`` switches the harness to the warm-start benchmarks and writes
``BENCH_PR6.json`` instead:

* **warm sweep** -- the same 8-budget exact-ILP sweep, below the graph's
  no-recompute peak, run twice in the same process against fresh plan
  caches: once cold (``sweep(warm_start=False)``) and once with
  warm-started descending-budget chains.
  Objectives are compared cell-for-cell (within the MIP gap) so the speedup
  claim is only reported together with a result-identical check.
* **pareto vs dense grid** -- ``SolveService.pareto()`` against a dense
  budget grid at the trace's own resolution; reports solver calls and checks
  both reach the same frontier staircase.

CI runs ``--pr6 --smoke --min-warm-speedup 1.5`` as the warm-vs-cold guard.

``--pr7`` measures the observability tax and writes ``BENCH_PR7.json``:

* **traced warm sweep** -- the same warm (plan-cache-hit) exact-ILP sweep
  timed with tracing off and with tracing + phase histograms on.  Warm cells
  are the worst case for instrumentation: the solve is microseconds, so the
  span bookkeeping is the largest relative slice it will ever be.
* **span micro-costs** -- nanoseconds per ``tracer.span()`` enter/exit with
  tracing disabled (must be ~an attribute check) and enabled.
* **prometheus render** -- one ``/v1/metrics?format=prometheus`` body render.

CI runs ``--pr7 --max-trace-overhead 0.05``: a loose gate for noisy shared
runners (the recorded figure in ``BENCH_PR7.json`` is under 2%).

``--pr9`` measures the graph-canonicalization payoff and writes
``BENCH_PR9.json``:

* **formulation shrink** -- ``CompiledFormulation`` variables/constraints/nnz
  and compile time on the raw training graph vs the canonicalized one
  (``optimize_graph``: DCE + zero-cost-chain fusion).
* **solve equivalence** -- one exact-ILP solve of each at the same budget;
  objectives must be *identical* (the decoded-schedule cross-checks inside
  ``solve_canonicalized`` additionally prove the simulator peak matches).
* **execution proof** -- on executable presets the decoded schedule is run
  over real NumPy tensors and the :class:`ExecutionReport` must come back
  ``ok`` with outputs bit-identical to checkpoint-all.

CI runs ``--pr9 --smoke --min-nnz-reduction 0.05`` so the repeated-block
preset keeps shrinking by at least 5% nnz.

``--pr10`` measures the deadline-racing meta-solver and writes
``BENCH_PR10.json``:

* **quality-vs-deadline curve** -- one ``race`` solve per deadline on a
  ladder from sub-second to generous, each against a fresh (uncached)
  service, recording the winner, objective, wall time, whether the deadline
  fired, and how many entrants finished vs were reaped.
* **quality ceiling** -- a generous exact-ILP solve of the same cell; each
  curve point reports ``quality_ratio = race_objective / ceiling`` so the
  curve shows the race converging onto the exact optimum as the SLO relaxes.

CI runs ``--pr10 --smoke`` (resnet_tiny, short ladder) and fails if the race
cannot produce a feasible schedule at the longest smoke deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

#: Last commit before the compiled-formulation PR; the honest baseline.
PRE_PR_REF = "d815810"

DEFAULT_PRESETS = ("resnet_tiny", "vgg16", "segnet", "unet", "mobilenet")
SMOKE_PRESET = "resnet_tiny"

#: The warm-start (PR 6) benchmark set: exact-ILP sweeps must stay tractable
#: cold, which rules the largest presets out.
PR6_PRESETS = ("linear_mlp", "linear_cnn", "resnet_tiny", "vgg16", "segnet")
PR6_PARETO_PRESET = "resnet_tiny"

#: The trace-overhead (PR 7) benchmark preset: warm cache-hit cells are the
#: instrumentation worst case, and the ISSUE's acceptance bar names this one.
PR7_PRESETS = ("resnet_tiny",)

#: Canonicalization (PR 9) benchmark set: three presets with zero-cost chains
#: the fusion pass collapses (vgg16/vgg19 have a flatten, deepblock is the
#: repeated-block showcase) plus linear_cnn as a no-change control.
PR9_PRESETS = ("vgg16", "vgg19", "deepblock", "linear_cnn")
PR9_SMOKE_PRESET = "deepblock"
#: Presets whose decoded schedule is additionally executed over real tensors.
PR9_EXEC_PRESETS = ("deepblock", "vgg16")

#: Deadline-race (PR 10) benchmark set and deadline ladder.  The fraction
#: pins one memorably tight budget cell (half the retained-activation
#: footprint) where the approximations and the exact ILP genuinely diverge.
PR10_PRESETS = ("resnet_tiny", "vgg16")
PR10_DEADLINES = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
PR10_SMOKE_DEADLINES = (0.5, 2.0)
PR10_FRACTION = 0.5
PR10_CEILING_LIMIT_S = 120.0

#: Figure-5 strategies minus the exact MILP (see module docstring).
DEFAULT_SWEEP_STRATEGIES = (
    "checkpoint_all", "chen_sqrt_n", "chen_greedy", "griewank_logn",
    "ap_sqrt_n", "ap_greedy", "linearized_sqrt_n", "linearized_greedy",
    "checkmate_approx",
)

#: Sweep driver executed in a subprocess against one source tree.  Only uses
#: APIs present both pre- and post-PR (budget_sweep / SolveService / solve).
SWEEP_DRIVER = r"""
import hashlib, json, sys, time
preset, num_budgets, strategies_csv, out_path = sys.argv[1:5]
from repro.experiments.presets import build_training_graph
from repro.experiments.budget_sweep import budget_grid, budget_sweep
from repro.service import SolveService, SolverOptions

graph = build_training_graph(preset)
budgets = budget_grid(graph, int(num_budgets))
strategies = strategies_csv.split(",")
service = SolveService()  # fresh in-memory plan cache: the sweep runs cold

t0 = time.perf_counter()
points = budget_sweep(graph, budgets, strategies=strategies,
                      service=service, parallel=False)
elapsed = time.perf_counter() - t0

# Re-dispatch every cell through the now-warm plan cache to hash the actual
# (R, S) matrices; zero additional solver invocations.
options = SolverOptions(time_limit_s=120.0)
digests = {}
for strategy in strategies:
    spec = service.registry.get(strategy)
    cell_budgets = budgets if spec.has_budget_knob else [max(budgets)]
    for budget in cell_budgets:
        try:
            result = service.solve(graph, strategy, budget, options)
        except Exception as exc:  # linear-only on non-linear graphs etc.
            digests[f"{strategy}@{budget}"] = f"error:{type(exc).__name__}"
            continue
        if result.matrices is None:
            digests[f"{strategy}@{budget}"] = None
        else:
            digests[f"{strategy}@{budget}"] = hashlib.sha256(
                result.matrices.R.tobytes() + result.matrices.S.tobytes()
            ).hexdigest()

json.dump({"preset": preset, "budgets": budgets, "elapsed_s": elapsed,
           "solver_calls": service.statistics()["solver_calls"], "digests": digests},
          open(out_path, "w"))
"""


def time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_repeat(fn, repeats: int) -> float:
    """Median of ``repeats`` timings (first call excluded as warmup)."""
    fn()
    return statistics.median(time_once(fn) for _ in range(repeats))


def micro_bench(preset: str, *, with_solve: bool = True) -> dict:
    import numpy as np
    from repro.experiments.budget_sweep import budget_grid
    from repro.experiments.presets import build_training_graph
    from repro.solvers import CompiledFormulation, MILPFormulation

    graph = build_training_graph(preset)
    budget = budget_grid(graph, 3)[1]

    legacy_build_s = time_repeat(lambda: MILPFormulation(graph, budget).build(), 3)
    compile_s = time_repeat(lambda: CompiledFormulation(graph), 3)
    compiled = CompiledFormulation(graph)
    rebudget_s = time_repeat(lambda: compiled.with_budget(budget), 50)

    arrays = compiled.with_budget(budget)
    rng = np.random.default_rng(0)
    x = rng.random(compiled.num_variables)
    decode_s = time_repeat(lambda: compiled.decode_matrices(x), 20)

    out = {
        "graph_nodes": graph.size,
        "graph_edges": graph.num_edges,
        "variables": compiled.num_variables,
        "constraints": int(arrays.A.shape[0]),
        "nnz": int(arrays.A.nnz),
        "legacy_build_s": legacy_build_s,
        "compile_s": compile_s,
        "rebudget_s": rebudget_s,
        "decode_s": decode_s,
        "rebudget_speedup_vs_compile": compile_s / rebudget_s if rebudget_s else None,
        "rebudget_speedup_vs_legacy_build": (
            legacy_build_s / rebudget_s if rebudget_s else None),
    }
    if with_solve:
        from scipy.optimize import Bounds, LinearConstraint, milp

        def lp_solve():
            milp(c=arrays.c,
                 constraints=LinearConstraint(arrays.A, arrays.constraint_lb,
                                              arrays.constraint_ub),
                 integrality=np.zeros_like(arrays.integrality),
                 bounds=Bounds(arrays.lb, arrays.ub),
                 options={"presolve": True})

        out["lp_solve_s"] = time_repeat(lp_solve, 3)
    return out


def run_sweep_subprocess(src_dir: str, preset: str, num_budgets: int,
                         strategies) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        driver = os.path.join(tmp, "driver.py")
        out_path = os.path.join(tmp, "out.json")
        with open(driver, "w") as fh:
            fh.write(SWEEP_DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        subprocess.run(
            [sys.executable, driver, preset, str(num_budgets),
             ",".join(strategies), out_path],
            check=True, env=env, cwd=tmp,
        )
        with open(out_path) as fh:
            return json.load(fh)


def extract_baseline_tree(ref: str) -> str:
    """``git archive`` the baseline ref into a temp dir; returns its src/."""
    tmp = tempfile.mkdtemp(prefix="prepr-baseline-")
    archive = subprocess.run(["git", "archive", ref], cwd=REPO_ROOT,
                             check=True, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
    return os.path.join(tmp, "src")


def sweep_bench(preset: str, num_budgets: int, strategies, baseline_src) -> dict:
    current = run_sweep_subprocess(SRC, preset, num_budgets, strategies)
    out = {
        "budgets": num_budgets,
        "strategies": list(strategies),
        "current_s": current["elapsed_s"],
        "solver_calls": current["solver_calls"],
    }
    if baseline_src is None:
        out["baseline_s"] = None
        out["note"] = "baseline tree unavailable (not a git checkout?)"
        return out
    baseline = run_sweep_subprocess(baseline_src, preset, num_budgets, strategies)
    out["baseline_s"] = baseline["elapsed_s"]
    out["speedup"] = baseline["elapsed_s"] / current["elapsed_s"]
    out["schedules_identical"] = baseline["digests"] == current["digests"]
    out["cells_compared"] = len(current["digests"])
    return out


def warm_sweep_bench(preset: str, num_budgets: int) -> dict:
    """Same-process warm-vs-cold exact-ILP sweep over ``num_budgets`` cells.

    The budgets span the feasibility floor up to just below the graph's
    no-recompute peak.  At or above that peak the liveness certificate
    answers every cell in about a millisecond, warm or cold, so a sweep
    there (the canonical :func:`budget_grid` lies entirely above it on the
    smoke preset) measures no warm-start effect at all.  Below it the cold
    sweep is real HiGHS work: about 80 s on the smoke preset on a 2-CPU
    host, most of it in the near-floor cells.  Both runs use
    fresh plan caches and ``parallel=False`` (isolating the warm-chain effect
    from thread scheduling); the process-wide formulation cache is populated
    up front so neither run pays the one-off compile.  The cold run is
    ``sweep(warm_start=False)``: per cell one LP certificate or HiGHS solve,
    modulo the below-floor shortcut, which fires for cold cells too.
    """
    import numpy as np
    from repro.core import no_recompute_schedule, schedule_peak_memory
    from repro.experiments.presets import build_training_graph
    from repro.service import SolveService, SweepCell
    from repro.solvers import (budget_floor_margin, get_formulation_cache,
                               min_feasible_budget_floor)

    graph = build_training_graph(preset)
    get_formulation_cache().get(graph)
    low = min_feasible_budget_floor(graph) + budget_floor_margin(graph)
    high = schedule_peak_memory(graph, no_recompute_schedule(graph)) - 1
    cells = [SweepCell("checkmate_ilp", float(int(b)))
             for b in np.linspace(low, high, num_budgets)]

    cold_svc = SolveService()
    t0 = time.perf_counter()
    cold = cold_svc.sweep(graph, cells, parallel=False, warm_start=False)
    cold_s = time.perf_counter() - t0

    warm_svc = SolveService()
    t0 = time.perf_counter()
    warm = warm_svc.sweep(graph, cells, parallel=False, warm_start=True)
    warm_s = time.perf_counter() - t0

    mismatches = []
    for cell, c, w in zip(cells, cold, warm):
        if c.feasible != w.feasible:
            mismatches.append({"budget": cell.budget, "cold": c.feasible,
                               "warm": w.feasible})
        elif c.feasible and abs(c.compute_cost - w.compute_cost) > 1e-4 * max(
                abs(c.compute_cost), abs(w.compute_cost), 1.0):
            mismatches.append({"budget": cell.budget, "cold": c.compute_cost,
                               "warm": w.compute_cost})

    stats = warm_svc.statistics()
    return {
        "budgets": num_budgets,
        "strategy": "checkmate_ilp",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else None,
        "objectives_identical": not mismatches,
        "mismatches": mismatches,
        "warm_seeds": stats["warm_seeds"],
        "incumbent_prunes": stats["incumbent_prunes"],
        "bound_skips": stats["bound_skips"],
        "infeasible_shortcuts": stats["infeasible_shortcuts"],
        "warm_statuses": sorted({r.solver_status for r in warm}),
    }


def pareto_bench(preset: str) -> dict:
    """Bisection frontier trace vs a dense grid at the trace's resolution."""
    import numpy as np
    from repro.experiments.presets import build_training_graph
    from repro.service import SolveService, SweepCell

    graph = build_training_graph(preset)
    t0 = time.perf_counter()
    front = SolveService().pareto(graph, "checkmate_ilp")
    trace_s = time.perf_counter() - t0

    steps = int(round((front.high - front.low) / front.resolution))
    grid = [float(b) for b in np.linspace(front.low, front.high, steps + 1)]
    dense_svc = SolveService()
    t0 = time.perf_counter()
    dense = dense_svc.sweep(graph, [SweepCell("checkmate_ilp", b) for b in grid],
                            parallel=False)
    dense_s = time.perf_counter() - t0

    def staircase(costs, rtol=1e-3):
        out = []
        for c in costs:
            if not out or abs(c - out[-1]) > rtol * max(abs(out[-1]), 1.0):
                out.append(c)
        return out

    dense_steps = staircase([r.compute_cost for r in dense if r.feasible])
    front_steps = staircase([p.compute_cost for p in front.feasible_points])
    same = len(dense_steps) == len(front_steps) and all(
        abs(a - b) <= 1e-3 * max(abs(a), abs(b), 1.0)
        for a, b in zip(dense_steps, front_steps))
    return {
        "resolution": front.resolution,
        "trace_solver_calls": front.solver_calls,
        "dense_solver_calls": len(grid),
        "call_ratio": front.solver_calls / len(grid),
        "trace_s": trace_s,
        "dense_s": dense_s,
        "num_knees": len(front.knees()),
        "same_frontier": same,
        "frontier_costs": front_steps,
    }


def trace_overhead_bench(preset: str, num_budgets: int, *,
                         pairs: int = 400, trials: int = 3) -> dict:
    """Warm-sweep wall time with tracing off vs on (same service, same cells).

    The plan cache is warmed first, so every timed cell is a cache hit --
    microseconds of real work against which the tracer's spans, context
    managers and histogram observes are as expensive, relatively, as they
    ever get.  Each measurement *pairs* one traced sweep immediately after
    one untraced sweep, so CPU-frequency drift and scheduler noise hit both
    sides equally; the estimator is ``median(on - off) / median(off)`` over
    hundreds of pairs, which is robust to the heavy right tail that wall
    clocks on shared machines produce (min- or mean-based estimators swing
    by multiples of the true delta here).  ``trials`` repeats the whole
    pairing and the median trial is reported.
    """
    from repro.experiments.budget_sweep import budget_grid
    from repro.experiments.presets import build_training_graph
    from repro.obs import get_tracer, install_phase_histograms
    from repro.service import SolveService, SweepCell

    graph = build_training_graph(preset)
    cells = [SweepCell("checkmate_ilp", float(b))
             for b in budget_grid(graph, num_budgets)]
    service = SolveService()
    service.sweep(graph, cells, parallel=False)  # warm the plan cache

    def one_sweep():
        start = time.perf_counter()
        service.sweep(graph, cells, parallel=False)
        return time.perf_counter() - start

    tracer = get_tracer()
    install_phase_histograms()
    for enabled in (False, True):  # warm both code paths
        (tracer.enable() if enabled else tracer.disable())
        for _ in range(50):
            one_sweep()
    tracer.disable()

    trial_stats = []
    for _ in range(trials):
        deltas, offs = [], []
        for _ in range(pairs):
            tracer.disable()
            off = one_sweep()
            tracer.enable()
            on = one_sweep()
            deltas.append(on - off)
            offs.append(off)
        tracer.disable()
        off_s = statistics.median(offs)
        trial_stats.append((statistics.median(deltas) / off_s, off_s))
    trial_stats.sort()
    overhead, off_s = trial_stats[len(trial_stats) // 2]
    on_s = off_s * (1.0 + overhead)

    # Per-span enter/exit micro-cost, both modes.
    spins = 20_000

    def spin():
        span = tracer.span
        for _ in range(spins):
            with span("bench-span"):
                pass

    disabled_spin_s = time_repeat(spin, 5)
    tracer.enable()
    enabled_spin_s = time_repeat(spin, 5)
    tracer.disable()
    tracer.store.clear()

    from repro.obs import get_metrics_registry
    registry = get_metrics_registry()
    render_s = time_repeat(lambda: registry.render_prometheus(), 5)

    return {
        "strategy": "checkmate_ilp",
        "budgets": num_budgets,
        "pairs": pairs,
        "trials": trials,
        "warm_sweep_off_s": off_s,
        "warm_sweep_on_s": on_s,
        "overhead_fraction": overhead,
        "span_disabled_ns": disabled_spin_s / spins * 1e9,
        "span_enabled_ns": enabled_spin_s / spins * 1e9,
        "prometheus_render_s": render_s,
    }


def canonicalization_bench(preset: str, *, budget_fraction: float = 0.8,
                           execute: bool = False) -> dict:
    """Raw-vs-canonicalized formulation sizes and one equal-objective solve.

    The budget sits at ``overhead + 0.8 * total activation memory`` -- tight
    enough that the exact ILP has to checkpoint, loose enough that both
    formulations close the gap quickly, so objective equality is a meaningful
    byte-for-byte check rather than a trivial checkpoint-all tie.
    """
    from repro.analysis import optimize_graph
    from repro.experiments.presets import build_training_graph
    from repro.service import SolveService
    from repro.solvers import CompiledFormulation

    graph = build_training_graph(preset)
    t0 = time.perf_counter()
    opt = optimize_graph(graph)
    optimize_s = time.perf_counter() - t0

    raw_stats = CompiledFormulation(graph).stats
    opt_stats = CompiledFormulation(opt.graph).stats

    budget = float(int(graph.constant_overhead
                       + budget_fraction * graph.total_activation_memory()))

    raw_svc = SolveService()
    t0 = time.perf_counter()
    raw = raw_svc.solve(graph, "checkmate_ilp", budget)
    raw_solve_s = time.perf_counter() - t0

    canon_svc = SolveService()
    t0 = time.perf_counter()
    canon = canon_svc.solve_canonicalized(graph, "checkmate_ilp", budget)
    canon_solve_s = time.perf_counter() - t0

    out = {
        "nodes_raw": graph.size,
        "nodes_optimized": opt.graph.size,
        "pass_stats": opt.stats,
        "optimize_s": optimize_s,
        "variables_raw": raw_stats["variables"],
        "variables_optimized": opt_stats["variables"],
        "variables_reduction": 1.0 - opt_stats["variables"] / raw_stats["variables"],
        "nnz_raw": raw_stats["nnz"],
        "nnz_optimized": opt_stats["nnz"],
        "nnz_reduction": 1.0 - opt_stats["nnz"] / raw_stats["nnz"],
        "compile_raw_s": raw_stats["compile_time_s"],
        "compile_optimized_s": opt_stats["compile_time_s"],
        "budget": budget,
        "solve_raw_s": raw_solve_s,
        "solve_canonicalized_s": canon_solve_s,
        "objective_raw": raw.compute_cost,
        "objective_canonicalized": canon.compute_cost,
        # Byte-identical objectives: decoded schedules replay the fused
        # members exactly when the fused node ran, so costs match exactly.
        "objectives_identical": (raw.feasible == canon.feasible
                                 and raw.compute_cost == canon.compute_cost),
        "peak_raw": raw.peak_memory,
        "peak_canonicalized": canon.peak_memory,
        "analysis_extra": canon.extra.get("analysis"),
    }
    if execute:
        from repro.execution import build_execution_report
        from repro.experiments.presets import build_numeric_training_graph

        numeric = build_numeric_training_graph(preset)
        report = build_execution_report(numeric, canon)
        out["execution"] = {
            "ok": report.ok,
            "outputs_match": report.outputs_match,
            "measured_peak_bytes": report.measured_peak_bytes,
            "within_budget": report.within_budget,
        }
    return out


def deadline_curve_bench(preset: str, deadlines, fraction: float = PR10_FRACTION):
    """Race one budget cell under a ladder of deadlines; report the curve."""
    from repro.experiments.presets import build_training_graph
    from repro.service import SolveService, SolverOptions

    graph = build_training_graph(preset)
    budget = int(graph.constant_overhead
                 + graph.total_activation_memory() * fraction)

    # Quality ceiling: a generous exact solve of the same cell.  The race's
    # objective can never beat it, so quality_ratio >= 1 and should approach
    # 1 as the deadline relaxes.
    ceiling_service = SolveService(cache=None)
    t0 = time.perf_counter()
    ceiling = ceiling_service.solve(
        graph, "checkmate_ilp", budget,
        SolverOptions(time_limit_s=PR10_CEILING_LIMIT_S))
    ceiling_s = time.perf_counter() - t0
    ceiling_cost = float(ceiling.compute_cost) if ceiling.feasible else None

    curve = []
    for deadline in deadlines:
        # A fresh service per point: every race runs cold, no plan-cache
        # replay flattering the short deadlines.
        service = SolveService(cache=None)
        t0 = time.perf_counter()
        result = service.solve(
            graph, "race", budget,
            SolverOptions(deadline_s=float(deadline)))
        wall = time.perf_counter() - t0
        race = (result.extra or {}).get("race", {})
        lanes = race.get("entrants", [])
        objective = float(result.compute_cost) if result.feasible else None
        curve.append({
            "deadline_s": float(deadline),
            "feasible": bool(result.feasible),
            "winner": race.get("winner"),
            "objective": objective,
            "quality_ratio": (objective / ceiling_cost
                              if objective is not None and ceiling_cost
                              else None),
            "wall_s": wall,
            "deadline_hit": bool(race.get("deadline_hit")),
            "entrants_finished": sum(1 for l in lanes
                                     if l.get("wall_s") is not None),
            "entrants_total": len(lanes),
        })
    return {
        "budget": budget,
        "budget_fraction": fraction,
        "ceiling_objective": ceiling_cost,
        "ceiling_status": ceiling.solver_status,
        "ceiling_s": ceiling_s,
        "curve": curve,
    }


def run_pr10_benchmarks(args, presets, report) -> bool:
    failed = False
    deadlines = PR10_SMOKE_DEADLINES if args.smoke else PR10_DEADLINES
    for preset in presets:
        print(f"== {preset} ==")
        bench = deadline_curve_bench(preset, deadlines)
        report["presets"][preset] = bench
        print(f"  budget {bench['budget']} ({bench['budget_fraction']:.0%} of "
              f"retained activations)   ceiling "
              f"{bench['ceiling_objective']!r} "
              f"({bench['ceiling_status']}, {bench['ceiling_s']:.1f} s)")
        for point in bench["curve"]:
            ratio = point["quality_ratio"]
            print(f"  deadline {point['deadline_s']:6.2f} s  "
                  f"winner {point['winner'] or '-':24s} "
                  f"quality {f'{ratio:.3f}x' if ratio else 'infeasible':>12s} "
                  f"wall {point['wall_s']:5.2f} s  "
                  f"{point['entrants_finished']}/{point['entrants_total']} "
                  f"entrants finished")
        last = bench["curve"][-1]
        if not last["feasible"]:
            print(f"  ERROR: race infeasible even at the longest deadline "
                  f"({last['deadline_s']} s)")
            failed = True
        if (args.max_quality_ratio is not None and last["quality_ratio"]
                and last["quality_ratio"] > args.max_quality_ratio):
            print(f"  ERROR: quality {last['quality_ratio']:.3f}x at the "
                  f"longest deadline (budget {args.max_quality_ratio:.2f}x)")
            failed = True
    return failed


def run_pr9_benchmarks(args, presets, report) -> bool:
    failed = False
    for preset in presets:
        print(f"== {preset} ==")
        execute = preset in PR9_EXEC_PRESETS and not args.smoke
        bench = canonicalization_bench(preset, execute=execute)
        report["presets"][preset] = bench
        print(f"  nodes {bench['nodes_raw']} -> {bench['nodes_optimized']}   "
              f"variables {bench['variables_raw']} -> "
              f"{bench['variables_optimized']} "
              f"(-{bench['variables_reduction']:.1%})   "
              f"nnz {bench['nnz_raw']} -> {bench['nnz_optimized']} "
              f"(-{bench['nnz_reduction']:.1%})")
        print(f"  optimize {bench['optimize_s'] * 1e3:.2f} ms   compile "
              f"{bench['compile_raw_s'] * 1e3:.2f} -> "
              f"{bench['compile_optimized_s'] * 1e3:.2f} ms   solve "
              f"{bench['solve_raw_s']:.2f} -> "
              f"{bench['solve_canonicalized_s']:.2f} s")
        print(f"  objective {bench['objective_raw']!r} == "
              f"{bench['objective_canonicalized']!r}: "
              f"{bench['objectives_identical']}")
        if not bench["objectives_identical"]:
            print("  ERROR: canonicalized objective differs from the raw solve")
            failed = True
        if "execution" in bench:
            ex = bench["execution"]
            print(f"  executed decoded schedule: ok={ex['ok']} "
                  f"outputs_match={ex['outputs_match']} "
                  f"measured peak {ex['measured_peak_bytes']}")
            if not ex["ok"]:
                print("  ERROR: decoded schedule failed the execution report")
                failed = True
        if (args.min_nnz_reduction is not None and preset == PR9_SMOKE_PRESET
                and bench["nnz_reduction"] < args.min_nnz_reduction):
            print(f"  ERROR: nnz only shrank {bench['nnz_reduction']:.1%} "
                  f"(required {args.min_nnz_reduction:.0%})")
            failed = True
    return failed


def run_pr7_benchmarks(args, presets, report) -> bool:
    failed = False
    for preset in presets:
        print(f"== {preset} ==")
        bench = trace_overhead_bench(preset, args.budgets)
        report["presets"][preset] = {"trace_overhead": bench}
        overhead = bench["overhead_fraction"]
        print(f"  warm sweep ({args.budgets} budgets)  tracing off "
              f"{bench['warm_sweep_off_s'] * 1e3:.3f} ms -> on "
              f"{bench['warm_sweep_on_s'] * 1e3:.3f} ms "
              f"({overhead:+.2%} overhead)")
        print(f"  span enter/exit    disabled {bench['span_disabled_ns']:6.0f} ns"
              f"   enabled {bench['span_enabled_ns']:6.0f} ns")
        print(f"  prometheus render  {bench['prometheus_render_s'] * 1e3:8.2f} ms")
        if (args.max_trace_overhead is not None
                and overhead is not None and overhead > args.max_trace_overhead):
            print(f"  ERROR: traced warm sweep {overhead:.2%} slower than "
                  f"untraced (budget {args.max_trace_overhead:.0%})")
            failed = True
    return failed


def run_pr6_benchmarks(args, presets, report) -> bool:
    failed = False
    for preset in presets:
        print(f"== {preset} ==")
        sweep = warm_sweep_bench(preset, args.budgets)
        report["presets"][preset] = {"warm_sweep": sweep}
        print(f"  warm sweep ({args.budgets} budgets)  cold "
              f"{sweep['cold_s']:.2f} s -> warm {sweep['warm_s']:.2f} s "
              f"({sweep['speedup']:.2f}x, objectives identical: "
              f"{sweep['objectives_identical']}; "
              f"{sweep['incumbent_prunes']} prunes, "
              f"{sweep['bound_skips']} bound skips)")
        if not sweep["objectives_identical"]:
            print(f"  ERROR: warm objectives differ: {sweep['mismatches']}")
            failed = True
        if (args.min_warm_speedup is not None
                and (sweep["speedup"] or 0.0) < args.min_warm_speedup):
            print(f"  ERROR: warm sweep only {sweep['speedup']:.2f}x faster "
                  f"than cold (required {args.min_warm_speedup:.1f}x)")
            failed = True

    if not args.smoke:
        preset = PR6_PARETO_PRESET
        print(f"== pareto vs dense grid ({preset}) ==")
        pareto = pareto_bench(preset)
        report["pareto"] = {"preset": preset, **pareto}
        print(f"  trace {pareto['trace_solver_calls']} solver calls vs dense "
              f"{pareto['dense_solver_calls']} "
              f"({pareto['call_ratio']:.2f}x), {pareto['num_knees']} knees, "
              f"same frontier: {pareto['same_frontier']}")
        if not pareto["same_frontier"]:
            print("  ERROR: bisection missed part of the dense-grid frontier")
            failed = True
        if pareto["trace_solver_calls"] * 2 > pareto["dense_solver_calls"]:
            print("  ERROR: trace spent more than half the dense grid's calls")
            failed = True
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--presets", nargs="+", default=None)
    parser.add_argument("--budgets", type=int, default=8)
    parser.add_argument("--strategies", nargs="+",
                        default=list(DEFAULT_SWEEP_STRATEGIES))
    parser.add_argument("--baseline-ref", default=PRE_PR_REF,
                        help="git ref of the pre-PR tree (default %(default)s)")
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_PR3.json, or "
                             "BENCH_PR6.json with --pr6)")
    parser.add_argument("--smoke", action="store_true",
                        help="micro-bench only, smallest preset, no sweeps")
    parser.add_argument("--min-rebudget-speedup", type=float, default=None,
                        help="exit non-zero unless re-budget beats a cold "
                             "compile by at least this factor")
    parser.add_argument("--pr6", action="store_true",
                        help="run the warm-start sweep + pareto benchmarks "
                             "and write BENCH_PR6.json")
    parser.add_argument("--min-warm-speedup", type=float, default=None,
                        help="with --pr6: exit non-zero unless the warm sweep "
                             "beats the cold sweep by at least this factor")
    parser.add_argument("--pr7", action="store_true",
                        help="run the tracing-overhead benchmarks and write "
                             "BENCH_PR7.json")
    parser.add_argument("--max-trace-overhead", type=float, default=None,
                        metavar="FRACTION",
                        help="with --pr7: exit non-zero if the traced warm "
                             "sweep is more than this fraction slower "
                             "(e.g. 0.02 for 2%%)")
    parser.add_argument("--pr9", action="store_true",
                        help="run the graph-canonicalization benchmarks and "
                             "write BENCH_PR9.json")
    parser.add_argument("--min-nnz-reduction", type=float, default=None,
                        metavar="FRACTION",
                        help="with --pr9: exit non-zero unless the "
                             "repeated-block preset's nnz shrinks by at "
                             "least this fraction (e.g. 0.05 for 5%%)")
    parser.add_argument("--pr10", action="store_true",
                        help="run the deadline-race quality-vs-deadline "
                             "benchmarks and write BENCH_PR10.json")
    parser.add_argument("--max-quality-ratio", type=float, default=None,
                        metavar="RATIO",
                        help="with --pr10: exit non-zero if the longest "
                             "deadline's objective exceeds the exact ceiling "
                             "by more than this factor (e.g. 1.05)")
    args = parser.parse_args()

    if args.pr10:
        report = {
            "pr": 10,
            "description": "deadline-racing meta-solver: quality-vs-deadline "
                           "curves against the exact-ILP ceiling",
            "python": sys.version.split()[0],
            "presets": {},
        }
        presets = args.presets or (
            [SMOKE_PRESET] if args.smoke else list(PR10_PRESETS))
        failed = run_pr10_benchmarks(args, presets, report)
        out = args.out or os.path.join(REPO_ROOT, "BENCH_PR10.json")
    elif args.pr9:
        report = {
            "pr": 9,
            "description": "graph canonicalization: DCE + zero-cost-chain "
                           "fusion, formulation shrink, equal-objective "
                           "solves, executed decoded schedules",
            "python": sys.version.split()[0],
            "presets": {},
        }
        presets = args.presets or (
            [PR9_SMOKE_PRESET] if args.smoke else list(PR9_PRESETS))
        failed = run_pr9_benchmarks(args, presets, report)
        out = args.out or os.path.join(REPO_ROOT, "BENCH_PR9.json")
    elif args.pr7:
        report = {
            "pr": 7,
            "description": "tracing/metrics overhead: warm sweep off vs on, "
                           "span micro-costs, prometheus render",
            "python": sys.version.split()[0],
            "presets": {},
        }
        presets = args.presets or (
            [SMOKE_PRESET] if args.smoke else list(PR7_PRESETS))
        failed = run_pr7_benchmarks(args, presets, report)
        out = args.out or os.path.join(REPO_ROOT, "BENCH_PR7.json")
    elif args.pr6:
        report = {
            "pr": 6,
            "description": "warm-started incremental sweeps and bisection "
                           "pareto tracing",
            "python": sys.version.split()[0],
            "presets": {},
        }
        presets = args.presets or (
            [SMOKE_PRESET] if args.smoke else list(PR6_PRESETS))
        failed = run_pr6_benchmarks(args, presets, report)
        out = args.out or os.path.join(REPO_ROOT, "BENCH_PR6.json")
    else:
        report = {
            "pr": 3,
            "description": "compiled-formulation fast path: compile once per "
                           "graph, re-budget in O(1)",
            "baseline_ref": args.baseline_ref,
            "python": sys.version.split()[0],
            "presets": {},
        }
        if args.smoke:
            presets = [SMOKE_PRESET]
            baseline_src = None
        else:
            presets = args.presets or list(DEFAULT_PRESETS)
            try:
                baseline_src = extract_baseline_tree(args.baseline_ref)
            except (subprocess.CalledProcessError, OSError) as exc:
                print(f"warning: could not extract baseline "
                      f"{args.baseline_ref}: {exc}")
                baseline_src = None

        try:
            failed = run_benchmarks(args, presets, baseline_src, report)
        finally:
            if baseline_src is not None:
                shutil.rmtree(os.path.dirname(baseline_src), ignore_errors=True)
        out = args.out or os.path.join(REPO_ROOT, "BENCH_PR3.json")

    if not args.smoke:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    return 1 if failed else 0


def run_benchmarks(args, presets, baseline_src, report) -> bool:
    failed = False
    for preset in presets:
        print(f"== {preset} ==")
        entry = {"micro": micro_bench(preset, with_solve=not args.smoke)}
        micro = entry["micro"]
        print(f"  compile (compiled) {micro['compile_s'] * 1e3:8.2f} ms   "
              f"(loop-built build {micro['legacy_build_s'] * 1e3:.2f} ms)")
        print(f"  re-budget          {micro['rebudget_s'] * 1e6:8.2f} us   "
              f"({micro['rebudget_speedup_vs_compile']:.0f}x faster than a "
              f"cold compile)")
        print(f"  decode             {micro['decode_s'] * 1e6:8.2f} us")
        if "lp_solve_s" in micro:
            print(f"  LP solve           {micro['lp_solve_s'] * 1e3:8.2f} ms")

        if not args.smoke:
            entry["sweep"] = sweep_bench(preset, args.budgets, args.strategies,
                                         baseline_src)
            sweep = entry["sweep"]
            if sweep.get("baseline_s") is not None:
                print(f"  sweep ({args.budgets} budgets)  pre-PR "
                      f"{sweep['baseline_s']:.2f} s -> {sweep['current_s']:.2f} s "
                      f"({sweep['speedup']:.2f}x, schedules identical: "
                      f"{sweep['schedules_identical']})")
                if not sweep["schedules_identical"]:
                    print("  ERROR: schedules differ from the pre-PR path")
                    failed = True
            else:
                print(f"  sweep ({args.budgets} budgets)  {sweep['current_s']:.2f} s "
                      f"(no baseline)")

        if args.min_rebudget_speedup is not None:
            ratio = micro["rebudget_speedup_vs_compile"] or 0.0
            if ratio < args.min_rebudget_speedup:
                print(f"  ERROR: re-budget only {ratio:.1f}x faster than compile "
                      f"(required {args.min_rebudget_speedup:.0f}x)")
                failed = True

        report["presets"][preset] = entry
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
