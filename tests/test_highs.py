"""The HiGHS drop-in: ``scipy.optimize.milp`` parity, MIP starts, interrupts
and the HiGHS version floor."""

from __future__ import annotations

import importlib.util
import threading
import time

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint

from helpers import below_liveness_budget
from repro.core import schedule_compute_cost
from repro.experiments import build_training_graph
from repro.solvers import highs
from repro.solvers.compiled import formulation_and_arrays
from repro.solvers.repair import repair_schedule

#: (preset, batch, fraction of the way from the budget floor to the
#: no-recompute peak).  The MILPs of the last two take 10-15 s each on one
#: core, so only their LP relaxations run here.
CELLS = [("linear_cnn", 64, 0.1), ("vgg16", 4, 0.5),
         ("resnet_tiny", 8, 0.3), ("segnet", 4, 0.25)]
FAST_MILP_CELLS = CELLS[:2]

_OPTIONS = {"time_limit": 120.0, "mip_rel_gap": 1e-4, "presolve": True}


def _problem(preset, batch, fraction, *, integral=True):
    graph = build_training_graph(preset, batch_size=batch)
    budget = below_liveness_budget(graph, fraction)
    formulation, arrays = formulation_and_arrays(graph, budget)
    integrality = arrays.integrality if integral else np.zeros_like(arrays.integrality)
    kwargs = dict(c=arrays.c,
                  constraints=LinearConstraint(arrays.A, arrays.constraint_lb,
                                               arrays.constraint_ub),
                  integrality=integrality, bounds=Bounds(arrays.lb, arrays.ub),
                  options=dict(_OPTIONS))
    return graph, budget, formulation, kwargs


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-b{c[1]}")
def test_lp_relaxation_matches_scipy(cell):
    *_, kwargs = _problem(*cell, integral=False)
    ours, theirs = highs.milp(**kwargs), scipy.optimize.milp(**kwargs)
    assert ours.status == theirs.status == 0
    assert ours.fun == pytest.approx(theirs.fun, rel=1e-9)
    assert np.asarray(ours.x) @ kwargs["c"] == pytest.approx(ours.fun, rel=1e-9)


@pytest.mark.parametrize("cell", FAST_MILP_CELLS, ids=lambda c: f"{c[0]}-b{c[1]}")
def test_milp_matches_scipy(cell):
    *_, kwargs = _problem(*cell)
    ours, theirs = highs.milp(**kwargs), scipy.optimize.milp(**kwargs)
    assert ours.status == theirs.status == 0
    assert ours.fun == pytest.approx(theirs.fun, rel=1e-4)
    assert ours.mip_gap <= 1e-4
    assert ours.mip_dual_bound <= ours.fun + 1e-9
    assert ours.mip_node_count >= 1


def test_started_milp_is_no_worse_than_its_start():
    graph, budget, formulation, kwargs = _problem("linear_cnn", 64, 0.1)
    start = repair_schedule(graph, budget)
    assert start is not None
    res = highs.milp(start=formulation.start_entries(start), **kwargs)
    assert res.status == 0
    cold = scipy.optimize.milp(**kwargs)
    assert res.fun == pytest.approx(cold.fun, rel=1e-4)
    assert formulation.objective_value(res.x) <= schedule_compute_cost(
        graph, start) * (1 + 1e-9)


def test_cancelled_milp_stops_on_its_start_or_nothing():
    """A hook that is already true ends the solve before HiGHS searches:
    it reports its start when its own callback stopped it, or nothing when
    the caller stopped waiting first."""
    graph, budget, formulation, kwargs = _problem("linear_cnn", 64, 0.1)
    start = repair_schedule(graph, budget)
    polls = []
    res = highs.milp(start=formulation.start_entries(start),
                     should_cancel=lambda: polls.append(1) or True, **kwargs)
    assert polls
    assert res.status == 4 and "nterrupt" in res.message
    if res.x is not None:
        decoded = formulation.decode_matrices(res.x)
        assert (decoded.R == start.R).all() and (decoded.S == start.S).all()


def _highs_threads():
    return [t for t in threading.enumerate() if t.name == "repro-highs"]


def test_abandoned_runs_never_outnumber_the_slots(monkeypatch):
    """A cancelled caller stops waiting within 0.2 s, but its HiGHS runs on
    to its next interrupt callback, holding its slot.  With one slot,
    back-to-back cancelled solves never hold two HiGHS threads: the next
    solve waits for the slot (and is cancelled while it waits)."""
    monkeypatch.setattr(highs, "_RUNNERS", threading.BoundedSemaphore(1))
    *_, kwargs = _problem("resnet_tiny", 8, 0.3)
    for _ in range(3):
        fires_at = time.monotonic() + 0.1
        res = highs.milp(should_cancel=lambda: time.monotonic() >= fires_at,
                         **kwargs)
        assert time.monotonic() - fires_at <= 0.2
        assert res.status == 4
        assert len(_highs_threads()) <= 1
    for runner in _highs_threads():
        runner.join(10)
    assert _highs_threads() == []


def test_highs_older_than_1_12_fails_the_import(monkeypatch):
    """The object API is tested against HiGHS 1.12 (SciPy 1.17): an older
    bundled HiGHS stops the import instead of reaching methods that differ."""
    monkeypatch.setattr(highs._core, "HIGHS_VERSION_MAJOR", 1)
    monkeypatch.setattr(highs._core, "HIGHS_VERSION_MINOR", 11)
    spec = importlib.util.find_spec("repro.solvers.highs")
    module = importlib.util.module_from_spec(spec)
    with pytest.raises(ImportError, match="SciPy >= 1.17"):
        spec.loader.exec_module(module)


def test_solver_uses_the_drop_in():
    """The exact solver and the LP relaxation both call HiGHS through the
    drop-in, under the name ``milp`` instrumentation wraps."""
    import repro.solvers.ilp as ilp
    import repro.solvers.lp_relaxation as lp_relaxation

    assert ilp.milp is highs.milp
    assert lp_relaxation.milp is highs.milp
