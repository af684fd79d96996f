"""HiGHS through its object API: ``scipy.optimize.milp`` plus a MIP start.

SciPy's ``milp`` builds a fresh HiGHS instance per call and exposes neither
a starting solution nor an interrupt.  The SciPy build bundles the full
HiGHS object API as ``scipy.optimize._highspy._core._Highs``, so
:func:`milp` here drives it directly:

* ``passModel`` with the same column-wise matrix, bounds and integrality
  that ``scipy.optimize.milp`` hands HiGHS, and the same options;
* ``setSolution`` with a sparse ``start`` (the exact solver passes the
  ``R``/``S`` entries of an incumbent schedule; HiGHS completes the rest);
* ``kCallbackMipInterrupt`` / ``kCallbackSimplexInterrupt`` callbacks that
  poll a ``should_cancel`` hook, and a caller that stops waiting within
  :data:`_CANCEL_POLL_S` of the hook firing.  A solve with a hook runs
  HiGHS on its own ``repro-highs`` thread; one without runs it on the
  caller's thread with no callback.  The thread server backend hands every
  flight a hook (its ``should_abandon``), so its exact jobs take the
  threaded path; process-backend workers and direct library calls pass
  none.

The result carries the fields the solvers read from SciPy's:
``status`` (SciPy's codes: 0 optimal, 1 limit, 2 infeasible, 3 unbounded,
4 other -- an interrupt included), ``x``, ``fun``, ``mip_dual_bound``,
``mip_gap`` and ``mip_node_count``.  Unlike SciPy, a MIP stopped by a limit
or an interrupt returns its best solution whenever it has one.

The object API is tested against HiGHS 1.12, which SciPy 1.17 bundles; the
package requires that SciPy, and importing this module with an older
bundled HiGHS raises :class:`ImportError`.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, OptimizeResult
from scipy.optimize._highspy import _core

if (_core.HIGHS_VERSION_MAJOR, _core.HIGHS_VERSION_MINOR) < (1, 12):
    raise ImportError(
        f"repro needs HiGHS 1.12 or newer (SciPy >= 1.17); this SciPy bundles "
        f"HiGHS {_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}")

__all__ = ["milp"]

_Status = _core.HighsModelStatus
_SCIPY_STATUS = {
    _Status.kOptimal: 0,
    _Status.kTimeLimit: 1,
    _Status.kIterationLimit: 1,
    _Status.kInfeasible: 2,
    _Status.kUnbounded: 3,
}
#: Statuses at which a MIP may hold a feasible (non-optimal) solution.
_STOPPED = frozenset({_Status.kTimeLimit, _Status.kIterationLimit,
                      _Status.kSolutionLimit, _Status.kInterrupt})
_INTERRUPTS = (_core.cb.HighsCallbackType.kCallbackMipInterrupt,
               _core.cb.HighsCallbackType.kCallbackSimplexInterrupt)

#: A sparse assignment ``(indices, values)`` of the variable vector.
Start = Tuple[np.ndarray, np.ndarray]

#: How often a solve with a cancel hook checks it while HiGHS runs.
_CANCEL_POLL_S = 0.02

#: Slots for HiGHS runs on their own thread, one per core.  An abandoned run
#: keeps its slot until HiGHS stops, so abandoned runs cannot pile up beside
#: new ones: a solve with a hook waits for a free slot first.
_RUNNERS = threading.BoundedSemaphore(os.cpu_count() or 1)


def _run(highs, should_cancel: Optional[Callable[[], bool]]) -> bool:
    """Run ``highs``; ``True`` when a cancel abandoned it mid-run.

    HiGHS polls its interrupt callbacks as rarely as once a second (not at
    all inside sub-MIP heuristics or presolve), so a solve with a hook runs
    on its own thread, holding one of the :data:`_RUNNERS` slots, while the
    caller checks the hook every :data:`_CANCEL_POLL_S`.  An abandoned HiGHS
    stops itself at its next callback and then frees its slot; nothing
    reads it after that.  The thread is not a daemon, so interpreter exit
    waits for that stop instead of killing HiGHS mid-run.
    """
    if should_cancel is None:
        highs.run()
        return False
    slots = _RUNNERS
    while not slots.acquire(timeout=_CANCEL_POLL_S):
        if should_cancel():
            return True

    def interrupt(kind, message, data_out, data_in, user_data):
        if should_cancel():
            data_in.user_interrupt = True

    def run():
        try:
            highs.run()
        finally:
            slots.release()

    highs.setCallback(interrupt, None)
    for kind in _INTERRUPTS:
        highs.startCallback(kind)
    runner = threading.Thread(target=run, name="repro-highs")
    runner.start()
    while True:
        runner.join(_CANCEL_POLL_S)
        if not runner.is_alive():
            return False
        if should_cancel():
            return True


def milp(c, *, integrality=None, bounds: Optional[Bounds] = None,
         constraints=None, options: Optional[dict] = None,
         start: Optional[Start] = None,
         should_cancel: Optional[Callable[[], bool]] = None) -> OptimizeResult:
    """``scipy.optimize.milp`` with an optional MIP ``start`` and cancel hook.

    ``constraints`` is one :class:`~scipy.optimize.LinearConstraint` and
    ``options`` takes SciPy's ``time_limit``, ``mip_rel_gap`` and
    ``presolve`` keys.  ``start`` is ``(indices, values)``: a partial
    assignment HiGHS completes into its first incumbent.  ``should_cancel``
    is polled from HiGHS's interrupt callbacks and by the caller; once it
    returns true the solve ends (status 4) with the solution HiGHS holds if
    its callback stopped it, or none if the caller stopped waiting first.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A = sparse.csc_array(constraints.A)
    lp = _core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = A.shape[0]
    lp.col_cost_ = c
    lp.col_lower_ = np.broadcast_to(bounds.lb, n).astype(np.float64)
    lp.col_upper_ = np.broadcast_to(bounds.ub, n).astype(np.float64)
    lp.row_lower_ = np.asarray(constraints.lb, dtype=np.float64)
    lp.row_upper_ = np.asarray(constraints.ub, dtype=np.float64)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = A.shape[0]
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data.astype(np.float64)
    integral = integrality is not None and np.any(integrality)
    if integral:
        kinds = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)
        lp.integrality_ = [kinds[int(v)] for v in np.asarray(integrality)]

    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    for key, value in (options or {}).items():
        if key == "presolve":
            value = "on" if value else "off"
        highs.setOptionValue(key, value)
    highs.passModel(lp)
    if start is not None and integral:
        index, value = start
        highs.setSolution(len(index), np.asarray(index, dtype=np.int32),
                          np.asarray(value, dtype=np.float64))
    if _run(highs, should_cancel):
        return OptimizeResult(status=4, success=False, x=None, fun=None,
                              message="Interrupted by user (abandoned)")

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _SCIPY_STATUS.get(model_status, 4)
    has_x = status == 0 or (integral and model_status in _STOPPED
                            and info.objective_function_value < _core.kHighsInf)
    res = OptimizeResult(
        status=status, success=status == 0,
        message=highs.modelStatusToString(model_status),
        x=np.array(highs.getSolution().col_value) if has_x else None,
        fun=info.objective_function_value if has_x else None)
    if integral:
        res.update(mip_node_count=info.mip_node_count,
                   mip_dual_bound=info.mip_dual_bound, mip_gap=info.mip_gap)
    return res
