"""Content-addressed plan cache: in-memory LRU plus optional on-disk store.

Checkmate's economics make caching unusually profitable: a schedule is solved
once (seconds to hours of MILP time) and then reused for millions of training
iterations, and the evaluation harness re-solves the *same* (graph, budget,
strategy) cells across figures -- the Figure 5 sweep, Table 2 ratios and the
Figure 8 rounding study all hit overlapping cells.  The cache keys a solve by

``(graph content hash, strategy key, budget, solver-visible options)``

so any reconstruction of the same graph (same costs, memories, edges,
metadata -- see :func:`~repro.service.hashing.graph_content_hash`) re-uses the
stored plan.

Two tiers:

* an in-process :class:`~repro.utils.lru.SingleFlightLRU` of
  :class:`ScheduledResult` objects (``max_entries`` bounded, thread safe --
  the sweep executor hits it concurrently), and
* an optional on-disk JSON store (one file per key under ``cache_dir``) built
  on the :mod:`repro.utils.serialization` result wire format, which persists
  the ``(R, S)`` matrices across processes.  Disk hits are re-validated and
  re-packaged against the caller's graph, so a corrupt or mismatched file
  degrades to a miss, never to a wrong schedule.  Writes go through a
  process/thread-unique temp file followed by an atomic ``os.replace``, so
  concurrent writers (multiple serve workers, or several processes sharing
  one ``cache_dir``) can never interleave partial JSON.

The cache's counters (:meth:`PlanCache.stats`) feed the serve daemon's
``/v1/metrics``; unlike the counters of ``SolveService.statistics()`` they
count every lookup, not only solves routed through one service.

Cached results are shared, not copied: an in-memory hit returns the *same*
:class:`ScheduledResult` object to every caller (including duplicate cells of
one sweep), so treat results from the service as immutable -- mutating
``matrices``/``extra`` in place would poison every later hit on that key.
Derive variants via ``matrices.copy()`` instead.  (The plan a result lowers
on first access, and the wire dict its first encode builds, are memoized on
that shared object, which is safe: both are pure functions of the result;
an encode hands each caller its own copy of the dict.)

Set ``PlanCache(max_entries=0, cache_dir=None)`` -- or pass ``cache=None`` to
:class:`~repro.service.solve.SolveService` -- to disable caching entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Optional, Tuple

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduledResult
from ..utils.lru import SingleFlightLRU
from ..utils.serialization import RESULT_FORMAT, result_from_wire, result_to_wire

__all__ = ["PlanCacheKey", "PlanCache"]


class PlanCacheKey(str):
    """Opaque cache key: hex digest over (graph, strategy, budget, options)."""

    @staticmethod
    def build(graph_hash: str, strategy: str, budget: Optional[float],
              options_token: str) -> "PlanCacheKey":
        budget_token = "none" if budget is None else repr(float(budget))
        payload = "\x1f".join((graph_hash, strategy, budget_token, options_token))
        return PlanCacheKey(hashlib.sha256(payload.encode("utf-8")).hexdigest())


class PlanCache:
    """Bounded LRU of solved plans with optional on-disk persistence."""

    def __init__(self, max_entries: int = 512,
                 cache_dir: Optional[str] = None) -> None:
        self.max_entries = int(max_entries)
        self.cache_dir = cache_dir
        self._memory: SingleFlightLRU[str, ScheduledResult] = SingleFlightLRU(max_entries)
        # Family index for warm-start neighbor lookups (memory tier only):
        # family token (graph hash + strategy + options, NOT budget) ->
        # {budget: result}.  Every store into the memory tier goes through
        # ``_lock``, so the index drops exactly the keys the LRU evicts.
        self._lock = threading.Lock()
        self._family_index: Dict[str, Dict[float, ScheduledResult]] = {}
        self._key_family: Dict[str, Tuple[str, float]] = {}
        self._disk_hits = 0
        self._neighbor_hits = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, key: PlanCacheKey, graph: DFGraph) -> Optional[ScheduledResult]:
        """Return a cached result for ``key``, or ``None`` on a miss.

        Checks the in-memory tier first, then the disk tier (promoting disk
        hits into memory).  ``graph`` is needed to re-materialize disk entries
        into full :class:`ScheduledResult` objects.  A disk hit counts as a
        hit (see :meth:`stats`).
        """
        result = self._memory.get(key)
        if result is None:
            result = self._load_from_disk(key, graph)
            if result is not None:
                with self._lock:
                    self._disk_hits += 1
                    self._store_locked(key, result)
        return result

    def put(self, key: PlanCacheKey, result: ScheduledResult, *,
            family: Optional[str] = None, budget: Optional[float] = None) -> None:
        """Store ``result``; optionally index it for neighbor lookup.

        ``family`` groups cells that differ only in budget (same graph,
        strategy and options); together with ``budget`` it feeds
        :meth:`neighbor_above`.
        """
        with self._lock:
            self._store_locked(key, result)
            if (family is not None and budget is not None
                    and self.max_entries > 0):
                self._family_index.setdefault(family, {})[float(budget)] = result
                self._key_family[key] = (family, float(budget))
        self._store_to_disk(key, result)

    def _store_locked(self, key: PlanCacheKey, result: ScheduledResult) -> None:
        for evicted in self._memory.put(key, result):
            entry = self._key_family.pop(evicted, None)
            if entry is None:
                continue
            family, budget = entry
            budgets = self._family_index.get(family, {})
            budgets.pop(budget, None)
            if not budgets:
                self._family_index.pop(family, None)

    def neighbor_above(self, family: str,
                       budget: float) -> Optional[Tuple[float, ScheduledResult]]:
        """Nearest in-memory cell of ``family`` with a strictly larger budget.

        Returns ``(neighbor_budget, result)`` or ``None``.  The caller turns
        the result into a :class:`~repro.solvers.warm.WarmSeed`; monotonicity
        only runs downhill, so only larger budgets qualify as seeds.
        """
        budget = float(budget)
        with self._lock:
            budgets = self._family_index.get(family)
            above = [b for b in budgets or () if b > budget]
            if not above:
                return None
            nearest = min(above)
            self._neighbor_hits += 1
            return nearest, budgets[nearest]

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One snapshot of the cache counters.

        ``hit_rate`` is ``hits / (hits + misses)`` over lookups so far, or
        ``None`` before the first lookup.  ``disk_hits`` counts the subset of
        ``hits`` served from the on-disk tier.
        """
        with self._lock:
            stats = self._memory.stats()
            disk_hits, neighbor_hits = self._disk_hits, self._neighbor_hits
        del stats["computes"]
        # The memory tier saw each disk hit as a miss.
        stats["hits"] = hits = int(stats["hits"]) + disk_hits
        stats["misses"] = misses = int(stats["misses"]) - disk_hits
        stats["hit_rate"] = hits / (hits + misses) if hits + misses else None
        stats["disk_hits"] = disk_hits
        stats["neighbor_hits"] = neighbor_hits
        return stats

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _path(self, key: PlanCacheKey) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _store_to_disk(self, key: PlanCacheKey, result: ScheduledResult) -> None:
        path = self._path(key)
        if path is None:
            return
        # Unique temp name per writer + atomic rename: concurrent writers of
        # the same key race benignly (last replace wins, both files complete).
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            # Payload construction sits inside the guard too: a custom
            # solver's exotic result fields (solve_time_s=None, odd matrices)
            # must never fail a solve that already succeeded -- same contract
            # as a read-only or full cache directory below.
            payload = result_to_wire(result)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
                # Flush + fsync before the rename: without it a crash can
                # leave the *renamed* file empty on some filesystems, which
                # is exactly the torn-read the temp-file dance exists to
                # prevent.  (Readers still revalidate, so even that would
                # degrade to a miss -- this just keeps the store honest.)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError, AttributeError):
            pass
        finally:
            # After a successful os.replace the tmp path no longer exists;
            # otherwise (any failure above) remove the partial file.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _load_from_disk(self, key: PlanCacheKey,
                        graph: DFGraph) -> Optional[ScheduledResult]:
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("format") != RESULT_FORMAT:
                return None
            # result_from_wire revalidates the matrices against the caller's
            # graph, so a shape-correct file with wrong R/S content raises
            # ValueError and degrades to a miss ("never a wrong schedule").
            return result_from_wire(payload, graph)
        except (OSError, ValueError, KeyError):
            return None
