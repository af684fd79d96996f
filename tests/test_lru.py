"""The single-flight LRU behind every in-process cache."""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro.solvers.rounding_portfolio as portfolio
from repro.solvers import LPRelaxationCache
from repro.utils.lru import SingleFlightLRU


def _run(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _join(threads) -> None:
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)


class _Blocking:
    """A compute that signals its start and then waits to be released."""

    def __init__(self, value=None, error=None) -> None:
        self.value, self.error = value, error
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self):
        self.calls += 1
        self.started.set()
        assert self.release.wait(10)
        if self.error is not None:
            raise self.error
        return self.value


def test_cold_key_is_computed_once_for_concurrent_callers():
    lru = SingleFlightLRU(8)
    compute = _Blocking(value=object())
    results = []
    threads = [_run(lambda: results.append(lru.get_or_compute("k", compute)))
               for _ in range(8)]
    assert compute.started.wait(10)
    time.sleep(0.05)  # let the other callers reach the wait
    compute.release.set()
    _join(threads)
    assert compute.calls == 1
    assert len(results) == 8
    assert all(r is compute.value for r in results)
    stats = lru.stats()
    assert (stats["computes"], stats["misses"], stats["hits"]) == (1, 1, 7)


def test_failed_compute_releases_waiters_and_next_caller_recomputes():
    lru = SingleFlightLRU(8)
    failing = _Blocking(error=RuntimeError("boom"))
    outcome = {}

    def first():
        with pytest.raises(RuntimeError, match="boom"):
            lru.get_or_compute("k", failing)
        outcome["first"] = "raised"

    def second():
        outcome["second"] = lru.get_or_compute("k", lambda: "recomputed")

    threads = [_run(first)]
    assert failing.started.wait(10)
    threads.append(_run(second))
    time.sleep(0.05)  # the second caller now waits on the failing flight
    failing.release.set()
    _join(threads)
    assert outcome == {"first": "raised", "second": "recomputed"}
    assert lru.get("k") == "recomputed"
    assert failing.calls == 1


def test_rejected_value_is_neither_stored_nor_shared():
    lru = SingleFlightLRU(8)

    def complete(value):
        return value != "partial"

    assert lru.get_or_compute("k", lambda: "partial", store=complete) == "partial"
    assert len(lru) == 0 and lru.get("k") is None

    partial = _Blocking(value="partial")
    outcome = {}
    threads = [_run(lambda: outcome.setdefault(
        "first", lru.get_or_compute("k", partial, store=complete)))]
    assert partial.started.wait(10)
    threads.append(_run(lambda: outcome.setdefault(
        "second", lru.get_or_compute("k", lambda: "full", store=complete))))
    time.sleep(0.05)
    partial.release.set()
    _join(threads)
    assert outcome == {"first": "partial", "second": "full"}
    assert lru.get("k") == "full"


def test_eviction_follows_lru_order_and_counters_match():
    lru = SingleFlightLRU(2)
    assert lru.put("a", 1) == []
    assert lru.put("b", 2) == []
    assert lru.get("a") == 1          # "a" is now the most recent
    assert lru.put("c", 3) == ["b"]
    assert lru.get("b") is None
    assert lru.get_or_compute("a", lambda: 0) == 1
    assert lru.put("d", 4) == ["c"]
    assert lru.stats() == {
        "entries": 2, "max_entries": 2, "hits": 2, "misses": 1,
        "evictions": 2, "computes": 0, "hit_rate": 2 / 3,
    }


def test_zero_max_entries_stores_nothing():
    lru = SingleFlightLRU(0)
    assert lru.put("a", 1) == []
    assert lru.get("a") is None
    assert lru.get_or_compute("a", lambda: 1) == 1
    assert lru.get_or_compute("a", lambda: 2) == 2
    stats = lru.stats()
    assert (stats["entries"], stats["computes"], stats["hits"]) == (0, 2, 0)


def test_lp_cache_does_not_store_a_time_limited_status(monkeypatch, chain5_train):
    statuses = iter(["time_limit", "optimal"])
    monkeypatch.setattr(portfolio, "solve_lp_relaxation",
                        lambda graph, budget, time_limit_s: SimpleNamespace(
                            status=next(statuses), limit=time_limit_s))
    cache = LPRelaxationCache()
    truncated = cache.get(chain5_train, 100.0, time_limit_s=0.1)
    assert truncated.status == "time_limit"
    assert cache.stats()["entries"] == 0
    settled = cache.get(chain5_train, 100.0, time_limit_s=60.0)
    assert settled.status == "optimal" and settled.limit == 60.0
    assert cache.get(chain5_train, 100.0) is settled
    stats = cache.stats()
    assert (stats["solves"], stats["hits"], stats["entries"]) == (2, 1, 1)


def test_counters_survive_contention():
    """Many threads over few keys and a tiny bound: every call is exactly one
    hit or one miss, every miss one compute, and no lost update."""
    lru = SingleFlightLRU(4)
    calls, per_thread = 16, 300
    wrong = []

    def worker(seed):
        for i in range(per_thread):
            key = (seed * 7 + i) % 10
            if lru.get_or_compute(key, lambda: key * 2) != key * 2:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _join([_run(worker, seed) for seed in range(calls)])
    finally:
        sys.setswitchinterval(interval)
    stats = lru.stats()
    assert wrong == []
    assert stats["hits"] + stats["misses"] == calls * per_thread
    assert stats["computes"] == stats["misses"]
    assert stats["evictions"] == stats["computes"] - stats["entries"]
    assert stats["entries"] == 4
