"""Bounded, thread-safe, single-flight LRU map: the package's one memo.

It backs the plan cache's memory tier, the formulation and LP-relaxation
caches, the lint memo and the Figure 6 training-graph memo.  ``None`` is never
a stored value: :meth:`SingleFlightLRU.get` returns it for a missing key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, Optional, TypeVar

__all__ = ["SingleFlightLRU"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class SingleFlightLRU(Generic[K, V]):
    """At most ``max_entries`` values, least recently used evicted first.

    Counts hits, misses, evictions and computes.  ``max_entries <= 0`` stores
    nothing.  A hit takes the lock once.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._flights: Dict[K, threading.Event] = {}
        self._hits = self._misses = self._evictions = self._computes = 0

    def get(self, key: K) -> Optional[V]:
        """The value stored under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: K, value: V) -> List[K]:
        """Store ``value`` under ``key``; returns the keys evicted to fit it."""
        with self._lock:
            return self._put_locked(key, value)

    def _put_locked(self, key: K, value: V) -> List[K]:
        if self.max_entries <= 0:
            return []
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted: List[K] = []
        while len(self._entries) > self.max_entries:
            evicted.append(self._entries.popitem(last=False)[0])
        self._evictions += len(evicted)
        return evicted

    def get_or_compute(self, key: K, compute: Callable[[], V],
                       store: Optional[Callable[[V], bool]] = None) -> V:
        """The value under ``key``; a cold key runs ``compute()`` once.

        Concurrent callers of a cold key wait for that compute, then look the
        key up again.  If it raised, or ``store`` (default: keep every value)
        rejected its value, nothing was stored: the first waiter computes
        anew, so a rejected value only reaches the caller that computed it.
        """
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return value
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = threading.Event()
                    self._misses += 1
                    break
            flight.wait()
        try:
            value = compute()
            keep = store is None or store(value)
        except BaseException:
            with self._lock:
                del self._flights[key]
            flight.set()
            raise
        with self._lock:
            del self._flights[key]
            self._computes += 1
            if keep:
                self._put_locked(key, value)
        flight.set()
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """A snapshot of the counters; ``hit_rate`` is ``None`` before the
        first lookup."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "computes": self._computes,
                "hit_rate": (self._hits / lookups) if lookups else None,
            }
