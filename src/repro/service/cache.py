"""Thread-safe LRU + TTL cache for scheduling results.

The service keys this cache by ``(instance fingerprint, algorithm, params,
validate)`` — see :meth:`repro.model.instance.Instance.fingerprint` — so a
replayed instance (same profiles, same machine, any labels) is answered
without re-running the scheduler.  Capacity is bounded by an LRU policy and
entries can additionally age out through a TTL, both tracked in
:class:`CacheStats`.

The clock is injectable so TTL behaviour is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "LRUTTLCache", "MISS"]

#: Sentinel returned by :meth:`LRUTTLCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS: Any = object()


@dataclass
class CacheStats:
    """Counters exposed through the service ``/metrics`` endpoint."""

    hits: int = 0
    misses: int = 0
    evictions_lru: int = 0
    evictions_ttl: int = 0
    expired_purged: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions_lru": self.evictions_lru,
            "evictions_ttl": self.evictions_ttl,
            "expired_purged": self.expired_purged,
            "hit_rate": self.hit_rate,
        }


class LRUTTLCache:
    """Bounded mapping with least-recently-used eviction and optional TTL.

    Parameters
    ----------
    capacity:
        Maximum number of entries (``>= 1``).
    ttl:
        Time-to-live in seconds; ``None`` disables expiry.  Expired entries
        are dropped lazily on access and eagerly by :meth:`purge_expired`.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.capacity = int(capacity)
        self.ttl = ttl
        self._clock = clock
        self._data: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def _lookup(self, key: Hashable, *, count_miss: bool) -> Any:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.stats.misses += count_miss
                return MISS
            stored_at, value = entry
            if self.ttl is not None and self._clock() - stored_at > self.ttl:
                del self._data[key]
                self.stats.evictions_ttl += 1
                self.stats.misses += count_miss
                return MISS
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def get(self, key: Hashable) -> Any:
        """Value stored under ``key``, or :data:`MISS`; refreshes LRU order."""
        return self._lookup(key, count_miss=True)

    def get_if_hit(self, key: Hashable) -> Any:
        """Like :meth:`get`, but a miss is *not* counted in the stats.

        This is the shard fast path: the HTTP handler probes the cache with a
        router-provided key before falling back to the full request pipeline,
        and that pipeline performs the authoritative (counted) lookup.
        Counting the probe too would double every miss.  Hits *are* counted
        (the fast path is then the only lookup), and expired entries are
        dropped and counted as TTL evictions, exactly as in :meth:`get`.
        """
        return self._lookup(key, count_miss=False)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the LRU entry beyond capacity.

        Entries popped by the capacity loop that were *already past their
        TTL* are counted as ``evictions_ttl``, not ``evictions_lru``: they
        were dead regardless of capacity pressure, and classifying them as
        LRU evictions would skew the eviction split that the cluster
        supervisor aggregates into ``/metrics`` (a busy shard with a short
        TTL would look capacity-starved when it is merely expiring).
        """
        with self._lock:
            now = self._clock()
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (now, value)
            while len(self._data) > self.capacity:
                _, (stored_at, _) = self._data.popitem(last=False)
                if self.ttl is not None and now - stored_at > self.ttl:
                    self.stats.evictions_ttl += 1
                else:
                    self.stats.evictions_lru += 1

    def purge_expired(self) -> int:
        """Drop every expired entry now; returns the number removed.

        Eager purges are counted in ``stats.expired_purged`` (the service's
        tick runs this periodically so long-idle shards do not pin dead
        entries), while ``stats.evictions_ttl`` counts only the lazy drops
        that happen on access.
        """
        if self.ttl is None:
            return 0
        cutoff = self._clock() - self.ttl
        with self._lock:
            stale = [k for k, (t, _) in self._data.items() if t < cutoff]
            for key in stale:
                del self._data[key]
            self.stats.expired_purged += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
