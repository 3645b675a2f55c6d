"""A bounded, thread-safe, single-flight LRU cache.

Replaces the driver's three formerly unbounded, unlocked dicts (the
statement cache, the metadata cache, and the runtime's compiled-module
cache). Design points:

* **Bounded** — ``capacity`` entries, least-recently-used eviction,
  with an eviction counter so operators can see a too-small cache.
  ``capacity=0`` disables caching entirely (every lookup is a miss and
  nothing is stored); that knob is how tests and benchmarks measure
  the uncached path.
* **Thread-safe** — one ``threading.Lock`` guards the ordered dict; a
  shared ``Connection`` may be hammered from many threads.
* **Single-flight** — ``get_or_load(key, loader)`` guarantees that
  concurrent misses on the same key run *loader* once: the first
  caller loads while the rest wait on an event and then reuse the
  loaded value. That is what makes "one metadata fetch per distinct
  table" hold under concurrency (tests/obs/test_thread_safety.py).

Stats (hits/misses/evictions) are always kept locally; pass a
``MetricsRegistry`` and a ``prefix`` to additionally publish them as
``{prefix}.hits`` / ``{prefix}.misses`` / ``{prefix}.evictions``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from .metrics import MetricsRegistry


class _Flight:
    """One in-progress load that concurrent callers can wait on."""

    __slots__ = ("event", "value", "success")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.success = False


_MISSING = object()


class LRUCache:
    """A bounded thread-safe LRU map with single-flight loading."""

    def __init__(self, capacity: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache"):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()
        self._inflight: dict = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if registry is not None:
            self._hit_counter = registry.counter(f"{prefix}.hits")
            self._miss_counter = registry.counter(f"{prefix}.misses")
            self._eviction_counter = registry.counter(f"{prefix}.evictions")
        else:
            self._hit_counter = None
            self._miss_counter = None
            self._eviction_counter = None

    # -- locked internals --------------------------------------------------

    def _record_hit_locked(self) -> None:
        self._hits += 1
        if self._hit_counter is not None:
            self._hit_counter.increment()

    def _record_miss_locked(self) -> None:
        self._misses += 1
        if self._miss_counter is not None:
            self._miss_counter.increment()

    def _store_locked(self, key: Hashable, value) -> None:
        if self._capacity == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self._capacity:
            self._data.popitem(last=False)
            self._evictions += 1
            if self._eviction_counter is not None:
                self._eviction_counter.increment()

    # -- mapping surface ---------------------------------------------------

    def get(self, key: Hashable, default=None):
        """Look *key* up, counting a hit or miss and refreshing recency."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._record_miss_locked()
                return default
            self._data.move_to_end(key)
            self._record_hit_locked()
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert or update *key* (no hit/miss accounting)."""
        with self._lock:
            self._store_locked(key, value)

    def get_or_load(self, key: Hashable, loader: Callable[[], object],
                    current: Optional[Callable[[object], bool]] = None):
        """Return the cached value for *key*, loading it (once, even
        under concurrency) on a miss. *current*, when given, is asked
        (outside the lock) whether a cached value still holds: one it
        refuses is dropped and loaded again, a miss."""
        if current is not None:
            with self._lock:
                value = self._data.get(key, _MISSING)
            if value is not _MISSING and not current(value):
                with self._lock:
                    if self._data.get(key, _MISSING) is value:
                        del self._data[key]
        if self._capacity == 0:
            with self._lock:
                self._record_miss_locked()
            return loader()
        while True:
            with self._lock:
                value = self._data.get(key, _MISSING)
                if value is not _MISSING:
                    self._data.move_to_end(key)
                    self._record_hit_locked()
                    return value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    owner = True
                else:
                    owner = False
            if not owner:
                # Another thread is loading this key: wait, then reuse
                # its value (a hit — this call fetched nothing).
                flight.event.wait()
                if flight.success:
                    with self._lock:
                        if key in self._data:
                            self._data.move_to_end(key)
                        self._record_hit_locked()
                    return flight.value
                continue  # the load failed; retry (maybe as owner)
            try:
                value = loader()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            with self._lock:
                self._record_miss_locked()
                self._store_locked(key, value)
                self._inflight.pop(key, None)
            flight.value = value
            flight.success = True
            flight.event.set()
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency or stats."""
        with self._lock:
            return key in self._data

    def keys(self) -> set:
        """A snapshot of the cached keys."""
        with self._lock:
            return set(self._data)

    def copy(self) -> dict:
        """A shallow dict snapshot, eviction order preserved."""
        with self._lock:
            return dict(self._data)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def stats(self) -> dict:
        """One consistent snapshot of the cache's counters and size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._data),
                "capacity": self._capacity,
            }
