"""Last-level cache models.

Two complementary tools:

* :class:`SetAssociativeCache` — a real set-associative LRU cache
  simulator, used by the synthetic-trace tests and to calibrate hit-rate
  curves.  Geometry defaults to one Table 1 LLC slice.
* :class:`HitRateCurve` — the analytic capacity-to-hit-rate relationship
  the epoch model uses: when UGPU moves memory channels between slices,
  the LLC capacity moves with them (two slices per channel), shifting each
  application's hit rate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """A set-associative LRU cache over line addresses.

    Addresses are byte addresses; the cache extracts the line tag/index
    itself.  Writes allocate like reads (GPU LLCs are typically
    write-allocate for the traffic classes that matter here).
    """

    def __init__(self, size_bytes: int = 96 * 1024, ways: int = 16,
                 line_bytes: int = 128) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes) != 0:
            raise ConfigError(
                f"size {size_bytes} not divisible by ways*line ({ways}x{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit, False on miss+fill."""
        if address < 0:
            raise ConfigError("addresses are non-negative")
        index, tag = self._locate(address)
        ways = self._sets[index]
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[tag] = True
        return False

    def run_trace(self, addresses: Sequence[int]) -> CacheStats:
        """Access every address in order; returns the cumulative stats."""
        for address in addresses:
            self.access(address)
        return self.stats

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)


@dataclass(frozen=True)
class HitRateCurve:
    """Hit rate as a function of allocated LLC capacity.

    Uses the classic single-knee working-set model: below the working set,
    hit rate grows with capacity following a power law (the cache rule of
    thumb ``hit ~ 1 - (C0 / C)^alpha`` clipped to the base hit rate);
    above it, the hit rate is flat at ``peak_hit_rate``.

    The curve is anchored so that ``hit_rate(reference_capacity) ==
    reference_hit_rate`` — profiling gives the anchor, the curve
    extrapolates to unexplored allocations (this is the only place the
    epoch model extrapolates cache behaviour, and the partitioning
    algorithm itself never relies on it, matching the paper's claim that
    no full performance model is needed).

    A frozen value: kernels built from one benchmark template share their
    curves, so equal curves compare and hash equal and none can be
    changed under another run.
    """

    reference_capacity: float
    reference_hit_rate: float
    working_set: float
    peak_hit_rate: Optional[float] = None
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.reference_capacity <= 0 or self.working_set <= 0:
            raise ConfigError("capacities must be positive")
        if not 0.0 <= self.reference_hit_rate <= 1.0:
            raise ConfigError("hit rates live in [0, 1]")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.peak_hit_rate is None:
            object.__setattr__(self, "peak_hit_rate",
                               min(1.0, self.reference_hit_rate * 1.25))
        if not self.reference_hit_rate <= self.peak_hit_rate <= 1.0:
            raise ConfigError("peak_hit_rate must be >= reference and <= 1")

    def hit_rate(self, capacity: float) -> float:
        """Hit rate with ``capacity`` bytes of LLC."""
        if capacity <= 0:
            return 0.0
        if capacity >= self.working_set:
            return self.peak_hit_rate
        if self.reference_capacity >= self.working_set:
            # The anchor sits on the flat region; scale down from there.
            base_cap = self.working_set
            base_hit = self.peak_hit_rate
        else:
            base_cap = self.reference_capacity
            base_hit = self.reference_hit_rate
        scaled = base_hit * (capacity / base_cap) ** self.alpha
        return max(0.0, min(self.peak_hit_rate, scaled))


class SlicedLLC:
    """The full LLC as channel-co-located slices (Table 1: 64 slices, two
    per memory channel).

    Addresses hash across the *allocated* slices only — when UGPU hands a
    channel to another slice's owner, the LLC capacity (and its cached
    lines) travel with it, which is why a slice's LLC capacity is
    ``channels x llc_bytes_per_channel`` throughout the library.
    """

    def __init__(self, num_slices: int = 64, slice_bytes: int = 96 * 1024,
                 ways: int = 16, line_bytes: int = 128) -> None:
        if num_slices <= 0:
            raise ConfigError("need at least one slice")
        self.num_slices = num_slices
        self.line_bytes = line_bytes
        self.slices = [
            SetAssociativeCache(slice_bytes, ways, line_bytes)
            for _ in range(num_slices)
        ]
        self._allocated = list(range(num_slices))

    @property
    def allocated_slices(self) -> List[int]:
        return list(self._allocated)

    @property
    def capacity_bytes(self) -> int:
        return sum(self.slices[i].size_bytes for i in self._allocated)

    def allocate(self, slice_ids: Sequence[int]) -> None:
        """Restrict accesses to a slice subset (a UGPU slice's share).

        Newly removed slices keep their contents (their next owner flushes
        them on reallocation, modelled by :meth:`flush_slice`).
        """
        ids = sorted(set(slice_ids))
        if not ids:
            raise ConfigError("need at least one allocated slice")
        for slice_id in ids:
            if not 0 <= slice_id < self.num_slices:
                raise ConfigError(f"slice {slice_id} out of range")
        self._allocated = ids

    def _route(self, address: int) -> Tuple[SetAssociativeCache, int]:
        """Pick the slice and strip the slice-selection bits.

        The slice index comes from the low line bits; the remaining line
        bits form the address the slice sees (otherwise the slice's set
        index would alias with the slice hash and only use 1/k of its
        sets).
        """
        line = address // self.line_bytes
        fanout = len(self._allocated)
        cache = self.slices[self._allocated[line % fanout]]
        return cache, (line // fanout) * self.line_bytes

    def access(self, address: int) -> bool:
        """Touch ``address`` in its hashed slice; True on hit."""
        cache, local = self._route(address)
        return cache.access(local)

    def run_trace(self, addresses: Sequence[int]) -> CacheStats:
        """Replay a trace; returns aggregate stats over allocated slices."""
        for address in addresses:
            self.access(address)
        return self.stats()

    def stats(self) -> CacheStats:
        total = CacheStats()
        for index in self._allocated:
            stats = self.slices[index].stats
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
        return total

    def flush_slice(self, slice_id: int) -> None:
        """Invalidate one slice (PageMove flushes caches on reallocation)."""
        if not 0 <= slice_id < self.num_slices:
            raise ConfigError(f"slice {slice_id} out of range")
        cache = self.slices[slice_id]
        self.slices[slice_id] = SetAssociativeCache(
            cache.size_bytes, cache.ways, cache.line_bytes
        )
