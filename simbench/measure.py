"""Host-time arithmetic: percentiles and normalising.

The host's speed changes from one run to the next and within a second,
so raw seconds do not repeat.  A run therefore times a fixed pure-Python
reference loop (``refloop``) between chunks of about ``CHUNK_SECONDS``
of ops, and reports its timings in reference units (``_ru``): each op's
host seconds divided by the mean of the two reference timings around
its chunk.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from refloop import time_reference

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0,
               50.0)
#: A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10
#: Op seconds between two reference-loop timings.
CHUNK_SECONDS = 0.15


@dataclass
class Pass:
    """One pass: each op's host seconds, the reference seconds it is
    divided by, and every reference timing taken."""

    ops: List[float] = field(default_factory=list)
    op_refs: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return math.fsum(self.ops)

    def normalised(self) -> List[float]:
        """Each op's time in reference units."""
        return [in_reference_units(op, ref)
                for op, ref in zip(self.ops, self.op_refs)]

    def in_reference_units(self) -> float:
        return math.fsum(self.normalised())


class PassTimer:
    """Times the reference loop between chunks of at least
    ``chunk_seconds`` of op time; each op is divided by the mean of the
    two reference timings around its chunk."""

    def __init__(self, chunk_seconds: float = CHUNK_SECONDS,
                 reference: Callable[[], float] = time_reference) -> None:
        self.chunk_seconds = chunk_seconds
        self.reference = reference
        self.result = Pass()
        self._pending: List[float] = []
        self._before = self._sample()

    def _sample(self) -> float:
        ref = self.reference()
        self.result.refs.append(ref)
        return ref

    def add(self, op_seconds: float) -> None:
        self._pending.append(op_seconds)
        if math.fsum(self._pending) >= self.chunk_seconds:
            self._flush()

    def _flush(self) -> None:
        after = self._sample()
        local = (self._before + after) / 2
        self.result.ops += self._pending
        self.result.op_refs += [local] * len(self._pending)
        self._pending = []
        self._before = after

    def close(self) -> Pass:
        if self._pending:
            self._flush()
        return self.result


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`TAIL_BEYOND` of ``n`` samples above its nearest rank, or None
    when ``n`` is too small for any."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    return None


def in_reference_units(seconds: float, reference_seconds: float) -> float:
    """``seconds`` divided by the reference loop's seconds."""
    if reference_seconds <= 0:
        raise ValueError("reference time must be positive")
    return seconds / reference_seconds


def summarise(passes: Sequence[Pass]) -> Dict[str, float]:
    """A run's timings in reference units.

    ``pass_ru`` is the median over passes of a pass's normalised op times
    summed.  An op's time is its median over the passes; ``op_p50_ru``
    is the median op (the mean of the middle two for an even count, which
    keeps it off the edge of either half when ops come in two sizes) and
    ``op_tail_ru`` the op at the tail percentile (``tail_p``; with too few
    ops for one, the slowest op).
    """
    normalised = [p.normalised() for p in passes]
    per_op = sorted(statistics.median(times) for times in zip(*normalised))
    tail = tail_percentile(len(per_op))
    tail_p = tail if tail is not None else 100.0
    return {
        "pass_ru": statistics.median(math.fsum(n) for n in normalised),
        "op_p50_ru": statistics.median(per_op),
        "op_tail_ru": percentile(per_op, tail_p),
        "tail_p": tail_p,
    }
