"""Execution statistics for sweep runs.

:class:`ExecStats` is how the executor proves its worth: it counts jobs,
cache hits and evictions, and records per-job in-worker seconds so the
CLI can print min/median/p95/max and the simulation-vs-orchestration
wall-clock split next to the end-to-end wall-clock.  Stats objects
merge, so one :class:`~repro.exec.executor.SweepExecutor` can accumulate
a whole multi-policy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class ExecStats:
    """Counters and timings for one or more executor runs."""

    jobs_total: int = 0
    jobs_run: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    #: Entries discarded because they predate the envelope schema
    #: (stale data, not corruption — see repro.exec.cache.CACHE_SCHEMA).
    cache_schema_evictions: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    job_seconds: List[float] = field(default_factory=list)

    @property
    def p50_seconds(self) -> float:
        return _percentile(self.job_seconds, 0.50)

    @property
    def p95_seconds(self) -> float:
        return _percentile(self.job_seconds, 0.95)

    @property
    def min_seconds(self) -> float:
        return min(self.job_seconds) if self.job_seconds else 0.0

    @property
    def median_seconds(self) -> float:
        return _percentile(self.job_seconds, 0.50)

    @property
    def max_seconds(self) -> float:
        return max(self.job_seconds) if self.job_seconds else 0.0

    @property
    def job_seconds_total(self) -> float:
        """In-worker simulation seconds summed over every executed job."""
        return sum(self.job_seconds)

    @property
    def orchestration_seconds(self) -> float:
        """Wall-clock not spent simulating: scheduling, serialization,
        cache probes.  With parallel workers the in-worker total can
        exceed the wall-clock, so this clamps at zero."""
        return max(0.0, self.wall_seconds - self.job_seconds_total)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs_total if self.jobs_total else 0.0

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Fold another run's counters into this one (in place)."""
        self.jobs_total += other.jobs_total
        self.jobs_run += other.jobs_run
        self.cache_hits += other.cache_hits
        self.cache_evictions += other.cache_evictions
        self.cache_schema_evictions += other.cache_schema_evictions
        self.wall_seconds += other.wall_seconds
        self.workers = max(self.workers, other.workers)
        self.job_seconds.extend(other.job_seconds)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for run bundles (:mod:`repro.inspect`)."""
        return {
            "jobs_total": self.jobs_total,
            "jobs_run": self.jobs_run,
            "cache_hits": self.cache_hits,
            "cache_evictions": self.cache_evictions,
            "cache_schema_evictions": self.cache_schema_evictions,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "job_seconds": list(self.job_seconds),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecStats":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored,
        missing keys default — bundles written by older code still load)."""
        return cls(
            jobs_total=int(payload.get("jobs_total", 0)),
            jobs_run=int(payload.get("jobs_run", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_evictions=int(payload.get("cache_evictions", 0)),
            cache_schema_evictions=int(
                payload.get("cache_schema_evictions", 0)
            ),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            workers=int(payload.get("workers", 1)),
            job_seconds=[float(s) for s in payload.get("job_seconds", [])],
        )

    def format(self) -> str:
        """One-line human summary, e.g. for the CLI footer."""
        parts = [
            f"jobs {self.jobs_total}",
            f"run {self.jobs_run}",
            f"cache hits {self.cache_hits} ({self.hit_rate:.0%})",
            f"workers {self.workers}",
            f"wall {self.wall_seconds:.2f}s",
        ]
        if self.job_seconds:
            parts.append(
                f"per-job min {self.min_seconds * 1e3:.1f}ms "
                f"median {self.median_seconds * 1e3:.1f}ms "
                f"p95 {self.p95_seconds * 1e3:.1f}ms "
                f"max {self.max_seconds * 1e3:.1f}ms"
            )
            parts.append(
                f"sim {self.job_seconds_total:.2f}s + "
                f"orchestration {self.orchestration_seconds:.2f}s"
            )
        if self.cache_evictions:
            parts.append(f"evictions {self.cache_evictions}")
        if self.cache_schema_evictions:
            parts.append(f"schema evictions {self.cache_schema_evictions}")
        return "ExecStats: " + "  ".join(parts)
