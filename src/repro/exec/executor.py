"""Parallel, memoizing sweep execution.

:class:`SweepExecutor` turns a list of :class:`~repro.exec.jobs.SweepJob`
specs into an *ordered* list of :class:`~repro.core.system.SystemResult`:

* results come back in job order regardless of completion order, so
  downstream summaries are byte-identical between serial and parallel
  runs;
* ``jobs=1`` executes in-process — no pool, no pickling — keeping unit
  tests deterministic and debuggable;
* ``jobs>1`` fans cache misses out over a
  :class:`concurrent.futures.ProcessPoolExecutor`;
* an attached :class:`~repro.exec.cache.ResultCache` short-circuits any
  job it has seen before and memoizes every fresh result.

The executor keeps two stat records: ``last_stats`` for the most recent
:meth:`run` and ``stats`` accumulated over the executor's lifetime (one
multi-policy comparison issues several runs).

The executor is generic over job types: anything picklable with
``run()``, ``key()``, and the display attributes ``policy`` /
``mix_name`` / ``total_cycles`` / ``kwargs`` flows through — a
:class:`~repro.exec.jobs.SweepJob` or a fleet
:class:`~repro.cluster.shard.FleetShardJob`.

By default each ``jobs>1`` :meth:`run` spins up a fresh process pool.
Callers that issue *many* small runs (the fleet simulator executes one
per scheduling round) should use the executor as a context manager::

    with SweepExecutor(jobs=8, cache=cache) as executor:
        for round in rounds:
            executor.run(shards)        # one persistent pool throughout

which keeps a single pool alive until exit — identical results, without
re-spawning worker processes every round.

With ``capture=True`` each executed job also instantiates a bounded
recorder/registry/profiler *inside the worker* (see
:mod:`repro.exec.envelope`) and the executor keeps the returned
:class:`~repro.exec.envelope.JobEnvelope` list — job-ordered, cache
hits included — in :attr:`last_envelopes` for the caller to merge into
its own observability sinks.  Captures ride along in the result cache,
so a cache hit replays the original worker's events.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import List, Optional, Sequence

from repro.core.system import SystemResult
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.envelope import JobEnvelope, execute_job_enveloped
from repro.exec.jobs import SweepJob, execute_job_timed
from repro.exec.stats import ExecStats


class SweepExecutor:
    """Run sweep jobs over ``jobs`` worker processes with memoization."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 tracer=None, metrics=None, log=None,
                 capture: bool = False) -> None:
        """``tracer`` (a :class:`repro.trace.TraceRecorder`) receives one
        ``cache`` hit/miss record per job plus one ``job`` span per
        executed job.  Exec-layer timestamps/durations are wall-clock
        seconds relative to :meth:`run` entry, not GPU cycles.

        ``metrics`` (a telemetry registry) receives each run's
        :class:`ExecStats` — job/cache counters plus the per-job seconds
        histogram — via :func:`repro.telemetry.fold_exec_stats`.  Metrics
        stay executor-level: registries never enter job kwargs, which
        must remain picklable and fingerprint-stable.

        ``log`` (a :class:`repro.obslog.ObsLogger`) receives one info
        summary per :meth:`run` and one debug record per executed job.

        ``capture`` turns on worker-side observability (see the module
        docstring); :meth:`run` can override it per call."""
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.log = log
        self.capture = capture
        self.stats = ExecStats(workers=jobs)
        self.last_stats = ExecStats(workers=jobs)
        #: Per-job envelopes from the most recent capturing run (empty
        #: after a non-capturing run).  Job-ordered; cache hits carry
        #: their memoized capture with ``cached=True``.
        self.last_envelopes: List[Optional[JobEnvelope]] = []
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle (optional; run() works without it)
    # ------------------------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        if self.jobs > 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the persistent pool, if one is open."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, sweep_jobs: Sequence[SweepJob],
            capture: Optional[bool] = None) -> List[SystemResult]:
        """Execute every job; results are returned in job order."""
        if capture is None:
            capture = self.capture
        start = time.perf_counter()
        stats = ExecStats(jobs_total=len(sweep_jobs), workers=self.jobs)
        results: List[Optional[SystemResult]] = [None] * len(sweep_jobs)
        envelopes: List[Optional[JobEnvelope]] = [None] * len(sweep_jobs)

        pending: List[int] = []
        evictions_before = self.cache.evictions if self.cache is not None else 0
        schema_before = (
            self.cache.schema_evictions if self.cache is not None else 0
        )
        for index, job in enumerate(sweep_jobs):
            cached = None
            if self.cache is not None:
                if capture:
                    entry = self.cache.get_envelope(job.key(), require_obs=True)
                    if entry is not None:
                        cached = entry["result"]
                        origin = entry.get("origin") or (0, "")
                        envelopes[index] = JobEnvelope(
                            result=cached, seconds=0.0,
                            pid=origin[0], worker=origin[1],
                            obs=entry["obs"], cached=True,
                        )
                else:
                    cached = self.cache.get(job.key())
            if cached is not None:
                results[index] = cached
                stats.cache_hits += 1
            else:
                pending.append(index)
            if self.tracer is not None:
                self.tracer.emit(
                    "cache", "hit" if cached is not None else "miss",
                    time=time.perf_counter() - start,
                    policy=job.policy, mix=job.mix_name,
                )

        if pending and self.jobs == 1:
            for index in pending:
                if capture:
                    envelope = execute_job_enveloped(sweep_jobs[index], True)
                    result, seconds = envelope.result, envelope.seconds
                    envelopes[index] = envelope
                else:
                    result, seconds = execute_job_timed(sweep_jobs[index])
                results[index] = result
                stats.job_seconds.append(seconds)
                self._trace_job(sweep_jobs[index], seconds, start,
                                envelopes[index])
        elif pending:
            if self._pool is not None:
                self._run_pool(self._pool, sweep_jobs, pending, results,
                               envelopes, stats, start, capture)
            else:
                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    self._run_pool(pool, sweep_jobs, pending, results,
                                   envelopes, stats, start, capture)

        if self.cache is not None:
            for index in pending:
                envelope = envelopes[index]
                if capture and envelope is not None:
                    self.cache.put(
                        sweep_jobs[index].key(), results[index],
                        obs=envelope.obs,
                        origin=(envelope.pid, envelope.worker),
                    )
                else:
                    self.cache.put(sweep_jobs[index].key(), results[index])
            stats.cache_evictions = self.cache.evictions - evictions_before
            stats.cache_schema_evictions = (
                self.cache.schema_evictions - schema_before
            )

        stats.jobs_run = len(pending)
        stats.wall_seconds = time.perf_counter() - start
        self.last_stats = stats
        self.last_envelopes = envelopes if capture else []
        self.stats.merge(stats)
        if self.metrics is not None:
            from repro.telemetry.bridge import fold_exec_stats

            fold_exec_stats(self.metrics, stats)
        if self.log is not None:
            for index in pending:
                envelope = envelopes[index]
                self.log.debug(
                    "exec.job", job_id=index,
                    policy=sweep_jobs[index].policy,
                    mix=sweep_jobs[index].mix_name,
                    seconds=envelope.seconds if envelope is not None else None,
                    worker_pid=envelope.pid if envelope is not None else None,
                )
            self.log.info(
                "exec.run", jobs=stats.jobs_total, run=stats.jobs_run,
                cache_hits=stats.cache_hits, workers=stats.workers,
                wall_seconds=round(stats.wall_seconds, 6),
            )
        return results  # type: ignore[return-value]

    def _run_pool(self, pool: ProcessPoolExecutor, sweep_jobs, pending,
                  results, envelopes, stats: ExecStats, start: float,
                  capture: bool) -> None:
        """Fan ``pending`` out over ``pool``; fill ``results`` in place."""
        if capture:
            futures = {
                pool.submit(execute_job_enveloped, sweep_jobs[index], True):
                    index
                for index in pending
            }
        else:
            futures = {
                pool.submit(execute_job_timed, sweep_jobs[index]): index
                for index in pending
            }
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            future.result()  # re-raise worker failures eagerly
        for future, index in futures.items():
            if capture:
                envelope = future.result()
                result, seconds = envelope.result, envelope.seconds
                envelopes[index] = envelope
            else:
                result, seconds = future.result()
            results[index] = result
            stats.job_seconds.append(seconds)
            self._trace_job(sweep_jobs[index], seconds, start,
                            envelopes[index])

    def _trace_job(self, job: SweepJob, seconds: float, start: float,
                   envelope: Optional[JobEnvelope] = None) -> None:
        """Emit one ``job`` span (end-anchored: completion time is known,
        in-worker start is not) for an executed job.  A captured job's
        envelope stamps the worker identity (``pid`` + ``worker`` token)
        onto the span, so post-hoc straggler attribution can group job
        spans by the process that ran them."""
        if self.tracer is None:
            return
        end = time.perf_counter() - start
        extra = {}
        if envelope is not None:
            extra = {"pid": envelope.pid, "worker": envelope.worker}
        self.tracer.emit(
            "job", f"{job.policy}:{job.mix_name}",
            time=max(0.0, end - seconds), duration=seconds,
            policy=job.policy, mix=job.mix_name, cycles=job.total_cycles,
            **extra,
        )
