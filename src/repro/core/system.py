"""Epoch-level multitasking system simulation.

:class:`MultitaskSystem` is the shared runner: it advances co-executing
applications epoch by epoch, evaluating each on its slice with the
two-roofline performance model, charging any pending reallocation
penalties, and collecting STP/ANTT/energy at the end.  *What* the
partition looks like is delegated to a composed
:class:`~repro.policies.base.PartitionPolicy` (UGPU, BP variants, MPS,
CD-Search) through five hooks: ``initial_partition``,
``throughput_for``, ``on_epoch_end``, ``on_app_arrival`` and
``on_app_departure``.  The old inheritance spellings
(``UGPUSystem(apps)`` etc.) survive as deprecated shims around
``MultitaskSystem(apps, policy=...)``.

Reallocation penalties are expressed as (window_cycles, slowdown_factor)
charges: during the window the application loses ``factor`` of its
throughput.  This matches the paper's behaviour where applications keep
executing while SMs drain/switch and pages migrate (Section 6.3).

Closed versus open system
-------------------------
Without an arrival schedule the runner reproduces the paper's closed
evaluation: a fixed mix over the whole horizon, byte-for-byte identical
to the pre-refactor subclasses.  With ``arrivals=ArrivalSchedule(...)``
the runner becomes an open system: at each epoch boundary it retires
jobs that consumed their instruction budget (``departure``), queues new
jobs whose arrival cycle has passed (``arrival``), and grants slices to
queued jobs while residency is below ``max_slots`` (``admission``) —
departures run first so a same-boundary arrival can take the freed slot.
Each membership change flows through the policy hooks, which reuse the
:class:`PenaltyCharge` machinery so joins and leaves pay realistic
reallocation cost.  Open runs return an :class:`OpenSystemResult` with
occupancy-weighted interval STP/ANTT, queueing delay and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.slices import PartitionState, ResourceAllocation
from repro.errors import ConfigError, SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application
from repro.gpu.performance import PerformanceModel, SliceThroughput
from repro.metrics.energy import EnergyBreakdown, EnergyModel
from repro.metrics.multiprogram import (
    AppRun,
    IntervalRun,
    antt,
    interval_antt,
    interval_stp,
    makespan,
    mean_queueing_delay,
    stp,
)
from repro.sim.epoch import EpochResult, EpochRunner
from repro.vm.oversubscription import FaultOverheadModel
from repro.workloads.arrivals import ArrivalEvent, ArrivalSchedule


@dataclass
class PenaltyCharge:
    """A pending throughput loss: ``factor`` of IPC lost for ``window``
    cycles of the next epoch(s).

    ``counts_as_migration`` marks windows reported in Figure 12a's
    per-epoch reallocation occupancy (SM handover plus eager page moves);
    background/lazy trickle windows are excluded there.
    """

    window_cycles: float
    factor: float
    counts_as_migration: bool = True

    def __post_init__(self) -> None:
        if self.window_cycles < 0 or not 0.0 <= self.factor <= 1.0:
            raise ConfigError(
                f"invalid penalty: window={self.window_cycles}, factor={self.factor}"
            )

    @property
    def lost_cycles(self) -> float:
        return self.window_cycles * self.factor


@dataclass
class AppState:
    """Simulation state of one co-executing application.

    The lifecycle fields default to the closed-system values: arrived
    and admitted at cycle 0, no budget (resident until the horizon),
    never departed.
    """

    app: Application
    allocation: ResourceAllocation
    instructions: int = 0
    dram_bytes: float = 0.0
    penalties: List[PenaltyCharge] = field(default_factory=list)
    migrated_bytes: float = 0.0
    arrival_cycle: int = 0
    admit_cycle: int = 0
    depart_cycle: Optional[int] = None
    budget_instructions: Optional[int] = None

    @property
    def app_id(self) -> int:
        return self.app.app_id

    @property
    def retired_budget(self) -> bool:
        return (
            self.budget_instructions is not None
            and self.instructions >= self.budget_instructions
        )


@dataclass
class SystemResult:
    """Outcome of a closed-system multiprogram simulation."""

    policy: str
    mix_name: str
    runs: List[AppRun]
    epochs: List[EpochResult]
    total_cycles: int
    energy: Optional[EnergyBreakdown] = None
    repartitions: int = 0

    @property
    def stp(self) -> float:
        return stp(self.runs)

    @property
    def antt(self) -> float:
        return antt(self.runs)

    @property
    def min_np(self) -> float:
        if not self.runs:
            raise SimulationError(
                f"{self.policy}/{self.mix_name}: no application runs to take "
                "min_np over (every application departed before the horizon?); "
                "open-system runs report interval metrics on OpenSystemResult"
            )
        return min(run.normalized_progress for run in self.runs)

    def migration_fractions(self) -> List[float]:
        return [e.migration_fraction for e in self.epochs]


@dataclass
class OpenSystemResult:
    """Outcome of an open-system (arrival/departure) simulation.

    ``runs`` covers every job that was ever admitted — still-resident
    jobs have ``depart_cycle=None``.  ``arrivals`` counts jobs whose
    arrival cycle fell inside the simulated horizon; jobs that arrived
    but were never admitted are ``arrivals - admissions``.
    """

    policy: str
    mix_name: str
    runs: List[IntervalRun]
    epochs: List[EpochResult]
    total_cycles: int
    energy: Optional[EnergyBreakdown] = None
    repartitions: int = 0
    arrivals: int = 0
    admissions: int = 0
    departures: int = 0
    #: Attribution snapshot (git SHA, versions, config hash) — see
    #: :mod:`repro.telemetry.provenance`.
    provenance: Dict[str, str] = field(default_factory=dict)

    @property
    def stp(self) -> float:
        """Occupancy-weighted interval STP."""
        return interval_stp(self.runs, self.total_cycles)

    @property
    def antt(self) -> float:
        """Occupancy-weighted interval ANTT."""
        return interval_antt(self.runs, self.total_cycles)

    @property
    def makespan(self) -> int:
        return makespan(self.runs, self.total_cycles)

    @property
    def mean_queueing_delay(self) -> float:
        return mean_queueing_delay(self.runs)

    def migration_fractions(self) -> List[float]:
        return [e.migration_fraction for e in self.epochs]


#: Process-wide memo of solo-run IPCs: the Equation 3/4 denominator is a
#: pure function of (application content, config, horizon, epoch length,
#: memory size), and sweeps re-derive it for every policy sharing a mix.
_SOLO_IPC_CACHE: Dict[Tuple, float] = {}


def clear_solo_ipc_cache() -> None:
    """Drop the process-wide solo-IPC memo (for tests)."""
    _SOLO_IPC_CACHE.clear()


class MultitaskSystem:
    """The shared epoch-level runner; composes a
    :class:`~repro.policies.base.PartitionPolicy`."""

    policy_name = "base"

    def __init__(
        self,
        applications: Sequence[Application],
        config: Optional[GPUConfig] = None,
        epoch_cycles: int = 5_000_000,
        energy_model: Optional[EnergyModel] = None,
        total_memory_bytes: Optional[int] = None,
        tracer=None,
        policy=None,
        arrivals: Optional[ArrivalSchedule] = None,
        max_slots: Optional[int] = None,
        metrics=None,
        profiler=None,
    ) -> None:
        """``total_memory_bytes`` enables memory-oversubscription modelling
        (paper Sections 3.2 and 5): each slice's capacity is proportional
        to its channel share, and applications whose footprint exceeds it
        pay far-fault overhead via
        :class:`repro.vm.oversubscription.FaultOverheadModel`.

        ``tracer`` (a :class:`repro.trace.TraceRecorder`) receives one
        ``epoch`` span per simulated epoch; policies add
        ``realloc``/``qos``/``migration`` records, and the open-system
        lifecycle ``arrival``/``admission``/``departure`` records, on top.

        ``policy`` is the composed :class:`PartitionPolicy` (default: the
        even static baseline).  ``arrivals`` switches the runner into
        open-system mode; ``max_slots`` caps concurrent residency
        (default: how many minimum slices the GPU can host).

        ``metrics`` (a :class:`repro.telemetry.MetricsRegistry`) receives
        the aggregate counterpart of the trace stream: epoch counters and
        duration histogram, migration-stall cycles, and — in open runs —
        arrival/admission/departure counters, the queueing-delay
        histogram and queue-depth gauges.  Like ``tracer``, it defaults
        to ``None`` and costs nothing when absent.

        ``profiler`` (a :class:`repro.profiling.PhaseProfiler`) measures
        host wall time per simulator phase: ``epoch`` with
        ``epoch.advance`` / ``epoch.policy`` / ``epoch.lifecycle``
        children, and ``run.solo_ipc`` for the Equation 3/4 denominator.
        Stored as :attr:`phase_profiler` — the plain ``profiler``
        attribute stays delegated to the composed policy's epoch-counter
        :class:`~repro.core.profiler.EpochProfiler` for backward
        compatibility.

        The epoch loop itself is :class:`repro.fastpath.epoch.FastEpochKernel`,
        which caches each resident's slice throughput between kernel
        crossings and repartitions."""
        if epoch_cycles <= 0:
            raise ConfigError(
                f"epoch_cycles must be positive, got {epoch_cycles}")
        if policy is None:
            from repro.policies.base import PartitionPolicy

            policy = PartitionPolicy()
        else:
            # An explicit policy names the run; legacy subclasses keep
            # their class-level policy_name.
            self.policy_name = policy.policy_name
        self.policy = policy
        self._open = arrivals is not None and len(arrivals) > 0
        if not applications and not self._open:
            raise ConfigError("need at least one application")
        config = config if config is not None else GPUConfig()
        config.validate()
        self.config = config
        #: The config's part of the solo-IPC memo key, rendered once.
        self._config_text = repr(config)
        self.perf = PerformanceModel(config)
        self.epoch_cycles = epoch_cycles
        self.energy_model = energy_model
        self.total_memory_bytes = total_memory_bytes
        self.fault_model = (
            FaultOverheadModel(config) if total_memory_bytes is not None else None
        )
        from repro.fastpath.epoch import FastEpochKernel

        #: The epoch loop.  Must exist before any policy hook can touch
        #: the partition.
        self._kernel = FastEpochKernel(self)
        self.tracer = tracer
        self.metrics = metrics
        self.phase_profiler = profiler
        if metrics is not None:
            # Resolve children once; the per-epoch hot path then touches
            # plain objects (or no-ops, under a NullRegistry).
            from repro.telemetry import names as _names

            self._m_epochs = _names.epochs_total(metrics)
            self._m_epoch_cycles = _names.epoch_cycles_total(metrics)
            self._m_epoch_hist = _names.epoch_duration_cycles(metrics)
            self._m_instructions = _names.instructions_total(metrics)
            self._m_stall = _names.migration_stall_cycles_total(metrics)
            self._m_arrivals = _names.open_arrivals_total(metrics)
            self._m_admissions = _names.open_admissions_total(metrics)
            self._m_departures = _names.open_departures_total(metrics)
            self._m_queue_delay = _names.open_queueing_delay_cycles(metrics)
            self._m_wait_depth = _names.open_wait_queue_depth(metrics)
            self._m_resident = _names.open_resident_jobs(metrics)
            self._m_stp = _names.policy_stp(metrics)
            self._m_antt = _names.policy_antt(metrics)
            _memo_lookups = _names.perf_memo_lookups_total(metrics)
            self._m_memo_hit = _memo_lookups.labels(outcome="hit")
            self._m_memo_miss = _memo_lookups.labels(outcome="miss")
            self._m_memo_entries = _names.perf_memo_entries(metrics)
        self._memo_hits_seen = 0
        self._memo_misses_seen = 0
        #: Cycle stamp for trace records emitted outside the epoch step
        #: (e.g. QoS enforcement during construction happens at cycle 0).
        self._trace_now = 0
        self.repartitions = 0
        self.policy.bind(self)
        # A run owns its progress: advance clones, never the caller's
        # applications, so running the same inputs twice is identical.
        applications = [app.clone() for app in applications]
        self.partition = self.initial_partition(applications)
        self.apps: Dict[int, AppState] = {}
        for app in applications:
            self.apps[app.app_id] = AppState(
                app=app, allocation=self.partition.allocation(app.app_id)
            )
        # Open-system state.
        self.arrivals = arrivals
        self._pending: List[ArrivalEvent] = list(arrivals) if arrivals else []
        self._wait_queue: List[ArrivalEvent] = []
        self.departed: Dict[int, AppState] = {}
        self._admitted_order: List[AppState] = list(self.apps.values())
        self.arrivals_seen = 0
        self.admissions = 0
        self.departures = 0
        if max_slots is None:
            # How many minimum slices (4 SMs / 4 channels, the
            # PartitionState floors) the physical GPU can host: 8 for the
            # Table 1 machine (32 channels / 4).
            max_slots = min(config.num_sms // 4, config.num_channels // 4)
        if max_slots < len(self.apps):
            raise ConfigError(
                f"max_slots={max_slots} below the {len(self.apps)} initial "
                "applications"
            )
        self.max_slots = max_slots
        self.policy.on_start()

    def __getattr__(self, name: str):
        # Compatibility: pre-refactor subclasses exposed policy state
        # (profiler, hysteresis, suppressed_repartitions, mode, ...) as
        # system attributes; delegate unknown public names to the policy.
        if name.startswith("_"):
            raise AttributeError(name)
        policy = self.__dict__.get("policy")
        if policy is not None and hasattr(policy, name):
            return getattr(policy, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Hooks (delegated to the policy)
    # ------------------------------------------------------------------
    def initial_partition(self, applications: Sequence[Application]) -> PartitionState:
        return self.policy.initial_partition(applications)

    def slice_throughput(self, state: AppState) -> SliceThroughput:
        """Evaluate the app's current kernel on its isolated slice (the
        default policy behaviour; policies layer contention or profiling
        on top)."""
        return self.perf.throughput(
            state.app.current_kernel,
            state.allocation.sms,
            state.allocation.channels,
        )

    def capacity_factor(self, state: AppState, throughput: SliceThroughput) -> float:
        """Far-fault throughput factor when oversubscription is modelled."""
        if self.fault_model is None:
            return 1.0
        capacity = self.fault_model.capacity_for_channels(
            state.allocation.channels, self.total_memory_bytes
        )
        charge = self.fault_model.charge(
            state.app.footprint_bytes, capacity, throughput.dram_bytes_per_cycle
        )
        return charge.throughput_factor

    # ------------------------------------------------------------------
    # Epoch bookkeeping shared with the epoch loop
    # ------------------------------------------------------------------
    def _epoch_metrics(self, result: EpochResult, span: int,
                       instructions: Dict[int, int]) -> None:
        """Per-epoch metrics updates."""
        self._m_epochs.inc()
        self._m_epoch_cycles.inc(span)
        self._m_epoch_hist.observe(span)
        self._m_instructions.inc(sum(instructions.values()))
        self._m_stall.inc(result.migration_cycles)
        perf = self.perf
        if perf.memo_hits != self._memo_hits_seen:
            self._m_memo_hit.inc(perf.memo_hits - self._memo_hits_seen)
            self._memo_hits_seen = perf.memo_hits
        if perf.memo_misses != self._memo_misses_seen:
            self._m_memo_miss.inc(perf.memo_misses - self._memo_misses_seen)
            self._memo_misses_seen = perf.memo_misses
        self._m_memo_entries.set(perf.memo_size)
        self.metrics.epoch_boundary(result.index, result.end_cycle)

    # ------------------------------------------------------------------
    # Open-system lifecycle
    # ------------------------------------------------------------------
    def _process_boundary(self, now: int) -> None:
        """Departures, then arrivals, then admissions — in that order, so
        a slot freed this boundary serves a job queued this boundary."""
        for app_id in [a for a, s in self.apps.items() if s.retired_budget]:
            state = self.apps.pop(app_id)
            state.depart_cycle = now
            state.penalties = []
            self.departed[app_id] = state
            self.departures += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "departure", state.app.name, time=now,
                    app_id=app_id, instructions=state.instructions,
                    resident_cycles=now - state.admit_cycle,
                )
            if self.metrics is not None:
                self._m_departures.inc()
            self.policy.on_app_departure(state)
        while self._pending and self._pending[0].cycle <= now:
            event = self._pending.pop(0)
            self._wait_queue.append(event)
            self.arrivals_seen += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "arrival", event.app.name, time=event.cycle,
                    app_id=event.app.app_id,
                )
            if self.metrics is not None:
                self._m_arrivals.inc()
        while self._wait_queue and len(self.apps) < self.max_slots:
            event = self._wait_queue.pop(0)
            state = AppState(
                app=event.app.clone(),
                allocation=ResourceAllocation(0, 0),
                arrival_cycle=event.cycle,
                admit_cycle=now,
                budget_instructions=event.budget_instructions,
            )
            self.apps[event.app.app_id] = state
            self._admitted_order.append(state)
            self.admissions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "admission", event.app.name, time=now,
                    app_id=event.app.app_id,
                    queueing_delay=now - event.cycle,
                )
            if self.metrics is not None:
                self._m_admissions.inc()
                self._m_queue_delay.observe(now - event.cycle)
            self.policy.on_app_arrival(state)
        if self.metrics is not None:
            self._m_wait_depth.set(len(self._wait_queue))
            self._m_resident.set(len(self.apps))

    def _drained(self, _result: EpochResult) -> bool:
        """Early exit for open runs: nothing resident, queued or pending."""
        return not self.apps and not self._wait_queue and not self._pending

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, total_cycles: int = 25_000_000,
            mix_name: Optional[str] = None):
        """Simulate for ``total_cycles`` GPU cycles (the paper's horizon
        is 25M).  Closed runs (no arrival schedule) return a
        :class:`SystemResult`; open runs return an
        :class:`OpenSystemResult`."""
        if total_cycles <= 0:
            raise ConfigError(
                f"total_cycles must be positive, got {total_cycles}")
        if self._open:
            return self._run_open(total_cycles, mix_name)
        epochs = self._kernel.drive(EpochRunner(self.epoch_cycles),
                                    total_cycles)
        alone = self.alone_ipcs(total_cycles)
        runs = []
        for state in self.apps.values():
            ipc = state.instructions / total_cycles
            runs.append(
                AppRun(
                    app_id=state.app_id,
                    name=state.app.name,
                    ipc=ipc,
                    ipc_alone=alone[state.app_id],
                )
            )
        result = SystemResult(
            policy=self.policy_name,
            mix_name=mix_name or "_".join(s.app.name for s in self.apps.values()),
            runs=runs,
            epochs=epochs,
            total_cycles=total_cycles,
            energy=self._energy(total_cycles, self.apps.values()),
            repartitions=self.repartitions,
        )
        self._finish_metrics(result)
        return result

    def _run_open(self, total_cycles: int,
                  mix_name: Optional[str]) -> OpenSystemResult:
        epochs = EpochRunner(self.epoch_cycles).run(
            self._kernel.step, total_cycles, stop_when=self._drained)
        runs = []
        for state in self._admitted_order:
            if state.depart_cycle is None and state.admit_cycle >= total_cycles:
                # Admitted exactly at the horizon: never executed.
                continue
            interval = (
                (state.depart_cycle if state.depart_cycle is not None
                 else total_cycles) - state.admit_cycle
            )
            runs.append(
                IntervalRun(
                    app_id=state.app_id,
                    name=state.app.name,
                    instructions=state.instructions,
                    ipc_alone=self._solo_ipc(state.app, interval),
                    arrival_cycle=state.arrival_cycle,
                    admit_cycle=state.admit_cycle,
                    depart_cycle=state.depart_cycle,
                )
            )
        all_states = list(self._admitted_order)
        from repro.telemetry.provenance import collect_provenance

        result = OpenSystemResult(
            policy=self.policy_name,
            mix_name=mix_name or "open",
            runs=runs,
            epochs=epochs,
            total_cycles=total_cycles,
            energy=self._energy(total_cycles, all_states),
            repartitions=self.repartitions,
            arrivals=self.arrivals_seen,
            admissions=self.admissions,
            departures=self.departures,
            provenance=collect_provenance(self.config,
                                          policy=self.policy_name),
        )
        self._finish_metrics(result)
        return result

    def _finish_metrics(self, result) -> None:
        """End-of-run summary gauges (per-policy STP/ANTT, trace drops)."""
        if self.metrics is None:
            return
        dropped = getattr(self.tracer, "dropped", None)
        if dropped is not None:
            from repro.telemetry import names as _names

            _names.trace_dropped_events(self.metrics).set(dropped)
        # Flush memo-lookup deltas accrued outside the epoch loop (the
        # solo-IPC denominators run after the last epoch).
        perf = self.perf
        if perf.memo_hits != self._memo_hits_seen:
            self._m_memo_hit.inc(perf.memo_hits - self._memo_hits_seen)
            self._memo_hits_seen = perf.memo_hits
        if perf.memo_misses != self._memo_misses_seen:
            self._m_memo_miss.inc(perf.memo_misses - self._memo_misses_seen)
            self._memo_misses_seen = perf.memo_misses
        self._m_memo_entries.set(perf.memo_size)
        if not result.runs:
            return
        self._m_stp.labels(policy=self.policy_name).set(result.stp)
        self._m_antt.labels(policy=self.policy_name).set(result.antt)

    def _energy(self, total_cycles: int,
                states) -> Optional[EnergyBreakdown]:
        if self.energy_model is None:
            return None
        total_instr = sum(s.instructions for s in states)
        total_dram = sum(s.dram_bytes for s in states)
        total_migrated = sum(s.migrated_bytes for s in states)
        return self.energy_model.energy(
            cycles=total_cycles,
            instructions=total_instr,
            dram_bytes=total_dram,
            migrated_bytes=total_migrated,
        )

    # ------------------------------------------------------------------
    # Solo-run denominator (memoized per process)
    # ------------------------------------------------------------------
    def alone_ipcs(self, total_cycles: int) -> Dict[int, float]:
        """IPC of each application running alone on the whole GPU for the
        same horizon (the Equation 3/4 denominator)."""
        return {
            state.app_id: self._solo_ipc(state.app, total_cycles)
            for state in self.apps.values()
        }

    def _solo_cache_key(self, app: Application, total_cycles: int) -> Tuple:
        # Content-based: kernels and their hit curves are frozen values.
        return (
            app.name, app.kernels, self._config_text, total_cycles,
            self.epoch_cycles, self.total_memory_bytes,
        )

    def _solo_ipc(self, app: Application, total_cycles: int) -> float:
        key = self._solo_cache_key(app, total_cycles)
        cached = _SOLO_IPC_CACHE.get(key)
        if cached is not None:
            return cached
        prof = self.phase_profiler
        if prof is None:
            instructions = self._kernel.solo_instructions(app, total_cycles)
        else:
            with prof.span("run.solo_ipc"):
                instructions = self._kernel.solo_instructions(
                    app, total_cycles)
        if instructions <= 0:
            raise SimulationError(
                f"{app.name}: solo run retired no instructions"
            )
        ipc = instructions / total_cycles
        _SOLO_IPC_CACHE[key] = ipc
        return ipc

    # ------------------------------------------------------------------
    # Helpers for policies
    # ------------------------------------------------------------------
    def set_allocation(self, app_id: int,
                       allocation: ResourceAllocation) -> ResourceAllocation:
        """Update one slice; returns the previous allocation."""
        previous = self.apps[app_id].allocation
        self.partition.assign(app_id, allocation)
        self.apps[app_id].allocation = allocation
        self._kernel.partition_changed()
        return previous

    def apply_partition(self, allocations: Mapping[int, ResourceAllocation]) -> None:
        self.partition.assign_all(dict(allocations))
        for app_id, allocation in allocations.items():
            self.apps[app_id].allocation = allocation
        self._kernel.partition_changed()

    def replace_partition(self, partition: PartitionState) -> None:
        """Swap in a freshly constructed partition (MPS membership
        changes rebuild their nominal budget); slices must already be
        assigned for every resident."""
        self.partition = partition
        for app_id, state in self.apps.items():
            state.allocation = partition.allocation(app_id)
        self._kernel.partition_changed()

    def add_penalty(self, app_id: int, window_cycles: float, factor: float,
                    counts_as_migration: bool = True) -> None:
        if window_cycles > 0 and factor > 0:
            self.apps[app_id].penalties.append(
                PenaltyCharge(window_cycles, factor, counts_as_migration)
            )
