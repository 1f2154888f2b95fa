"""The epoch loop of :class:`repro.core.system.MultitaskSystem`.

Every epoch advances each resident application at its slice's roofline
rate, charges pending reallocation penalties, then lets the policy
repartition (paper Figure 5).  A slice throughput depends on the app's
current kernel and its :class:`ResourceAllocation`, which change only at
kernel boundaries and repartitions, so :class:`FastEpochKernel` caches
one slot per resident application holding the last
:class:`SliceThroughput` plus the tokens that prove it is still valid,
refreshes the stale slots through :meth:`PerformanceModel.throughput`,
and advances the whole resident set with an inlined fast path of
:meth:`Application.advance`.  Its correctness contract is the frozen
golden fixtures under ``tests/golden/``, which every change to this
loop must reproduce byte for byte.

How much the cache may assume depends on the policy, declared via
``PartitionPolicy.throughput_dependence``:

* ``"slice"`` — ``throughput_for`` is exactly ``slice_throughput`` plus
  the ``observe_throughput`` side-effect hook (the base contract).  The
  throughput depends only on (kernel, sms, channels); stale slots are
  refreshed up front and the hook is invoked every epoch in app order.
* ``"resident-set"`` — the throughput also depends on the *other*
  residents (MPS's shared-memory contention).  Slots are keyed on a
  mutation counter that bumps whenever any app crosses a kernel boundary
  or the partition changes, and dirty slots are recomputed through
  ``policy.throughput_for`` at their in-order turn, so app B sees app
  A's new kernel in the same epoch.
* ``"stateful"`` — no caching: ``throughput_for`` is called every epoch
  for every app.  This is the conservative fallback for
  any policy subclass that overrides ``throughput_for`` without
  re-declaring its dependence (the declaration must come from a class at
  the same or lower MRO position as the override to be trusted).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.system import PenaltyCharge
from repro.policies.base import PartitionPolicy
from repro.sim.epoch import EpochResult


class _Slot:
    """Per-application throughput cache entry."""

    __slots__ = ("state", "app", "app_id", "progress", "alloc", "kidx",
                 "throughput", "ipc", "dram", "kernel_len", "mut")

    def __init__(self, state) -> None:
        self.state = state
        self.app = state.app
        self.app_id = state.app.app_id
        self.progress = state.app.progress
        self.alloc = None        #: ResourceAllocation identity token
        self.kidx = -1           #: kernel_index token
        self.throughput = None
        self.ipc = 0.0
        self.dram = 0.0
        self.kernel_len = 0      #: current kernel's instruction count
        self.mut = -1            #: mutation-counter token (resident-set)


class FastEpochKernel:
    """The epoch step, bound to one runner."""

    def __init__(self, runner) -> None:
        self.runner = runner
        #: Bumped whenever any input a cached throughput could depend on
        #: changes: a partition update, or any app crossing a kernel
        #: boundary.  Resident-set slots validate against it.
        self.mutation_count = 0
        #: Bumped on partition updates only; keys the shared
        #: ``detail["allocations"]`` snapshot for closed runs.
        self._partition_version = 0
        self._slots: Dict[int, _Slot] = {}
        #: Slot list in app order; built once for closed runs (membership
        #: is fixed after construction), rebuilt every epoch for open
        #: runs whose membership can change at any boundary.
        self._ordered: Optional[List[_Slot]] = None
        self._alloc_snapshot: Optional[Dict[int, tuple]] = None
        self._alloc_version = -1
        #: Slice slots can only go stale through a partition change or a
        #: kernel crossing, both of which we observe; between them the
        #: per-epoch validity scan is skipped outright.
        self._maybe_dirty = True
        policy = runner.policy
        policy_cls = type(policy)
        # fault_model and total_memory_bytes are fixed at construction.
        self._fault_free = runner.fault_model is None
        self.dependence = self._resolve_dependence(policy)
        self._observe = (
            policy.observe_throughput
            if policy_cls.observe_throughput
            is not PartitionPolicy.observe_throughput
            else None
        )
        # The boundary hook, or None for the base no-op (static policies).
        self._epoch_hook = (
            None if policy_cls.on_epoch_end is PartitionPolicy.on_epoch_end
            else policy.on_epoch_end
        )

    @staticmethod
    def _resolve_dependence(policy) -> str:
        """Trusted ``throughput_dependence`` of ``policy``, else
        ``"stateful"``.

        The declaration is only trusted when it comes from a class at the
        same or lower MRO index as the class owning ``throughput_for`` —
        a subclass that overrides the hook without re-declaring its
        dependence gets the conservative fallback, not its parent's
        promise.  ``"resident-set"`` additionally requires the default
        ``observe_throughput`` (an observe override's interaction with
        caching is unspecified for that contract).
        """
        cls = type(policy)
        mro = cls.__mro__
        dep_owner = next(
            (k for k in mro if "throughput_dependence" in k.__dict__), None)
        tf_owner = next(
            (k for k in mro if "throughput_for" in k.__dict__), None)
        if dep_owner is None or tf_owner is None:
            return "stateful"
        if mro.index(dep_owner) > mro.index(tf_owner):
            return "stateful"
        dep = cls.throughput_dependence
        if dep == "resident-set":
            if (type(policy).observe_throughput
                    is not PartitionPolicy.observe_throughput):
                return "stateful"
            return dep
        return dep if dep == "slice" else "stateful"

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def partition_changed(self) -> None:
        """Called by the runner after any allocation update."""
        self.mutation_count += 1
        self._partition_version += 1
        self._maybe_dirty = True

    def _slot_list(self, apps) -> List[_Slot]:
        slots = self._slots
        ordered: List[_Slot] = []
        for app_id, state in apps.items():
            slot = slots.get(app_id)
            if slot is None or slot.state is not state:
                slot = slots[app_id] = _Slot(state)
            ordered.append(slot)
        return ordered

    # ------------------------------------------------------------------
    # Closed-run driver
    # ------------------------------------------------------------------
    def drive(self, epoch_runner, total_cycles: int):
        """Run a closed simulation on ``epoch_runner``.

        Equivalent to ``epoch_runner.run(self.step, total_cycles)``, with
        one extra trick available when every per-epoch hook is absent
        (slice dependence, no observe/boundary hooks, no tracer, metrics
        or phase profiler, no fault model): between kernel crossings each
        epoch retires exactly the same instruction counts, so the span
        until the next crossing is emitted in a tight loop — per-epoch
        results stay identical, per-app state is advanced in bulk (the
        float DRAM accumulator still performs one addition per epoch to
        preserve the per-epoch summation order bit-for-bit).
        """
        runner = self.runner
        epoch_cycles = epoch_runner.epoch_cycles
        results = epoch_runner.results
        step = self.step
        elapsed = 0
        index = len(results)
        steady_ok = (
            self.dependence == "slice"
            and self._observe is None
            and self._epoch_hook is None
            and self._fault_free
            and not runner._open
            and runner.tracer is None
            and runner.metrics is None
            and runner.phase_profiler is None
        )
        span_f = float(epoch_cycles)
        while elapsed < total_cycles:
            span = min(epoch_cycles, total_cycles - elapsed)
            result = step(index, span)
            results.append(result)
            elapsed += span
            index += 1
            if not steady_ok or span < epoch_cycles or self._maybe_dirty:
                continue
            remaining_full = (total_cycles - elapsed) // epoch_cycles
            if remaining_full <= 0:
                continue
            # Steady span length: epochs every app survives inside its
            # current kernel at the current per-epoch retire rate.
            ordered = self._ordered
            k = remaining_full
            for slot in ordered:
                if slot.state.penalties:
                    k = 0
                    break
                retired = int(slot.ipc * span_f)
                if retired <= 0:
                    continue  # never crosses: no bound from this app
                left = slot.kernel_len - slot.progress.instructions_done
                steady = (left - 1) // retired
                if steady < k:
                    k = steady
            if k <= 0:
                continue
            shared_instructions = {
                slot.app_id: int(slot.ipc * span_f) for slot in ordered
            }
            snapshot = self._alloc_snapshot
            start = elapsed
            append = results.append
            for _ in range(k):
                end = start + epoch_cycles
                append(
                    EpochResult(
                        index=index,
                        start_cycle=start,
                        end_cycle=end,
                        instructions=shared_instructions,
                        migration_cycles=0,
                        repartitioned=False,
                        detail={"allocations": snapshot},
                    )
                )
                start = end
                index += 1
            for slot in ordered:
                retired = shared_instructions[slot.app_id]
                progress = slot.progress
                progress.instructions_done += retired * k
                progress.total_instructions += retired * k
                state = slot.state
                state.instructions += retired * k
                delta = slot.dram * span_f
                acc = state.dram_bytes
                for _ in range(k):
                    acc += delta
                state.dram_bytes = acc
            elapsed = start
            runner._trace_now = elapsed
        return results

    # ------------------------------------------------------------------
    # The epoch step
    # ------------------------------------------------------------------
    def step(self, epoch_index: int, span: int) -> EpochResult:
        runner = self.runner
        prof = runner.phase_profiler
        if prof is not None:
            prof.begin("epoch")
            prof.begin("epoch.advance")
        apps = runner.apps
        open_system = runner._open
        if open_system:
            ordered = self._slot_list(apps)
        else:
            ordered = self._ordered
            if ordered is None:
                ordered = self._ordered = self._slot_list(apps)
        dependence = self.dependence
        observe = self._observe
        fault_free = self._fault_free
        instructions: Dict[int, int] = {}
        migration_cycles = 0.0
        span_f = float(span)

        # ---- resolve throughputs and advance the resident set ---------
        if dependence == "slice":
            if self._maybe_dirty:
                dirty: Optional[List[_Slot]] = None
                for slot in ordered:
                    if (slot.alloc is not slot.state.allocation
                            or slot.kidx != slot.progress.kernel_index):
                        if dirty is None:
                            dirty = [slot]
                        else:
                            dirty.append(slot)
                if dirty is not None:
                    self._refresh_slice_slots(dirty)
            bumps = 0
            for slot in ordered:
                state = slot.state
                if observe is not None:
                    observe(state, slot.throughput)
                penalties = state.penalties
                if penalties:
                    lost = 0.0
                    consumed: List[PenaltyCharge] = []
                    for charge in penalties:
                        take_window = min(charge.window_cycles, span)
                        lost += take_window * charge.factor
                        if charge.counts_as_migration:
                            migration_cycles = max(
                                migration_cycles, take_window)
                        if charge.window_cycles > span:
                            consumed.append(
                                PenaltyCharge(
                                    charge.window_cycles - span,
                                    charge.factor,
                                    charge.counts_as_migration,
                                )
                            )
                    state.penalties = consumed
                    effective = max(0.0, span - lost)
                else:
                    effective = span_f
                if fault_free:
                    retired = int(slot.ipc * effective)
                else:
                    retired = int(
                        slot.ipc * effective
                        * runner.capacity_factor(state, slot.throughput)
                    )
                progress = slot.progress
                if retired < slot.kernel_len - progress.instructions_done:
                    # Inlined Application.advance: stays inside the
                    # current kernel, so only the two counters move.
                    progress.instructions_done += retired
                    progress.total_instructions += retired
                else:
                    before_index = progress.kernel_index
                    slot.app.advance(retired)
                    if progress.kernel_index != before_index:
                        bumps += 1
                state.instructions += retired
                state.dram_bytes += slot.dram * effective
                instructions[slot.app_id] = retired
            if bumps:
                # Kernel crossings invalidate resident-set caches; for
                # slice slots the kidx token already covers them.
                self.mutation_count += bumps
            # Open systems can swap residents at any boundary; closed
            # ones only dirty slots via crossings (partition_changed
            # re-raises the flag on repartition, which may happen in the
            # epoch hook below).
            self._maybe_dirty = bumps > 0 or open_system
        else:
            policy_throughput = runner.policy.throughput_for
            resident_set = dependence == "resident-set"
            for slot in ordered:
                state = slot.state
                if resident_set:
                    # Validation happens inside the loop: an earlier
                    # app's kernel change must dirty the later apps'
                    # slots within the same epoch.
                    if slot.mut != self.mutation_count:
                        throughput = policy_throughput(state)
                        slot.throughput = throughput
                        slot.ipc = throughput.ipc
                        slot.dram = throughput.dram_bytes_per_cycle
                        slot.kernel_len = slot.app.current_kernel.instructions
                        slot.mut = self.mutation_count
                    else:
                        throughput = slot.throughput
                else:
                    throughput = policy_throughput(state)
                    slot.throughput = throughput
                    slot.ipc = throughput.ipc
                    slot.dram = throughput.dram_bytes_per_cycle
                    slot.kernel_len = slot.app.current_kernel.instructions
                penalties = state.penalties
                if penalties:
                    lost = 0.0
                    consumed = []
                    for charge in penalties:
                        take_window = min(charge.window_cycles, span)
                        lost += take_window * charge.factor
                        if charge.counts_as_migration:
                            migration_cycles = max(
                                migration_cycles, take_window)
                        if charge.window_cycles > span:
                            consumed.append(
                                PenaltyCharge(
                                    charge.window_cycles - span,
                                    charge.factor,
                                    charge.counts_as_migration,
                                )
                            )
                    state.penalties = consumed
                    effective = max(0.0, span - lost)
                else:
                    effective = span_f
                if fault_free:
                    retired = int(slot.ipc * effective)
                else:
                    retired = int(
                        slot.ipc * effective
                        * runner.capacity_factor(state, throughput)
                    )
                progress = slot.progress
                if retired < slot.kernel_len - progress.instructions_done:
                    progress.instructions_done += retired
                    progress.total_instructions += retired
                else:
                    before_index = progress.kernel_index
                    slot.app.advance(retired)
                    if progress.kernel_index != before_index:
                        self.mutation_count += 1
                state.instructions += retired
                state.dram_bytes += slot.dram * effective
                instructions[slot.app_id] = retired

        # ---- epilogue ------------------------------------------------
        start_cycle = epoch_index * runner.epoch_cycles
        result = EpochResult(
            index=epoch_index,
            start_cycle=start_cycle,
            end_cycle=start_cycle + span,
            instructions=instructions,
            migration_cycles=int(migration_cycles),
            repartitioned=False,
        )
        before = runner.repartitions
        runner._trace_now = result.end_cycle
        if prof is not None:
            prof.end("epoch.advance")
            prof.begin("epoch.policy")
        epoch_hook = self._epoch_hook
        if epoch_hook is not None and apps:
            epoch_hook(epoch_index, span)
        if prof is not None:
            prof.end("epoch.policy")
        if open_system:
            if prof is not None:
                with prof.span("epoch.lifecycle"):
                    runner._process_boundary(result.end_cycle)
            else:
                runner._process_boundary(result.end_cycle)
            # Membership may just have changed: snapshot directly.
            result.detail["allocations"] = {
                app_id: (state.allocation.sms, state.allocation.channels)
                for app_id, state in apps.items()
            }
        else:
            # Closed runs: the snapshot only changes on repartition, so
            # epochs between repartitions share one dict object.
            snapshot = self._alloc_snapshot
            if snapshot is None or self._alloc_version != self._partition_version:
                snapshot = {
                    app_id: (state.allocation.sms, state.allocation.channels)
                    for app_id, state in apps.items()
                }
                self._alloc_snapshot = snapshot
                self._alloc_version = self._partition_version
            result.detail["allocations"] = snapshot
        result.repartitioned = runner.repartitions > before
        if runner.tracer is not None:
            runner.tracer.emit(
                "epoch", f"epoch[{epoch_index}]",
                time=result.start_cycle, duration=span,
                instructions=sum(instructions.values()),
                migration_cycles=result.migration_cycles,
                repartitioned=result.repartitioned,
            )
        if runner.metrics is not None:
            runner._epoch_metrics(result, span, instructions)
        if prof is not None:
            prof.end("epoch")
        return result

    def _refresh_slice_slots(self, dirty: List[_Slot]) -> None:
        """Recompute the stale slice throughputs (memo-first)."""
        throughput_of = self.runner.perf.throughput
        for slot in dirty:
            kernel = slot.app.current_kernel
            allocation = slot.state.allocation
            throughput = throughput_of(kernel, allocation.sms,
                                       allocation.channels)
            slot.alloc = allocation
            slot.kidx = slot.progress.kernel_index
            slot.throughput = throughput
            slot.ipc = throughput.ipc
            slot.dram = throughput.dram_bytes_per_cycle
            slot.kernel_len = kernel.instructions

    # ------------------------------------------------------------------
    # Epoch-batched solo run (the Equation 3/4 denominator)
    # ------------------------------------------------------------------
    def solo_instructions(self, app, total_cycles: int) -> int:
        """Instructions the app retires running alone on the whole GPU
        for the horizon, epoch by epoch.

        As long as the solo app stays inside one kernel, every full epoch
        retires the same ``int(ipc * span * factor)``, so ``k`` such
        epochs collapse into one ``advance(retired * k)`` call
        (``Application.advance`` is additive, including the first-launch
        instruction capture).
        """
        runner = self.runner
        perf = runner.perf
        num_sms = runner.config.num_sms
        num_channels = runner.config.num_channels
        epoch = runner.epoch_cycles
        fault_model = runner.fault_model
        solo = app.clone()
        progress = solo.progress
        instructions = 0
        elapsed = 0
        while elapsed < total_cycles:
            span = min(epoch, total_cycles - elapsed)
            kernel = solo.kernels[progress.kernel_index]
            t = perf.throughput(kernel, num_sms, num_channels)
            factor = 1.0
            if fault_model is not None:
                charge = fault_model.charge(
                    solo.footprint_bytes,
                    float(runner.total_memory_bytes),
                    t.dram_bytes_per_cycle,
                )
                factor = charge.throughput_factor
            retired = int(t.ipc * span * factor)
            if span < epoch:
                solo.advance(retired)
                instructions += retired
                elapsed += span
                continue
            remaining_full = (total_cycles - elapsed) // epoch
            if retired <= 0:
                # advance(0) is a no-op, so every remaining full epoch
                # repeats it verbatim; skip straight to the tail.
                elapsed += remaining_full * epoch
                continue
            left = kernel.instructions - progress.instructions_done
            k = -(-left // retired)  # epochs until the kernel boundary
            if k > remaining_full:
                k = remaining_full
            solo.advance(retired * k)
            instructions += retired * k
            elapsed += epoch * k
        return instructions
