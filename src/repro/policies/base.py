"""The :class:`PartitionPolicy` protocol.

A policy decides *how the GPU is partitioned*; the shared
:class:`~repro.core.system.MultitaskSystem` runner decides *how time
advances* (epochs, penalties, arrivals, departures, metrics).  The
pre-refactor code fused the two — every policy subclassed the runner —
which made it impossible to express a job lifecycle once per runner.

A policy object is bound to exactly one runner and implements five hooks:

* :meth:`initial_partition` — the partition before cycle zero;
* :meth:`throughput_for` — how an app performs on its slice (MPS models
  shared-memory contention here; UGPU feeds the profiler);
* :meth:`on_epoch_end` — the profiling-boundary decision (UGPU and
  CD-Search repartition; static baselines do nothing);
* :meth:`on_app_arrival` / :meth:`on_app_departure` — open-system
  membership changes.  The defaults re-even the partition and charge
  every resident a cache/TLB flush window through the runner's
  :class:`~repro.core.system.PenaltyCharge` machinery, so joins and
  leaves are never free.

The base class itself is the even static baseline: policies override only
what they change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.slices import PartitionState, ResourceAllocation
from repro.errors import AllocationError
from repro.gpu.kernel import Application

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import AppState, MultitaskSystem
    from repro.gpu.performance import SliceThroughput


def even_allocations(
    app_ids: Sequence[int], partition: PartitionState
) -> Dict[int, ResourceAllocation]:
    """The balanced split of ``partition``'s budget over ``app_ids``
    (the same arithmetic as :meth:`PartitionState.even`, without
    constructing a new partition object — membership changes must mutate
    the existing one, which the demand-aware partitioner holds by
    reference)."""
    ids = list(app_ids)
    if not ids:
        return {}
    sms = partition.total_sms // len(ids)
    channels = partition.total_channels // len(ids)
    channels -= channels % partition.channel_group
    if sms < partition.min_sms or channels < partition.min_channels:
        raise AllocationError(
            f"{len(ids)} applications cannot each receive the minimum allocation"
        )
    return {app_id: ResourceAllocation(sms, channels) for app_id in ids}


class PartitionPolicy:
    """Base policy: a static balanced partition (the BP behaviour).

    Subclasses override hooks; ``bind`` is called exactly once by the
    runner before any other hook, and ``on_start`` after the runner has
    materialized its per-app states (the place to build profilers,
    partitioners, or apply an offline partition).
    """

    policy_name = "base"

    #: What the value of :meth:`throughput_for` may depend on — the
    #: contract the epoch loop's throughput caching relies on
    #: (see :class:`repro.fastpath.epoch.FastEpochKernel`):
    #:
    #: * ``"slice"`` — only on the app's current kernel and its own
    #:   ``ResourceAllocation``; any side effects go through
    #:   :meth:`observe_throughput`.  This is the base contract:
    #:   ``throughput_for`` is exactly ``slice_throughput`` plus the
    #:   observe hook.
    #: * ``"resident-set"`` — additionally on the *other* residents'
    #:   kernels and allocations (MPS-style contention), but on nothing
    #:   else.
    #: * ``"stateful"`` — anything; the epoch loop calls the hook every
    #:   epoch for every app.
    #:
    #: A subclass that overrides :meth:`throughput_for` without
    #: re-declaring this attribute is treated as ``"stateful"``.
    throughput_dependence = "slice"

    #: Penalty charged to every resident when membership changes: the
    #: partition is redrawn, so caches/TLBs flush and refill exactly as
    #: after a UGPU repartition (Section 4.4's coherence step).
    membership_flush_window_cycles: float = 800_000.0
    membership_flush_factor: float = 0.35

    runner: "MultitaskSystem"

    # ------------------------------------------------------------------
    # Lifecycle wiring
    # ------------------------------------------------------------------
    def bind(self, runner: "MultitaskSystem") -> None:
        self.runner = runner

    def on_start(self) -> None:
        """Called once, after the runner created its AppStates."""

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def initial_partition(
        self, applications: Sequence[Application]
    ) -> PartitionState:
        """Default: the balanced partition (BP)."""
        runner = self.runner
        if not applications:
            # Open-system runs may start empty; the first admission
            # assigns the first slice.
            return PartitionState(
                total_sms=runner.config.num_sms,
                total_channels=runner.config.num_channels,
            )
        return PartitionState.even(
            [a.app_id for a in applications],
            total_sms=runner.config.num_sms,
            total_channels=runner.config.num_channels,
        )

    def throughput_for(self, state: "AppState") -> "SliceThroughput":
        """Default: the isolated-slice roofline evaluation, then the
        observe hook (so ``"slice"`` policies only override the hook)."""
        throughput = self.runner.slice_throughput(state)
        self.observe_throughput(state, throughput)
        return throughput

    def observe_throughput(
        self, state: "AppState", throughput: "SliceThroughput"
    ) -> None:
        """Side-effect hook fed once per app per epoch with the slice
        throughput (UGPU/CD-Search accumulate profiler counters here).
        Under the ``"slice"`` contract this is the *only* way
        ``throughput_for`` may touch policy state — the epoch loop calls
        it even when the throughput itself came from a cache."""

    def on_epoch_end(self, epoch_index: int, span: int) -> None:
        """Static policies do nothing at the boundary."""

    def on_app_arrival(self, state: "AppState") -> None:
        """Default: re-even the partition over the new resident set."""
        self.rebalance_even()

    def on_app_departure(self, state: "AppState") -> None:
        """Default: re-even the partition over the remaining residents."""
        self.rebalance_even()

    # ------------------------------------------------------------------
    # Shared membership-change machinery
    # ------------------------------------------------------------------
    def rebalance_even(self, counts_as_migration: bool = True) -> None:
        """Redistribute the budget evenly over the current residents and
        charge everyone the membership flush window."""
        runner = self.runner
        ids = list(runner.apps)
        if not ids:
            runner.partition.assign_all({})
            return
        allocations = even_allocations(ids, runner.partition)
        runner.apply_partition(allocations)
        runner.repartitions += 1
        self.charge_membership_flush(counts_as_migration)

    def charge_membership_flush(self, counts_as_migration: bool = True) -> None:
        runner = self.runner
        for app_id in runner.apps:
            runner.add_penalty(
                app_id,
                self.membership_flush_window_cycles,
                self.membership_flush_factor,
                counts_as_migration,
            )


class EvenPartitionPolicy(PartitionPolicy):
    """Explicit name for the base behaviour (useful in registries)."""
