"""The MMU front-end: the full Figure 9 translation path.

Ties the per-SM L1 TLBs, the shared L2 TLB, the page-table walker, the
GPU driver and the channel-status register into the exact flows Section
4.4 describes:

1. An SM's access probes its L1 TLB; a hit returns immediately.
2. On an L1 miss, the L2 TLB is probed.  On an L2 hit *during
   reallocation*, the channel-status register is consulted: a page found
   in a deallocated (or not-yet-populated) channel triggers a PageMove
   fault — the L2 entry and page-table entry are invalidated, the driver
   allocates a new frame in a valid channel, migrates the page, and the
   translation retries.
3. On an L2 miss, the walker traverses the 4-level page table; a table
   miss raises a demand fault handled by the driver (allocation from the
   least-loaded assigned channel).
4. Fills propagate down: page table -> L2 TLB -> the requesting L1 TLB.

The MMU charges latencies (TLB hit = 1 cycle, walker = level-latency per
level, driver fault = 1000 cycles, migration = cost-model PPMM page) and
is the workhorse of the coherence integration tests: after any channel
reallocation, no access may ever observe a translation into a channel its
application no longer owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import AllocationError, ConfigError, TranslationError
from repro.pagemove.cost import MigrationCostModel, MigrationMode
from repro.vm.channel_registry import ChannelStatusRegister
from repro.vm.driver import FaultKind, GPUDriver
from repro.vm.ptw import PageTableWalker
from repro.vm.tlb import TLB


@dataclass
class Translation:
    """Outcome of one MMU access."""

    app_id: int
    vpn: int
    rpn: int
    channel: int
    latency: int
    l1_hit: bool = False
    l2_hit: bool = False
    walked: bool = False
    demand_fault: bool = False
    migrated: bool = False


@dataclass
class MMUStats:
    """Aggregate MMU event counts."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    demand_faults: int = 0
    migration_faults: int = 0
    total_latency: int = 0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.accesses if self.accesses else 0.0


class MMU:
    """The shared translation machinery of all SMs."""

    L1_HIT_CYCLES = 1
    L2_HIT_CYCLES = 10

    def __init__(
        self,
        driver: GPUDriver,
        num_sms: int = 80,
        registry: Optional[ChannelStatusRegister] = None,
        walker: Optional[PageTableWalker] = None,
        cost_model: Optional[MigrationCostModel] = None,
        mode: MigrationMode = MigrationMode.PPMM,
    ) -> None:
        if num_sms <= 0:
            raise ConfigError("need at least one SM")
        self.driver = driver
        self.l1_tlbs: List[TLB] = [TLB.l1(f"l1tlb{i}") for i in range(num_sms)]
        self.l2_tlb = TLB.l2()
        self.registry = registry if registry is not None else ChannelStatusRegister(
            num_channel_groups=driver.num_channel_groups
        )
        self.walker = walker if walker is not None else PageTableWalker()
        self.cost_model = cost_model if cost_model is not None else MigrationCostModel()
        self.mode = mode
        self.stats = MMUStats()
        self.now = 0
        #: (app, vpn) -> the L1 TLB a demand fault filled with a frame in
        #: a channel awaiting migration.  Every other L1 fill passes the
        #: status-register check, so these are the only L1 entries a
        #: migration fault can leave stale.
        self._unchecked_l1: Dict[tuple, TLB] = {}

    # ------------------------------------------------------------------
    # The translation flow
    # ------------------------------------------------------------------
    def translate(self, sm_id: int, app_id: int, vpn: int) -> Translation:
        """Translate one access from ``sm_id``; returns the final
        translation after any faults and migrations resolve."""
        if not 0 <= sm_id < len(self.l1_tlbs):
            raise ConfigError(f"sm {sm_id} out of range")
        self.stats.accesses += 1
        l1 = self.l1_tlbs[sm_id]

        entry = l1.lookup(app_id, vpn)
        if entry is not None:
            self.stats.l1_hits += 1
            return self._done(app_id, vpn, entry.rpn, entry.channel,
                              self.L1_HIT_CYCLES, l1_hit=True)

        latency = self.L1_HIT_CYCLES  # L1 probe time before the miss
        entry = self.l2_tlb.lookup(app_id, vpn)
        if entry is not None:
            latency += self.L2_HIT_CYCLES
            if self.registry.needs_migration(app_id, entry.channel):
                return self._migration_fault(l1, app_id, vpn, latency)
            self.stats.l2_hits += 1
            l1.fill(app_id, vpn, entry.rpn, entry.channel)
            return self._done(app_id, vpn, entry.rpn, entry.channel,
                              latency, l2_hit=True)

        # L2 miss: walk the page table.
        try:
            table = self.driver.page_tables[app_id]
        except KeyError:
            raise AllocationError(f"app {app_id} is not registered") from None
        walk = self.walker.walk(table, vpn, self.now)
        latency += walk.latency
        self.stats.walks += 1
        if walk.faulted:
            fault = self.driver.handle_fault(FaultKind.DEMAND, app_id, vpn)
            latency += fault.software_cycles
            self.stats.demand_faults += 1
            self._fill_both(l1, app_id, vpn, fault.rpn, fault.channel)
            if self.registry.needs_migration(app_id, fault.channel):
                self._unchecked_l1[(app_id, vpn)] = l1
            return self._done(app_id, vpn, fault.rpn, fault.channel,
                              latency, walked=True, demand_fault=True)

        pte = walk.entry
        if self.registry.needs_migration(app_id, pte.channel):
            return self._migration_fault(l1, app_id, vpn, latency, walked=True)
        self._fill_both(l1, app_id, vpn, pte.rpn, pte.channel)
        return self._done(app_id, vpn, pte.rpn, pte.channel, latency,
                          walked=True)

    def _migration_fault(self, l1: TLB, app_id: int, vpn: int,
                         latency: int, walked: bool = False) -> Translation:
        """The PageMove fault path: invalidate, reallocate, migrate,
        refill (Section 4.4)."""
        self.l2_tlb.invalidate(app_id, vpn)
        # An L1 entry filled by a demand fault skipped the status-register
        # check; shoot it down, or that SM keeps the page's old frame.
        holder = self._unchecked_l1.pop((app_id, vpn), None)
        if holder is not None:
            holder.invalidate(app_id, vpn)
        direction = self.registry.direction(app_id)
        from repro.vm.channel_registry import ReallocationDirection

        kind = (
            FaultKind.LOST_CHANNEL
            if direction is ReallocationDirection.LOST
            else FaultKind.REBALANCE
        )
        target = None
        if direction is ReallocationDirection.GAINED:
            marked = sorted(self.registry.marked_channels(app_id))
            if marked:
                # Spread rebalance fills over the new channels.
                target = marked[vpn % len(marked)]
        fault = self.driver.handle_fault(kind, app_id, vpn, target_channel=target)
        latency += fault.software_cycles
        latency += int(self.cost_model.page_cycles(self.mode))
        self.stats.migration_faults += 1
        if self._reallocation_settled(app_id, direction):
            self.registry.clear(app_id)
        self._fill_both(l1, app_id, vpn, fault.rpn, fault.channel)
        return self._done(app_id, vpn, fault.rpn, fault.channel, latency,
                          walked=walked, migrated=True)

    def _reallocation_settled(self, app_id: int, direction) -> bool:
        """May the channel-status register be cleared?

        For an application that *lost* channels the register must stay
        live until no page remains resident in any lost channel — clearing
        earlier would let stale L2 entries be served again.  For a
        *gained* application the driver's balance condition suffices
        (Section 4.4).
        """
        from repro.vm.channel_registry import ReallocationDirection

        if direction is ReallocationDirection.LOST:
            owned = self.driver.assigned_channels(app_id)
            for channel in range(self.driver.num_channel_groups):
                if channel in owned:
                    continue
                if self.driver.resident_pages(app_id, channel) > 0:
                    return False
            return True
        return self.driver.is_balanced(app_id)

    def _fill_both(self, l1: TLB, app_id: int, vpn: int, rpn: int,
                   channel: int) -> None:
        self.l2_tlb.fill(app_id, vpn, rpn, channel)
        l1.fill(app_id, vpn, rpn, channel)

    def _done(self, app_id, vpn, rpn, channel, latency, **flags) -> Translation:
        self.stats.total_latency += latency
        self.now += latency
        return Translation(app_id=app_id, vpn=vpn, rpn=rpn, channel=channel,
                           latency=latency, **flags)

    # ------------------------------------------------------------------
    # Reallocation entry point
    # ------------------------------------------------------------------
    def begin_reallocation(self, app_id: int,
                           new_channels: Sequence[int]) -> None:
        """Reconfigure for a channel reallocation: flush all L1 TLBs,
        program the status register, update the driver assignment.

        Pages migrate lazily through :meth:`translate`'s fault path — the
        paper's on-demand flow, as opposed to the bulk path in
        :class:`repro.pagemove.engine.MigrationEngine`.
        """
        old = self.driver.assigned_channels(app_id)
        new = set(new_channels)
        for tlb in self.l1_tlbs:
            tlb.flush()
        if new - old:
            self.registry.set_gained(app_id, sorted(new - old))
        elif old - new:
            self.registry.set_lost(app_id, sorted(new))
        self.driver.reassign_channels(app_id, new)

    def assert_coherent(self, app_id: int) -> None:
        """Invariant check: no cached translation of ``app_id`` points at
        a channel the application does not own.  Raises
        :class:`TranslationError` on violation (used by tests)."""
        owned = self.driver.assigned_channels(app_id)
        for tlb in [self.l2_tlb] + self.l1_tlbs:
            for entry in tlb.entries_in_channels(
                app_id, set(range(self.driver.num_channel_groups)) - owned
            ):
                raise TranslationError(
                    f"stale translation: app {app_id} vpn {entry.vpn:#x} "
                    f"cached in unowned channel {entry.channel}"
                )
