"""Integration tests for the MMU translation path (repro.vm.mmu) —
the Figure 9 / Section 4.4 flows end to end."""

import pytest

from repro.errors import AllocationError, ConfigError, TranslationError
from repro.vm import GPUDriver
from repro.vm.mmu import MMU


@pytest.fixture
def driver():
    driver = GPUDriver(num_channel_groups=8, pages_per_channel=256)
    driver.register_app(0, channels=[0, 1, 2, 3])
    return driver


@pytest.fixture
def mmu(driver):
    return MMU(driver, num_sms=4)


class TestTranslationFlow:
    def test_first_touch_is_demand_fault(self, mmu):
        t = mmu.translate(sm_id=0, app_id=0, vpn=42)
        assert t.demand_fault and t.walked
        assert t.channel in {0, 1, 2, 3}
        assert t.latency > 1000  # driver software delay included

    def test_second_access_hits_l1(self, mmu):
        first = mmu.translate(0, 0, 42)
        second = mmu.translate(0, 0, 42)
        assert second.l1_hit
        assert second.latency == MMU.L1_HIT_CYCLES
        assert second.rpn == first.rpn

    def test_other_sm_hits_l2(self, mmu):
        mmu.translate(0, 0, 42)
        other = mmu.translate(1, 0, 42)
        assert other.l2_hit and not other.l1_hit
        assert other.latency == MMU.L1_HIT_CYCLES + MMU.L2_HIT_CYCLES

    def test_l2_fill_propagates_to_l1(self, mmu):
        mmu.translate(0, 0, 42)
        mmu.translate(1, 0, 42)         # L2 hit, fills SM 1's L1
        third = mmu.translate(1, 0, 42)
        assert third.l1_hit

    def test_walk_after_tlb_evictions(self, mmu):
        """Translations survive in the page table after TLB pressure."""
        first = mmu.translate(0, 0, 7)
        # Evict vpn 7 from both TLB levels with a large footprint sweep.
        for vpn in range(100, 100 + 600):
            mmu.translate(0, 0, vpn)
        again = mmu.translate(0, 0, 7)
        assert again.walked and not again.demand_fault
        assert again.rpn == first.rpn

    def test_stats_accounting(self, mmu):
        mmu.translate(0, 0, 1)
        mmu.translate(0, 0, 1)
        mmu.translate(1, 0, 1)
        assert mmu.stats.accesses == 3
        assert mmu.stats.l1_hits == 1
        assert mmu.stats.l2_hits == 1
        assert mmu.stats.demand_faults == 1

    def test_bad_sm_rejected(self, mmu):
        with pytest.raises(ConfigError):
            mmu.translate(99, 0, 1)


class TestReallocationFlows:
    def populate(self, mmu, vpns, app_id=0):
        return {vpn: mmu.translate(0, app_id, vpn) for vpn in vpns}

    def test_lost_channel_fault_migrates_page(self, mmu, driver):
        before = self.populate(mmu, range(8))
        lost = {vpn: t for vpn, t in before.items() if t.channel == 3}
        assert lost, "expected some pages in channel 3"
        mmu.begin_reallocation(0, new_channels=[0, 1, 2])
        vpn = next(iter(lost))
        t = mmu.translate(0, 0, vpn)
        assert t.migrated
        assert t.channel in {0, 1, 2}
        assert driver.page_tables[0].lookup(vpn).channel == t.channel

    def test_l1_flushed_on_reallocation(self, mmu):
        self.populate(mmu, range(4))
        assert any(tlb.occupancy() for tlb in mmu.l1_tlbs)
        mmu.begin_reallocation(0, new_channels=[0, 1])
        assert all(tlb.occupancy() == 0 for tlb in mmu.l1_tlbs)

    def test_no_stale_translation_survives_use(self, mmu, driver):
        """Coherence invariant: after reallocation, touching every page
        leaves no cached translation into an unowned channel."""
        self.populate(mmu, range(32))
        mmu.begin_reallocation(0, new_channels=[0, 1])
        for vpn in range(32):
            mmu.translate(vpn % 4, 0, vpn)
        mmu.assert_coherent(0)
        counts = driver.page_tables[0].channel_page_counts()
        assert set(counts) <= {0, 1}
        assert sum(counts.values()) == 32

    def test_gained_channel_rebalance(self, mmu, driver):
        self.populate(mmu, range(16))
        mmu.begin_reallocation(0, new_channels=[0, 1, 2, 3, 4, 5])
        migrated = 0
        for vpn in range(16):
            t = mmu.translate(0, 0, vpn)
            migrated += t.migrated
        assert migrated > 0
        counts = driver.page_tables[0].channel_page_counts()
        assert counts.get(4, 0) + counts.get(5, 0) > 0

    def test_register_clears_once_balanced(self, mmu, driver):
        self.populate(mmu, range(12))
        mmu.begin_reallocation(0, new_channels=[0, 1, 2, 3, 4, 5])
        for _ in range(3):
            for vpn in range(12):
                mmu.translate(0, 0, vpn)
            if not mmu.registry.is_tracking(0):
                break
        assert not mmu.registry.is_tracking(0)
        # Once cleared, accesses are plain hits again — no more migration.
        faults_before = mmu.stats.migration_faults
        for vpn in range(12):
            mmu.translate(0, 0, vpn)
        assert mmu.stats.migration_faults == faults_before

    def test_demand_filled_l1_entry_shot_down_on_migration(self, mmu,
                                                            driver):
        """A page demand-faulted into a channel awaiting rebalance is
        cached in the faulting SM's L1; when another SM's access migrates
        it, the first SM must not keep translating to the old frame."""
        mmu.begin_reallocation(0, new_channels=[0, 1, 2, 3, 4, 5])
        first = mmu.translate(0, 0, 7)
        assert first.demand_fault
        assert mmu.registry.needs_migration(0, first.channel)
        moved = mmu.translate(1, 0, 7)
        assert moved.migrated and moved.rpn != first.rpn
        again = mmu.translate(0, 0, 7)
        entry = driver.page_tables[0].lookup(7)
        assert (again.rpn, again.channel) == (entry.rpn, entry.channel)
        assert (again.rpn, again.channel) == (moved.rpn, moved.channel)

    def test_assert_coherent_catches_staleness(self, mmu, driver):
        """Failure injection: a hand-planted stale entry is detected."""
        self.populate(mmu, range(4))
        mmu.begin_reallocation(0, new_channels=[0, 1])
        # Simulate a buggy fill pointing into the lost channel 3.
        mmu.l2_tlb.fill(0, 999, rpn=3, channel=3)
        with pytest.raises(TranslationError):
            mmu.assert_coherent(0)

    def test_migration_fault_latency_includes_page_copy(self, mmu):
        self.populate(mmu, range(8))
        mmu.begin_reallocation(0, new_channels=[0, 1])
        t = next(
            mmu.translate(0, 0, vpn)
            for vpn in range(8)
            if mmu.translate(0, 0, vpn).migrated or True
        )
        # Any migrated translation pays driver (1000) + PPMM page (~80).
        migrated = [mmu.translate(0, 0, v) for v in range(8)]
        slow = [m for m in migrated if m.migrated]
        for m in slow:
            assert m.latency >= 1080


class TestMultiApp:
    def test_unregistered_app_is_an_allocation_error(self, mmu):
        with pytest.raises(AllocationError, match="app 5 is not registered"):
            mmu.translate(0, 5, 42)
        assert mmu.stats.walks == 0

    def test_address_spaces_isolated(self, driver):
        driver.register_app(1, channels=[4, 5, 6, 7])
        mmu = MMU(driver, num_sms=2)
        a = mmu.translate(0, 0, 42)
        b = mmu.translate(0, 1, 42)
        assert a.rpn != b.rpn
        assert a.channel in {0, 1, 2, 3}
        assert b.channel in {4, 5, 6, 7}
