"""Stateful PageMove invariants: pages are conserved across channel
reallocations.

A Hypothesis state machine drives demand faults through
:meth:`MMU.translate`, channel-window shifts through
:class:`MigrationEngine` (eager-only and eager + lazy, with and without a
rebalance cap) and re-touches, which take the MMU's migration-fault path
while the channel-status register is live.  After every step:

- every faulted page is mapped exactly once, in a frame of the channel
  its entry names, and no frame is mapped twice;
- the driver's resident counts equal the mapped pages per channel, and
  every frame is either mapped or free;
- after an eager shift no page remains in a lost channel;
- :meth:`MMU.assert_coherent` holds for every application.

Frames are plentiful (one channel can hold every page of every app), so
no step fails for lack of memory.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pagemove import MigrationEngine
from repro.vm.driver import GPUDriver
from repro.vm.mmu import MMU
from tests.strategies import STATE_MACHINE_SETTINGS

CHANNELS = 8
PAGES_PER_CHANNEL = 128
APPS = 2
SMS = 4
#: Each app's candidate pages, spread over several radix subtrees.
POOLS = [
    [(app << 28) + ((i % 3) << 18) + 37 * i for i in range(48)]
    for app in range(APPS)
]
WINDOWS = st.sets(st.integers(0, CHANNELS - 1), min_size=1, max_size=3)


class PageMoveMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.driver = GPUDriver(num_channel_groups=CHANNELS,
                                pages_per_channel=PAGES_PER_CHANNEL)
        for app in range(APPS):
            self.driver.register_app(app, [2 * app, 2 * app + 1])
        self.mmu = MMU(self.driver, num_sms=SMS)
        self.engine = MigrationEngine(
            self.driver, l2_tlb=self.mmu.l2_tlb, l1_tlbs=self.mmu.l1_tlbs,
            registry=self.mmu.registry,
        )
        self.faulted = [set() for _ in range(APPS)]

    def _translate(self, sm: int, app: int, vpn: int) -> None:
        t = self.mmu.translate(sm, app, vpn)
        entry = self.driver.page_tables[app].lookup(vpn)
        assert (t.rpn, t.channel) == (entry.rpn, entry.channel)
        assert t.channel in self.driver.assigned_channels(app)
        self.faulted[app].add(vpn)

    @rule(app=st.integers(0, APPS - 1), sm=st.integers(0, SMS - 1),
          picks=st.lists(st.integers(0, len(POOLS[0]) - 1), min_size=1,
                         max_size=12))
    def touch(self, app, sm, picks):
        for pick in picks:
            self._translate(sm, app, POOLS[app][pick])

    @rule(app=st.integers(0, APPS - 1), sm=st.integers(0, SMS - 1))
    def retouch(self, app, sm):
        for vpn in sorted(self.faulted[app]):
            self._translate(sm, app, vpn)

    @rule(app=st.integers(0, APPS - 1), window=WINDOWS,
          include_lazy=st.booleans(),
          cap=st.one_of(st.none(), st.integers(0, 16)))
    def shift(self, app, window, include_lazy, cap):
        plan = self.engine.plan_channel_reallocation(app, window,
                                                     rebalance_cap=cap)
        if cap is not None:
            assert len(plan.lazy) <= cap
        report = self.engine.execute(plan, include_lazy=include_lazy)
        assert report.pages_moved == plan.total_pages
        assert self.driver.assigned_channels(app) == set(window)
        for channel in plan.lost_channels:
            assert self.driver.resident_pages(app, channel) == 0
        for move in plan.eager + (plan.lazy if include_lazy else []):
            entry = self.driver.page_tables[app].lookup(move.vpn)
            assert entry.channel == move.dst_channel

    @invariant()
    def pages_conserved(self):
        frames = set()
        for app in range(APPS):
            entries = list(self.driver.page_tables[app].entries())
            vpns = [vpn for vpn, _ in entries]
            assert vpns == sorted(self.faulted[app])
            owned = self.driver.assigned_channels(app)
            per_channel = [0] * CHANNELS
            for _, entry in entries:
                assert entry.valid and entry.channel in owned
                assert self.driver.channel_of_frame(entry.rpn) == entry.channel
                assert entry.rpn not in frames, f"frame {entry.rpn} mapped twice"
                frames.add(entry.rpn)
                per_channel[entry.channel] += 1
            assert per_channel == [self.driver.resident_pages(app, c)
                                   for c in range(CHANNELS)]
        for channel in range(CHANNELS):
            mapped = sum(self.driver.resident_pages(app, channel)
                         for app in range(APPS))
            assert mapped + self.driver.free_pages(channel) == PAGES_PER_CHANNEL

    @invariant()
    def caches_coherent(self):
        for app in range(APPS):
            self.mmu.assert_coherent(app)


PageMoveMachine.TestCase.settings = STATE_MACHINE_SETTINGS
TestPageMoveMachine = PageMoveMachine.TestCase
