"""The signature-bucket placement index against the naive per-node scan.

:class:`~repro.cluster.placement.PlacementIndex` hands
:func:`~repro.cluster.placement.choose_node` one view per signature
bucket instead of one per node.  That is exact only while every
``placement_key`` is a function of the node's signature followed by its
id; the state machine here checks it for every policy over random
admit / depart / migrate steps, against a full per-node view list that
exists only in this test.

The guard tests count the views ``choose_node`` receives per admission
in real fleet and cluster runs, so a change that brings back the
per-node scan fails here without any timer.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.cluster.fleet as fleet_module
import repro.cluster.scheduler as scheduler_module
from repro.cluster import ClusterScheduler, FleetSimulator, PlacementPolicy
from repro.cluster.placement import NodeView, PlacementIndex, choose_node
from repro.errors import AllocationError
from repro.workloads import build_application, poisson_arrivals
from tests.strategies import STATE_MACHINE_SETTINGS

POLICIES = st.sampled_from(list(PlacementPolicy))


def bucket_bound(slots: int) -> int:
    """Non-full signatures (m, c) with m + c < slots."""
    return (slots + 1) * (slots + 2) // 2 - (slots + 1)


class IndexVersusScan(RuleBasedStateMachine):
    """Residents per node as a list of classes (True = memory-bound) is
    the reference; the index must choose what a scan of it chooses."""

    @initialize(nodes=st.integers(1, 12), capacity=st.integers(1, 5))
    def setup(self, nodes, capacity):
        self.capacity = capacity
        self.resident = [[] for _ in range(nodes)]
        self.index = PlacementIndex(nodes, capacity)

    def scan_views(self):
        return [
            NodeView(node_id=i, capacity=self.capacity,
                     free_slots=self.capacity - len(classes),
                     tenant_classes=tuple(classes))
            for i, classes in enumerate(self.resident)
        ]

    def occupied(self):
        return [i for i, classes in enumerate(self.resident) if classes]

    @rule(policy=POLICIES, memory_bound=st.booleans())
    def admit(self, policy, memory_bound):
        want = choose_node(policy, self.scan_views(), memory_bound)
        got = choose_node(policy, self.index.views(), memory_bound)
        assert (got and got.node_id) == (want and want.node_id)
        if want is not None:
            self.resident[want.node_id].append(memory_bound)
            self.index.add(want.node_id, memory_bound)

    @precondition(lambda self: any(self.resident))
    @rule(data=st.data())
    def depart(self, data):
        node = data.draw(st.sampled_from(self.occupied()))
        classes = self.resident[node]
        memory_bound = classes.pop(data.draw(st.integers(0, len(classes) - 1)))
        self.index.remove(node, memory_bound)

    @precondition(lambda self: any(self.resident))
    @rule(policy=POLICIES, data=st.data())
    def migrate(self, policy, data):
        """The rebalancing path: the source is excluded and empty nodes
        are never targets."""
        source = data.draw(st.sampled_from(self.occupied()))
        classes = self.resident[source]
        memory_bound = classes[data.draw(st.integers(0, len(classes) - 1))]
        scan = [v for v in self.scan_views()
                if v.node_id != source and not v.is_empty]
        want = choose_node(policy, scan, memory_bound)
        got = choose_node(policy, self.index.views(source=source),
                          memory_bound)
        assert (got and got.node_id) == (want and want.node_id)
        if want is not None:
            classes.remove(memory_bound)
            self.index.remove(source, memory_bound)
            self.resident[want.node_id].append(memory_bound)
            self.index.add(want.node_id, memory_bound)

    @invariant()
    def slots_conserved(self):
        signatures = self.index._signatures
        assert signatures == [(sum(classes), len(classes) - sum(classes))
                              for classes in self.resident]
        residents = sum(len(classes) for classes in self.resident)
        free = sum(self.capacity - m - c for m, c in signatures)
        assert free + residents == len(self.resident) * self.capacity
        assert self.index.stranded_slots() == sum(
            self.capacity - len(c) for c in self.resident if c)

    @invariant()
    def views_are_bounded(self):
        assert len(self.index.views()) <= bucket_bound(self.capacity)


IndexVersusScan.TestCase.settings = STATE_MACHINE_SETTINGS
TestIndexVersusScan = IndexVersusScan.TestCase


class TestPlacementIndex:
    def test_starts_with_every_node_empty(self):
        index = PlacementIndex(5, 4)
        views = index.views()
        assert [(v.node_id, v.free_slots, v.is_empty) for v in views] == [
            (0, 4, True)]
        assert index.stranded_slots() == 0
        assert index.views(source=0) == []

    def test_excluded_representative_falls_to_the_next_id(self):
        index = PlacementIndex(3, 2)
        index.add(0, True)
        index.add(2, True)
        assert {v.node_id for v in index.views()} == {0, 1}
        assert {v.node_id for v in index.views(source=0)} == {2}
        assert [v.node_id for v in index.views(source=2)] == [0]
        index.remove(2, True)
        assert index.views(source=0) == []

    def test_misuse_is_rejected(self):
        index = PlacementIndex(1, 1)
        with pytest.raises(AllocationError, match="no compute-bound"):
            index.remove(0, False)
        index.add(0, False)
        with pytest.raises(AllocationError, match="full"):
            index.add(0, True)


def test_cluster_scheduler_keeps_the_index_current():
    """Batch placement, admissions and departures all reach the index:
    every admission picks what a scan of the real nodes would."""
    cluster = ClusterScheduler(num_nodes=6, tenants_per_node=3)
    abbrs = ["PVC", "DXTC", "LBM", "CP", "SRAD"]
    apps = [build_application(abbrs[i % 5], app_id=i) for i in range(14)]
    cluster.place(apps[:4], PlacementPolicy.DEMAND_AWARE)
    cluster.place(apps[4:7], PlacementPolicy.FIRST_FIT)
    cluster.depart(1)
    for policy, app in zip(list(PlacementPolicy) * 2, apps[7:]):
        scan = [
            NodeView(node_id=n.node_id, capacity=n.max_tenants,
                     free_slots=n.free_slots,
                     tenant_classes=tuple(cluster._is_memory_bound(t)
                                          for t in n.tenants))
            for n in cluster.nodes
        ]
        want = choose_node(policy, scan, cluster._is_memory_bound(app))
        assert cluster.admit(app, policy).node_id == want.node_id
        cluster.depart(app.app_id - 5)


class TestFleetRebalanceThroughTheIndex:
    """The rebalancing pass asks the index for targets other than the
    source, and for the room left on the other non-empty nodes."""

    def fleet(self, placement, residents):
        from repro.cluster.fleet import _JobRecord

        sim = FleetSimulator(
            len(residents), poisson_arrivals(10**6, 10**7, seed=0),
            placement, horizon_cycles=10**9)
        sim._migrated_bytes = 0.0
        job_id = 0
        for node, abbrs in zip(sim._nodes, residents):
            for abbr in abbrs:
                sim._place(node, _JobRecord(job_id, abbr, abbr, 0, None))
                job_id += 1
        return sim

    def test_a_tenant_never_moves_onto_its_own_node(self):
        # Node 1 is drained first; it is the only node where a memory-bound
        # tenant meets a compute-bound one, but it is the source.
        sim = self.fleet(PlacementPolicy.CONSOLIDATE,
                         [["PVC", "LBM"], ["FWT", "DXTC"], []])
        assert sim._rebalance(0) == 2
        assert [[r.abbr for r in n.resident] for n in sim._nodes] == [
            ["PVC", "LBM", "FWT", "DXTC"], [], []]

    def test_room_elsewhere_excludes_the_source(self):
        # One slot free beside node 1's two tenants: nothing may move.
        sim = self.fleet(PlacementPolicy.FRAG_AWARE,
                         [["PVC", "LBM", "FWT"], ["BH", "DXTC"]])
        assert sim._rebalance(0) == 0


# ----------------------------------------------------------------------
# Anti-quadratic guards: views per admission, counted, never timed
# ----------------------------------------------------------------------
def _counting(monkeypatch, module):
    sizes = []

    def wrapped(policy, views, job_is_memory_bound):
        views = list(views)
        sizes.append(len(views))
        return choose_node(policy, views, job_is_memory_bound)

    monkeypatch.setattr(module, "choose_node", wrapped)
    return sizes


@pytest.mark.parametrize("nodes", [48, 384])
@pytest.mark.parametrize("placement", [PlacementPolicy.FRAG_AWARE,
                                       PlacementPolicy.CONSOLIDATE])
def test_fleet_admission_scans_buckets_not_nodes(monkeypatch, nodes,
                                                 placement):
    sizes = _counting(monkeypatch, fleet_module)
    ipk = 50_000_000
    schedule = poisson_arrivals(1_800_000 // nodes, 10_000_000, seed=0,
                                instructions_per_kernel=ipk)
    result = FleetSimulator(
        nodes, schedule, placement, slicing="mig", round_cycles=2_500_000,
        horizon_cycles=10_000_000, rebalance_every=2,
        instructions_per_kernel=ipk,
    ).run()
    assert result.admissions > nodes    # nodes share signature buckets
    assert len(sizes) >= result.admissions + result.migrations
    assert max(sizes) <= bucket_bound(4) == 10


def test_cluster_admission_scans_buckets_not_nodes(monkeypatch):
    sizes = _counting(monkeypatch, scheduler_module)
    cluster = ClusterScheduler(num_nodes=64, tenants_per_node=4)
    abbrs = ["PVC", "DXTC", "LBM", "CP"]
    for app_id in range(200):
        cluster.admit(build_application(abbrs[app_id % 4], app_id=app_id),
                      PlacementPolicy.LEAST_FRAGMENTED)
        if app_id % 3 == 0:
            cluster.depart(app_id // 2)
    assert len(sizes) == 200
    assert max(sizes) <= bucket_bound(4)
