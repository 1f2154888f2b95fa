"""The placement-policy zoo: one chooser for every cluster scheduler.

Each policy is a deterministic preference ordering over the nodes that
still have a free slot, evaluated per arriving job (an open system sees
jobs one at a time; batch placement degenerates to back-to-back
arrivals).  The orderings are grounded in the related work the fleet
simulator compares against (PAPERS.md):

* ``FIRST_FIT`` — lowest node id with a free slot.  The class-blind
  baseline every bin-packing paper measures against.
* ``DEMAND_AWARE`` — prefer a node already holding an opposite-class
  tenant (the paper's cloud-utilization argument: a node mixing
  memory-bound and compute-bound tenants has reallocation room), then an
  empty node, then best-fit.
* ``LEAST_FRAGMENTED`` — best-fit bin packing with a class-mix
  tie-break: the fullest node that still has a slot, preferring nodes
  the arrival complements.  This is :meth:`ClusterScheduler.admit`'s
  historical ordering, unchanged.
* ``FRAG_AWARE`` — the online fragmentation-aware scheduler of Ting et
  al. (GPU cluster scheduling under fragmentation-aware gradient
  descent): class-blind best-fit that refuses to open an empty node
  while any partial node has room, keeping whole nodes free for large
  future arrivals; the fleet simulator pairs it with a periodic
  defragmentation pass that drains nearly-empty nodes.
* ``CONSOLIDATE`` — the throughput+energy manager of Saraha et al.
  (dynamic MIG management for inference serving): pack active nodes
  first so idle nodes can power down, with a class-mix tie-break for
  throughput; the fleet simulator pairs it with an energy-scored
  consolidation pass (migration joules vs. static-power savings,
  :mod:`repro.metrics.energy`).

Every ordering ends with the node id, so placement is deterministic and
independent of dict/iteration order — a requirement for the sharded
fleet runs being byte-identical to serial ones.

**The index invariant.**  A key is a function of the node's *signature*
— its (memory-bound, compute-bound) resident counts, which fix
``free_slots``, ``is_empty``, ``has_opposite`` and ``complements`` —
followed by the node id.  So among nodes that share a signature the
lowest id always wins, and the minimum over one representative per
signature bucket equals the minimum over every node.
:class:`PlacementIndex` keeps those buckets incrementally, which turns
an admission from a scan of every node into a scan of at most
``(s+1)(s+2)/2 - (s+1)`` non-full buckets at ``s`` slots per node (10 at
4 slots).  A new policy must keep the invariant — a key may read nothing
of a view but its signature and, last, its node id;
``tests/test_placement_index.py`` checks the index against the naive
per-node scan for every policy.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AllocationError, ConfigError


class PlacementPolicy(enum.Enum):
    """How tenants are assigned to nodes."""

    FIRST_FIT = "first_fit"
    DEMAND_AWARE = "demand_aware"
    LEAST_FRAGMENTED = "least_fragmented"
    FRAG_AWARE = "frag_aware"
    CONSOLIDATE = "consolidate"

    @classmethod
    def parse(cls, value) -> "PlacementPolicy":
        """Coerce a policy name (CLI string) or enum member."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ConfigError(
                f"unknown placement policy {value!r}; options: {options}"
            ) from None


@dataclass(frozen=True)
class NodeView:
    """What a placement policy may see of one node: occupancy and the
    resident tenants' classes (True = memory-bound), never identities."""

    node_id: int
    capacity: int
    free_slots: int
    tenant_classes: Tuple[bool, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.tenant_classes

    def complements(self, job_is_memory_bound: bool) -> bool:
        """Would the arrival improve (or keep) the node's class mix?
        An empty node always complements."""
        if self.is_empty:
            return True
        return any(c != job_is_memory_bound for c in self.tenant_classes)

    def has_opposite(self, job_is_memory_bound: bool) -> bool:
        return any(c != job_is_memory_bound for c in self.tenant_classes)


def placement_key(policy: PlacementPolicy, view: NodeView,
                  job_is_memory_bound: bool) -> tuple:
    """The sort key (lower is better) ``policy`` assigns to ``view`` for
    this arrival.  Only called for nodes with a free slot."""
    if policy is PlacementPolicy.FIRST_FIT:
        return (view.node_id,)
    if policy is PlacementPolicy.DEMAND_AWARE:
        # Opposite-class resident first (reallocation room), then a fresh
        # node, then the fullest compatible one.
        rank = (0 if view.has_opposite(job_is_memory_bound)
                else 1 if view.is_empty else 2)
        return (rank, view.free_slots, view.node_id)
    if policy is PlacementPolicy.LEAST_FRAGMENTED:
        # Best-fit with the class-mix tie-break (the historical admit()).
        return (view.free_slots,
                0 if view.complements(job_is_memory_bound) else 1,
                view.node_id)
    if policy is PlacementPolicy.FRAG_AWARE:
        # Class-blind best-fit that keeps whole nodes free (Ting et al.).
        return (1 if view.is_empty else 0, view.free_slots, view.node_id)
    # CONSOLIDATE: pack active nodes first; among active nodes prefer a
    # complementary class mix, then best-fit (Saraha et al.).
    return (1 if view.is_empty else 0,
            0 if view.has_opposite(job_is_memory_bound) else 1,
            view.free_slots, view.node_id)


def choose_node(policy: PlacementPolicy, views: Sequence[NodeView],
                job_is_memory_bound: bool) -> Optional[NodeView]:
    """The node this arrival should land on, or None when no node has a
    free slot.  Deterministic: every ordering ends with the node id."""
    candidates = [v for v in views if v.free_slots > 0]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda v: placement_key(policy, v, job_is_memory_bound),
    )


#: A node's signature: (resident memory-bound, resident compute-bound).
Signature = Tuple[int, int]


class PlacementIndex:
    """Signature buckets over a pool of equal-capacity nodes.

    Maps each signature to the sorted ids of the nodes holding it.  The
    owner reports every residency change (:meth:`add`, :meth:`remove`);
    :meth:`views` then yields one representative :class:`NodeView` per
    non-full bucket — its lowest eligible node id — which is all
    :func:`choose_node` needs to find the same node a scan of every node
    would (see the module docstring for why).
    """

    def __init__(self, num_nodes: int, capacity: int) -> None:
        if num_nodes <= 0 or capacity <= 0:
            raise ConfigError("num_nodes and capacity must be positive")
        self.capacity = capacity
        self._signatures: List[Signature] = [(0, 0)] * num_nodes
        self._buckets: Dict[Signature, List[int]] = {
            (0, 0): list(range(num_nodes))
        }

    def add(self, node_id: int, memory_bound: bool) -> None:
        """One tenant of this class joined ``node_id``."""
        m, c = self._signatures[node_id]
        if m + c >= self.capacity:
            raise AllocationError(
                f"node {node_id} is full ({self.capacity} slots)"
            )
        self._move(node_id, (m + 1, c) if memory_bound else (m, c + 1))

    def remove(self, node_id: int, memory_bound: bool) -> None:
        """One tenant of this class left ``node_id``."""
        m, c = self._signatures[node_id]
        if (m if memory_bound else c) <= 0:
            raise AllocationError(
                f"node {node_id} holds no "
                f"{'memory' if memory_bound else 'compute'}-bound tenant"
            )
        self._move(node_id, (m - 1, c) if memory_bound else (m, c - 1))

    def _move(self, node_id: int, new: Signature) -> None:
        old = self._signatures[node_id]
        ids = self._buckets[old]
        del ids[bisect_left(ids, node_id)]
        if not ids:
            del self._buckets[old]
        insort(self._buckets.setdefault(new, []), node_id)
        self._signatures[node_id] = new

    def stranded_slots(self) -> int:
        """Free slots on non-empty nodes."""
        return sum(
            len(ids) * (self.capacity - m - c)
            for (m, c), ids in self._buckets.items()
            if m + c
        )

    def views(self, source: Optional[int] = None) -> List[NodeView]:
        """One view per non-full bucket, for its lowest node id.

        With ``source``, the targets for a tenant moving off that node
        (a rebalancing move): the source itself and empty nodes are
        left out.
        """
        views = []
        for (m, c), ids in self._buckets.items():
            free = self.capacity - m - c
            if free <= 0 or (source is not None and m + c == 0):
                continue
            node_id = ids[0]
            if node_id == source:
                if len(ids) == 1:
                    continue
                node_id = ids[1]
            views.append(NodeView(
                node_id=node_id,
                capacity=self.capacity,
                free_slots=free,
                tenant_classes=(True,) * m + (False,) * c,
            ))
        return views
