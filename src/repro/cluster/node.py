"""One physical GPU in a cluster, running a slicing policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.system import MultitaskSystem, SystemResult
from repro.errors import AllocationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application
from repro.policies import BPPolicy, UGPUPolicy


@dataclass
class NodeResult:
    """Outcome of one node's multiprogram run.

    Per-app entries keep the *cluster-level* app ids the scheduler
    admitted, so a result maps back onto admit/depart bookkeeping.
    """

    node_id: int
    result: Optional[SystemResult]   #: None for an idle node
    tenants: List[str]

    @property
    def stp(self) -> float:
        return self.result.stp if self.result is not None else 0.0

    @property
    def tenant_ids(self) -> List[int]:
        """Cluster-level app ids of the tenants that ran, in placement
        order (empty for an idle node)."""
        if self.result is None:
            return []
        return [run.app_id for run in self.result.runs]

    def run_for(self, app_id: int):
        """The per-app run for one cluster-level app id."""
        if self.result is None:
            raise AllocationError(
                f"node {self.node_id} was idle: no run for app {app_id}"
            )
        for run in self.result.runs:
            if run.app_id == app_id:
                return run
        raise AllocationError(
            f"app {app_id} did not run on node {self.node_id}"
        )


class GPUNode:
    """One GPU plus the tenant applications placed on it.

    The node enforces a tenant cap (the slicing policies need a minimum
    slice per tenant: 80 SMs / 32 channels support at most 8 tenants at
    the 4-SM / 4-channel floors, and the paper's channel-status register
    tracks 4).
    """

    def __init__(self, node_id: int, config: Optional[GPUConfig] = None,
                 max_tenants: int = 4) -> None:
        if max_tenants <= 0:
            raise AllocationError("max_tenants must be positive")
        config = config if config is not None else GPUConfig()
        config.validate()
        self.node_id = node_id
        self.config = config
        self.max_tenants = max_tenants
        self.tenants: List[Application] = []

    @property
    def free_slots(self) -> int:
        return self.max_tenants - len(self.tenants)

    @property
    def is_empty(self) -> bool:
        return not self.tenants

    def place(self, app: Application) -> None:
        """Admit a tenant; raises when the node is full."""
        if self.free_slots <= 0:
            raise AllocationError(
                f"node {self.node_id} is full ({self.max_tenants} tenants)"
            )
        if any(t.app_id == app.app_id for t in self.tenants):
            raise AllocationError(
                f"app {app.app_id} is already resident on node {self.node_id}"
            )
        self.tenants.append(app)

    def remove(self, app_id: int) -> Application:
        """Release a tenant's slot (online departure); raises when the
        app id is not resident here."""
        for i, tenant in enumerate(self.tenants):
            if tenant.app_id == app_id:
                return self.tenants.pop(i)
        raise AllocationError(
            f"app {app_id} is not resident on node {self.node_id}"
        )

    def run(self, policy: Optional[Callable[..., MultitaskSystem]] = None,
            total_cycles: int = 25_000_000) -> NodeResult:
        """Run the placed tenants under ``policy`` (UGPU by default).

        ``policy`` is a factory ``policy(applications) -> system`` — a
        :mod:`repro.exec.registry` factory, a deprecated system subclass,
        or any compatible callable.

        A single-tenant node runs that tenant on the whole GPU (its NP is
        1.0 by construction); an idle node contributes nothing.
        """
        names = [t.name for t in self.tenants]
        if not self.tenants:
            return NodeResult(self.node_id, None, [])
        # The tenants keep their cluster-level app ids (place()
        # guarantees they are unique on this node), so per-app results
        # key back to the jobs the scheduler admitted; the system runs
        # on its own clones.
        apps = list(self.tenants)
        if len(apps) == 1:
            # Whole-GPU run: every policy degenerates to the same thing,
            # so use the overhead-free static system.
            system = MultitaskSystem(apps, policy=BPPolicy())
        elif policy is None:
            system = MultitaskSystem(apps, policy=UGPUPolicy())
        else:
            system = policy(apps)
        result = system.run(total_cycles, mix_name="_".join(names))
        return NodeResult(self.node_id, result, names)
