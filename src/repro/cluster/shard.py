"""Fleet shard jobs: node-round execution as pure, picklable work units.

The fleet simulator advances hundreds of nodes in fixed scheduling
rounds.  Within a round nodes are independent — each executes only its
own tenants — so the coordinator partitions the active nodes into
*shards* and runs them through the :class:`~repro.exec.SweepExecutor`
exactly like sweep jobs.  Because the physics of one node never depends
on which shard it landed in, a sharded round is byte-identical to the
serial one; because a :class:`FleetShardJob` is a pure function of its
spec (plain integers and strings, no live objects), it is content-
addressable and the executor's :class:`~repro.exec.cache.ResultCache`
can memoize whole shards across rounds and runs.

Worker-side state is rebuilt, never shipped: applications come from the
Table 2 catalog's shared kernel templates
(:func:`~repro.workloads.benchmarks.build_application`) and the
execution cursor is restored from the plain integers in
:class:`TenantState`.

Per round each tenant runs on a slice of its node:

* ``slicing="mig"`` — rigid even split (``num_sms // n`` SMs and
  ``num_channels // n`` channels each; the remainder stays dark, which
  is exactly MIG's fixed-granularity waste).
* ``slicing="ugpu"`` — unbalanced split: channels are apportioned by
  each tenant's bandwidth demand-supply ratio at the even split
  (Equation 1/2) and SMs inversely, largest-remainder rounded onto the
  4-SM / 4-channel slice floors — the paper's unbalanced-slice
  construction at cluster granularity.

The slice IPC comes from the shared roofline model
(:meth:`~repro.gpu.performance.PerformanceModel.throughput`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.errors import ConfigError
from repro.exec.jobs import fingerprint
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application, Kernel
from repro.gpu.performance import PerformanceModel
from repro.workloads.benchmarks import build_application

#: Valid ``slicing`` modes (see module docstring).
SLICING_MODES = ("ugpu", "mig")

#: Minimum slice per tenant — the partition floors the paper's slicing
#: policies enforce (4 SMs / 4 channels).
SM_FLOOR = 4
CHANNEL_FLOOR = 4


@dataclass(frozen=True)
class TenantState:
    """One resident job's execution state as plain picklable data.

    ``penalty_factor`` scales this round's achieved IPC (1.0 = none);
    the coordinator sets it below 1.0 for the round after a cross-node
    migration to charge the move's warm-up cost.
    """

    job_id: int
    abbr: str
    instructions_per_kernel: int
    kernel_index: int = 0
    kernel_instructions_done: int = 0
    remaining_budget: Optional[int] = None
    penalty_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.instructions_per_kernel <= 0:
            raise ConfigError("instructions_per_kernel must be positive")
        if self.kernel_index < 0 or self.kernel_instructions_done < 0:
            raise ConfigError("tenant progress cursors must be >= 0")
        if self.remaining_budget is not None and self.remaining_budget <= 0:
            raise ConfigError("remaining_budget must be positive or None")
        if not 0.0 <= self.penalty_factor <= 1.0:
            raise ConfigError("penalty_factor must be in [0, 1]")


@dataclass(frozen=True)
class NodeShardState:
    """One node's tenants at a round boundary (placement order)."""

    node_id: int
    tenants: Tuple[TenantState, ...]


@dataclass(frozen=True)
class TenantRoundOutcome:
    """What one tenant did during one round."""

    job_id: int
    retired: int                      #: instructions retired this round
    dram_bytes: float                 #: DRAM traffic generated
    kernel_index: int                 #: cursor after the round
    kernel_instructions_done: int
    remaining_budget: Optional[int]   #: 0 and departed=True at retirement
    departed: bool
    active_cycles: int                #: cycles before budget retirement


@dataclass(frozen=True)
class NodeRoundOutcome:
    node_id: int
    tenants: Tuple[TenantRoundOutcome, ...]

    @property
    def instructions(self) -> int:
        return sum(t.retired for t in self.tenants)

    @property
    def dram_bytes(self) -> float:
        return sum(t.dram_bytes for t in self.tenants)


@dataclass(frozen=True)
class FleetShardResult:
    """Outcome of one shard: node outcomes in shard order."""

    nodes: Tuple[NodeRoundOutcome, ...]


# ----------------------------------------------------------------------
# Worker-side state (pure caches keyed by content, safe per process)
# ----------------------------------------------------------------------
#: One performance model (with its throughput memo) per GPU config.
_MODELS: Dict[GPUConfig, PerformanceModel] = {}


def _model_for(config: GPUConfig) -> PerformanceModel:
    model = _MODELS.get(config)
    if model is None:
        model = _MODELS[config] = PerformanceModel(config)
    return model


def _restore(tenant: TenantState) -> Application:
    """Rebuild the tenant's Application at its recorded cursor."""
    app = build_application(
        tenant.abbr, app_id=tenant.job_id,
        instructions_per_kernel=tenant.instructions_per_kernel,
    )
    if tenant.kernel_index >= len(app.kernels):
        raise ConfigError(
            f"job {tenant.job_id}: kernel_index {tenant.kernel_index} out of "
            f"range for {tenant.abbr} ({len(app.kernels)} kernels)"
        )
    app.progress.kernel_index = tenant.kernel_index
    app.progress.instructions_done = tenant.kernel_instructions_done
    return app


# ----------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------
def apportion(total: int, weights: Sequence[float], floor: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` units over
    ``weights`` with a per-share ``floor``.  Deterministic: remainder
    ties break to the lowest index."""
    n = len(weights)
    if n == 0:
        return []
    if total < floor * n:
        raise ConfigError(
            f"cannot apportion {total} units over {n} shares at floor {floor}"
        )
    spare = total - floor * n
    weight_sum = sum(weights)
    if weight_sum <= 0:
        weights = [1.0] * n
        weight_sum = float(n)
    quotas = [spare * w / weight_sum for w in weights]
    shares = [int(q) for q in quotas]
    leftover = spare - sum(shares)
    order = sorted(range(n), key=lambda i: (-(quotas[i] - shares[i]), i))
    for i in order[:leftover]:
        shares[i] += 1
    return [floor + s for s in shares]


def slice_node(model: PerformanceModel, config: GPUConfig,
               kernels: Sequence[Kernel],
               slicing: str) -> List[Tuple[int, int]]:
    """Per-tenant ``(sms, channels)`` slices for one round.

    A single tenant always gets the whole GPU.  ``mig`` carves rigid
    even slices and leaves the remainder dark; ``ugpu`` apportions
    channels by bandwidth demand (and SMs inversely) so complementary
    tenants trade the resources they cannot use.
    """
    n = len(kernels)
    if n == 1:
        return [(config.num_sms, config.num_channels)]
    if slicing == "mig":
        sms = config.num_sms // n
        channels = config.num_channels // n
        if sms < SM_FLOOR or channels < CHANNEL_FLOOR:
            raise ConfigError(
                f"{n} tenants break the {SM_FLOOR}-SM/{CHANNEL_FLOOR}-channel "
                "slice floors"
            )
        return [(sms, channels)] * n
    # ugpu: demand-supply ratio at the even split classifies each tenant
    # (the same Equation 1/2 boundary the profiler uses); clamp so one
    # pathological kernel cannot starve the rest.
    even_sms = max(SM_FLOOR, config.num_sms // n)
    even_channels = max(CHANNEL_FLOOR, config.num_channels // n)
    demand = [
        min(4.0, max(0.25, model.throughput(
            k, even_sms, even_channels).demand_supply_ratio))
        for k in kernels
    ]
    channels = apportion(config.num_channels, demand, CHANNEL_FLOOR)
    sms = apportion(config.num_sms, [1.0 / d for d in demand], SM_FLOOR)
    return list(zip(sms, channels))


# ----------------------------------------------------------------------
# The shard job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetShardJob:
    """One round of execution for a shard of nodes, ready to ship.

    The cache key covers only what determines the physics — slicing
    mode, round span, GPU config and the tenant states — so identical
    node states hit the cache across rounds and runs.  ``label`` is a
    display string for trace/stats output and is excluded from the key.
    """

    nodes: Tuple[NodeShardState, ...]
    round_cycles: int
    slicing: str = "ugpu"
    config: GPUConfig = field(default_factory=GPUConfig)
    label: str = "fleet"

    #: Display attributes the executor's trace/stats plumbing reads.
    policy = "fleet-shard"

    def __post_init__(self) -> None:
        if self.round_cycles <= 0:
            raise ConfigError("round_cycles must be positive")
        if self.slicing not in SLICING_MODES:
            raise ConfigError(
                f"unknown slicing {self.slicing!r}; options: "
                f"{', '.join(SLICING_MODES)}"
            )
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def mix_name(self) -> str:
        return self.label

    @property
    def total_cycles(self) -> int:
        return self.round_cycles

    def spec(self) -> str:
        """Canonical text the cache key hashes (version-qualified)."""
        return (
            f"repro=={__version__};fleet-shard;slicing={self.slicing};"
            f"cycles={self.round_cycles};config={fingerprint(self.config)};"
            f"nodes={fingerprint(self.nodes)}"
        )

    def key(self) -> str:
        return hashlib.sha256(self.spec().encode("utf-8")).hexdigest()

    def run(self) -> FleetShardResult:
        """Execute every node in the shard (worker-side entry point)."""
        model = _model_for(self.config)
        return FleetShardResult(nodes=tuple(
            _run_node(model, self.config, node, self.round_cycles,
                      self.slicing)
            for node in self.nodes
        ))

    def run_observed(self, tracer=None, metrics=None,
                     profiler=None) -> FleetShardResult:
        """:meth:`run` with worker-side observability around each node.

        The physics path is untouched — :func:`_run_node` stays pure;
        instrumentation wraps it.  Trace timestamps are *round-relative*
        cycles (node spans start at 0); the orchestrator re-anchors them
        at the round's start cycle when it absorbs the envelope.  Event
        and metric content depends only on the node/tenant structure,
        never on worker identity or wall time, so serial and sharded
        runs produce identical merged aggregates.
        """
        model = _model_for(self.config)
        if metrics is not None:
            from repro.telemetry import names as _names

            m_node_rounds = _names.worker_node_rounds_total(metrics)
            m_tenant_rounds = _names.worker_tenant_rounds_total(metrics)
            m_instructions = _names.worker_instructions_total(metrics)
            m_dram = _names.worker_dram_bytes_total(metrics)
            m_departures = _names.worker_departures_total(metrics)
            m_active = _names.worker_active_cycles_total(metrics)
        outcomes = []
        span = float(self.round_cycles)
        for node in self.nodes:
            if profiler is not None:
                profiler.begin("worker.node")
            outcome = _run_node(
                model, self.config, node, self.round_cycles, self.slicing
            )
            if profiler is not None:
                profiler.end("worker.node")
            outcomes.append(outcome)
            if tracer is not None:
                tracer.emit(
                    "node", f"node{node.node_id}",
                    time=0.0, duration=span,
                    node=node.node_id,
                    tenants=len(outcome.tenants),
                    instructions=outcome.instructions,
                    dram_bytes=outcome.dram_bytes,
                )
                by_job = {t.job_id: t for t in node.tenants}
                for tenant in outcome.tenants:
                    tracer.emit(
                        "node", by_job[tenant.job_id].abbr,
                        time=0.0, duration=float(tenant.active_cycles),
                        node=node.node_id,
                        job_id=tenant.job_id,
                        benchmark=by_job[tenant.job_id].abbr,
                        retired=tenant.retired,
                        departed=tenant.departed,
                    )
            if metrics is not None:
                m_node_rounds.inc()
                m_instructions.inc(float(outcome.instructions))
                m_dram.inc(float(outcome.dram_bytes))
                by_job = {t.job_id: t for t in node.tenants}
                for tenant in outcome.tenants:
                    m_tenant_rounds.labels(
                        benchmark=by_job[tenant.job_id].abbr
                    ).inc()
                    m_active.inc(float(tenant.active_cycles))
                    if tenant.departed:
                        m_departures.inc()
        return FleetShardResult(nodes=tuple(outcomes))


def _run_node(model: PerformanceModel, config: GPUConfig,
              node: NodeShardState, span: int,
              slicing: str) -> NodeRoundOutcome:
    if not node.tenants:
        return NodeRoundOutcome(node.node_id, ())
    apps = [_restore(t) for t in node.tenants]
    slices = slice_node(
        model, config, [a.current_kernel for a in apps], slicing
    )
    outcomes = []
    for tenant, app, (sms, channels) in zip(node.tenants, apps, slices):
        throughput = model.throughput(app.current_kernel, sms, channels)
        ipc = throughput.ipc * tenant.penalty_factor
        retired = int(ipc * span)
        active = span
        remaining = tenant.remaining_budget
        departed = False
        if remaining is not None and 0 < remaining <= retired:
            # The budget retires mid-round: the job departs at the cycle
            # its last instruction lands; its slice idles to the boundary.
            departed = True
            active = min(span, int(math.ceil(remaining / ipc)))
            retired = remaining
            remaining = 0
        elif remaining is not None:
            remaining -= retired
        app.advance(retired)
        outcomes.append(TenantRoundOutcome(
            job_id=tenant.job_id,
            retired=retired,
            dram_bytes=(
                throughput.dram_bytes_per_cycle
                * tenant.penalty_factor * active
            ),
            kernel_index=app.progress.kernel_index,
            kernel_instructions_done=app.progress.instructions_done,
            remaining_budget=remaining,
            departed=departed,
            active_cycles=active,
        ))
    return NodeRoundOutcome(node.node_id, tuple(outcomes))
