"""The benchmark's four workloads: inputs from a seed, ops for one pass.

Every workload is a closed loop: the single benchmark process issues its
ops back to back, each a call into the simulator's public API.  A
workload has two halves:

* ``generate(name, seed)`` builds the inputs (mix lists, arrival
  parameters, access streams) from ``--seed`` alone; this is the work
  ``setup_s`` times in a fresh interpreter.
* ``pass_ops(name, inputs)`` yields the :class:`Op` list of one pass.  A
  pass starts the way a fresh CLI invocation does, with the process-wide
  memos cleared (``clear_process_memos``) and no result cache, and
  builds fresh simulator state, so every pass repeats the same
  computation.

Inputs come from ``repro.workloads``, ``repro.cluster``, ``repro.vm``,
``repro.pagemove`` and ``repro.hbm`` only.

Each :class:`Op` carries a ``check`` that turns the op's result into a
canonical fingerprint text (floats as ``float.hex``) and a list of broken
invariants.  Fingerprints are compared with ``fingerprints.json`` at the
default seed; invariants hold at every seed.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: The seed the recorded fingerprints belong to.
DEFAULT_SEED = 0

#: ``closed_sweep`` draws its four- and eight-program mixes with seed
#: ``MIX_SEED_BASE + seed``, so the default seed gives the library's own
#: default mixes (``repro.workloads.mixes``).
MIX_SEED_BASE = 2025

WORKLOADS = ("closed_sweep", "open_observed", "fleet", "pagemove_churn")

#: Every registered sweep policy, by canonical name.  Named here rather
#: than read from the registry so the op list stays fixed.
POLICIES = ("bp", "bp-bs", "bp-sb", "cd-search", "mps", "ugpu",
            "ugpu-offline", "ugpu-ori", "ugpu-soft")
#: The big/small BP variants are defined for exactly two applications.
TWO_APP_ONLY = ("bp-bs", "bp-sb")
CLOSED_CYCLES = 25_000_000
MIXES_PER_SIZE = 50

OPEN_STREAMS = 200
OPEN_MEAN_INTERARRIVAL = 1_000_000
OPEN_HORIZON = 25_000_000
OPEN_EPOCH = 500_000

FLEET_SIZES = (48, 96)
FLEET_BASE_INTERARRIVAL = 150_000          # at 48 nodes; scaled by 48/nodes
FLEET_HORIZON = 150_000_000
FLEET_KERNEL_INSTRUCTIONS = 50_000_000
PLACEMENTS = ("first_fit", "demand_aware", "least_fragmented", "frag_aware",
              "consolidate")

#: Pages per app: each beyond the 512-entry L2 TLB's reach.
CHURN_FOOTPRINTS = (2400, 2700, 3000, 3300)
CHURN_APPS = len(CHURN_FOOTPRINTS)
CHURN_LOCALITY = (0.2, 0.5, 0.9)
CHURN_CHANNELS = 8
CHURN_PAGES_PER_CHANNEL = 4096
CHURN_FAULT_BATCH = 400
CHURN_ROUNDS = 4
CHURN_TOUCHES = 300
CHURN_HW_PAGES = 8
CHURN_DRAINS = 6
CHURN_DRAIN_BATCH = 48


@dataclass
class Op:
    """One timed call into the simulator plus the check of its result."""

    kind: str
    label: str
    call: Callable[[], Any]
    #: ``check(result) -> (fingerprint text, broken invariants)``
    check: Callable[[Any], Tuple[str, List[str]]]


def canon(value: Any) -> str:
    """Canonical text of nested tuples/lists/dicts; floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{canon(k)}:{canon(v)}" for k, v in sorted(value.items())
        ) + "}"
    return repr(value)


#: What a pass calls to drop the memos a process keeps between
#: simulations, as ``module:attribute path``: the solo-IPC memo and the
#: fleet's shared per-config performance models (with their throughput
#: memos).
PROCESS_MEMOS = ("repro.core.system:clear_solo_ipc_cache",
                 "repro.cluster.shard:_MODELS.clear")


def clear_process_memos() -> List[str]:
    """Drop the process-wide memos, as a fresh interpreter would start.

    Returns the :data:`PROCESS_MEMOS` entries that no longer exist; for
    those, every pass after the first runs warm."""
    missing = []
    for target in PROCESS_MEMOS:
        module_name, path = target.split(":")
        try:
            clear = importlib.import_module(module_name)
            for part in path.split("."):
                clear = getattr(clear, part)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        clear()
    return missing


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate(name: str, seed: int) -> Dict[str, Any]:
    """The workload's inputs, a pure function of ``seed``."""
    try:
        make_inputs = _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
    return make_inputs(seed)


def _closed_inputs(seed: int) -> Dict[str, Any]:
    from repro.workloads.mixes import (
        eight_program_mixes,
        four_program_mixes,
        heterogeneous_pairs,
    )

    mix_seed = MIX_SEED_BASE + seed
    pairs = [tuple(p) for p in heterogeneous_pairs()]
    larger = [m.abbrs for m in four_program_mixes(MIXES_PER_SIZE, seed=mix_seed)]
    larger += [m.abbrs for m in eight_program_mixes(MIXES_PER_SIZE, seed=mix_seed)]
    jobs = [(policy, mix) for policy in POLICIES for mix in pairs]
    jobs += [(policy, mix) for policy in POLICIES
             if policy not in TWO_APP_ONLY for mix in larger]
    return {"jobs": jobs}


def _open_inputs(seed: int) -> Dict[str, Any]:
    from repro.workloads.arrivals import poisson_arrivals

    streams = {
        s: poisson_arrivals(OPEN_MEAN_INTERARRIVAL, OPEN_HORIZON, seed=s)
        for s in range(seed * 1000, seed * 1000 + OPEN_STREAMS)
    }
    return {"streams": streams}


def _fresh(schedule):
    """A copy of ``schedule`` with unstarted applications: a run advances
    the applications of the schedule it is given."""
    from repro.workloads.arrivals import ArrivalEvent, ArrivalSchedule

    return ArrivalSchedule(
        ArrivalEvent(e.cycle, e.app.clone(), e.budget_instructions)
        for e in schedule
    )


def _fleet_inputs(seed: int) -> Dict[str, Any]:
    from repro.workloads.arrivals import poisson_arrivals

    schedules = {
        nodes: poisson_arrivals(
            FLEET_BASE_INTERARRIVAL * 48 / nodes, FLEET_HORIZON, seed=seed,
            instructions_per_kernel=FLEET_KERNEL_INSTRUCTIONS,
        )
        for nodes in FLEET_SIZES
    }
    runs = []
    for nodes in FLEET_SIZES:
        runs += [(nodes, "ugpu", placement) for placement in PLACEMENTS]
        runs.append((nodes, "mig", "first_fit"))
    return {"schedules": schedules, "runs": runs}


def _churn_inputs(seed: int) -> Dict[str, Any]:
    """Footprints, shift kinds, rebalance caps and row localities follow
    a fixed pattern, so every seed has the same mix of op kinds and
    sizes; the seed draws the pages, access orders, SMs and requests."""
    rng = random.Random(seed)
    apps = []
    for app_id, footprint in enumerate(CHURN_FOOTPRINTS):
        base = app_id << 20
        apps.append([base + v for v in rng.sample(range(8192), footprint)])
    rounds = []
    for r in range(CHURN_ROUNDS):
        shifts = []
        for app_id in range(CHURN_APPS):
            step = r * CHURN_APPS + app_id
            shifts.append({
                "include_lazy": step % 2 == 0,
                "cap": (None, 256, 1024)[step % 3],
                "touches": [rng.choice(apps[app_id])
                            for _ in range(CHURN_TOUCHES)],
                "sms": [rng.randrange(80) for _ in range(CHURN_TOUCHES)],
                "hw_pages": [rng.randrange(len(apps[app_id]))
                             for _ in range(CHURN_HW_PAGES)],
                "hw_offsets": [rng.randrange(1, 8)
                               for _ in range(CHURN_HW_PAGES)],
                "drains": [_drain_batch(rng, CHURN_LOCALITY[d % 3])
                           for d in range(CHURN_DRAINS)],
            })
        rounds.append(shifts)
    fault_sms = [[rng.randrange(80) for _ in vpns] for vpns in apps]
    return {"apps": apps, "fault_sms": fault_sms, "rounds": rounds}


def _drain_batch(rng: random.Random,
                 locality: float) -> List[Tuple[bool, int, int, int, int]]:
    """(is_write, bank group, bank, row, column); each request reuses the
    previous row with probability ``locality``."""
    row = rng.randrange(1024)
    batch = []
    for _ in range(CHURN_DRAIN_BATCH):
        if rng.random() >= locality:
            row = rng.randrange(1024)
        batch.append((rng.random() < 1 / 3, rng.randrange(4), rng.randrange(4),
                      row, rng.randrange(32)))
    return batch


_GENERATORS = {
    "closed_sweep": _closed_inputs,
    "open_observed": _open_inputs,
    "fleet": _fleet_inputs,
    "pagemove_churn": _churn_inputs,
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def pass_ops(name: str, inputs: Dict[str, Any]) -> Iterator[Op]:
    """The ops of one pass, built lazily so each sees the state the
    previous ops left.  Call :func:`clear_process_memos` first."""
    return _PASSES[name](inputs)


def _closed_pass(inputs) -> Iterator[Op]:
    from repro.exec import SweepExecutor, SweepJob

    executor = SweepExecutor(jobs=1, cache=None)
    for policy, mix in inputs["jobs"]:
        job = SweepJob.build(policy, mix, CLOSED_CYCLES)
        yield Op("sweep", f"{policy}:{job.mix_name}",
                 lambda job=job: executor.run([job]),
                 lambda results, mix=mix: _check_closed(results, mix))


def _check_closed(results, mix) -> Tuple[str, List[str]]:
    broken = []
    if len(results) != 1:
        return "", [f"{len(results)} results for one job"]
    result = results[0]
    epochs = result.epochs
    if len(result.runs) != len(mix):
        broken.append(f"{len(result.runs)} app runs for {len(mix)} apps")
    if not epochs or epochs[0].start_cycle != 0 \
            or epochs[-1].end_cycle != CLOSED_CYCLES:
        broken.append("epochs do not cover the horizon")
    runs = [(r.app_id, r.name, r.ipc, r.ipc_alone) for r in result.runs]
    text = canon((
        result.policy, result.mix_name, result.total_cycles,
        result.repartitions, runs, len(epochs),
        sum(e.repartitioned for e in epochs),
        sum(e.migration_cycles for e in epochs),
    ))
    return text, broken


def _open_pass(inputs) -> Iterator[Op]:
    from repro.core.system import MultitaskSystem
    from repro.policies import UGPUPolicy
    from repro.profiling.profiler import PhaseProfiler
    from repro.telemetry import MetricsRegistry
    from repro.trace import TraceRecorder

    for stream_seed, generated in inputs["streams"].items():
        schedule = _fresh(generated)

        def call(schedule=schedule):
            tracer = TraceRecorder()
            metrics = MetricsRegistry()
            profiler = PhaseProfiler()
            system = MultitaskSystem(
                [], policy=UGPUPolicy(), epoch_cycles=OPEN_EPOCH,
                arrivals=schedule, tracer=tracer, metrics=metrics,
                profiler=profiler,
            )
            return system.run(OPEN_HORIZON), tracer, profiler

        yield Op("open", f"stream{stream_seed}", call,
                 lambda out, n=len(schedule): _check_open(out, n))


def _check_open(out, scheduled: int) -> Tuple[str, List[str]]:
    result, tracer, profiler = out
    broken = []
    if not result.admissions <= result.arrivals <= scheduled:
        broken.append(f"admissions {result.admissions} > arrivals "
                      f"{result.arrivals} or arrivals > {scheduled} scheduled")
    if result.departures > result.admissions:
        broken.append("more departures than admissions")
    last_admit = -1
    for run in result.runs:
        depart = run.depart_cycle if run.depart_cycle is not None \
            else result.total_cycles
        if not run.arrival_cycle <= run.admit_cycle <= depart:
            broken.append(f"job {run.app_id} out of cycle order")
        if run.admit_cycle < last_admit:
            broken.append(f"job {run.app_id} admitted out of order")
        last_admit = run.admit_cycle
    runs = [(r.app_id, r.name, r.instructions, r.ipc_alone, r.arrival_cycle,
             r.admit_cycle, r.depart_cycle) for r in result.runs]
    calls = sorted((path, calls) for path, (calls, _) in
                   profiler.snapshot().items())
    text = canon((
        result.arrivals, result.admissions, result.departures,
        result.repartitions, len(result.epochs), runs,
        tracer.emitted, tracer.dropped, calls,
    ))
    return text, broken


def _fleet_pass(inputs) -> Iterator[Op]:
    from repro.cluster import FleetSimulator, PlacementPolicy

    for nodes, slicing, placement in inputs["runs"]:
        schedule = inputs["schedules"][nodes]

        def call(nodes=nodes, slicing=slicing, placement=placement,
                 schedule=schedule):
            return FleetSimulator(
                nodes, schedule, PlacementPolicy.parse(placement),
                slicing=slicing, horizon_cycles=FLEET_HORIZON,
                instructions_per_kernel=FLEET_KERNEL_INSTRUCTIONS,
            ).run()

        yield Op("fleet", f"{nodes}n:{slicing}:{placement}", call,
                 lambda result, n=len(schedule): _check_fleet(result, n))


def _check_fleet(result, scheduled: int) -> Tuple[str, List[str]]:
    broken = []
    if scheduled != (result.admissions + result.waiting_at_horizon
                     + result.never_arrived):
        broken.append(
            f"{scheduled} scheduled != {result.admissions} admitted + "
            f"{result.waiting_at_horizon} waiting + "
            f"{result.never_arrived} never arrived")
    if result.arrivals != result.admissions + result.waiting_at_horizon:
        broken.append("arrivals != admitted + waiting")
    if result.departures > result.admissions:
        broken.append("more departures than admissions")
    energy = result.energy.total if result.energy is not None else None
    text = canon((
        result.rounds, result.arrivals, result.admissions, result.departures,
        result.migrations, result.migrated_bytes, result.waiting_at_horizon,
        result.never_arrived, result.stp, result.antt, result.fragmentation,
        result.mean_active_nodes, result.shard_runs, energy,
    ))
    return text, broken


# ----------------------------------------------------------------------
# pagemove_churn: VM faults, channel-window shifts, PPMM replay, FR-FCFS
# ----------------------------------------------------------------------
class _Churn:
    """The simulator state one churn pass works on."""

    def __init__(self) -> None:
        from repro.hbm import HBMConfig, HBMSystem
        from repro.hbm.controller import MemoryController
        from repro.pagemove import MigrationEngine
        from repro.vm.driver import GPUDriver
        from repro.vm.mmu import MMU

        self.driver = GPUDriver(num_channel_groups=CHURN_CHANNELS,
                                pages_per_channel=CHURN_PAGES_PER_CHANNEL)
        for app_id in range(CHURN_APPS):
            self.driver.register_app(app_id, self.window(app_id, "base"))
        self.mmu = MMU(self.driver)
        self.engine = MigrationEngine(
            self.driver, l2_tlb=self.mmu.l2_tlb, l1_tlbs=self.mmu.l1_tlbs,
            registry=self.mmu.registry,
        )
        self.faulted: List[set] = [set() for _ in range(CHURN_APPS)]
        self.hbm = HBMSystem()
        self.hw_now = 0
        config = HBMConfig()
        self.controllers = [
            MemoryController(config),
            MemoryController(config, write_buffer_entries=16),
        ]

    @staticmethod
    def window(app_id: int, shape: str) -> List[int]:
        low = 2 * app_id
        return {
            "base": [low, low + 1],
            "slide": [low + 1, (low + 2) % CHURN_CHANNELS],
            "grow": [low, low + 1, (low + 2) % CHURN_CHANNELS],
        }[shape]

    # -- ops -----------------------------------------------------------
    def touch(self, app_id: int, vpns: Sequence[int], sms: Sequence[int]):
        translate = self.mmu.translate
        out = [translate(sm, app_id, vpn) for sm, vpn in zip(sms, vpns)]
        self.faulted[app_id].update(vpns)
        return out

    def shift(self, app_id: int, shape: str, include_lazy: bool, cap):
        plan = self.engine.plan_channel_reallocation(
            app_id, self.window(app_id, shape), rebalance_cap=cap)
        return self.engine.execute(plan, include_lazy=include_lazy)

    def replay(self, app_id: int, page_indices, offsets, vpns):
        table = self.driver.page_tables[app_id]
        channels = self.hbm.config.channels_per_stack
        completions = []
        for index, offset in zip(page_indices, offsets):
            rpn = table.lookup(vpns[index]).rpn
            src = self.engine.mapping.page_coordinates(rpn).channel
            done = self.engine.execute_page_on_hardware(
                self.hbm, rpn, (src + offset) % channels, now=self.hw_now)
            completions.append(done)
            self.hw_now = done
        return completions

    def drain(self, which: int, batch):
        from repro.hbm.controller import MemoryRequest, RequestKind

        controller = self.controllers[which]
        requests = [
            MemoryRequest(
                kind=RequestKind.WRITE if write else RequestKind.READ,
                bank_group=group, bank=bank, row=row, column=column,
                arrival=controller.now,
            )
            for write, group, bank, row, column in batch
        ]
        served_before = controller.stats.served
        for request in requests:
            controller.enqueue(request)
        return which, requests, controller.drain(), served_before

    # -- checks --------------------------------------------------------
    def check_touch(self, translations) -> Tuple[str, List[str]]:
        text = canon([(t.rpn, t.channel, t.latency) for t in translations])
        return text, []

    def check_residency(self, app_id: int) -> List[str]:
        """Every faulted page of every app is resident exactly once, in a
        frame of the channel its entry names."""
        from repro.errors import TranslationError

        broken = []
        frames = set()
        for other in range(CHURN_APPS):
            entries = list(self.driver.page_tables[other].entries())
            vpns = [vpn for vpn, _ in entries]
            if len(vpns) != len(set(vpns)) or set(vpns) != self.faulted[other]:
                broken.append(f"app {other}: mapped pages != faulted pages")
            for _, entry in entries:
                if self.driver.channel_of_frame(entry.rpn) != entry.channel:
                    broken.append(f"app {other}: frame {entry.rpn} misfiled")
                    break
                if entry.rpn in frames:
                    broken.append(f"frame {entry.rpn} mapped twice")
                    break
                frames.add(entry.rpn)
            if self.driver.resident_pages(other) != len(entries):
                broken.append(f"app {other}: resident count != mapped pages")
        owned = self.driver.assigned_channels(app_id)
        for _, entry in self.driver.page_tables[app_id].entries():
            if entry.channel not in owned:
                broken.append(f"app {app_id}: page left in lost channel "
                              f"{entry.channel}")
                break
        try:
            self.mmu.assert_coherent(app_id)
        except TranslationError as exc:
            broken.append(str(exc))
        return broken

    def check_shift(self, app_id: int, report) -> Tuple[str, List[str]]:
        plan = report.plan
        text = canon((
            sorted(plan.old_channels), sorted(plan.new_channels),
            [(m.vpn, m.src_channel, m.dst_channel) for m in plan.eager],
            [(m.vpn, m.src_channel, m.dst_channel) for m in plan.lazy],
            report.pages_moved, report.eager_charge.window_cycles,
            report.lazy_charge.window_cycles, report.l1_entries_flushed,
            report.l2_entries_invalidated,
        ))
        return text, self.check_residency(app_id)

    def check_replay(self, completions, before: int) -> Tuple[str, List[str]]:
        broken = []
        done = self.hbm.stats()["migrations_completed"]
        expected = before + 32 * len(completions)
        if done != expected:
            broken.append(f"{done} migrations completed, expected {expected}")
        return canon(completions), broken

    def check_drain(self, out) -> Tuple[str, List[str]]:
        which, requests, served, served_before = out
        controller = self.controllers[which]
        broken = []
        ids = {id(r) for r in requests}
        if any(id(r) not in ids for r in served):
            broken.append("a served request was never enqueued")
        if any(r.completed_at is None or r.completed_at < r.arrival
               for r in requests):
            broken.append("an enqueued request was not served")
        served_now = controller.stats.served - served_before
        if (served_now != len(requests) or controller.queue
                or controller.write_buffer):
            broken.append(f"{served_now} served != {len(requests)} enqueued")
        text = canon([(r.completed_at, r.kind.value, r.bank_group, r.bank,
                       r.row, r.column) for r in requests])
        return text, broken


def _churn_pass(inputs) -> Iterator[Op]:
    churn = _Churn()
    apps = inputs["apps"]
    for app_id, vpns in enumerate(apps):
        sms = inputs["fault_sms"][app_id]
        for start in range(0, len(vpns), CHURN_FAULT_BATCH):
            batch = vpns[start:start + CHURN_FAULT_BATCH]
            yield Op("fault", f"fault:a{app_id}:{start}",
                     lambda a=app_id, b=batch,
                     s=sms[start:start + CHURN_FAULT_BATCH]: churn.touch(a, b, s),
                     churn.check_touch)
    shapes = ("slide", "base", "grow", "base")
    for r, shifts in enumerate(inputs["rounds"]):
        shape = shapes[r % len(shapes)]
        for app_id, step in enumerate(shifts):
            yield Op("shift", f"shift:r{r}:a{app_id}:{shape}",
                     lambda a=app_id, st=step: churn.shift(
                         a, shape, st["include_lazy"], st["cap"]),
                     lambda report, a=app_id: churn.check_shift(a, report))
            yield Op("touch", f"touch:r{r}:a{app_id}",
                     lambda a=app_id, st=step: churn.touch(
                         a, st["touches"], st["sms"]),
                     churn.check_touch)
            before = churn.hbm.stats()["migrations_completed"]
            yield Op("replay", f"replay:r{r}:a{app_id}",
                     lambda a=app_id, st=step: churn.replay(
                         a, st["hw_pages"], st["hw_offsets"], apps[a]),
                     lambda out, b=before: churn.check_replay(out, b))
            for d, batch in enumerate(step["drains"]):
                yield Op("drain", f"drain:r{r}:a{app_id}:{d}",
                         lambda w=d % 2, b=batch: churn.drain(w, b),
                         churn.check_drain)


_PASSES = {
    "closed_sweep": _closed_pass,
    "open_observed": _open_pass,
    "fleet": _fleet_pass,
    "pagemove_churn": _churn_pass,
}
