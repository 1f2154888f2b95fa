"""Spans recorded from outside the simulator, and the per-layer ledger.

A traced pass wraps the public functions at each layer boundary (the
:data:`WRAP_POINTS`) with a span, runs the workload's ops, and restores
the originals.  Nothing inside ``src/`` knows it is being traced.

Spans live in flat arrays while the pass runs and are written out once
at the end.  A span's self time is its duration minus the durations of
its direct children.  Each wrap point may attach two numbers to its
span (``value``, ``extra``), read from the call's arguments and result,
so that counts such as pages moved are taken where the work happens.

A wrap point whose target no longer exists is reported by name in the
ledger and otherwise skipped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import percentile, tail_percentile


class SpanRecorder:
    """Nested spans in flat arrays: name id, parent id, start, end and
    two attached numbers per span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.extra = array("d")
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.value.append(0.0)
        self.extra.append(0.0)
        self.end.append(math.nan)
        self._open.append(span_id)
        self.start.append(self.clock())
        return span_id

    def finish(self, span_id: int) -> None:
        self.end[span_id] = self.clock()
        if self._open.pop() != span_id:
            raise RuntimeError("spans closed out of order")

    def attach(self, span_id: int, value: float, extra: float = 0.0) -> None:
        self.value[span_id] = float(value)
        self.extra[span_id] = float(extra)

    def write_jsonl_gz(self, path, header: Dict[str, Any]) -> None:
        """One header line, then ``[id, parent, name, start_us, dur_us,
        value, extra]`` per span, times relative to the first span."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(dict(header, names=self.names)) + "\n")
            for i in range(len(self)):
                out.write(json.dumps([
                    i, self.parent[i], self.name[i],
                    round((self.start[i] - origin) * 1e6, 3),
                    round((self.end[i] - self.start[i]) * 1e6, 3),
                    self.value[i], self.extra[i],
                ]) + "\n")


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WrapPoint:
    """One function to trace: ``target`` is ``"module:Qual.attr"``.

    ``before(args)`` runs before the span opens; ``measure(args, result,
    state)`` after it closes, returning the span's ``(value, extra)``.
    """

    span: str
    target: str
    measure: Optional[Callable[[tuple, Any, Any], Tuple[float, float]]] = None
    before: Optional[Callable[[tuple], Any]] = None


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrapper(fn, recorder: SpanRecorder, point: WrapPoint):
    begin, finish, attach = recorder.begin, recorder.finish, recorder.attach
    name, measure, before = point.span, point.measure, point.before

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        span_id = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(span_id)
        if measure is not None:
            attach(span_id, *measure(args, result, state))
        return result

    return traced


def install(recorder: SpanRecorder, points) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable point; returns ``(restore, missing targets)``.

    ``restore`` puts every original back, in reverse order, so a target
    listed twice unwinds cleanly."""
    undo: List[Tuple[Any, str, bool, Any]] = []
    missing: List[str] = []
    for point in points:
        try:
            owner, attr = _resolve(point.target)
            own = isinstance(owner, type) and attr in owner.__dict__
            original = owner.__dict__[attr] if own else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError, ValueError):
            missing.append(point.target)
            continue
        if not callable(original):
            missing.append(point.target)
            continue
        setattr(owner, attr, _wrapper(original, recorder, point))
        undo.append((owner, attr, own or not isinstance(owner, type), original))

    def restore() -> None:
        for owner, attr, own, original in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        undo.clear()

    return restore, missing


def _memo_before(args):
    return args[0].memo_hits


def _memo_measure(elements):
    def measure(args, result, state):
        return elements(args), args[0].memo_hits - state

    return measure


def _dropped_before(args):
    return args[0].dropped


def _dropped_measure(events):
    def measure(args, result, state):
        return events(result), args[0].dropped - state

    return measure


def _drain_before(args):
    stats = args[0].stats
    return stats.served, stats.row_hits


def _drain_measure(args, result, state):
    stats = args[0].stats
    return stats.served - state[0], stats.row_hits - state[1]


#: The layer boundaries a traced pass records.  Private methods appear
#: only where a layer has no public boundary (fleet admission, metric
#: children).
WRAP_POINTS = (
    WrapPoint("exec.run", "repro.exec.executor:SweepExecutor.run",
              lambda a, r, s: (len(r), 0.0)),
    WrapPoint("exec.job", "repro.exec.executor:execute_job_timed"),
    WrapPoint("core.run", "repro.core.system:MultitaskSystem.run",
              lambda a, r, s: (len(r.epochs), 0.0)),
    WrapPoint("fastpath.step", "repro.fastpath.epoch:FastEpochKernel.step"),
    WrapPoint("policy.epoch_end",
              "repro.policies.ugpu:UGPUPolicy.on_epoch_end"),
    WrapPoint("policy.epoch_end",
              "repro.policies.cd_search:CDSearchPolicy.on_epoch_end"),
    *(WrapPoint("policy.membership", f"repro.policies.{module}:{cls}.{hook}")
      for module, cls in (("ugpu", "UGPUPolicy"), ("cd_search", "CDSearchPolicy"),
                          ("mps", "MPSPolicy"))
      for hook in ("on_app_arrival", "on_app_departure")),
    WrapPoint("partitioner.compute",
              "repro.core.partitioner:DemandAwarePartitioner.compute",
              lambda a, r, s: (1.0 if r.moves else 0.0, 0.0)),
    WrapPoint("gpu.throughput",
              "repro.gpu.performance:PerformanceModel.throughput",
              _memo_measure(lambda a: 1), _memo_before),
    WrapPoint("gpu.throughput",
              "repro.gpu.performance:PerformanceModel.throughput_batch",
              _memo_measure(lambda a: len(a[1])), _memo_before),
    WrapPoint("cluster.run", "repro.cluster.fleet:FleetSimulator.run",
              lambda a, r, s: (r.admissions, r.num_nodes)),
    WrapPoint("cluster.admit", "repro.cluster.fleet:FleetSimulator._admit",
              lambda a, r, s: (r, 0.0)),
    WrapPoint("cluster.choose", "repro.cluster.fleet:choose_node",
              lambda a, r, s: (len(a[1]), 0.0 if r is None else 1.0)),
    WrapPoint("cluster.physics", "repro.cluster.shard:FleetShardJob.run"),
    WrapPoint("obs.emit", "repro.trace.recorder:TraceRecorder.emit",
              _dropped_measure(lambda r: r is not None), _dropped_before),
    *(WrapPoint("obs.metrics", f"repro.telemetry.metrics:{target}")
      for target in ("_CounterChild.inc", "_GaugeChild.set", "_GaugeChild.inc",
                     "_GaugeChild.dec", "_HistogramChild.observe",
                     "MetricsRegistry.epoch_boundary")),
    WrapPoint("obs.profiler", "repro.profiling.profiler:PhaseProfiler.begin"),
    WrapPoint("obs.profiler", "repro.profiling.profiler:PhaseProfiler.end",
              _dropped_measure(lambda r: 0.0), _dropped_before),
    WrapPoint("vm.fault", "repro.vm.driver:GPUDriver.handle_fault"),
    WrapPoint("vm.pt_lookup", "repro.vm.page_table:PageTable.lookup"),
    WrapPoint("vm.pt_lookup", "repro.vm.page_table:PageTable.translate"),
    WrapPoint("pagemove.plan",
              "repro.pagemove.engine:MigrationEngine.plan_channel_reallocation"),
    WrapPoint("pagemove.execute", "repro.pagemove.engine:MigrationEngine.execute",
              lambda a, r, s: (r.pages_moved, 0.0)),
    WrapPoint("pagemove.hw",
              "repro.pagemove.engine:MigrationEngine.execute_page_on_hardware"),
    WrapPoint("hbm.drain", "repro.hbm.controller:MemoryController.drain",
              _drain_measure, _drain_before),
)


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class SpanTable:
    """Per-name aggregates over a recorder: counts, total and self time,
    attached sums, and the spans themselves for finer questions."""

    def __init__(self, recorder: SpanRecorder) -> None:
        n = len(recorder)
        self.recorder = recorder
        durations = [recorder.end[i] - recorder.start[i] for i in range(n)]
        child_time = [0.0] * n
        parent = recorder.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += durations[i]
        self.durations = durations
        self.self_times = [d - c for d, c in zip(durations, child_time)]
        self.by_name: Dict[str, List[int]] = {}
        names = recorder.names
        for i in range(n):
            self.by_name.setdefault(names[recorder.name[i]], []).append(i)

    def ids(self, name: str) -> List[int]:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.ids(name))

    def total(self, name: str) -> float:
        return math.fsum(self.durations[i] for i in self.ids(name))

    def self_time(self, *names: str) -> float:
        return math.fsum(self.self_times[i] for n in names for i in self.ids(n))

    def value_sum(self, name: str) -> float:
        return math.fsum(self.recorder.value[i] for i in self.ids(name))

    def extra_sum(self, name: str) -> float:
        return math.fsum(self.recorder.extra[i] for i in self.ids(name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def admission_latencies(table: SpanTable) -> List[float]:
    """Per-admission host seconds: inside one ``cluster.admit`` span, the
    time from the previous admission (or the span's start) to the end of
    the ``choose_node`` call that placed the job."""
    rec = table.recorder
    admits = set(table.ids("cluster.admit"))
    last: Dict[int, float] = {}
    latencies = []
    for i in table.ids("cluster.choose"):
        p = rec.parent[i]
        if p not in admits or not rec.extra[i]:
            continue
        latencies.append(rec.end[i] - last.get(p, rec.start[p]))
        last[p] = rec.end[i]
    return latencies


def scale_ratio(table: SpanTable) -> float:
    """Host time of the largest fleet's runs over the smallest's."""
    rec = table.recorder
    by_nodes: Dict[float, float] = {}
    for i in table.ids("cluster.run"):
        nodes = rec.extra[i]
        by_nodes[nodes] = by_nodes.get(nodes, 0.0) + table.durations[i]
    if len(by_nodes) < 2:
        return 0.0
    return _ratio(by_nodes[max(by_nodes)], by_nodes[min(by_nodes)])


#: Every ledger metric with its unit, in report order.
LEDGER_UNITS = {
    "exec.jobs": "count", "exec.job_p50_ms": "ms",
    "exec.orchestration_self_s": "s",
    "core.runs": "count", "core.epochs": "count", "core.us_per_epoch": "us",
    "fastpath.steps": "count", "fastpath.collapse_ratio": "ratio",
    "fastpath.step_self_s": "s",
    "policy.epoch_end_calls": "count", "policy.epoch_end_self_s": "s",
    "policy.membership_self_s": "s",
    "partitioner.calls": "count", "partitioner.changed_ratio": "ratio",
    "partitioner.self_s": "s",
    "gpu.throughput_calls": "count", "gpu.memo_hit_ratio": "ratio",
    "gpu.throughput_self_s": "s",
    "cluster.admissions": "count", "cluster.nodes_scanned_per_admit": "count",
    "cluster.admit_p50_us": "us", "cluster.admit_tail_us": "us",
    "cluster.choose_self_s": "s", "cluster.physics_self_s": "s",
    "cluster.coordinator_self_s": "s", "cluster.scale_ratio": "ratio",
    "obs.events": "count", "obs.dropped_events": "count",
    "obs.emit_self_s": "s", "obs.metrics_self_s": "s",
    "obs.profiler_self_s": "s",
    "vm.faults": "count", "vm.fault_p50_us": "us", "vm.fault_self_s": "s",
    "vm.pt_lookups": "count",
    "pagemove.pages_moved": "count", "pagemove.plan_self_s": "s",
    "pagemove.execute_self_s": "s", "pagemove.us_per_page": "us",
    "pagemove.hw_us_per_page": "us",
    "hbm.requests_served": "count", "hbm.row_hit_rate": "ratio",
    "hbm.us_per_request": "us", "hbm.drain_self_s": "s",
    "import_s": "s", "workloads.gen_s": "s",
    "host.ref_ms": "ms", "host.pass_s": "s", "trace.overhead_ratio": "ratio",
    "ledger.missing_wrap_points": "count", "ledger.missing_memos": "count",
}


def ledger(table: SpanTable, host: Dict[str, float],
           missing: List[str]) -> Dict[str, float]:
    """Every :data:`LEDGER_UNITS` metric from one traced pass.

    ``host`` supplies the numbers measured outside the traced pass:
    ``import_s``, ``workloads.gen_s``, ``host.ref_ms``, ``host.pass_s``,
    ``trace.overhead_ratio`` and ``ledger.missing_memos``."""
    t = table
    epochs = t.value_sum("core.run")
    steps = t.count("fastpath.step")
    tp_calls = t.value_sum("gpu.throughput")
    admissions = t.value_sum("cluster.run")
    admit_ids = set(t.ids("cluster.admit"))
    scanned = math.fsum(t.recorder.value[i] for i in t.ids("cluster.choose")
                        if t.recorder.parent[i] in admit_ids)
    latencies = sorted(admission_latencies(t))
    tail = tail_percentile(len(latencies))
    pages = t.value_sum("pagemove.execute")
    hw_pages = t.count("pagemove.hw")
    served = t.value_sum("hbm.drain")
    fault_durations = sorted(t.durations[i] for i in t.ids("vm.fault"))
    job_durations = sorted(t.durations[i] for i in t.ids("exec.job"))
    metrics = {
        "exec.jobs": t.count("exec.job"),
        "exec.job_p50_ms": percentile(job_durations, 50) * 1e3,
        "exec.orchestration_self_s": t.self_time("exec.run", "exec.job"),
        "core.runs": t.count("core.run"),
        "core.epochs": epochs,
        "core.us_per_epoch": _ratio(t.total("core.run"), epochs) * 1e6,
        "fastpath.steps": steps,
        "fastpath.collapse_ratio": _ratio(epochs, steps),
        "fastpath.step_self_s": t.self_time("fastpath.step"),
        "policy.epoch_end_calls": t.count("policy.epoch_end"),
        "policy.epoch_end_self_s": t.self_time("policy.epoch_end"),
        "policy.membership_self_s": t.self_time("policy.membership"),
        "partitioner.calls": t.count("partitioner.compute"),
        "partitioner.changed_ratio": _ratio(
            t.value_sum("partitioner.compute"), t.count("partitioner.compute")),
        "partitioner.self_s": t.self_time("partitioner.compute"),
        "gpu.throughput_calls": tp_calls,
        "gpu.memo_hit_ratio": _ratio(t.extra_sum("gpu.throughput"), tp_calls),
        "gpu.throughput_self_s": t.self_time("gpu.throughput"),
        "cluster.admissions": admissions,
        "cluster.nodes_scanned_per_admit": _ratio(scanned, admissions),
        "cluster.admit_p50_us": percentile(latencies, 50) * 1e6,
        "cluster.admit_tail_us": (percentile(latencies, tail) * 1e6
                                  if tail is not None else 0.0),
        "cluster.choose_self_s": t.self_time("cluster.choose"),
        "cluster.physics_self_s": t.self_time("cluster.physics"),
        "cluster.coordinator_self_s": t.self_time("cluster.run",
                                                  "cluster.admit"),
        "cluster.scale_ratio": scale_ratio(t),
        "obs.events": t.value_sum("obs.emit"),
        "obs.dropped_events": (t.extra_sum("obs.emit")
                               + t.extra_sum("obs.profiler")),
        "obs.emit_self_s": t.self_time("obs.emit"),
        "obs.metrics_self_s": t.self_time("obs.metrics"),
        "obs.profiler_self_s": t.self_time("obs.profiler"),
        "vm.faults": t.count("vm.fault"),
        "vm.fault_p50_us": percentile(fault_durations, 50) * 1e6,
        "vm.fault_self_s": t.self_time("vm.fault"),
        "vm.pt_lookups": t.count("vm.pt_lookup"),
        "pagemove.pages_moved": pages,
        "pagemove.plan_self_s": t.self_time("pagemove.plan"),
        "pagemove.execute_self_s": t.self_time("pagemove.execute"),
        "pagemove.us_per_page": _ratio(t.total("pagemove.execute"), pages) * 1e6,
        "pagemove.hw_us_per_page": _ratio(t.total("pagemove.hw"), hw_pages) * 1e6,
        "hbm.requests_served": served,
        "hbm.row_hit_rate": _ratio(t.extra_sum("hbm.drain"), served),
        "hbm.us_per_request": _ratio(t.total("hbm.drain"), served) * 1e6,
        "hbm.drain_self_s": t.self_time("hbm.drain"),
        "ledger.missing_wrap_points": len(missing),
    }
    metrics.update(host)
    return metrics
