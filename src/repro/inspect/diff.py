"""Run-vs-run diffing over two loaded bundles.

:func:`diff_bundles` separates what *must* match from what *may* drift:

* **Result divergence** — the command's deterministic results payload
  (fleet summaries, sweep policy stats...).  Two identical-seed,
  identical-config runs must agree byte-for-byte here; any delta is a
  determinism bug.
* **Metric divergence** — deterministic counters/gauges (event counts,
  job totals, cache traffic).  Same contract as results; timing-derived
  families are excluded by name.
* **Timing deltas** — wall-seconds metrics and histogram samples,
  ranked by relative change.  Expected to differ; the ranking says
  *where*.
* **Span deltas** — per-phase self-seconds from the two profiler
  aggregates, ranked by absolute change: the wall-time attribution that
  tells you *which code path* got slower, not just that the run did.

``zero_divergence`` holds iff both divergence lists are empty — the
property the CI inspect smoke asserts between identical-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.inspect.model import RunModel, load_bundle

#: Metric families whose values depend on host timing, not simulation
#: state: excluded from the determinism contract, ranked as timing.
_TIMING_MARKERS = ("seconds", "wall")
_TIMING_PREFIXES = ("repro_health_",)
#: Families skipped entirely (pure provenance, diffs are meaningless).
_SKIPPED_METRICS = ("repro_build_info",)


def _is_timing_metric(name: str) -> bool:
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    if any(base.startswith(p) for p in _TIMING_PREFIXES):
        return True
    return any(marker in base for marker in _TIMING_MARKERS)


@dataclass(frozen=True)
class MetricDelta:
    """One metric sample that differs between the two runs."""

    name: str
    labels: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> float:
        return (self.b or 0.0) - (self.a or 0.0)

    @property
    def rel(self) -> float:
        if not self.a:
            return float("inf") if self.delta else 0.0
        return self.delta / abs(self.a)


@dataclass(frozen=True)
class SpanDelta:
    """Self-seconds change of one profiler phase path."""

    path: str
    a_self: float
    b_self: float
    a_cum: float
    b_cum: float

    @property
    def delta(self) -> float:
        return self.b_self - self.a_self


@dataclass
class BundleDiff:
    """Everything :func:`diff_bundles` concluded, render-agnostic."""

    a: RunModel
    b: RunModel
    #: Dotted result paths whose values differ (determinism drift).
    result_divergence: List[Tuple[str, Any, Any]] = field(
        default_factory=list
    )
    #: Deterministic metric samples that differ (determinism drift).
    metric_divergence: List[MetricDelta] = field(default_factory=list)
    #: Manifest artifact counts that differ (meta-count drift: the two
    #: runs did not even record the same number of things).
    meta_divergence: List[Tuple[str, Any, Any]] = field(
        default_factory=list
    )
    #: Timing samples ranked by |relative change| (expected to differ).
    timing_deltas: List[MetricDelta] = field(default_factory=list)
    #: Phase self-time attribution ranked by |absolute change|.
    span_deltas: List[SpanDelta] = field(default_factory=list)
    #: Run-shape observations (command/run_id differences).
    notes: List[str] = field(default_factory=list)

    @property
    def zero_divergence(self) -> bool:
        """No deterministic drift — results, counters, and artifact
        meta-counts all agree."""
        return (
            not self.result_divergence
            and not self.metric_divergence
            and not self.meta_divergence
        )


def _flatten_results(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """Recursive dotted-path flattening of a results document."""
    out: Dict[str, Any] = {}
    if isinstance(payload, dict):
        for key in sorted(payload):
            out.update(_flatten_results(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            out.update(_flatten_results(item, f"{prefix}{index}."))
    else:
        out[prefix[:-1] if prefix else ""] = payload
    return out


def _diff_results(diff: BundleDiff) -> None:
    flat_a = _flatten_results(diff.a.results) if diff.a.results else {}
    flat_b = _flatten_results(diff.b.results) if diff.b.results else {}
    for path in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(path), flat_b.get(path)
        if va != vb:
            diff.result_divergence.append((path, va, vb))


def _diff_metrics(diff: BundleDiff) -> None:
    samples_a = diff.a.metric_samples()
    samples_b = diff.b.metric_samples()
    timing: List[MetricDelta] = []
    for key in sorted(set(samples_a) | set(samples_b)):
        name, labels = key
        if any(name.startswith(skip) for skip in _SKIPPED_METRICS):
            continue
        va, vb = samples_a.get(key), samples_b.get(key)
        if va == vb:
            continue
        delta = MetricDelta(name=name, labels=labels, a=va, b=vb)
        if _is_timing_metric(name):
            timing.append(delta)
        else:
            diff.metric_divergence.append(delta)
    timing.sort(key=lambda d: (-abs(d.rel), d.name, d.labels))
    diff.timing_deltas = timing


def _diff_spans(diff: BundleDiff) -> None:
    if diff.a.profile is None or diff.b.profile is None:
        return
    tree_a = diff.a.profile.tree()
    tree_b = diff.b.profile.tree()
    deltas: List[SpanDelta] = []
    for path in sorted(set(tree_a) | set(tree_b)):
        stats_a = tree_a.get(path)
        stats_b = tree_b.get(path)
        a_self = stats_a.self_seconds if stats_a is not None else 0.0
        b_self = stats_b.self_seconds if stats_b is not None else 0.0
        a_cum = stats_a.cum_seconds if stats_a is not None else 0.0
        b_cum = stats_b.cum_seconds if stats_b is not None else 0.0
        if a_self == b_self and a_cum == b_cum:
            continue
        deltas.append(SpanDelta(
            path="/".join(path),
            a_self=a_self, b_self=b_self, a_cum=a_cum, b_cum=b_cum,
        ))
    deltas.sort(key=lambda d: (-abs(d.delta), d.path))
    diff.span_deltas = deltas


def _diff_notes(diff: BundleDiff) -> None:
    if diff.a.command != diff.b.command:
        diff.notes.append(
            f"commands differ: {diff.a.command!r} vs {diff.b.command!r}"
        )
    if diff.a.run_id != diff.b.run_id:
        diff.notes.append(
            f"run_ids differ: {diff.a.run_id} vs {diff.b.run_id} — "
            "the runs were configured differently"
        )
    counts_a = diff.a.manifest.get("counts", {})
    counts_b = diff.b.manifest.get("counts", {})
    for key in sorted(set(counts_a) | set(counts_b)):
        if counts_a.get(key) != counts_b.get(key):
            diff.meta_divergence.append(
                (key, counts_a.get(key), counts_b.get(key))
            )
    if diff.a.dropped_events or diff.b.dropped_events:
        diff.notes.append(
            f"dropped trace events: {diff.a.dropped_events} vs "
            f"{diff.b.dropped_events} — evidence incomplete"
        )


def diff_bundles(a, b) -> BundleDiff:
    """Diff two bundles; accepts paths or loaded :class:`RunModel`\\ s."""
    model_a = a if isinstance(a, RunModel) else load_bundle(a)
    model_b = b if isinstance(b, RunModel) else load_bundle(b)
    diff = BundleDiff(a=model_a, b=model_b)
    _diff_results(diff)
    _diff_metrics(diff)
    _diff_spans(diff)
    _diff_notes(diff)
    return diff
