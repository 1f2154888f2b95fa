"""Noise-aware regression gating between two BENCH documents.

``repro bench --compare BASELINE.json`` verdicts, per scenario, on the
relative change of the **min** wall time (the statistic least disturbed
by scheduler noise):

* ``regression`` — candidate min slower than baseline by more than the
  fail threshold (default 15%); the comparison as a whole fails.
* ``warn`` — slower by more than the warn threshold (default 5%) but
  inside the fail bar; reported, does not fail.
* ``ok`` — within the noise band either way.
* ``improved`` — faster by more than the warn threshold (celebrated,
  never failed).
* ``skewed`` — the scenario's deterministic ``meta`` counts differ
  between the two documents, so its times measure different work; the
  time verdict is suppressed and the comparison fails (a silently
  changed workload would otherwise grandfather a real regression in).
* ``missing`` — present on one side only; reported, does not fail
  (suites are allowed to grow).

Thresholds are relative, so the gate is machine-independent as long as
both documents come from the same machine; comparing across machines is
meaningful only with ``warn_only=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import ConfigError


@dataclass(frozen=True)
class ScenarioVerdict:
    """The comparison outcome for one scenario."""

    name: str
    status: str  #: regression | warn | ok | improved | skewed | missing
    baseline_min: float = 0.0
    candidate_min: float = 0.0
    rel_delta: float = 0.0  #: (candidate - baseline) / baseline
    note: str = ""

    def format(self) -> str:
        if self.status == "missing":
            return f"{self.name:<16} missing     {self.note}"
        if self.status == "skewed":
            return f"{self.name:<16} SKEWED      {self.note}"
        marker = {
            "regression": "REGRESSION",
            "warn": "warn",
            "ok": "ok",
            "improved": "improved",
        }[self.status]
        line = (
            f"{self.name:<16} {marker:<11} "
            f"{self.baseline_min * 1e3:8.1f}ms -> "
            f"{self.candidate_min * 1e3:8.1f}ms  ({self.rel_delta:+.1%})"
        )
        if self.note:
            line += f"  [{self.note}]"
        return line


@dataclass
class BenchComparison:
    """All verdicts plus the gate decision."""

    verdicts: List[ScenarioVerdict] = field(default_factory=list)
    fail_threshold: float = 0.15
    warn_threshold: float = 0.05

    @property
    def failed(self) -> bool:
        return any(v.status in ("regression", "skewed") for v in self.verdicts)

    @property
    def regressions(self) -> List[ScenarioVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    def format(self) -> str:
        lines = [
            f"bench comparison (fail >{self.fail_threshold:.0%} min-time "
            f"regression, warn >{self.warn_threshold:.0%}):"
        ]
        lines.extend(v.format() for v in self.verdicts)
        if self.failed:
            count = len([v for v in self.verdicts
                         if v.status in ("regression", "skewed")])
            lines.append(f"FAIL: {count} gating scenario(s)")
        else:
            lines.append("PASS")
        return "\n".join(lines)


def _phase_note(base: Dict[str, Any], cand: Dict[str, Any],
                top: int = 3) -> str:
    """Name the span paths that got slower, when both documents carry
    the optional per-scenario ``phases`` self-time map (written by
    ``run_bench(profile_phases=True)``).  Turns "this scenario regressed"
    into "this scenario regressed *in these paths*."""
    base_phases = base.get("phases") or {}
    cand_phases = cand.get("phases") or {}
    if not base_phases or not cand_phases:
        return ""
    deltas = sorted(
        (
            (cand_phases.get(path, 0.0) - base_phases.get(path, 0.0), path)
            for path in set(base_phases) | set(cand_phases)
        ),
        key=lambda pair: (-pair[0], pair[1]),
    )
    slower = [(delta, path) for delta, path in deltas if delta > 0][:top]
    if not slower:
        return ""
    return "hot paths: " + ", ".join(
        f"{path} +{delta * 1e3:.1f}ms" for delta, path in slower
    )


def compare_benchmarks(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    fail_threshold: float = 0.15,
    warn_threshold: float = 0.05,
) -> BenchComparison:
    """Verdict the candidate document against the baseline document.

    Both arguments are BENCH documents (see
    :func:`repro.profiling.bench.read_bench`).
    """
    if not 0 < warn_threshold <= fail_threshold:
        raise ConfigError(
            f"thresholds must satisfy 0 < warn ({warn_threshold}) <= "
            f"fail ({fail_threshold})"
        )
    comparison = BenchComparison(
        fail_threshold=fail_threshold, warn_threshold=warn_threshold
    )
    base_scenarios = baseline.get("scenarios", {})
    cand_scenarios = candidate.get("scenarios", {})
    for name in list(base_scenarios) + [
        n for n in cand_scenarios if n not in base_scenarios
    ]:
        base = base_scenarios.get(name)
        cand = cand_scenarios.get(name)
        if base is None or cand is None:
            side = "baseline" if base is None else "candidate"
            comparison.verdicts.append(ScenarioVerdict(
                name=name, status="missing",
                note=f"not in the {side} document",
            ))
            continue
        base_meta = base.get("meta", {})
        cand_meta = cand.get("meta", {})
        if base_meta and cand_meta and base_meta != cand_meta:
            drifted = sorted(
                k for k in set(base_meta) | set(cand_meta)
                if base_meta.get(k) != cand_meta.get(k)
            )
            comparison.verdicts.append(ScenarioVerdict(
                name=name, status="skewed",
                note="workload drift in meta: " + ", ".join(
                    f"{k} {base_meta.get(k)}->{cand_meta.get(k)}"
                    for k in drifted
                ),
            ))
            continue
        base_min = float(base["min_seconds"])
        cand_min = float(cand["min_seconds"])
        if base_min <= 0:
            comparison.verdicts.append(ScenarioVerdict(
                name=name, status="skewed",
                note=f"baseline min_seconds is {base_min}; cannot gate",
            ))
            continue
        rel = (cand_min - base_min) / base_min
        if rel > fail_threshold:
            status = "regression"
        elif rel > warn_threshold:
            status = "warn"
        elif rel < -warn_threshold:
            status = "improved"
        else:
            status = "ok"
        note = ""
        if status in ("regression", "warn"):
            note = _phase_note(base, cand)
        comparison.verdicts.append(ScenarioVerdict(
            name=name, status=status,
            baseline_min=base_min, candidate_min=cand_min, rel_delta=rel,
            note=note,
        ))
    return comparison
