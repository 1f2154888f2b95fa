"""Report rendering for inspected bundles and bundle diffs.

Two output forms per object:

* deterministic plain text — stable line order and phrasing, safe to
  grep in CI (``result divergence: none`` / ``meta-count divergence:
  none`` are load-bearing strings for the inspect smoke);
* a self-contained single-file HTML report — inline CSS, no external
  assets or scripts, so the file can be archived as a CI artifact and
  opened anywhere.

All numbers that reach the text report are formatted with fixed
precision so identical inputs render byte-identically.
"""

from __future__ import annotations

import html
from typing import List, Optional

from repro.inspect.analyze import Finding
from repro.inspect.diff import BundleDiff
from repro.inspect.model import RunModel

_SEVERITY_MARK = {"warning": "!", "info": "-"}


# ----------------------------------------------------------------------
# Inspect: text
# ----------------------------------------------------------------------
def render_text(model: RunModel, findings: List[Finding],
                top: int = 10) -> str:
    """The ``repro inspect`` report."""
    lines = [
        f"run bundle: {model.path}",
        f"  command:        {model.command}",
        f"  run_id:         {model.run_id}",
        f"  dropped_events: {model.dropped_events}",
    ]
    counts = model.manifest.get("counts", {})
    if counts:
        lines.append("  counts: " + ", ".join(
            f"{key}={counts[key]}" for key in sorted(counts)
        ))
    shards = model.shard_ids()
    workers = model.workers()
    if shards:
        shown = ", ".join(shards[:8]) + (" ..." if len(shards) > 8 else "")
        lines.append(f"  shards ({len(shards)}): {shown}")
    if workers:
        lines.append(f"  workers: {len(workers)}")
    lines.append("")
    lines.append(f"findings ({len(findings)}):")
    if not findings:
        lines.append("  (none)")
    for finding in findings:
        mark = _SEVERITY_MARK.get(finding.severity, "-")
        lines.append(
            f"  {mark} [{finding.severity}/{finding.category}] "
            f"{finding.title}"
        )
        lines.append(f"      {finding.detail}")
    if model.profile is not None:
        lines.append("")
        lines.append(f"hot phases (top {top}):")
        for row in model.profile.format_table(top=top).splitlines():
            lines.append("  " + row)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Inspect: HTML
# ----------------------------------------------------------------------
_HTML_HEAD = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font: 14px/1.5 -apple-system, "Segoe UI", sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }}
h1 {{ font-size: 1.4em; }} h2 {{ font-size: 1.1em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; width: 100%; margin: .6em 0; }}
th, td {{ border: 1px solid #cfd4dc; padding: .3em .6em;
          text-align: left; font-size: 13px; }}
th {{ background: #eef1f5; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
.warning {{ background: #fdf0ee; }}
.info {{ background: #f2f7f2; }}
code {{ background: #f4f4f6; padding: 0 .25em; }}
.meta {{ color: #555; font-size: 13px; }}
</style></head><body>
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _meta_rows(model: RunModel) -> str:
    rows = [
        ("command", model.command),
        ("run_id", model.run_id),
        ("dropped_events", model.dropped_events),
    ]
    counts = model.manifest.get("counts", {})
    for key in sorted(counts):
        rows.append((f"count:{key}", counts[key]))
    cells = "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return f"<table>{cells}</table>"


def render_html(model: RunModel, findings: List[Finding],
                top: int = 15) -> str:
    """Self-contained single-file HTML version of the inspect report."""
    parts = [_HTML_HEAD.format(title=f"repro inspect: {_esc(model.path)}")]
    parts.append(f"<h1>Run bundle <code>{_esc(model.path)}</code></h1>")
    parts.append(_meta_rows(model))
    parts.append(f"<h2>Findings ({len(findings)})</h2>")
    if findings:
        rows = "".join(
            f'<tr class="{_esc(f.severity)}"><td>{_esc(f.severity)}</td>'
            f"<td>{_esc(f.category)}</td><td>{_esc(f.title)}</td>"
            f"<td>{_esc(f.detail)}</td></tr>"
            for f in findings
        )
        parts.append(
            "<table><tr><th>severity</th><th>category</th><th>finding"
            f"</th><th>detail</th></tr>{rows}</table>"
        )
    else:
        parts.append('<p class="meta">No findings.</p>')
    if model.profile is not None:
        parts.append(f"<h2>Hot phases (top {top})</h2>")
        total = model.profile.total_seconds()
        rows = "".join(
            f"<tr><td><code>{_esc(s.name)}</code></td>"
            f'<td class="num">{s.calls}</td>'
            f'<td class="num">{s.self_seconds * 1e3:.2f}</td>'
            f'<td class="num">{s.cum_seconds * 1e3:.2f}</td>'
            f'<td class="num">'
            f"{(s.self_seconds / total if total else 0):.1%}</td></tr>"
            for s in model.profile.flat()[:top]
        )
        parts.append(
            "<table><tr><th>phase</th><th>calls</th><th>self ms</th>"
            f"<th>cum ms</th><th>self %</th></tr>{rows}</table>"
        )
    parts.append("</body></html>\n")
    return "".join(parts)


# ----------------------------------------------------------------------
# Diff: text
# ----------------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "missing"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_diff_text(diff: BundleDiff, top: int = 10) -> str:
    """The ``repro diff`` report; verdict line is IDENTICAL/DIVERGED."""
    lines = [
        f"diff: {diff.a.path} vs {diff.b.path}",
        f"  A: command={diff.a.command} run_id={diff.a.run_id}",
        f"  B: command={diff.b.command} run_id={diff.b.run_id}",
    ]
    for note in diff.notes:
        lines.append(f"  note: {note}")
    lines.append("")

    if diff.result_divergence:
        lines.append(
            f"result divergence: {len(diff.result_divergence)} path(s)"
        )
        for path, va, vb in diff.result_divergence[:top]:
            lines.append(f"  {path}: {va!r} -> {vb!r}")
        if len(diff.result_divergence) > top:
            lines.append(
                f"  ... {len(diff.result_divergence) - top} more"
            )
    else:
        lines.append("result divergence: none")

    if diff.metric_divergence:
        lines.append(
            f"metric divergence: {len(diff.metric_divergence)} sample(s)"
        )
        for delta in diff.metric_divergence[:top]:
            labels = f"{{{delta.labels}}}" if delta.labels else ""
            lines.append(
                f"  {delta.name}{labels}: {_fmt(delta.a)} -> "
                f"{_fmt(delta.b)} ({delta.delta:+g})"
            )
        if len(diff.metric_divergence) > top:
            lines.append(
                f"  ... {len(diff.metric_divergence) - top} more"
            )
    else:
        lines.append("metric divergence: none")

    if diff.meta_divergence:
        lines.append(
            f"meta-count divergence: {len(diff.meta_divergence)} count(s)"
        )
        for key, va, vb in diff.meta_divergence:
            lines.append(f"  {key}: {va} -> {vb}")
    else:
        lines.append("meta-count divergence: none")

    lines.append("")
    if diff.timing_deltas:
        lines.append(
            f"timing deltas (top {min(top, len(diff.timing_deltas))} of "
            f"{len(diff.timing_deltas)}, by |relative change|):"
        )
        for delta in diff.timing_deltas[:top]:
            labels = f"{{{delta.labels}}}" if delta.labels else ""
            rel = (
                f"{delta.rel:+.1%}" if delta.rel != float("inf") else "new"
            )
            lines.append(
                f"  {delta.name}{labels}: {_fmt(delta.a)} -> "
                f"{_fmt(delta.b)} ({rel})"
            )
    else:
        lines.append("timing deltas: none")

    if diff.span_deltas:
        lines.append("")
        lines.append(
            f"wall-time attribution (top "
            f"{min(top, len(diff.span_deltas))} of {len(diff.span_deltas)}"
            " span paths, by |self-seconds change|):"
        )
        for span in diff.span_deltas[:top]:
            lines.append(
                f"  {span.path}: self {span.a_self * 1e3:.2f}ms -> "
                f"{span.b_self * 1e3:.2f}ms ({span.delta * 1e3:+.2f}ms)"
            )

    lines.append("")
    lines.append(
        "verdict: "
        + ("IDENTICAL (zero divergence)" if diff.zero_divergence
           else "DIVERGED")
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Diff: HTML
# ----------------------------------------------------------------------
def render_diff_html(diff: BundleDiff, top: int = 25) -> str:
    """Self-contained single-file HTML version of the diff report."""
    parts = [_HTML_HEAD.format(
        title=f"repro diff: {_esc(diff.a.path)} vs {_esc(diff.b.path)}"
    )]
    verdict = "IDENTICAL" if diff.zero_divergence else "DIVERGED"
    parts.append(
        f"<h1>Bundle diff: <code>{_esc(diff.a.path)}</code> vs "
        f"<code>{_esc(diff.b.path)}</code> — {verdict}</h1>"
    )
    parts.append(
        '<p class="meta">'
        f"A: {_esc(diff.a.command)} / {_esc(diff.a.run_id)}<br>"
        f"B: {_esc(diff.b.command)} / {_esc(diff.b.run_id)}</p>"
    )
    if diff.notes:
        items = "".join(f"<li>{_esc(note)}</li>" for note in diff.notes)
        parts.append(f"<ul>{items}</ul>")

    def table(title: str, header: List[str], rows: List[List[str]],
              cls: str = "") -> None:
        parts.append(f"<h2>{_esc(title)}</h2>")
        if not rows:
            parts.append('<p class="meta">none</p>')
            return
        head = "".join(f"<th>{_esc(h)}</th>" for h in header)
        body = "".join(
            f'<tr class="{cls}">'
            + "".join(f"<td>{cell}</td>" for cell in row)
            + "</tr>"
            for row in rows
        )
        parts.append(f"<table><tr>{head}</tr>{body}</table>")

    table(
        "Result divergence", ["path", "A", "B"],
        [
            [f"<code>{_esc(p)}</code>", _esc(repr(va)), _esc(repr(vb))]
            for p, va, vb in diff.result_divergence[:top]
        ],
        cls="warning",
    )
    table(
        "Metric divergence", ["metric", "labels", "A", "B"],
        [
            [f"<code>{_esc(d.name)}</code>", _esc(d.labels),
             _esc(_fmt(d.a)), _esc(_fmt(d.b))]
            for d in diff.metric_divergence[:top]
        ],
        cls="warning",
    )
    table(
        "Meta-count divergence", ["count", "A", "B"],
        [
            [f"<code>{_esc(k)}</code>", _esc(va), _esc(vb)]
            for k, va, vb in diff.meta_divergence[:top]
        ],
        cls="warning",
    )
    table(
        "Timing deltas", ["metric", "labels", "A", "B", "rel"],
        [
            [f"<code>{_esc(d.name)}</code>", _esc(d.labels),
             _esc(_fmt(d.a)), _esc(_fmt(d.b)),
             _esc(f"{d.rel:+.1%}" if d.rel != float("inf") else "new")]
            for d in diff.timing_deltas[:top]
        ],
    )
    table(
        "Wall-time attribution (span paths)",
        ["span path", "A self ms", "B self ms", "delta ms"],
        [
            [f"<code>{_esc(s.path)}</code>",
             f'<span class="num">{s.a_self * 1e3:.2f}</span>',
             f'<span class="num">{s.b_self * 1e3:.2f}</span>',
             f'<span class="num">{s.delta * 1e3:+.2f}</span>']
            for s in diff.span_deltas[:top]
        ],
    )
    parts.append("</body></html>\n")
    return "".join(parts)
