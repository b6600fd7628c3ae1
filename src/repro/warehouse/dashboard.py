"""``repro dash --html``: one self-contained observability page.

The renderer reads the warehouse and emits a **single HTML file** with
zero external assets — styles inline, charts as inline SVG sparklines —
so the artifact can be attached to a CI run or mailed around and still
render offline, forever.

Design decisions (from the dataviz method):

* **Small multiples, one series per sparkline.**  Each metric gets its
  own chart instead of stacking many hues on one axis, so there is no
  palette-collision problem and no dual axis.  The single series wears
  the one validated accent blue; everything textual wears text tokens.
* **Anomaly flags are icon + label, never color alone** — a flagged
  point renders "▲ anomaly" text next to the marker.
* **Dark mode is selected, not flipped**: both palettes are validated
  steps, applied via CSS custom properties under a media query and a
  ``data-theme`` override.
* **Determinism**: no generation timestamps in the body, sorted
  iteration everywhere, fixed float formatting — the same warehouse
  contents produce a byte-identical file (a tested contract).

Anomaly detection reuses the bench regression gate's robust statistics
(:func:`repro.profiler.regression._median` / ``_mad``): a trajectory
point is flagged when it sits more than ``threshold`` MADs from the
median of the clean history (dirty runs are charted but excluded from
the baseline, matching the gate's policy).
"""

from __future__ import annotations

import html
from typing import Optional

from ..profiler.regression import _mad, _median
from .store import RunInfo, Warehouse

#: MADs-from-median beyond which a trajectory point is flagged.
ANOMALY_MADS = 4.0

#: Summary metrics charted per config, in render order.
_TRAJECTORY_METRICS = (
    ("translate_seconds_total", "wall time (s)"),
    ("work.opt.visits", "opt visits"),
    ("work.pointsto.transfers", "points-to transfers"),
    ("work.codegen.instructions", "codegen instructions"),
    ("fences_elided_total", "fences elided (total)"),
    ("fences_elided_beyond_walk_total", "fences elided: escape"),
    ("fences_elided_interproc_total", "fences elided: interproc"),
    ("fences_elided_delayset_total", "fences elided: delayset"),
    ("fences_elided_sync_total", "fences elided: sync"),
    ("fencecheck_violations_total", "fencecheck violations"),
    ("racecheck_racy_total", "racecheck: racy accesses"),
    ("tv_proved_total", "tv: proved pass invocations"),
    ("tv_unknown_total", "tv: unknown pass invocations"),
    ("tv_refuted_total", "tv: refuted (miscompiles)"),
    ("peak_rss_bytes", "peak RSS (bytes)"),
)

_W, _H, _PAD = 260, 56, 6

_CSS = """
:root {
  --surface: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --series: #2a78d6;
  --grid: #e4e3df;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --series: #3987e5;
    --grid: #3a3937;
  }
}
[data-theme="light"] {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --series: #2a78d6; --grid: #e4e3df;
}
[data-theme="dark"] {
  --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
  --series: #3987e5; --grid: #3a3937;
}
body {
  background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif;
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
}
h1, h2, h3 { font-weight: 600; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
.sub { color: var(--ink-2); }
.grid {
  display: grid; gap: 1rem 1.5rem;
  grid-template-columns: repeat(auto-fill, minmax(280px, 1fr));
}
.spark { border: 1px solid var(--grid); border-radius: 6px;
         padding: .6rem .8rem; }
.spark .name { color: var(--ink-2); font-size: .82rem; }
.spark .value { font-size: 1.1rem; font-variant-numeric: tabular-nums; }
.spark svg { display: block; width: 100%; height: auto; margin-top: .3rem; }
.spark polyline { fill: none; stroke: var(--series); stroke-width: 2; }
.spark circle { fill: var(--series); }
.flag { color: var(--ink); font-size: .8rem; }
table { border-collapse: collapse; margin: .6rem 0;
        font-variant-numeric: tabular-nums; }
th, td { border-bottom: 1px solid var(--grid); padding: .25rem .6rem;
         text-align: right; }
th { color: var(--ink-2); font-weight: 500; }
th:first-child, td:first-child { text-align: left; }
details { margin: .4rem 0; }
summary { cursor: pointer; color: var(--ink); }
code { color: var(--ink-2); }
"""


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4f}".rstrip("0").rstrip(".")


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def anomalies(values: list[float], clean: list[bool],
              threshold: float = ANOMALY_MADS) -> list[bool]:
    """Flag points sitting > ``threshold`` MADs from the clean-history
    median (the regression gate's robust-noise policy)."""
    baseline = [v for v, ok in zip(values, clean) if ok]
    if len(baseline) < 3:
        return [False] * len(values)
    med = _median(baseline)
    mad = _mad(baseline, med)
    # A near-constant baseline has MAD ~ 0; floor the spread at 1% of
    # the median so ordinary jitter on a flat series is not flagged.
    spread = max(mad, abs(med) * 0.01, 1e-12)
    return [abs(v - med) / spread > threshold for v in values]


def _sparkline(values: list[float], flags: list[bool]) -> str:
    """One inline-SVG sparkline (polyline + last-point marker +
    anomaly markers).  Coordinates are rounded to fixed precision so
    the output is byte-stable."""
    n = len(values)
    if n == 0:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0

    def xy(i: int, v: float) -> tuple[float, float]:
        x = _PAD + (_W - 2 * _PAD) * (i / (n - 1) if n > 1 else 0.5)
        y = _H - _PAD - (_H - 2 * _PAD) * ((v - lo) / span)
        return round(x, 2), round(y, 2)

    points = " ".join(f"{x},{y}" for x, y in
                      (xy(i, v) for i, v in enumerate(values)))
    marks = []
    for i, (v, flagged) in enumerate(zip(values, flags)):
        if not flagged and i != n - 1:
            continue
        x, y = xy(i, v)
        r = 4 if flagged else 3
        marks.append(f'<circle cx="{x}" cy="{y}" r="{r}"/>')
        if flagged:
            ty = _PAD + 8 if y > _H / 2 else _H - _PAD
            marks.append(
                f'<text x="{x}" y="{ty}" font-size="9" '
                f'text-anchor="middle" fill="currentColor">'
                f'&#9650; anomaly</text>')
    return (f'<svg viewBox="0 0 {_W} {_H}" role="img" '
            f'aria-label="trend">'
            f'<polyline points="{points}"/>' + "".join(marks) + "</svg>")


def _series(store: Warehouse, runs: list[RunInfo], config: str,
            metric: str) -> Optional[tuple[list[float], list[bool]]]:
    values: list[float] = []
    clean: list[bool] = []
    present = False
    for run in runs:
        row = store.summary(run.id).get(config, {})
        if metric in row:
            present = True
        values.append(row.get(metric, 0.0))
        clean.append(not run.dirty)
    return (values, clean) if present else None


def _spark_card(name: str, values: list[float],
                flags: list[bool]) -> str:
    latest = values[-1]
    flagged = any(flags)
    flag_html = (' <span class="flag">&#9650; anomaly in history</span>'
                 if flagged else "")
    return (f'<div class="spark"><div class="name">{_esc(name)}</div>'
            f'<div class="value">{_fmt(latest)}{flag_html}</div>'
            f'{_sparkline(values, flags)}</div>')


def _trajectory_section(store: Warehouse, runs: list[RunInfo]) -> list[str]:
    out: list[str] = []
    configs = sorted({config for run in runs
                      for config in store.summary(run.id)})
    for config in configs:
        cards = []
        for metric, label in _TRAJECTORY_METRICS:
            series = _series(store, runs, config, metric)
            if series is None:
                continue
            values, clean = series
            cards.append(_spark_card(label, values,
                                     anomalies(values, clean)))
        if not cards:
            continue
        out.append(f"<h2>Trajectory — <code>{_esc(config)}</code></h2>")
        out.append('<div class="grid">' + "".join(cards) + "</div>")
    return out


def _health_section(store: Warehouse, runs: list[RunInfo]) -> list[str]:
    """Bench health: violations / racy totals across the trajectory plus
    the run list itself."""
    out = ["<h2>Runs</h2>",
           "<table><tr><th>sha</th><th>kind</th><th>timestamp</th>"
           "<th>size</th><th>dirty</th><th>bench v</th></tr>"]
    for run in runs:
        dirty = "&#9888; dirty" if run.dirty else "clean"
        out.append(
            f"<tr><td><code>{_esc(run.sha)}</code></td>"
            f"<td>{_esc(run.kind)}</td><td>{_esc(run.timestamp)}</td>"
            f"<td>{_esc(run.size)}</td><td>{dirty}</td>"
            f"<td>{_esc(run.version if run.version is not None else '')}"
            f"</td></tr>")
    out.append("</table>")
    return out


def _program_section(store: Warehouse, run: RunInfo) -> list[str]:
    metrics = store.program_metrics(run.id)
    if not metrics:
        return []
    out = [f"<h2>Per-program drill-down — <code>{_esc(run.sha)}</code>"
           "</h2>"]
    by_config: dict[str, list[tuple[str, dict[str, float]]]] = {}
    for (config, program), row in sorted(metrics.items()):
        by_config.setdefault(config, []).append((program, row))
    for config in sorted(by_config):
        rows = by_config[config]
        columns = sorted({metric for _, row in rows for metric in row})
        out.append(f"<details><summary><code>{_esc(config)}</code> "
                   f"({len(rows)} program(s))</summary>")
        out.append("<table><tr><th>program</th>"
                   + "".join(f"<th>{_esc(c)}</th>" for c in columns)
                   + "</tr>")
        for program, row in rows:
            cells = "".join(
                f"<td>{_fmt(row[c]) if c in row else '&middot;'}</td>"
                for c in columns)
            out.append(f"<tr><td>{_esc(program)}</td>{cells}</tr>")
        out.append("</table></details>")
    return out


def _ledger_section(store: Warehouse) -> list[str]:
    entries, failures, by_command = store.ledger_summary()
    if not entries:
        return []
    out = ["<h2>Ledger activity</h2>",
           f'<p class="sub">{entries} entries'
           + (f" &mdash; &#9888; {failures} non-zero exit(s)"
              if failures else ", all rc=0 or unrecorded") + "</p>",
           "<table><tr><th>command</th><th>entries</th></tr>"]
    for command in sorted(by_command):
        out.append(f"<tr><td><code>{_esc(command)}</code></td>"
                   f"<td>{by_command[command]}</td></tr>")
    out.append("</table>")
    return out


def build_dashboard(store: Warehouse, title: str = "repro dashboard") -> str:
    """Render the whole warehouse to one self-contained HTML page.

    Deterministic: equal warehouse contents yield byte-identical HTML.
    """
    runs = store.runs("bench")
    body: list[str] = [f"<h1>{_esc(title)}</h1>"]
    if runs:
        newest = runs[-1]
        body.append(
            f'<p class="sub">{len(runs)} bench run(s); newest '
            f'<code>{_esc(newest.sha)}</code>'
            f'{" (dirty)" if newest.dirty else ""}'
            f' at {_esc(newest.timestamp)}</p>')
        body += _trajectory_section(store, runs)
        body += _health_section(store, runs)
        body += _program_section(store, newest)
    else:
        body.append('<p class="sub">No bench runs ingested yet — run '
                    '<code>repro bench</code>.</p>')
    body += _ledger_section(store)
    return ("<!doctype html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">"
            f"<title>{_esc(title)}</title>"
            f"<style>{_CSS}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")


__all__ = ["ANOMALY_MADS", "anomalies", "build_dashboard"]
