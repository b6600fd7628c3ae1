"""``repro diff``: ranked, noise-aware deltas between two runs.

The join is by natural key — config for summary scalars, (config,
program, stage, counter, function) for work cells, frame for
flamegraph stacks — and every ranking is deterministic: absolute delta
descending, then key ascending, so the same two runs always render the
same report byte for byte.

The noise oracle is the deterministic work digest: when both runs
carry the same digest for a config, the pipeline performed *identical*
work there, so any wall-time delta is scheduler/machine noise; when
digests differ, the delta reflects a real algorithmic change.  Reports
label every time delta with that verdict instead of asking the reader
to guess.

Fence accounting is reported per elision tier so a shift between
tiers (e.g. the interprocedural analysis starting to catch fences the
delay-set tier used to) is visible even when the total is unchanged:

* ``walk`` — same-location walk (total minus the named tiers),
* ``escape`` — escape analysis beyond the walk (``beyond_walk``),
* ``interproc`` — interprocedural summaries,
* ``delayset`` — delay-set cycle pruning,
* ``sync`` — synchronization-refined (lock-protected) elision.

Translation-validation verdict totals (``tv_proved_total`` /
``tv_unknown_total`` / ``tv_refuted_total``, bench schema v9) get their
own section: a nonzero ``refuted`` on the candidate side is a
miscompile regression and is flagged loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .store import RunInfo, Warehouse

#: Named fence-elision tiers (summary metric suffix per tier).
FENCE_TIERS = (
    ("escape", "fences_elided_beyond_walk_total"),
    ("interproc", "fences_elided_interproc_total"),
    ("delayset", "fences_elided_delayset_total"),
    ("sync", "fences_elided_sync_total"),
)

#: Translation-validation verdict totals (summary metric per verdict).
TV_METRICS = (
    ("proved", "tv_proved_total"),
    ("unknown", "tv_unknown_total"),
    ("refuted", "tv_refuted_total"),
)

#: How many rows each ranked section keeps by default.
DEFAULT_TOP = 15


@dataclass
class DiffReport:
    """Everything ``repro diff A B`` computed, ready to render."""

    run_a: RunInfo
    run_b: RunInfo
    #: config -> {a, b, delta, pct, verdict('noise'|'work-change'|'unknown')}
    times: dict[str, dict] = field(default_factory=dict)
    #: ranked [(config, counter, a, b, delta)]
    counters: list[tuple[str, str, float, float, float]] = \
        field(default_factory=list)
    #: ranked [(config, program, stage, counter, function, a, b, delta)]
    cells: list[tuple[str, str, str, str, str, int, int, int]] = \
        field(default_factory=list)
    #: config -> tier -> {a, b, delta}
    fences: dict[str, dict[str, dict]] = field(default_factory=dict)
    #: config -> verdict ('proved'|'unknown'|'refuted') -> {a, b, delta}
    tv: dict[str, dict[str, dict]] = field(default_factory=dict)
    #: ranked [(stage/pass, a, b, delta)] for opt.* work (pass effect)
    passes: list[tuple[str, int, int, int]] = field(default_factory=list)
    #: ranked [(frame, a_samples, b_samples, delta_share)]
    frames: list[tuple[str, int, int, float]] = field(default_factory=list)


def _verdict(digest_a: Optional[str], digest_b: Optional[str]) -> str:
    if not digest_a or not digest_b:
        return "unknown"
    return "noise" if digest_a == digest_b else "work-change"


def _fence_tiers(row: dict[str, float]) -> dict[str, float]:
    total = row.get("fences_elided_total", 0.0)
    tiers = {name: row.get(metric, 0.0) for name, metric in FENCE_TIERS}
    tiers["walk"] = max(0.0, total - sum(tiers.values()))
    tiers["total"] = total
    return tiers


def diff_runs(store: Warehouse, run_a: RunInfo, run_b: RunInfo,
              top: int = DEFAULT_TOP) -> DiffReport:
    """Join two runs and rank every delta (A = baseline, B = candidate)."""
    report = DiffReport(run_a=run_a, run_b=run_b)
    summary_a = store.summary(run_a.id)
    summary_b = store.summary(run_b.id)
    digests_a = store.digests(run_a.id)
    digests_b = store.digests(run_b.id)
    configs = sorted(set(summary_a) | set(summary_b))

    counter_rows: list[tuple[str, str, float, float, float]] = []
    for config in configs:
        row_a = summary_a.get(config, {})
        row_b = summary_b.get(config, {})
        for key in ("translate_seconds_total", "ingest_seconds_total"):
            if key in row_a or key in row_b:
                a, b = row_a.get(key, 0.0), row_b.get(key, 0.0)
                report.times[config] = {
                    "metric": key,
                    "a": a,
                    "b": b,
                    "delta": b - a,
                    "pct": (100.0 * (b - a) / a) if a else 0.0,
                    "verdict": _verdict(digests_a.get(config),
                                        digests_b.get(config)),
                }
                break
        for metric in sorted(set(row_a) | set(row_b)):
            if not metric.startswith("work."):
                continue
            a, b = row_a.get(metric, 0.0), row_b.get(metric, 0.0)
            if a != b:
                counter_rows.append(
                    (config, metric[len("work."):], a, b, b - a))
        if any(m.startswith("fences_") for m in set(row_a) | set(row_b)):
            tiers_a = _fence_tiers(row_a)
            tiers_b = _fence_tiers(row_b)
            shifted = {
                tier: {"a": tiers_a[tier], "b": tiers_b[tier],
                       "delta": tiers_b[tier] - tiers_a[tier]}
                for tier in ("walk", "escape", "interproc", "delayset",
                             "sync", "total")
            }
            if any(row["delta"] for row in shifted.values()) or \
                    tiers_a["total"] or tiers_b["total"]:
                report.fences[config] = shifted
        if any(m.startswith("tv_") for m in set(row_a) | set(row_b)):
            verdicts = {
                name: {"a": row_a.get(metric, 0.0),
                       "b": row_b.get(metric, 0.0),
                       "delta": (row_b.get(metric, 0.0)
                                 - row_a.get(metric, 0.0))}
                for name, metric in TV_METRICS
            }
            if any(v["a"] or v["b"] for v in verdicts.values()):
                report.tv[config] = verdicts
    counter_rows.sort(key=lambda r: (-abs(r[4]), r[0], r[1]))
    report.counters = counter_rows[:top]

    cells_a = store.work_cells(run_a.id)
    cells_b = store.work_cells(run_b.id)
    if not (cells_a and cells_b):
        # Only one side carries an attribution matrix (e.g. a run only
        # ingested from the trajectory, which holds no cells, against
        # one `repro bench` recorded): pairwise cell deltas would all be
        # meaningless 0 -> X rows, so skip them and let the
        # summary-counter section carry the story.
        cells_a = cells_b = {}
    cell_rows: list[tuple[str, str, str, str, str, int, int, int]] = []
    pass_totals: dict[str, tuple[int, int]] = {}
    for key in set(cells_a) | set(cells_b):
        a, b = cells_a.get(key, 0), cells_b.get(key, 0)
        config, program, stage, counter, function = key
        if counter.startswith("opt."):
            pa, pb = pass_totals.get(stage or "(unscoped)", (0, 0))
            pass_totals[stage or "(unscoped)"] = (pa + a, pb + b)
        if a != b:
            cell_rows.append(
                (config, program, stage, counter, function, a, b, b - a))
    cell_rows.sort(key=lambda r: (-abs(r[7]), r[0], r[1], r[2], r[3], r[4]))
    report.cells = cell_rows[:top]
    report.passes = sorted(
        ((stage, a, b, b - a) for stage, (a, b) in pass_totals.items()
         if a != b),
        key=lambda r: (-abs(r[3]), r[0]))[:top]

    stacks_a = store.stacks(run_a.id)
    stacks_b = store.stacks(run_b.id)
    if stacks_a or stacks_b:
        total_a = sum(stacks_a.values()) or 1
        total_b = sum(stacks_b.values()) or 1
        frame_a: dict[str, int] = {}
        frame_b: dict[str, int] = {}
        for stacks, frames in ((stacks_a, frame_a), (stacks_b, frame_b)):
            for stack, n in stacks.items():
                leaf = stack.rsplit(";", 1)[-1]
                frames[leaf] = frames.get(leaf, 0) + n
        rows = []
        for frame in set(frame_a) | set(frame_b):
            a, b = frame_a.get(frame, 0), frame_b.get(frame, 0)
            share_delta = b / total_b - a / total_a
            if a != b or share_delta:
                rows.append((frame, a, b, round(share_delta, 6)))
        rows.sort(key=lambda r: (-abs(r[3]), r[0]))
        report.frames = rows[:top]
    return report


# ---- renderers --------------------------------------------------------------

def to_dict(report: DiffReport) -> dict:
    """JSON view (stable key order; byte-identical for equal inputs)."""
    return {
        "run_a": {"sha": report.run_a.sha, "dirty": report.run_a.dirty,
                  "timestamp": report.run_a.timestamp,
                  "kind": report.run_a.kind},
        "run_b": {"sha": report.run_b.sha, "dirty": report.run_b.dirty,
                  "timestamp": report.run_b.timestamp,
                  "kind": report.run_b.kind},
        "times": report.times,
        "counters": [list(r) for r in report.counters],
        "cells": [list(r) for r in report.cells],
        "fences": report.fences,
        "tv": report.tv,
        "passes": [list(r) for r in report.passes],
        "frames": [list(r) for r in report.frames],
    }


def to_json(report: DiffReport) -> str:
    return json.dumps(to_dict(report), sort_keys=True, indent=2) + "\n"


def _sign(x: float) -> str:
    return f"{x:+g}"


def render_text(report: DiffReport) -> str:
    lines = [f"== repro diff: {report.run_a.label} -> "
             f"{report.run_b.label} =="]
    if report.times:
        lines.append("")
        lines.append("-- wall time (digest verdict separates noise from "
                     "real work changes) --")
        for config in sorted(report.times):
            row = report.times[config]
            lines.append(
                f"  {config:<8} {row['a']:9.4f}s -> {row['b']:9.4f}s  "
                f"({row['delta']:+.4f}s, {row['pct']:+6.1f}%)  "
                f"[{row['verdict']}]")
    if report.counters:
        lines.append("")
        lines.append("-- work-counter deltas (ranked) --")
        for config, counter, a, b, delta in report.counters:
            lines.append(f"  {config:<8} {counter:<24} "
                         f"{a:12g} -> {b:12g}  ({_sign(delta)})")
    if report.cells:
        lines.append("")
        lines.append("-- stage x function work cells (ranked) --")
        for config, program, stage, counter, function, a, b, d in \
                report.cells:
            where = f"{stage or '(unscoped)'}:{function or '(module)'}"
            lines.append(f"  {config:<8} {program:<10} {where:<34} "
                         f"{counter:<22} {a:>10} -> {b:<10} ({_sign(d)})")
    if report.fences:
        lines.append("")
        lines.append("-- fence elisions per tier --")
        for config in sorted(report.fences):
            tiers = report.fences[config]
            parts = []
            for tier in ("walk", "escape", "interproc", "delayset",
                         "sync", "total"):
                row = tiers[tier]
                parts.append(f"{tier} {row['a']:g}->{row['b']:g}"
                             + (f" ({_sign(row['delta'])})"
                                if row["delta"] else ""))
            lines.append(f"  {config:<8} " + "  ".join(parts))
    if report.tv:
        lines.append("")
        lines.append("-- translation-validation verdicts "
                     "(refuted != 0 is a miscompile) --")
        for config in sorted(report.tv):
            verdicts = report.tv[config]
            parts = []
            for name, _metric in TV_METRICS:
                row = verdicts[name]
                parts.append(f"{name} {row['a']:g}->{row['b']:g}"
                             + (f" ({_sign(row['delta'])})"
                                if row["delta"] else ""))
            flag = "  !! REFUTED" if verdicts["refuted"]["b"] else ""
            lines.append(f"  {config:<8} " + "  ".join(parts) + flag)
    if report.passes:
        lines.append("")
        lines.append("-- pass effectiveness (opt.* work per pass) --")
        for stage, a, b, delta in report.passes:
            lines.append(f"  {stage:<22} {a:>12} -> {b:<12} "
                         f"({_sign(delta)})")
    if report.frames:
        lines.append("")
        lines.append("-- flamegraph frame share deltas (ranked) --")
        for frame, a, b, share in report.frames:
            lines.append(f"  {frame:<48} {a:>7} -> {b:<7} "
                         f"({share:+.2%} of samples)")
    if len(lines) == 1:
        lines.append("  (no differences)")
    return "\n".join(lines)


def render_markdown(report: DiffReport) -> str:
    lines = [f"## Diff: `{report.run_a.sha}` → `{report.run_b.sha}`", ""]
    if report.times:
        lines += ["### Wall time", "",
                  "| config | A (s) | B (s) | delta | verdict |",
                  "|---|---:|---:|---:|---|"]
        for config in sorted(report.times):
            row = report.times[config]
            lines.append(
                f"| {config} | {row['a']:.4f} | {row['b']:.4f} | "
                f"{row['delta']:+.4f} ({row['pct']:+.1f}%) | "
                f"{row['verdict']} |")
        lines.append("")
    if report.counters:
        lines += ["### Work counters", "",
                  "| config | counter | A | B | delta |",
                  "|---|---|---:|---:|---:|"]
        for config, counter, a, b, delta in report.counters:
            lines.append(f"| {config} | {counter} | {a:g} | {b:g} | "
                         f"{_sign(delta)} |")
        lines.append("")
    if report.cells:
        lines += ["### Stage × function cells", "",
                  "| config | program | stage | counter | function "
                  "| A | B | delta |",
                  "|---|---|---|---|---|---:|---:|---:|"]
        for config, program, stage, counter, function, a, b, d in \
                report.cells:
            lines.append(
                f"| {config} | {program} | {stage or '(unscoped)'} | "
                f"{counter} | {function or '(module)'} | {a} | {b} | "
                f"{_sign(d)} |")
        lines.append("")
    if report.fences:
        lines += ["### Fence elisions per tier", "",
                  "| config | walk | escape | interproc | delayset "
                  "| sync | total |",
                  "|---|---:|---:|---:|---:|---:|---:|"]
        for config in sorted(report.fences):
            tiers = report.fences[config]
            cells = []
            for tier in ("walk", "escape", "interproc", "delayset",
                         "sync", "total"):
                row = tiers[tier]
                cells.append(f"{row['a']:g}→{row['b']:g}")
            lines.append(f"| {config} | " + " | ".join(cells) + " |")
        lines.append("")
    if report.tv:
        lines += ["### Translation-validation verdicts", "",
                  "| config | proved | unknown | refuted |",
                  "|---|---:|---:|---:|"]
        for config in sorted(report.tv):
            verdicts = report.tv[config]
            cells = []
            for name, _metric in TV_METRICS:
                row = verdicts[name]
                cells.append(f"{row['a']:g}→{row['b']:g}")
            lines.append(f"| {config} | " + " | ".join(cells) + " |")
        lines.append("")
    if report.passes:
        lines += ["### Pass effectiveness (opt.* work)", "",
                  "| pass | A | B | delta |", "|---|---:|---:|---:|"]
        for stage, a, b, delta in report.passes:
            lines.append(f"| {stage} | {a} | {b} | {_sign(delta)} |")
        lines.append("")
    if report.frames:
        lines += ["### Flamegraph frames", "",
                  "| frame | A | B | share delta |", "|---|---:|---:|---:|"]
        for frame, a, b, share in report.frames:
            lines.append(f"| `{frame}` | {a} | {b} | {share:+.2%} |")
        lines.append("")
    if len(lines) == 2:
        lines.append("_No differences._")
    return "\n".join(lines).rstrip() + "\n"


__all__ = ["DEFAULT_TOP", "DiffReport", "FENCE_TIERS", "TV_METRICS",
           "diff_runs", "render_markdown", "render_text", "to_dict",
           "to_json"]
