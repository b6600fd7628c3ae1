"""Attribution report: samples × work counters × memory, in one place.

``repro profile`` drives one translation repeatedly under the sampling
profiler, the deterministic work-counter collector and the memory
accountant, then renders the three views side by side:

* **stage shares** — the fraction of wall-clock samples per pipeline
  stage (noisy, but honest about time),
* **work matrices** — the per-pass × per-function deterministic cost
  matrix ("gvn spent 38% of its opt.visits in ``@main``"),
* **memory** — tracemalloc peak/delta per stage.

:func:`render_report` is the human view; :func:`report_to_dict` feeds
``--json``; :func:`repro.warehouse.record_profile` records the run in
the warehouse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .memory import MemoryAccountant
from .sampler import Profile
from .workcounters import WorkCounters


@dataclass
class AttributionReport:
    """Everything one ``repro profile`` run learned."""

    source: str
    config: str
    builds: int
    profile: Profile
    counters: WorkCounters
    memory: Optional[MemoryAccountant] = None


def _pct(n: float, total: float) -> str:
    return f"{100.0 * n / total:5.1f}%" if total else "    -"


def hot_cells(counters: WorkCounters, counter: str,
              k: int = 5) -> list[tuple[str, str, int, float]]:
    """Top-k (stage, function, count, share) cells of one work matrix."""
    matrix = counters.matrix(counter)
    total = sum(sum(row.values()) for row in matrix.values())
    cells = [(stage, fn, n) for stage, row in matrix.items()
             for fn, n in row.items()]
    cells.sort(key=lambda c: (-c[2], c[0], c[1]))
    return [(stage, fn, n, (n / total if total else 0.0))
            for stage, fn, n in cells[:k]]


def render_report(report: AttributionReport, top: int = 10) -> str:
    lines: list[str] = []
    prof = report.profile
    lines.append(
        f"== repro profile: {report.source} ({report.config}) ==")
    lines.append(
        f"{report.builds} build(s), {prof.total} samples at "
        f"{prof.hz:g} Hz over {prof.duration:.2f}s "
        f"({prof.known_stage_pct():.1f}% attributed to known stages)")

    shares = prof.stage_shares()
    if shares:
        lines.append("")
        lines.append("-- stage attribution (wall-clock samples) --")
        for stage, share in sorted(shares.items(),
                                   key=lambda kv: -kv[1]):
            lines.append(f"  {stage:<12} {_pct(share, 1.0)}")

    frames = prof.top_frames(top)
    if frames:
        lines.append("")
        lines.append(f"-- top {len(frames)} frames (self samples) --")
        for frame, n, pct in frames:
            lines.append(f"  {frame:<52} {n:>6}  {pct:5.1f}%")

    by_counter = report.counters.by_counter()
    if by_counter:
        lines.append("")
        lines.append("-- deterministic work counters (per build) --")
        builds = max(1, report.builds)
        for counter, total in by_counter.items():
            lines.append(f"  {counter:<28} {total // builds:>12}")
        lines.append(f"  digest: {report.counters.digest()[:16]}… "
                     "(reproducible across machines)")
        for counter in ("opt.visits", "dataflow.steps",
                        "pointsto.transfers", "codegen.instructions"):
            cells = hot_cells(report.counters, counter, k=3)
            if not cells:
                continue
            lines.append(f"  hottest {counter}:")
            for stage, fn, n, share in cells:
                lines.append(
                    f"    {stage:<14} {fn:<24} {n:>10}  {_pct(share, 1.0)}")

    if report.memory is not None and report.memory.stages:
        lines.append("")
        lines.append("-- memory (tracemalloc peak / net delta per stage) --")
        for name, row in sorted(report.memory.to_dict().items()):
            lines.append(
                f"  {name:<12} peak {row['peak_bytes'] / 1e6:8.2f} MB   "
                f"delta {row['delta_bytes'] / 1e6:+8.2f} MB   "
                f"({row['calls']} call(s))")
    return "\n".join(lines)


def report_to_dict(report: AttributionReport, top: int = 10) -> dict:
    """JSON artifact of one profile run.

    Each artifact is self-describing: it carries the git SHA + dirty
    flag of the code that produced it and the full collapsed-stack
    profile, not just the top-frame summary.
    """
    from ..telemetry.bench import git_dirty, git_sha

    out = {
        "source": report.source,
        "config": report.config,
        "builds": report.builds,
        "sha": git_sha(),
        "dirty": git_dirty(),
        "profile": report.profile.to_dict(top),
        "collapsed": report.profile.collapsed(),
        "work": report.counters.to_dict(),
    }
    if report.memory is not None:
        out["memory"] = report.memory.to_dict()
    return out
