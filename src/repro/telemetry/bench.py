"""Benchmark-trajectory emitter: the perf baseline future PRs report against.

Reuses the Phoenix suite (the §9 harness) to time *translation itself* —
not the translated program — for every pipeline configuration, and
records the static outputs that matter for a perf regression: Arm
instruction counts, fence counts, LIR size, and (since v3) provenance
coverage from the LIR→Arm source map.

Schema v3 also keeps a *trajectory*: ``write_bench`` appends one entry
per run — keyed by git SHA and UTC timestamp — to the ``trajectory``
list of the existing report file instead of overwriting history, so
``BENCH_translate.json`` records how the numbers moved across commits.

Schema v4 adds the elision-tier split: every translated row records
``fences_elided_interproc`` (accesses only the bottom-up callee
summaries prove thread-local) and ``fences_elided_delayset`` (fences a
companion ``--fence-analysis=delay-sets`` build classifies as covering
no critical cycle), and the benched program set gains ``demo``
(examples/demo.c) alongside the Phoenix kernels.  The fully-fenced
escape-analysis build remains the timed baseline; the delay-set build
contributes only its elision counter.

Schema v5 adds the binary-loader trajectory: a top-level ``loader``
section times :func:`repro.core.ingest_binary` over every checked-in
ELF64 fixture (``examples/elf/``) and records its coverage counters —
``functions_discovered``, ``externals_resolved``, ``externals_opaque``,
``data_symbols`` — with totals under ``summary["loader"]``, so a
catalog or triage regression (an external going opaque, a function no
longer discovered) shows up in ``BENCH_translate.json`` like a fence
regression would.

Schema v6 adds the deterministic cost dimension (``repro.profiler``):
every translated row carries ``work`` (deterministic work counters from
one instrumented extra build: instructions visited per pass, dataflow
fixpoint steps, points-to rounds, cycle-search expansions, fences
placed, Arm instructions emitted), ``work_digest`` (a sha256 over the
full stage x counter x function matrix — bit-identical across machines
for identical code and input) and ``peak_rss_bytes`` (tracemalloc peak
of the instrumented build).  The per-config ``summary`` rows carry the
merged counters, and the report gains a top-level ``profile_top``
section (top-10 self-sample frames plus per-stage shares from the
sampling profiler).  Trajectory entries now record ``dirty`` (was the
working tree uncommitted?) and are deduplicated by ``(sha, size)``
keeping the newest; the regression gate of
:mod:`repro.profiler.regression` ignores dirty entries.

Schema v7 adds the synchronization dimension: the companion elision
build now runs with ``--fence-analysis=sync`` (delay sets refined by the
pthread must-lockset analysis), so every translated row records
``fences_elided_delayset`` (total fences the delay-set machinery
removed), ``fences_elided_sync`` (the subset only the lockset refinement
could remove) and a ``racecheck`` pair (``racy`` /``lock_protected``
access counts from the static happens-before classifier over the
companion build's module).  Per-config summaries gain the matching
``fences_elided_sync_total`` / ``racecheck_racy_total`` /
``racecheck_lock_protected_total``, and the benched program set gains
``locked`` (examples/locked.c) so the sync tier always has a non-zero
data point.

Schema v8 adds the attribution matrix: every translated row (and every
loader row) carries ``work_cells`` — the sorted ``[stage, counter,
function, count]`` cells behind the ``work`` totals — so the warehouse
(:mod:`repro.warehouse`) can ingest per-pass × per-function cost and
``repro diff`` can rank stage×function deltas between two recorded
runs instead of only per-config counter totals.

Schema v9 adds the translation-validation dimension
(:mod:`repro.analysis.tv`): a companion tv-enabled build per
(program, config) — every config but ``lifted``, which runs no passes —
records per-row ``tv_proved`` / ``tv_unknown`` / ``tv_refuted`` verdict
counts plus the checker's own deterministic cost (``tv.checks``,
``tv.terms``, ``tv.confirms``, ``tv.proved``/``tv.unknown``/
``tv.refuted``) folded into ``work`` / ``work_cells``, with per-config
``tv_proved_total`` / ``tv_unknown_total`` / ``tv_refuted_total`` in the
summary.  A refutation appearing in the trajectory is a miscompile
regression, visible the same way a fencecheck violation would be.

Schema v10 moves the attribution matrix out of the tracked file: the
in-memory :func:`run_bench` report still carries ``work_cells`` on
every row, but :func:`write_bench` drops them, so
``BENCH_translate.json`` keeps only summaries, per-row totals and
digests.  ``repro bench`` records the run, cells included, straight
into the warehouse (:func:`repro.warehouse.record_bench`), under the
same run that re-ingesting the file yields.

CLI: ``python -m repro bench [--size tiny|small] [--repeats N] [--out FILE]
[--compare [REF]]``.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_VERSION = 10
DEFAULT_OUT = "BENCH_translate.json"


def git_sha() -> str:
    """Short git SHA of the working tree, or 'unknown' outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def git_dirty() -> bool:
    """True when the working tree has uncommitted changes (or git is
    unavailable — an unknown tree is not a clean baseline)."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        if out.returncode != 0:
            return True
        return bool(out.stdout.strip())
    except OSError:
        return True


def _example_source(name: str) -> Optional[str]:
    """An examples/ source relative to the repo checkout, if present."""
    path = Path(__file__).resolve().parents[3] / "examples" / name
    try:
        return path.read_text()
    except OSError:
        return None


def _elf_fixtures() -> list[Path]:
    """Checked-in ELF64 binaries (not their .c sources) under examples/elf."""
    root = Path(__file__).resolve().parents[3] / "examples" / "elf"
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir()
                  if p.is_file() and not p.suffix)


def bench_loader(repeats: int = 3) -> dict[str, dict]:
    """Time ELF ingestion per fixture and snapshot its coverage counters."""
    from ..core.pipeline import ingest_binary

    from ..profiler import workcounters
    from ..profiler.memory import measure_peak

    rows: dict[str, dict] = {}
    for path in _elf_fixtures():
        data = path.read_bytes()
        times = []
        report = None
        for _ in range(max(1, repeats)):
            start = perf_counter()
            _obj, report = ingest_binary(data)
            times.append(perf_counter() - start)
        times.sort()
        # One extra instrumented ingest: deterministic triage counters
        # plus the tracemalloc peak (the v6 cost dimension).
        with workcounters.collect() as wc:
            _, peak = measure_peak(ingest_binary, data)
        rows[path.name] = {
            "ingest_seconds": round(times[len(times) // 2], 6),
            "functions_discovered": len(report.functions),
            "externals_resolved": len(report.externals_resolved),
            "externals_opaque": len(report.externals_opaque),
            "data_symbols": report.data_symbols,
            "ok": report.ok,
            "work": wc.by_counter(),
            "work_cells": [list(cell) for cell in wc.cells()],
            "work_digest": wc.digest(),
            "peak_rss_bytes": peak,
        }
    return rows


def run_bench(size: str = "tiny", configs: Optional[list[str]] = None,
              repeats: int = 3, verify: bool = False) -> dict:
    """Time every (program, config) translation; median of ``repeats``."""
    from ..core.pipeline import CONFIGS, Lasagne
    from ..phoenix import SIZE_SMALL, SIZE_TINY, all_programs
    from ..phoenix.programs import PhoenixProgram
    from ..profiler import workcounters
    from ..profiler.memory import measure_peak
    from ..profiler.sampler import SamplingProfiler
    from ..provenance import SourceMap

    sizes = SIZE_TINY if size == "tiny" else SIZE_SMALL
    configs = list(configs or CONFIGS)
    lasagne = Lasagne(verify=verify)
    # The companion elision build runs the full tier stack (delay sets +
    # lockset/sync refinement) so one extra build yields both counters.
    delayset_lasagne = Lasagne(verify=False, fence_analysis="sync")
    # Companion translation-validation build (v9): per-pass refinement
    # verdicts plus the checker's own tv.* work counters.
    tv_lasagne = Lasagne(tv=True)
    bench_programs = all_programs(sizes)
    demo_src = _example_source("demo.c")
    if demo_src is not None:
        bench_programs.append(PhoenixProgram("demo", "DM", demo_src))
    locked_src = _example_source("locked.c")
    if locked_src is not None:
        bench_programs.append(PhoenixProgram("locked", "LK", locked_src))
    programs: dict[str, dict[str, dict]] = {}
    config_work: dict[str, "workcounters.WorkCounters"] = {
        c: workcounters.WorkCounters() for c in configs}
    config_peak: dict[str, int] = {c: 0 for c in configs}
    sampler = SamplingProfiler(hz=97.0)
    sampler.start()
    for program in bench_programs:
        per_config: dict[str, dict] = {}
        for config in configs:
            times = []
            built = None
            for _ in range(max(1, repeats)):
                start = perf_counter()
                built = lasagne.build(program.source, config)
                times.append(perf_counter() - start)
            times.sort()
            # One instrumented extra build per (program, config): the
            # deterministic work counters and tracemalloc peak (v6).
            with workcounters.collect() as wc:
                _, peak = measure_peak(lasagne.build, program.source, config)
            # Companion tv-enabled build (v9): per-pass refinement
            # verdicts for this row; only the checker's own tv.* cells
            # fold into the work matrix (the rest of that build would
            # double-count the baseline's pipeline work).
            tv_counts = {"proved": 0, "unknown": 0, "refuted": 0}
            if config != "lifted":
                with workcounters.collect() as tv_wc:
                    tv_built = tv_lasagne.build(program.source, config)
                tv_counts = tv_built.tv_report.counts()
                for stage, counter, function, n in tv_wc.cells():
                    if counter.startswith("tv."):
                        wc.add(stage, counter, function, n)
            config_work[config].merge(wc)
            config_peak[config] = max(config_peak[config], peak)
            fencecheck_violations = 0
            if config != "native":
                from ..analysis import check_module

                fencecheck_violations = len(check_module(built.module))
            row = {
                "translate_seconds": round(times[len(times) // 2], 6),
                "arm_instructions": built.arm_instructions,
                "lir_instructions": built.lir_instructions,
                "fences": built.fences,
                "fences_naive": built.fences_naive,
                "fences_elided": built.fences_elided,
                "fences_elided_beyond_walk": built.fences_elided_beyond_walk,
                "fences_elided_interproc": built.fences_elided_interproc,
                "fencecheck_violations": fencecheck_violations,
                "tv_proved": tv_counts["proved"],
                "tv_unknown": tv_counts["unknown"],
                "tv_refuted": tv_counts["refuted"],
                "work": wc.by_counter(),
                "work_cells": [list(cell) for cell in wc.cells()],
                "peak_rss_bytes": peak,
            }
            if config != "native":
                # Companion sync-refined build: same program/config with
                # the critical-cycle + lockset tiers on, recorded for its
                # elisions and race classification only (the timed
                # escape-analysis build stays the baseline).
                from ..analysis.racecheck import classify_module

                ds = delayset_lasagne.build(program.source, config)
                row["fences_elided_delayset"] = ds.fences_elided_delayset
                row["fences_elided_sync"] = ds.fences_elided_sync
                race = classify_module(ds.module)
                row["racecheck"] = {
                    "racy": race.count("racy"),
                    "lock_protected": race.count("lock-protected"),
                }
                # Native code has no x86 lineage; coverage is meaningful
                # only for translated configurations.
                cov = SourceMap.from_program(built.program).coverage()
                row["provenance"] = {
                    "instruction_pct": round(cov.instruction_pct, 2),
                    "memory_pct": round(cov.memory_pct, 2),
                    "fence_pct": round(cov.fence_pct, 2),
                }
            per_config[config] = row
        programs[program.name] = per_config

    summary: dict[str, dict] = {}
    for config in configs:
        rows = [programs[name][config] for name in programs]
        summary[config] = {
            "translate_seconds_total": round(
                sum(r["translate_seconds"] for r in rows), 6),
            "arm_instructions_total": sum(r["arm_instructions"] for r in rows),
            "fences_total": sum(r["fences"] for r in rows),
            "fences_elided_total": sum(r["fences_elided"] for r in rows),
            "fences_elided_beyond_walk_total": sum(
                r["fences_elided_beyond_walk"] for r in rows),
            "fences_elided_interproc_total": sum(
                r["fences_elided_interproc"] for r in rows),
            "fencecheck_violations_total": sum(
                r["fencecheck_violations"] for r in rows),
            "tv_proved_total": sum(r["tv_proved"] for r in rows),
            "tv_unknown_total": sum(r["tv_unknown"] for r in rows),
            "tv_refuted_total": sum(r["tv_refuted"] for r in rows),
        }
        summary[config]["work"] = config_work[config].by_counter()
        summary[config]["work_digest"] = config_work[config].digest()
        summary[config]["peak_rss_bytes"] = config_peak[config]
        if config != "native":
            summary[config]["fences_elided_delayset_total"] = sum(
                r["fences_elided_delayset"] for r in rows)
            summary[config]["fences_elided_sync_total"] = sum(
                r["fences_elided_sync"] for r in rows)
            summary[config]["racecheck_racy_total"] = sum(
                r["racecheck"]["racy"] for r in rows)
            summary[config]["racecheck_lock_protected_total"] = sum(
                r["racecheck"]["lock_protected"] for r in rows)
            summary[config]["provenance_memory_pct_min"] = min(
                r["provenance"]["memory_pct"] for r in rows)
            summary[config]["provenance_fence_pct_min"] = min(
                r["provenance"]["fence_pct"] for r in rows)
    loader_rows = bench_loader(repeats)
    if loader_rows:
        loader_work: dict[str, int] = {}
        for r in loader_rows.values():
            for counter, n in r.get("work", {}).items():
                loader_work[counter] = loader_work.get(counter, 0) + n
        summary["loader"] = {
            "ingest_seconds_total": round(
                sum(r["ingest_seconds"] for r in loader_rows.values()), 6),
            "functions_discovered": sum(
                r["functions_discovered"] for r in loader_rows.values()),
            "externals_resolved": sum(
                r["externals_resolved"] for r in loader_rows.values()),
            "externals_opaque": sum(
                r["externals_opaque"] for r in loader_rows.values()),
            "work": loader_work,
            "peak_rss_bytes": max(
                (r.get("peak_rss_bytes", 0) for r in loader_rows.values()),
                default=0),
        }
    profile = sampler.stop()
    return {
        "version": BENCH_VERSION,
        "size": size,
        "repeats": repeats,
        "configs": configs,
        "programs": programs,
        "loader": loader_rows,
        "summary": summary,
        "profile_top": profile.to_dict(top=10),
    }


def _load_trajectory(path: Path) -> list[dict]:
    """Prior trajectory entries from an existing report (any version)."""
    if not path.exists():
        return []
    try:
        old = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(old, dict):
        return []
    trajectory = old.get("trajectory", [])
    return trajectory if isinstance(trajectory, list) else []


def read_trajectory(path: str = DEFAULT_OUT) -> list[dict]:
    """Public trajectory reader (``repro bench --compare`` gates on it
    *before* the new entry is appended)."""
    return _load_trajectory(Path(path))


def _dedupe_trajectory(trajectory: list[dict]) -> list[dict]:
    """Keep the *newest* entry per ``(sha, size)``: re-running the bench
    on the same commit replaces its data point instead of stacking
    duplicates that would skew the baseline median.  Entries from dirty
    working trees never collapse a clean one (and vice versa) — a dirty
    tree's numbers describe different code than the commit's."""
    keep: list[dict] = []
    seen: set[tuple] = set()
    for entry in reversed(trajectory):
        if not isinstance(entry, dict):
            continue
        key = (entry.get("sha"), entry.get("size"),
               bool(entry.get("dirty")))
        if key in seen:
            continue
        seen.add(key)
        keep.append(entry)
    return list(reversed(keep))


def _without_cells(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "work_cells"}


def write_bench(report: dict, path: str = DEFAULT_OUT) -> Path:
    """Write the report, *appending* a trajectory entry for this run.

    The snapshot fields (``programs``/``summary``) always reflect the
    latest run, without the rows' ``work_cells`` (v10: the warehouse
    holds them); ``trajectory`` accumulates one ``{sha, timestamp,
    size, dirty, summary}`` entry per invocation so history survives
    rewrites, deduplicated by ``(sha, size)`` keeping the newest.
    """
    out = Path(path)
    trajectory = _load_trajectory(out)
    trajectory.append({
        "sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "size": report.get("size"),
        "dirty": git_dirty(),
        "version": report.get("version"),
        "summary": report.get("summary", {}),
    })
    full = dict(report)
    if "programs" in report:
        full["programs"] = {
            program: {config: _without_cells(row)
                      for config, row in configs.items()}
            for program, configs in report["programs"].items()}
    if "loader" in report:
        full["loader"] = {program: _without_cells(row)
                          for program, row in report["loader"].items()}
    full["trajectory"] = _dedupe_trajectory(trajectory)
    out.write_text(json.dumps(full, indent=2) + "\n")
    return out
