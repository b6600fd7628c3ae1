"""Parallel corpus runner for the differential oracle.

Drives :func:`repro.validate.oracle.run_oracle` over a stream of generated
programs with a ``multiprocessing`` worker pool, a persistent on-disk
corpus, a crash directory and a machine-readable JSON report.

Corpus layout (``.validate-corpus/`` by default)::

    corpus/   seed-<seed>.c          sampled generated programs; replayed
                                     first on the next run as a regression
                                     corpus
    crashes/  <stage>-<kind>-<id>.c  the diverging program
              <stage>-<kind>-<id>.json   divergence metadata
              <stage>-<kind>-<id>.min.c  shrunk reproducer (with --shrink)
    report.json                      the last run's report

Task seeds are derived deterministically from the base seed and the task
index, so a run is reproducible regardless of ``--jobs`` and any diverging
program can be regenerated from its reported seed alone.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from .. import telemetry
from .generator import GenConfig, generate_program
from .oracle import OracleOptions, run_oracle
from .shrink import ShrinkStats, make_divergence_predicate, shrink

REPORT_VERSION = 1
CORPUS_CAP = 256          # max stored seed programs
SEED_STRIDE = 1_000_003   # task seed = base * STRIDE + index (prime stride)


@dataclass(frozen=True)
class RunnerOptions:
    seed: int = 0
    jobs: int = 1
    count: Optional[int] = 100
    minutes: Optional[float] = None
    shrink: bool = False
    shrink_attempts: int = 600
    corpus_dir: str = ".validate-corpus"
    # Telemetry: write a merged Chrome trace of every oracle run to this
    # path, and/or aggregate an optimization-remark histogram (filtered by
    # ``remark_filter``, a regex over remark origins) into the report.
    trace_file: Optional[str] = None
    collect_remarks: bool = False
    remark_filter: Optional[str] = None
    gen: GenConfig = field(default_factory=GenConfig)
    oracle: OracleOptions = field(default_factory=OracleOptions)


def _task_seed(base: int, index: int) -> int:
    return base * SEED_STRIDE + index


def _program_id(source: str) -> str:
    return hashlib.sha1(source.encode()).hexdigest()[:12]


def _stage_seconds(tracer: telemetry.Tracer) -> dict[str, float]:
    """Per-stage wall time summed across every pipeline run in the trace."""
    return {
        name: round(seconds, 6)
        for name, seconds in tracer.durations(category="stage").items()
    }


def _run_one(task) -> dict:
    """Worker entry: generate (or load) one program and judge it."""
    kind, payload, seed, opts = task
    source = payload if kind == "corpus" else generate_program(seed, opts.gen)
    started = time.monotonic()
    # Each program runs under its own telemetry session so the corpus
    # report can aggregate per-stage wall time (and, on request, a merged
    # Chrome trace and a remark histogram) even across worker processes.
    with telemetry.session(remarks=opts.collect_remarks,
                           remark_filter=opts.remark_filter) as tel:
        try:
            verdict = run_oracle(source, opts.oracle)
        except Exception as exc:  # noqa: BLE001 - an uncompilable generated program
            return {
                "origin": kind, "seed": seed, "ok": False, "stage": "generator",
                "kind": "crash", "rung": None, "signature": "generator:crash",
                "detail": f"{type(exc).__name__}: {exc}", "source": source,
                "elapsed": time.monotonic() - started,
                "stage_seconds": _stage_seconds(tel.tracer),
            }
    row = {
        "origin": kind, "seed": seed, "ok": verdict.ok,
        "elapsed": time.monotonic() - started,
        "stage_seconds": _stage_seconds(tel.tracer),
    }
    if opts.trace_file:
        row["trace_events"] = telemetry.to_chrome_trace(tel.tracer)["traceEvents"]
    if opts.collect_remarks:
        row["remark_histogram"] = tel.remarks.histogram()
    if not verdict.ok:
        div = verdict.divergence
        row.update(stage=div.stage, kind=div.kind, rung=div.rung,
                   signature=div.signature, detail=div.detail, source=source)
    return row


def _tasks(opts: RunnerOptions, corpus_files: list[Path]) -> Iterator[tuple]:
    for path in corpus_files:
        yield ("corpus", path.read_text(), None, opts)
    index = 0
    while opts.count is None or index < opts.count:
        yield ("generated", None, _task_seed(opts.seed, index), opts)
        index += 1
        if opts.count is None and opts.minutes is None and index >= 10_000:
            return  # safety backstop: never unbounded without a budget


def _take(iterator: Iterator[tuple], n: int) -> list[tuple]:
    batch = []
    for task in iterator:
        batch.append(task)
        if len(batch) >= n:
            break
    return batch


def _percentile(values: list[float], q: float) -> float:
    """Exact linear-interpolated quantile of sorted ``values`` (0 if empty)."""
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    return values[lo] * (1.0 - frac) + values[hi] * frac


def _timing_summary(rows: list[dict], slowest: int = 5) -> dict:
    """Wall-time distribution across programs + per-stage percentiles."""
    overall = sorted(row["elapsed"] for row in rows)
    per_stage: dict[str, list[float]] = {}
    for row in rows:
        for stage, seconds in row.get("stage_seconds", {}).items():
            per_stage.setdefault(stage, []).append(seconds)
    stages = {}
    for stage, values in sorted(per_stage.items()):
        values.sort()
        stages[stage] = {
            "total_seconds": round(sum(values), 6),
            "p50_seconds": round(_percentile(values, 0.50), 6),
            "p95_seconds": round(_percentile(values, 0.95), 6),
        }
    ranked = sorted(rows, key=lambda r: r["elapsed"], reverse=True)
    return {
        "min_seconds": round(overall[0] if overall else 0.0, 6),
        "median_seconds": round(_percentile(overall, 0.50), 6),
        "p95_seconds": round(_percentile(overall, 0.95), 6),
        "max_seconds": round(overall[-1] if overall else 0.0, 6),
        "mean_seconds": round(sum(overall) / len(overall)
                              if overall else 0.0, 6),
        "slowest": [
            {"seed": r.get("seed"), "origin": r["origin"],
             "elapsed_seconds": round(r["elapsed"], 6)}
            for r in ranked[:slowest]
        ],
        "stages": stages,
    }


def run_corpus(opts: RunnerOptions,
               progress: Optional[Callable[[dict], None]] = None) -> dict:
    """Run the corpus and return the JSON-serializable report."""
    root = Path(opts.corpus_dir)
    corpus_dir = root / "corpus"
    crash_dir = root / "crashes"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    crash_dir.mkdir(parents=True, exist_ok=True)

    corpus_files = sorted(corpus_dir.glob("*.c"))
    deadline = (time.monotonic() + opts.minutes * 60.0
                if opts.minutes is not None else None)
    started = time.monotonic()

    rows: list[dict] = []

    def consume(results: Iterator[dict]) -> None:
        for row in results:
            rows.append(row)
            if progress is not None:
                progress(row)
            if deadline is not None and time.monotonic() >= deadline:
                break

    task_iter = _tasks(opts, corpus_files)
    if opts.jobs <= 1:
        # Inline execution: deterministic order, and monkeypatched pipeline
        # stages (used by tests to inject bugs) stay in effect.
        def inline() -> Iterator[dict]:
            for task in task_iter:
                yield _run_one(task)
        consume(inline())
    else:
        # Submit in bounded waves: Pool.imap would slurp an unbounded task
        # iterator eagerly, which a --minutes run cannot afford.
        with multiprocessing.Pool(opts.jobs) as pool:
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                batch = _take(task_iter, opts.jobs * 8)
                if not batch:
                    break
                consume(pool.imap_unordered(_run_one, batch, chunksize=1))

    elapsed = time.monotonic() - started
    diverging = [r for r in rows if not r["ok"]]

    # Persist newly generated programs to the corpus (up to the cap).
    existing = len(corpus_files)
    for row in rows:
        if existing >= CORPUS_CAP:
            break
        if row["origin"] == "generated" and row["ok"]:
            source = generate_program(row["seed"], opts.gen)
            (corpus_dir / f"seed-{row['seed']}.c").write_text(source)
            existing += 1

    # Crash artifacts: one per divergence signature (first witness wins),
    # optionally shrunk.
    crashes: list[dict] = []
    seen_signatures: set[str] = set()
    for row in diverging:
        signature = row["signature"]
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        stem = (f"{row['stage']}-{row['kind']}-"
                f"{_program_id(row['source'])}")
        crash_c = crash_dir / f"{stem}.c"
        crash_c.write_text(row["source"])
        entry = {
            "file": str(crash_c), "stage": row["stage"], "kind": row["kind"],
            "rung": row.get("rung"), "seed": row.get("seed"),
            "signature": signature, "detail": row["detail"],
        }
        if opts.shrink and row["stage"] != "generator":
            stats = ShrinkStats()
            reduced = shrink(
                row["source"],
                make_divergence_predicate(signature, opts.oracle),
                max_attempts=opts.shrink_attempts, stats=stats)
            min_c = crash_dir / f"{stem}.min.c"
            min_c.write_text(reduced)
            entry["shrunk_file"] = str(min_c)
            entry["shrunk_lines"] = len(reduced.strip().splitlines())
            entry["shrink_attempts"] = stats.attempts
        (crash_dir / f"{stem}.json").write_text(json.dumps(entry, indent=2))
        crashes.append(entry)

    stage_histogram: dict[str, int] = {}
    kind_histogram: dict[str, int] = {}
    for row in diverging:
        stage_histogram[row["stage"]] = stage_histogram.get(row["stage"], 0) + 1
        kind_histogram[row["kind"]] = kind_histogram.get(row["kind"], 0) + 1

    # Merge per-program telemetry: an optional Chrome trace spanning every
    # oracle run and an optional remark histogram.
    if opts.trace_file is not None:
        events: list[dict] = []
        for row in rows:
            events.extend(row.pop("trace_events", []))
        Path(opts.trace_file).write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    remark_histogram: dict[str, int] = {}
    for row in rows:
        for key, n in row.pop("remark_histogram", {}).items():
            remark_histogram[key] = remark_histogram.get(key, 0) + n

    report = {
        "version": REPORT_VERSION,
        "seed": opts.seed,
        "jobs": opts.jobs,
        "requested": {"count": opts.count, "minutes": opts.minutes},
        "programs_run": len(rows),
        "corpus_replayed": sum(1 for r in rows if r["origin"] == "corpus"),
        "divergences": len(diverging),
        "stage_histogram": stage_histogram,
        "kind_histogram": kind_histogram,
        "crashes": crashes,
        "elapsed_seconds": round(elapsed, 3),
        "throughput_per_minute": round(len(rows) / elapsed * 60.0, 1)
        if elapsed > 0 else 0.0,
        "timing": _timing_summary(rows),
        "clean": not diverging,
    }
    if opts.collect_remarks:
        report["remark_histogram"] = dict(sorted(remark_histogram.items()))
    (root / "report.json").write_text(json.dumps(report, indent=2))
    return report
