"""Ingest and record: how runs get into the warehouse.

Commands that produce a run write it straight into the store:
:func:`record_bench` for ``repro bench`` and :func:`record_profile` for
``repro profile`` (ledger entries go through
:meth:`Warehouse.put_ledger_entry`).  The one file the warehouse
ingests is the tracked trajectory, ``BENCH_translate.json``, which
travels with git.

Ingest is **idempotent**: facts are keyed by their natural key (run
identity + metric name) and written with ``INSERT OR REPLACE``, so
ingesting the same file twice leaves the store byte-for-byte
identical.  That property is what lets every ``repro diff`` / ``dash``
re-ingest the trajectory without bookkeeping.

What maps to what:

* each ``trajectory`` entry of ``BENCH_translate.json`` becomes one
  ``bench`` run with per-config summary metrics (scalars plus flattened
  ``work.<counter>`` totals) and the deterministic ``work_digest``;
* the file's current snapshot (``programs`` / ``loader`` sections)
  attaches to the *newest* trajectory entry as per-program metrics,
  with nested ``racecheck.*`` / ``provenance.*`` scalars flattened;
* the stage×counter×function ``work_cells`` matrix is not in the file
  (bench schema v10): :func:`record_bench` stores the run's cells from
  the in-memory report, on the run re-ingesting the file yields;
* a ``repro profile`` run stores its work cells, counter totals, digest
  and collapsed-stack samples (flamegraph diffs).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from .store import Warehouse

_PathLike = Union[str, os.PathLike]

#: Nested program-row dicts flattened to dotted scalar metrics.
_NESTED_PROGRAM_KEYS = ("racecheck", "provenance")


def _num(value: object) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _scalars(row: dict, nested: tuple[str, ...] = ()):
    """(metric, value) for every numeric scalar of ``row``, flattening
    ``work`` totals to ``work.<counter>`` and each ``nested`` dict to
    ``<key>.<sub>``."""
    for key in sorted(row):
        value = row[key]
        if isinstance(value, dict) and (key == "work" or key in nested):
            for sub in sorted(value):
                n = _num(value[sub])
                if n is not None:
                    yield f"{key}.{sub}", n
            continue
        n = _num(value)
        if n is not None:
            yield key, n


def _put_program_row(store: Warehouse, run_id: int, config: str,
                     program: str, row: dict) -> None:
    """One bench ``programs[program][config]`` (or loader) row."""
    for metric, n in _scalars(row, _NESTED_PROGRAM_KEYS):
        store.put_program_metric(run_id, config, program, metric, n)


def ingest_bench(store: Warehouse, path: _PathLike) -> Optional[int]:
    """Ingest ``BENCH_translate.json``; returns the id of its newest
    run (the one the snapshot attaches to), None for no trajectory."""
    path = Path(path)
    data = json.loads(path.read_text())
    source = path.name
    trajectory = data.get("trajectory") or []

    newest_run_id: Optional[int] = None
    newest_key: tuple = ()
    for entry in trajectory:
        sha = str(entry.get("sha", "unknown"))
        dirty = bool(entry.get("dirty", False))
        timestamp = str(entry.get("timestamp", ""))
        size = str(entry.get("size", ""))
        version = entry.get("version")
        run_id = store.upsert_run(
            "bench", sha, dirty, timestamp, size,
            int(version) if version is not None else None, source)
        for config in sorted(entry.get("summary") or {}):
            row = entry["summary"][config]
            if not isinstance(row, dict):
                continue
            for metric, n in _scalars(row):
                store.put_summary_metric(run_id, config, metric, n)
            digest = row.get("work_digest")
            if isinstance(digest, str) and digest:
                store.put_digest(run_id, config, digest)
        key = (timestamp, sha)
        if key >= newest_key:
            newest_key, newest_run_id = key, run_id

    # The file's snapshot sections describe the run that last wrote the
    # file, i.e. the newest trajectory entry.
    if newest_run_id is not None:
        for program in sorted(data.get("programs") or {}):
            configs = data["programs"][program]
            if not isinstance(configs, dict):
                continue
            for config in sorted(configs):
                row = configs[config]
                if isinstance(row, dict):
                    _put_program_row(store, newest_run_id, config, program,
                                     row)
        for program in sorted(data.get("loader") or {}):
            row = data["loader"][program]
            if isinstance(row, dict):
                _put_program_row(store, newest_run_id, "loader", program,
                                 row)
    store.commit()
    return newest_run_id


def _put_cells(store: Warehouse, run_id: int, config: str, program: str,
               cells) -> None:
    for stage, counter, function, count in cells:
        store.put_work_cell(run_id, config, program, stage, counter,
                            function, count)


def record_bench(store: Warehouse, report: dict, path: _PathLike) -> None:
    """Record one ``repro bench`` run: ingest the file ``write_bench``
    just wrote (this run is its newest entry), then store the run's
    work cells from the in-memory ``report``."""
    run_id = ingest_bench(store, path)
    for program, configs in sorted(report.get("programs", {}).items()):
        for config, row in sorted(configs.items()):
            _put_cells(store, run_id, config, program,
                       row.get("work_cells", ()))
    for program, row in sorted(report.get("loader", {}).items()):
        _put_cells(store, run_id, "loader", program,
                   row.get("work_cells", ()))


def record_profile(store: Warehouse, report) -> int:
    """Record one ``repro profile`` run (a
    :class:`repro.profiler.AttributionReport`): work cells, counter
    totals and digest, collapsed-stack samples, build count and sampler
    totals.  Returns the run id."""
    from ..telemetry.bench import git_dirty, git_sha

    config, program = report.config, report.source
    run_id = store.upsert_run(
        "profile", git_sha(), git_dirty(),
        datetime.now(timezone.utc).isoformat(timespec="seconds"),
        source=program)
    wc = report.counters
    _put_cells(store, run_id, config, program, wc.cells())
    for counter, total in wc.by_counter().items():
        store.put_summary_metric(run_id, config, f"work.{counter}", total)
    store.put_digest(run_id, config, wc.digest())
    prof = report.profile
    for stack, samples in prof.samples.items():
        store.put_stack(run_id, ";".join(stack), samples)
    store.put_summary_metric(run_id, config, "builds", report.builds)
    for key, value in (("total", prof.total), ("duration", prof.duration),
                       ("hz", prof.hz)):
        store.put_summary_metric(run_id, config, f"profile.{key}", value)
    return run_id


__all__ = ["ingest_bench", "record_bench", "record_profile"]


