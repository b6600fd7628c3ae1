"""Warehouse schema: versioned sqlite DDL with forward migrations.

The schema version lives in ``PRAGMA user_version``.  :func:`migrate`
applies every migration past the stored version in order, inside one
transaction per step, so a database created by an older build upgrades
in place the first time a newer build opens it — and a fresh database
is simply "migrate from 0".

Design notes:

* **Natural keys everywhere.**  Every fact table carries a UNIQUE
  constraint over its logical key and is written with ``INSERT OR
  REPLACE``, which is what makes re-ingesting the same artifact a
  no-op (idempotence is a tested contract, not a hope).
* **A run is the unit of comparison.**  One row in ``runs`` per
  recorded observation of the translator at a commit: a bench
  trajectory entry or a profile run.  Ledger entries are activity
  records, not comparable runs, so they live in their own
  content-hash-keyed table.
* **Narrow fact tables, one value per row** (``metric`` / ``value``),
  rather than wide ones: schema evolution in this repo has been a new
  counter or fence tier per PR, and a narrow layout absorbs those with
  zero DDL.
"""

from __future__ import annotations

import sqlite3

#: Current schema version (``PRAGMA user_version`` after migration).
SCHEMA_VERSION = 2

_V1_DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id        INTEGER PRIMARY KEY,
    kind      TEXT NOT NULL,          -- 'bench' | 'profile' | 'trace'
    sha       TEXT NOT NULL,
    dirty     INTEGER NOT NULL DEFAULT 0,
    timestamp TEXT NOT NULL DEFAULT '',
    size      TEXT NOT NULL DEFAULT '',
    version   INTEGER,
    source    TEXT NOT NULL DEFAULT '',
    UNIQUE (kind, sha, dirty, timestamp, size, source)
);

-- Per-config summary scalars of one run (translate_seconds_total,
-- fences_elided_*_total, work.<counter> totals, ...).
CREATE TABLE IF NOT EXISTS summary_metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    config TEXT NOT NULL,
    metric TEXT NOT NULL,
    value  REAL NOT NULL,
    UNIQUE (run_id, config, metric)
);

-- Deterministic work digests per config (noise-vs-real-change oracle).
CREATE TABLE IF NOT EXISTS summary_digests (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    config TEXT NOT NULL,
    digest TEXT NOT NULL,
    UNIQUE (run_id, config)
);

-- Per-(config, program) scalars from a bench snapshot's rows.
CREATE TABLE IF NOT EXISTS program_metrics (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    config  TEXT NOT NULL,
    program TEXT NOT NULL,
    metric  TEXT NOT NULL,
    value   REAL NOT NULL,
    UNIQUE (run_id, config, program, metric)
);

-- The attribution matrix: deterministic work per
-- (config, program, stage/pass, counter, function) cell.
CREATE TABLE IF NOT EXISTS work_cells (
    run_id   INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    config   TEXT NOT NULL,
    program  TEXT NOT NULL,
    stage    TEXT NOT NULL,
    counter  TEXT NOT NULL,
    function TEXT NOT NULL,
    value    INTEGER NOT NULL,
    UNIQUE (run_id, config, program, stage, counter, function)
);

-- Ledger activity lines, keyed by content hash (idempotent ingest).
CREATE TABLE IF NOT EXISTS ledger_entries (
    entry_hash    TEXT PRIMARY KEY,
    sha           TEXT NOT NULL DEFAULT 'unknown',
    dirty         INTEGER NOT NULL DEFAULT 0,
    timestamp     TEXT NOT NULL DEFAULT '',
    command       TEXT NOT NULL DEFAULT '',
    entry_schema  INTEGER,
    config_digest TEXT,
    rc            INTEGER,
    data          TEXT NOT NULL
);
"""

_V2_DDL = """
-- Collapsed-stack samples of a profile run (flamegraph diffs).
CREATE TABLE IF NOT EXISTS stacks (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    stack   TEXT NOT NULL,
    samples INTEGER NOT NULL,
    UNIQUE (run_id, stack)
);

CREATE INDEX IF NOT EXISTS idx_summary_metrics_run
    ON summary_metrics (run_id);
CREATE INDEX IF NOT EXISTS idx_program_metrics_run
    ON program_metrics (run_id);
CREATE INDEX IF NOT EXISTS idx_work_cells_run
    ON work_cells (run_id);
"""

#: Ordered migrations; ``MIGRATIONS[i]`` upgrades version i -> i+1.
MIGRATIONS: tuple[str, ...] = (_V1_DDL, _V2_DDL)


class SchemaTooNew(RuntimeError):
    """The database was migrated by a newer build than this one."""


def schema_version(conn: sqlite3.Connection) -> int:
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def migrate(conn: sqlite3.Connection) -> int:
    """Bring ``conn`` to :data:`SCHEMA_VERSION`; returns the number of
    migration steps applied (0 when already current)."""
    applied = 0
    version = schema_version(conn)
    if version > SCHEMA_VERSION:
        raise SchemaTooNew(
            f"warehouse schema v{version} is newer than this build "
            f"(v{SCHEMA_VERSION}); refusing to touch it")
    while version < SCHEMA_VERSION:
        with conn:  # one transaction per migration step
            conn.executescript(MIGRATIONS[version])
            version += 1
            conn.execute(f"PRAGMA user_version = {version}")
        applied += 1
    return applied
