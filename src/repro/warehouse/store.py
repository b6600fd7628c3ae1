"""The warehouse store: a thin, typed wrapper around one sqlite3 file.

One :class:`Warehouse` owns one connection (``:memory:`` or an on-disk
file, default ``.repro/warehouse.sqlite``), migrates it to the current
schema on open, and exposes the small upsert/query surface that run
recording, the trajectory ingest, ``repro diff``, ``repro dash`` and
``repro ledger`` are built on.

Run ordering is deterministic: ``(timestamp, sha, id)`` ascending, so
"latest" / "prev" selectors and every rendered report are reproducible
for identical inputs regardless of ingest order.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .schema import SCHEMA_VERSION, migrate, schema_version

#: Default on-disk location: the one run store.
DEFAULT_DB = ".repro/warehouse.sqlite"


@dataclass(frozen=True)
class RunInfo:
    """One comparable run (a bench trajectory entry or a profile run)."""

    id: int
    kind: str
    sha: str
    dirty: bool
    timestamp: str
    size: str
    version: Optional[int]
    source: str

    @property
    def label(self) -> str:
        mark = "*" if self.dirty else ""
        return f"{self.sha}{mark} ({self.kind}" + \
            (f", {self.size}" if self.size else "") + ")"


class Warehouse:
    """Cross-run observability store (see :mod:`repro.warehouse`)."""

    def __init__(self, path: Union[str, os.PathLike, None] = None) -> None:
        self.path = str(path) if path is not None else ":memory:"
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self.conn = sqlite3.connect(self.path)
        self.conn.execute("PRAGMA foreign_keys = ON")
        self.migrations_applied = migrate(self.conn)

    # ---- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return schema_version(self.conn)

    # ---- upserts (all idempotent via natural keys) -----------------------
    def upsert_run(self, kind: str, sha: str, dirty: bool,
                   timestamp: str = "", size: str = "",
                   version: Optional[int] = None,
                   source: str = "") -> int:
        """Insert-or-find a run row; returns its id."""
        key = (kind, sha, int(bool(dirty)), timestamp, size, source)
        row = self.conn.execute(
            "SELECT id FROM runs WHERE kind=? AND sha=? AND dirty=? "
            "AND timestamp=? AND size=? AND source=?", key).fetchone()
        if row is not None:
            if version is not None:
                self.conn.execute(
                    "UPDATE runs SET version=? WHERE id=?",
                    (version, row[0]))
            return int(row[0])
        cur = self.conn.execute(
            "INSERT INTO runs (kind, sha, dirty, timestamp, size, version, "
            "source) VALUES (?,?,?,?,?,?,?)", key[:5] + (version, key[5]))
        return int(cur.lastrowid)

    def put_summary_metric(self, run_id: int, config: str, metric: str,
                           value: float) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO summary_metrics VALUES (?,?,?,?)",
            (run_id, config, metric, float(value)))

    def put_digest(self, run_id: int, config: str, digest: str) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO summary_digests VALUES (?,?,?)",
            (run_id, config, digest))

    def put_program_metric(self, run_id: int, config: str, program: str,
                           metric: str, value: float) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO program_metrics VALUES (?,?,?,?,?)",
            (run_id, config, program, metric, float(value)))

    def put_work_cell(self, run_id: int, config: str, program: str,
                      stage: str, counter: str, function: str,
                      value: int) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO work_cells VALUES (?,?,?,?,?,?,?)",
            (run_id, config, program, stage, counter, function, int(value)))

    def put_stack(self, run_id: int, stack: str, samples: int) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO stacks VALUES (?,?,?)",
            (run_id, stack, int(samples)))

    def put_ledger_entry(self, entry: dict) -> None:
        """One ledger entry, keyed by the sha256 of its canonical JSON
        (recording the same entry twice leaves one row)."""
        canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        rc = entry.get("rc")
        self.conn.execute(
            "INSERT OR REPLACE INTO ledger_entries VALUES (?,?,?,?,?,?,?,?,?)",
            (hashlib.sha256(canonical.encode()).hexdigest(),
             str(entry.get("sha", "unknown")),
             int(bool(entry.get("dirty", False))),
             str(entry.get("timestamp", "")), str(entry.get("command", "")),
             entry.get("schema"), entry.get("config_digest"),
             int(rc) if isinstance(rc, (int, bool)) else None, canonical))

    def gc_ledger(self, keep: int) -> int:
        """Delete all but the newest ``keep`` ledger entries; returns
        the number deleted."""
        cur = self.conn.execute(
            "DELETE FROM ledger_entries WHERE entry_hash NOT IN ("
            "SELECT entry_hash FROM ledger_entries "
            "ORDER BY timestamp DESC, rowid DESC LIMIT ?)", (keep,))
        self.conn.commit()
        return cur.rowcount

    def commit(self) -> None:
        self.conn.commit()

    # ---- queries ---------------------------------------------------------
    def runs(self, kind: Optional[str] = None) -> list[RunInfo]:
        """Every run, oldest first (deterministic order)."""
        sql = ("SELECT id, kind, sha, dirty, timestamp, size, version, "
               "source FROM runs")
        params: tuple = ()
        if kind is not None:
            sql += " WHERE kind=?"
            params = (kind,)
        sql += " ORDER BY timestamp, sha, id"
        return [RunInfo(r[0], r[1], r[2], bool(r[3]), r[4], r[5], r[6], r[7])
                for r in self.conn.execute(sql, params)]

    def run(self, run_id: int) -> Optional[RunInfo]:
        for info in self.runs():
            if info.id == run_id:
                return info
        return None

    def resolve(self, selector: str,
                kind: Optional[str] = "bench") -> Optional[RunInfo]:
        """Resolve a CLI run selector to a run.

        Selectors (newest-first view over runs of ``kind``, or all
        kinds when ``kind`` is None):

        * ``latest`` — the newest run,
        * ``prev`` — the second-newest,
        * ``latest-clean`` / ``prev-clean`` — same, dirty runs skipped,
        * ``@N`` — the N-th newest (``@0`` == ``latest``),
        * anything else — a SHA prefix (newest matching run wins).
        """
        ordered = list(reversed(self.runs(kind)))
        if not ordered:
            return None
        if selector in ("latest", "HEAD"):
            return ordered[0]
        if selector == "prev":
            return ordered[1] if len(ordered) > 1 else None
        if selector in ("latest-clean", "prev-clean"):
            clean = [r for r in ordered if not r.dirty]
            index = 0 if selector == "latest-clean" else 1
            return clean[index] if len(clean) > index else None
        if selector.startswith("@"):
            try:
                index = int(selector[1:])
            except ValueError:
                return None
            return ordered[index] if 0 <= index < len(ordered) else None
        matches = [r for r in ordered if r.sha.startswith(selector)]
        return matches[0] if matches else None

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """config -> metric -> value for one run."""
        out: dict[str, dict[str, float]] = {}
        for config, metric, value in self.conn.execute(
                "SELECT config, metric, value FROM summary_metrics "
                "WHERE run_id=? ORDER BY config, metric", (run_id,)):
            out.setdefault(config, {})[metric] = value
        return out

    def digests(self, run_id: int) -> dict[str, str]:
        return {config: digest for config, digest in self.conn.execute(
            "SELECT config, digest FROM summary_digests WHERE run_id=? "
            "ORDER BY config", (run_id,))}

    def program_metrics(self, run_id: int) \
            -> dict[tuple[str, str], dict[str, float]]:
        """(config, program) -> metric -> value for one run."""
        out: dict[tuple[str, str], dict[str, float]] = {}
        for config, program, metric, value in self.conn.execute(
                "SELECT config, program, metric, value FROM program_metrics "
                "WHERE run_id=? ORDER BY config, program, metric", (run_id,)):
            out.setdefault((config, program), {})[metric] = value
        return out

    def work_cells(self, run_id: int) \
            -> dict[tuple[str, str, str, str, str], int]:
        """(config, program, stage, counter, function) -> count."""
        return {
            (r[0], r[1], r[2], r[3], r[4]): int(r[5])
            for r in self.conn.execute(
                "SELECT config, program, stage, counter, function, value "
                "FROM work_cells WHERE run_id=? "
                "ORDER BY config, program, stage, counter, function",
                (run_id,))
        }

    def stacks(self, run_id: int) -> dict[str, int]:
        return {stack: int(n) for stack, n in self.conn.execute(
            "SELECT stack, samples FROM stacks WHERE run_id=? ORDER BY stack",
            (run_id,))}

    def ledger_entries(self) -> list[dict]:
        """Every well-formed ledger entry, oldest first — insertion order
        within one timestamp second (rows whose data is not a JSON object
        are skipped)."""
        out = []
        for (data,) in self.conn.execute(
                "SELECT data FROM ledger_entries "
                "ORDER BY timestamp, rowid"):
            try:
                entry = json.loads(data)
            except (TypeError, json.JSONDecodeError):
                continue
            if isinstance(entry, dict):
                out.append(entry)
        return out

    def ledger_summary(self) -> tuple[int, int, dict[str, int]]:
        """(entries, non-zero exits, command -> entries) over the
        ledger — ``repro ledger`` and the dashboard both print it."""
        by_command = {command: int(n) for command, n in self.conn.execute(
            "SELECT command, COUNT(*) FROM ledger_entries "
            "GROUP BY command ORDER BY command")}
        failures = self.conn.execute(
            "SELECT COUNT(*) FROM ledger_entries "
            "WHERE rc IS NOT NULL AND rc != 0").fetchone()[0]
        return sum(by_command.values()), int(failures), by_command

    def counts(self) -> dict[str, int]:
        """Row counts per table — the idempotence test's measuring stick."""
        tables = ("runs", "summary_metrics", "summary_digests",
                  "program_metrics", "work_cells", "stacks",
                  "ledger_entries")
        return {t: int(self.conn.execute(
            f"SELECT COUNT(*) FROM {t}").fetchone()[0]) for t in tables}


def open_warehouse(path: Union[str, os.PathLike, None] = None) -> Warehouse:
    """Open (creating/migrating as needed) the warehouse at ``path``,
    ``:memory:`` when ``path`` is None."""
    return Warehouse(path)


__all__ = ["DEFAULT_DB", "RunInfo", "SCHEMA_VERSION", "Warehouse",
           "open_warehouse"]
