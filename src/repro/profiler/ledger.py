"""Run ledger: one row per translator invocation, in the warehouse.

Every ``repro translate`` / ``validate`` / ``bench`` / ``profile`` run
records a single entry — UTC timestamp, git SHA + dirty flag, the
command, its configuration, the deterministic work-counter digest and
headline timings — in the ``ledger_entries`` table of the run store
(``.repro/warehouse.sqlite`` under the current directory, see
:mod:`repro.warehouse`), keyed by the sha256 of the entry's canonical
JSON.  ``repro ledger`` summarises the table; ``repro ledger --gc``
keeps only the newest entries.

Every entry is stamped with ``schema`` (this module's
:data:`LEDGER_SCHEMA`) and a ``config_digest`` — sha256 over the
canonical JSON of the caller-supplied configuration dict — so two
entries with the same digest describe runs of the *same* (command,
configuration) cell and are directly comparable.

Recording is best-effort: a read-only checkout or full disk must never
break a translation, so :func:`record_run` swallows ``sqlite3.Error``,
``OSError`` and :class:`~repro.warehouse.schema.SchemaTooNew` (a store
migrated by a newer build), and returns ``None`` instead of the store's
path.
``REPRO_LEDGER=0`` turns all recording off (ledger entries and the
bench/profile runs alike).
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

#: Entry schema version stamped on every entry (bump on layout changes).
LEDGER_SCHEMA = 2

#: Set ``REPRO_LEDGER=0`` to disable recording (e.g. in tests that must
#: not touch the working tree).
_DISABLE_ENV = "REPRO_LEDGER"


def config_digest(config: Optional[dict]) -> str:
    """sha256 (truncated) over the canonical JSON of a config dict.

    Entries sharing a digest ran the same (command, configuration)
    cell; the warehouse groups comparable runs by it.
    """
    canonical = json.dumps(config or {}, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def record_run(write: Callable, root: Optional[os.PathLike] = None) \
        -> Optional[Path]:
    """Open the run store under ``root``, call ``write(store)`` and
    commit; returns the store's path, or None if recording is disabled
    or the write failed."""
    if os.environ.get(_DISABLE_ENV, "") == "0":
        return None
    # Imported here: importing the profiler must not load sqlite3.
    import sqlite3

    from ..warehouse.schema import SchemaTooNew
    from ..warehouse.store import DEFAULT_DB, Warehouse

    path = Path(root or ".") / DEFAULT_DB
    try:
        with Warehouse(path) as store:
            write(store)
            store.commit()
    except (sqlite3.Error, OSError, SchemaTooNew):
        return None
    return path


def ledger_entry(command: str, record: dict,
                 config: Optional[dict] = None) -> dict:
    """Build one ledger entry: the stamp (timestamp, git state, command,
    schema, config digest) followed by ``record``.

    ``config`` is the command's configuration subset (source, config
    name, fence analysis, ...); its canonical digest is stamped on the
    entry so comparable runs are groupable.  When omitted, the digest
    covers the whole record (still deterministic, just coarser).
    """
    from ..telemetry.bench import git_dirty, git_sha

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "sha": git_sha(),
        "dirty": git_dirty(),
        "command": command,
        "schema": LEDGER_SCHEMA,
        "config_digest": config_digest(
            config if config is not None else record),
    }
    entry.update(record)
    return entry


def append_entry(command: str, record: dict,
                 root: Optional[os.PathLike] = None,
                 config: Optional[dict] = None) -> Optional[Path]:
    """Record one :func:`ledger_entry`; returns the store's path, or
    None if disabled or the write failed."""
    return record_run(
        lambda store: store.put_ledger_entry(
            ledger_entry(command, record, config)), root)
