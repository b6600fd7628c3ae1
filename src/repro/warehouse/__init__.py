"""repro.warehouse — the cross-run observability store.

The one run store: ``repro translate``/``validate``/``bench``/
``profile`` record their runs and ledger entries straight into one
stdlib-``sqlite3`` database (``.repro/warehouse.sqlite``), and three
layers work over it:

* :mod:`~repro.warehouse.ingest` records bench and profile runs and
  ingests the one tracked file, the ``BENCH_translate.json``
  trajectory, into natural-key fact tables, idempotently;
* :mod:`~repro.warehouse.diff` joins two runs and ranks the deltas —
  wall time with a noise/work-change verdict from the deterministic
  work digests, stage×function work cells, fence elisions per tier,
  pass effectiveness, flamegraph frame shares;
* :mod:`~repro.warehouse.dashboard` renders the whole trajectory to a
  single self-contained HTML page with inline-SVG sparklines and
  MAD-based anomaly flags.

CLI: ``repro warehouse ingest|runs``, ``repro diff A B``,
``repro dash --html``, ``repro ledger``.
"""

from .dashboard import ANOMALY_MADS, anomalies, build_dashboard
from .diff import (DiffReport, diff_runs, render_markdown, render_text,
                   to_dict, to_json)
from .ingest import ingest_bench, record_bench, record_profile
from .schema import SCHEMA_VERSION, migrate, schema_version
from .store import DEFAULT_DB, RunInfo, Warehouse, open_warehouse

__all__ = [
    "ANOMALY_MADS",
    "DEFAULT_DB",
    "DiffReport",
    "RunInfo",
    "SCHEMA_VERSION",
    "Warehouse",
    "anomalies",
    "build_dashboard",
    "diff_runs",
    "ingest_bench",
    "migrate",
    "open_warehouse",
    "record_bench",
    "record_profile",
    "render_markdown",
    "render_text",
    "schema_version",
    "to_dict",
    "to_json",
]
