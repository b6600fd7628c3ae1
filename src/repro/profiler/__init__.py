"""``repro.profiler`` — hot-path attribution, memory accounting, and
the perf-regression gate.

Built on top of :mod:`repro.telemetry` (which answers *how long did
each span take*), this package answers three sharper questions:

* **Where did the time go?**  :mod:`~repro.profiler.sampler` — a
  stdlib-only thread-sampling profiler with collapsed-stack/flamegraph
  output and per-pipeline-stage attribution; driven by
  ``repro profile``.
* **How much work was that, exactly?**
  :mod:`~repro.profiler.workcounters` — deterministic counters
  (instructions visited, fixpoint steps, constraint rounds, cycle-search
  expansions) woven through the pass manager, the analyses, fence
  placement, codegen and the loader.  Bit-identical across runs and
  machines; the hard currency of the regression gate.
* **Did this commit make it worse?**
  :mod:`~repro.profiler.regression` — ``repro bench --compare`` against
  the median of the last N clean ``BENCH_translate.json`` trajectory
  entries with MAD-widened wall-time thresholds, exit code 3 on
  regression.

Plus :mod:`~repro.profiler.memory` (tracemalloc per-stage peaks into
the span tree and bench rows) and :mod:`~repro.profiler.ledger` (every
run's entry in the warehouse's ``ledger_entries`` table, and the
best-effort :func:`record_run` that bench and profile runs go through).

See docs/observability.md for the work-counter taxonomy and a worked
regression-gate walkthrough.
"""

from .attribution import (
    AttributionReport,
    hot_cells,
    render_report,
    report_to_dict,
)
from .ledger import LEDGER_SCHEMA, append_entry, config_digest, record_run
from .memory import MemoryAccountant, StageMemory, account, accounting
from .regression import (
    EXIT_REGRESSION,
    Finding,
    RegressionReport,
    check_regression,
    eligible_entries,
)
from .sampler import (
    KNOWN_STAGES,
    Profile,
    SamplingProfiler,
    stage_of,
    write_flamegraph,
)
from .workcounters import WorkCounters, collect, counting, scope, work

__all__ = [
    "AttributionReport", "EXIT_REGRESSION", "Finding", "KNOWN_STAGES",
    "LEDGER_SCHEMA", "MemoryAccountant", "Profile", "RegressionReport",
    "SamplingProfiler", "StageMemory", "WorkCounters", "account",
    "accounting", "append_entry", "check_regression", "collect",
    "config_digest", "counting", "eligible_entries", "hot_cells",
    "record_run", "render_report", "report_to_dict", "scope", "stage_of",
    "work", "write_flamegraph",
]
