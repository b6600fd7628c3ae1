"""Translator benchmark: cost of translating and quality of the translated code.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload translate --seed 1 --seconds 10 --trace 0

Workloads: translate, sync, tv (see perfbench/README.md) and fuzz, a
hand-run workload of seeded programs through the co-simulation oracle.
The report goes to standard output, one metric per line; the last line
is a JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exit status: 0 when every output check passed, 1 when
one failed, 2 when the checkout lacks the translator's sources.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _import_harness():
    """Import the translator (and the benchmark modules that wrap it)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no translator sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["translate", "sync", "tv", "fuzz"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        harness = _import_harness()
    except ImportError as exc:
        print(f"perfbench: cannot import the translator: {exc}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - _T0
    try:
        report = harness.run(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace), import_s=import_s)
    except harness.BenchmarkError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(f"workload {report.workload} seed {args.seed} "
          f"trace {args.trace}")
    for note in report.notes:
        print(f"  {note}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name:42s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
