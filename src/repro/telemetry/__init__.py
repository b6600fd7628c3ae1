"""``repro.telemetry`` — pipeline tracing and optimization remarks.

The instrumentation throughout the translator (pipeline stages, opt
passes, fence placement, refinement, the register allocator, both
emulators) reports through this module's hooks:

* :func:`span` — open a timed region (nested; Chrome-trace exportable),
* :func:`remark` — report a structured, source-located decision.

Counters are not telemetry's business: deterministic work counts go to
:mod:`repro.profiler.workcounters`, and outcome numbers (fences placed,
cycles, ...) are fields of the results the pipeline returns.

Telemetry is **off by default and costs nothing when off**: each hook
reads one module global; with no session installed :func:`span` returns
the shared no-op span and :func:`remark` returns immediately.  Call sites
that would build expensive remark messages hoist
:func:`remarks_enabled` first.

Use :func:`session` to turn telemetry on for a dynamic extent::

    from repro import telemetry

    with telemetry.session() as tel:
        built = Lasagne().build(source, "ppopt")
    print(telemetry.format_tree(tel.tracer.roots))
    for r in tel.remarks.remarks:
        print(r.format())

Sessions are process-global (every thread reports into the installed
session) and nest: the previous session is restored on exit.  See
docs/observability.md for the full API, the remark taxonomy and how to
open traces in Perfetto.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

from .remarks import Remark, RemarkSink
from .tracer import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    Tracer,
    format_tree,
    to_chrome_trace,
    to_json,
)


class Telemetry:
    """One observability session: tracer + remarks sinks.

    Either component can be disabled (``None``) to skip its collection.
    """

    def __init__(self, trace: bool = True, remarks: bool = True,
                 remark_filter: Optional[str] = None) -> None:
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.remarks: Optional[RemarkSink] = (
            RemarkSink(remark_filter) if remarks else None)


_lock = threading.Lock()
_current: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The installed session, or None when telemetry is off."""
    return _current


def enabled() -> bool:
    return _current is not None


@contextmanager
def session(trace: bool = True, remarks: bool = True,
            remark_filter: Optional[str] = None) -> Iterator[Telemetry]:
    """Install a fresh :class:`Telemetry` for the extent of the block."""
    tel = Telemetry(trace=trace, remarks=remarks, remark_filter=remark_filter)
    global _current
    with _lock:
        previous, _current = _current, tel
    try:
        yield tel
    finally:
        with _lock:
            _current = previous


# ---- instrumentation hooks (no-ops without a session) ----------------------

def span(name: str, category: str = "span",
         **attrs: Any) -> Union[Span, NoopSpan]:
    tel = _current
    if tel is None or tel.tracer is None:
        return NOOP_SPAN
    return tel.tracer.span(name, category, **attrs)


def remarks_enabled() -> bool:
    """Hoist this check before building per-instruction remark messages."""
    tel = _current
    return tel is not None and tel.remarks is not None


def remark(origin: str, kind: str, message: str,
           function: Optional[str] = None, block: Optional[str] = None,
           instruction: Optional[str] = None, **args: Any) -> None:
    tel = _current
    if tel is not None and tel.remarks is not None:
        tel.remarks.emit(
            Remark(origin, kind, message, function, block, instruction, args))


__all__ = [
    "NOOP_SPAN", "NoopSpan", "Span", "Tracer",
    "Remark", "RemarkSink", "Telemetry",
    "current", "enabled", "format_tree", "remark", "remarks_enabled",
    "session", "span", "to_chrome_trace", "to_json",
]
