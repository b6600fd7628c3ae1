"""Span-based tracer for the translation pipeline.

A :class:`Tracer` collects a forest of nested :class:`Span` objects, one
stack per thread, timed with ``time.perf_counter``.  Spans are context
managers::

    tracer = Tracer()
    with tracer.span("translate", category="pipeline", config="ppopt"):
        with tracer.span("lift", category="stage"):
            ...

When tracing is disabled the instrumentation hooks in
:mod:`repro.telemetry` hand out the shared :data:`NOOP_SPAN` instead, so
the disabled path costs one global load and an attribute call.

Three exporters ship with the tracer:

* :func:`format_tree` — a human-readable indented tree with durations,
* :func:`to_json` — a nested JSON-serializable dict,
* :func:`to_chrome_trace` — Chrome trace-event format: ``ph: "X"``
  complete events plus ``ph: "M"`` process/thread-name metadata (the
  trace is self-describing in Perfetto — threads render as ``main`` /
  ``worker-N`` instead of raw idents) and, when work counters are
  passed, ``ph: "C"`` counter events so the counters chart alongside
  the spans.  Loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.

Exception safety: a span exited by an unwinding exception still closes
(``with`` guarantees ``__exit__``), is annotated with
``error=<exception type>``, and never corrupts the tree or leaks into
:meth:`Tracer.open_spans` — the tests in ``tests/test_telemetry.py``
pin this down.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Any, Iterator, Optional


class NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()


class Span:
    """One timed region of the pipeline; created via :meth:`Tracer.span`."""

    __slots__ = ("name", "category", "attrs", "start", "end", "children",
                 "tid", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self.children: list[Span] = []
        self.tid = threading.get_ident()
        self.end: Optional[float] = None
        self.start = perf_counter()

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes after the span was opened."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* for a live span)."""
        return (self.end if self.end is not None else perf_counter()) - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time spent in child spans."""
        return self.duration - sum(c.duration for c in self.children)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # Mark the span as unwound-through; the exception propagates.
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} {self.duration * 1e3:.3f}ms>"


class Tracer:
    """Collects a forest of nested spans; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._live: dict[int, Span] = {}
        self.roots: list[Span] = []
        self.epoch = perf_counter()

    # ---- recording -------------------------------------------------------
    def _stack(self) -> list[Span]:
        try:
            return self._stacks.stack
        except AttributeError:
            stack: list[Span] = []
            self._stacks.stack = stack
            return stack

    def span(self, name: str, category: str = "span", **attrs: Any) -> Span:
        """Open a span nested under the current thread's innermost span."""
        span = Span(self, name, category, attrs)
        self._stack().append(span)
        with self._lock:
            self._live[id(span)] = span
        return span

    def _finish(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if span in stack:
            # Tolerate out-of-order exits: unwind through the finished span.
            while stack:
                if stack.pop() is span:
                    break
        with self._lock:
            self._live.pop(id(span), None)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # ---- queries ---------------------------------------------------------
    def open_spans(self) -> list[Span]:
        """Spans entered but not yet exited, across all threads.  Empty
        after every ``with`` block unwound — even via an exception."""
        with self._lock:
            return list(self._live.values())

    def walk(self) -> Iterator[Span]:
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> list[Span]:
        return [
            s for s in self.walk()
            if (name is None or s.name == name)
            and (category is None or s.category == category)
        ]

    def durations(self, category: Optional[str] = None) -> dict[str, float]:
        """Total seconds per span name, optionally restricted by category."""
        out: dict[str, float] = {}
        for span in self.walk():
            if span.end is None:
                continue
            if category is not None and span.category != category:
                continue
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out


# ---- exporters ------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def format_tree(roots: list[Span], indent: int = 2,
                max_depth: Optional[int] = None) -> str:
    """Human-readable span tree with durations and share of the root."""
    lines: list[str] = []

    def visit(span: Span, depth: int, total: float) -> None:
        if max_depth is not None and depth > max_depth:
            return
        pad = " " * (indent * depth)
        label = f"{pad}{span.name}"
        share = ""
        if depth > 0 and total > 0:
            share = f"  {100.0 * span.duration / total:5.1f}%"
        lines.append(f"{label:<36} {span.duration * 1e3:10.3f} ms{share}")
        for child in span.children:
            visit(child, depth + 1, total)

    for root in roots:
        visit(root, 0, root.duration)
    return "\n".join(lines)


def to_json(tracer: Tracer) -> list[dict[str, Any]]:
    """Nested JSON-serializable form of the span forest."""

    def convert(span: Span) -> dict[str, Any]:
        return {
            "name": span.name,
            "category": span.category,
            "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
            "start_ms": round((span.start - tracer.epoch) * 1e3, 6),
            "duration_ms": round(span.duration * 1e3, 6),
            "children": [convert(c) for c in span.children],
        }

    return [convert(root) for root in tracer.roots]


def to_chrome_trace(tracer: Tracer, work: Any = None) -> dict[str, Any]:
    """Chrome trace-event JSON (load in chrome://tracing or Perfetto).

    Besides the ``ph:"X"`` complete events, the trace carries ``ph:"M"``
    metadata naming the process (``repro``) and each thread (``main`` or
    ``worker-N`` in order of first appearance), and — when ``work`` (a
    :class:`~repro.profiler.workcounters.WorkCounters` collected over the
    same extent) is given — one ``ph:"C"`` counter event per work counter,
    so the totals chart in Perfetto next to the spans they describe.
    """
    pid = os.getpid()
    events: list[dict[str, Any]] = []
    last_ts = 0.0
    tids: list[int] = []
    for span in tracer.walk():
        if span.end is None:
            continue  # still open; cannot emit a complete event
        ts = (span.start - tracer.epoch) * 1e6
        dur = span.duration * 1e6
        last_ts = max(last_ts, ts + dur)
        if span.tid not in tids:
            tids.append(span.tid)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": span.tid,
            "args": {k: _jsonable(v) for k, v in span.attrs.items()},
        })

    meta: list[dict[str, Any]] = [{
        "name": "process_name", "cat": "__metadata", "ph": "M",
        "pid": pid, "tid": 0, "args": {"name": "repro"},
    }]
    main_ident = threading.main_thread().ident
    worker = 0
    for tid in tids:
        if tid == main_ident:
            label = "main"
        else:
            worker += 1
            label = f"worker-{worker}"
        meta.append({
            "name": "thread_name", "cat": "__metadata", "ph": "M",
            "pid": pid, "tid": tid, "args": {"name": label},
        })

    counters: list[dict[str, Any]] = []
    if work is not None:
        for name, value in work.by_counter().items():
            counters.append({
                "name": name, "cat": "work", "ph": "C",
                "ts": last_ts, "pid": pid, "tid": 0,
                "args": {"value": value},
            })

    return {"traceEvents": meta + events + counters,
            "displayTimeUnit": "ms"}
