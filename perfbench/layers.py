"""Per-layer tracing of the translator from outside its code.

The traced run wraps the public functions each layer exposes -- module
attributes that ``repro.core.pipeline`` imported, the optimizer's pass
tables, ``TVChecker.check_pass`` and the emulators' ``run`` methods -- and
records one span per call: layer name, start, end, parent span, and the
workload, phase and build the call belongs to.  Spans stay in memory and
are written out once, when the benchmark ends.

A span's *self time* is its duration minus the time its direct children
cover; the self times of one pass therefore partition the pass's wall
time between the named layers and the benchmark's own per-build glue
(the ``op`` root spans).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.analysis import delayset
from repro.analysis.tv import TVChecker
from repro.arm.emulator import ArmEmulator
from repro.core import pipeline
from repro.lir.interp import Interpreter
from repro.minicc import codegen_x86
from repro.opt import pass_manager
from repro.validate import oracle
from repro.x86.emulator import X86Emulator

ROOT_SPAN = "op"

#: The distinct passes of the default O2 pipeline, in first-run order.
OPT_PASSES = list(dict.fromkeys(pass_manager.STANDARD_PIPELINE))


def _instret(emu) -> int:
    return sum(t.instret for t in emu.threads)


def _targets() -> list[tuple[str, object, str]]:
    """``(layer, namespace, attribute)`` for every wrapped function.  A
    namespace is a module, a class or a pass table (a dict)."""
    targets = [
        ("minicc.compile", codegen_x86, "compile_to_x86"),
        ("minicc.compile", pipeline, "compile_to_lir"),
        ("minicc.compile", oracle, "compile_to_x86"),
        ("minicc.compile", oracle, "compile_to_lir"),
        ("loader.ingest", pipeline, "ingest_binary"),
        ("lifter.lift", pipeline, "lift_program"),
        ("refine.refine", pipeline, "run_refinement"),
        ("fences.place", pipeline, "place_fences"),
        ("fences.merge", pipeline, "merge_fences"),
        ("analysis.delayset", delayset, "elide_redundant_fences"),
        ("analysis.tv.check", TVChecker, "check_pass"),
        ("opt.manager", pipeline, "optimize_module"),
        ("lir.verify", pipeline, "verify_module"),
        ("lir.verify", pass_manager, "verify_module"),
        ("lir.clone", pass_manager, "clone_module"),
        ("lir.interp", Interpreter, "run"),
        ("codegen.codegen", pipeline, "compile_lir_to_arm"),
        ("arm.run", ArmEmulator, "run"),
        ("x86.run", X86Emulator, "run"),
        ("validate.oracle", oracle, "run_oracle"),
    ]
    for name in OPT_PASSES:
        table = (pass_manager.MODULE_PASSES if name in pass_manager.MODULE_PASSES
                 else pass_manager.FUNCTION_PASSES)
        targets.append((f"opt.{name}", table, name))
    return targets


#: Layers whose timed metric is ``<layer>_s`` (the root ``op`` is glue).
LAYERS = list(dict.fromkeys(layer for layer, _, _ in _targets()))

#: Counts read off a wrapped call after it returns: layer -> hook(args,
#: result) -> {count name: n}.  Hooks run outside the span.
_COUNT_HOOKS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "loader.ingest": lambda args, res: {"loader.functions": len(res[1].functions)},
    "lifter.lift": lambda args, res: {
        "lifter.lir_instructions": res.instruction_count()},
    "fences.merge": lambda args, res: {"fences.merged": res},
    "arm.run": lambda args, res: {"arm.instret": _instret(args[0]),
                                  "arm.cycles": args[0].total_cycles},
    "x86.run": lambda args, res: {"x86.instret": _instret(args[0])},
    "validate.oracle": lambda args, res: {"validate.rungs": len(res.rungs)},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index into Tracer.spans, -1 for a root
    workload: str
    phase: str           # "pass<N>", "setup", "check" or "oracle"
    build: str           # the operation's label, "" outside one
    end: float = 0.0
    children: float = 0.0  # wall time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """In-memory span recorder; :meth:`installed` wraps every target."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = ""
        self.build = ""
        self.spans: list[Span] = []
        #: (phase, layer) -> count name -> n
        self.counts: dict[tuple[str, str], dict[str, int]] = {}
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), parent, self.workload,
                               self.phase, self.build))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].children += span.duration

    def count(self, layer: str, counts: dict[str, int]) -> None:
        bucket = self.counts.setdefault((self.phase, layer), {})
        for name, n in counts.items():
            bucket[name] = bucket.get(name, 0) + n

    @contextmanager
    def op(self, label: str) -> Iterator[None]:
        """The root span of one benchmark operation (a build or an oracle run)."""
        self.build = label
        index = self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close(index)
            self.build = ""

    def _wrap(self, layer: str, original: Callable) -> Callable:
        hook = _COUNT_HOOKS.get(layer)

        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                self.count(layer, hook(args, result))
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the extent of the block, then restore."""
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, namespace, attr in _targets():
                if isinstance(namespace, dict):
                    original = namespace[attr]
                    namespace[attr] = self._wrap(layer, original)
                else:
                    # Read the class __dict__ so a method is restored as the
                    # plain function it was, not a bound method.
                    original = vars(namespace)[attr]
                    setattr(namespace, attr, self._wrap(layer, original))
                restore.append((namespace, attr, original))
            yield self
        finally:
            for namespace, attr, original in reversed(restore):
                if isinstance(namespace, dict):
                    namespace[attr] = original
                else:
                    setattr(namespace, attr, original)

    # ---- reading the trace -------------------------------------------------
    def self_seconds(self, phases: Optional[set[str]] = None) -> dict[str, float]:
        """Self time per span name, over spans of the given phases."""
        out: dict[str, float] = {}
        for span in self.spans:
            if phases is None or span.phase in phases:
                out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(asdict(s), duration=s.duration, self_time=s.self_time)
                for s in self.spans]
        path.write_text(json.dumps({"workload": self.workload, "spans": rows}))
