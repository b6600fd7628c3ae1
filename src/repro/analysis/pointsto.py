"""Intraprocedural Andersen-style points-to and escape analysis.

The analysis assigns every SSA value a *points-to set* of abstract memory
objects — one per ``alloca`` (kind ``"stack"``), one per module global
(kind ``"global"``), plus the :data:`UNKNOWN` singleton standing for heap,
caller and callee memory.  It is flow-insensitive: constraints from every
instruction are iterated chaotically until the sets stop growing.

Lifted code addresses the stack through integers (``ptrtoint`` of the
frame alloca, ``add``/``sub`` arithmetic, ``inttoptr`` back), so unlike a
textbook pointer analysis, provenance flows through *integer* operations
too: casts of every kind, binops, ``phi``/``select``.  ``ptrtoint`` is
therefore not an escape by itself — the integer still carries the object —
which is what lets the frame of a refined (or even raw lifted) leaf
function stay thread-local.

Escape happens when an object can become visible to another thread or to
code outside the function:

* a value carrying the object is passed to a call (unless the callee is
  ``readnone``) or returned;
* a value carrying it is stored into an object that is itself escaped
  (including all globals and UNKNOWN).

Escaped objects may be written by external code, so their contents include
UNKNOWN.  An access is *thread-local* exactly when its address carries
only non-escaped stack objects — the Lasagne §8 condition for eliding the
LIMM fences around it.

Entry point: :func:`analyze_function` → :class:`AliasInfo`.

**Interprocedural mode.**  When given a summary table (``summaries=``,
from :mod:`repro.analysis.summaries`), call sites whose callee has a
summary are applied precisely instead of escaping every argument: the
callee's parameter behaviour (escapes / stores / returns) is replayed
against the actual arguments' points-to sets, so an alloca handed to a
well-behaved callee stays thread-local.  With ``summary_mode=True`` the
solver additionally models the *formal parameters* of ``func`` itself as
first-class ``"param"`` objects (with a one-level ``param.*`` contents
placeholder) and records return-value provenance as tokens instead of
escaping it — a returned stack address only becomes visible to the
caller *after* every access in this function already executed, so it
cannot introduce a cross-thread race on those accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..lir import (
    GEP,
    Alloca,
    Argument,
    AtomicRMW,
    BinOp,
    Call,
    Cast,
    CmpXchg,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ExtractElement,
    Fence,
    Function,
    GlobalValue,
    InsertElement,
    Instruction,
    Load,
    Module,
    Phi,
    Ret,
    Select,
    Store,
    UndefValue,
    Value,
)
from ..profiler.workcounters import work

# ModRef summaries -----------------------------------------------------------

NO_MODREF = 0
REF = 1
MOD = 2
MOD_REF = 3


@dataclass(eq=False)
class MemObject:
    """One abstract memory object: a stack slot, a global, or UNKNOWN."""

    kind: str                      # "stack" | "global" | "param" | "unknown"
    name: str
    origin: Optional[Value] = None  # the Alloca / GlobalVariable, if any
    escaped: bool = False
    # What this object's storage may contain (objects reachable by a load).
    contents: set["MemObject"] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " escaped" if self.escaped else ""
        return f"<MemObject {self.kind}:{self.name}{tag}>"


# Values that never carry provenance: plain data constants.
_DATA_CONSTANTS = (ConstantInt, ConstantFloat, ConstantPointerNull, UndefValue)


class _Solver:
    """Chaotic-iteration constraint solver for one function."""

    def __init__(self, func: Function, module: Optional[Module],
                 summaries: Optional[dict] = None,
                 summary_mode: bool = False) -> None:
        self.func = func
        self.module = module
        self.summaries = summaries or {}
        self.summary_mode = summary_mode
        self.unknown = MemObject("unknown", "unknown", escaped=True)
        self.unknown.contents.add(self.unknown)
        self.objects: dict[int, MemObject] = {}   # id(origin value) -> object
        self.pts: dict[int, set[MemObject]] = {}  # id(value) -> points-to set
        self._values: dict[int, Value] = {}       # keep ids alive / reverse map
        self.known: set[int] = set()              # instructions seen by solve()
        self.solved = False
        self.changed = False
        # Summary mode: one "param" object per formal, plus a one-level
        # contents placeholder standing for whatever the caller's object
        # already holds (self-looped: deeper indirection folds into it).
        self.param_objects: dict[int, MemObject] = {}
        self.param_contents: dict[int, MemObject] = {}
        self.return_objs: set[MemObject] = set()
        if summary_mode:
            for i, arg in enumerate(func.arguments):
                label = arg.name or f"arg{i}"
                cont = MemObject("param", f"{label}.*")
                cont.contents.add(cont)
                param = MemObject("param", label, origin=arg)
                param.contents.add(cont)
                self.param_objects[i] = param
                self.param_contents[i] = cont

    # -- roots ---------------------------------------------------------

    def object_for(self, value: Value) -> MemObject:
        obj = self.objects.get(id(value))
        if obj is None:
            if isinstance(value, Alloca):
                obj = MemObject("stack", value.name or "alloca", origin=value)
            else:
                obj = MemObject("global", value.name or "global", origin=value,
                                escaped=True)
                obj.contents.add(self.unknown)
            self.objects[id(value)] = obj
        return obj

    def lookup(self, value: Value) -> set[MemObject]:
        """Points-to set of ``value``, seeding roots on first sight."""
        key = id(value)
        cached = self.pts.get(key)
        if cached is not None:
            return cached
        self._values[key] = value
        if (self.solved and isinstance(value, Instruction)
                and key not in self.known):
            # Created after the analysis ran (or foreign to this
            # function): assume the worst rather than "no provenance".
            seeded = {self.unknown}
        elif isinstance(value, Alloca):
            seeded = {self.object_for(value)}
        elif isinstance(value, GlobalValue):
            seeded = {self.object_for(value)}
        elif isinstance(value, _DATA_CONSTANTS):
            seeded = set()
        elif isinstance(value, Constant):
            # Address-like constant expression we do not model.
            seeded = {self.unknown}
        elif isinstance(value, Argument):
            if self.summary_mode and value.index in self.param_objects:
                seeded = {self.param_objects[value.index]}
            else:
                seeded = {self.unknown}
        elif isinstance(value, Instruction):
            # Results start empty and grow as transfer functions run.
            seeded = set()
        else:
            seeded = {self.unknown}
        self.pts[key] = seeded
        return seeded

    # -- lattice updates ----------------------------------------------

    def _include(self, dst: set[MemObject], extra: Iterable[MemObject]) -> None:
        for obj in extra:
            if obj not in dst:
                dst.add(obj)
                self.changed = True

    def _escape(self, objs: Iterable[MemObject]) -> None:
        stack = [o for o in objs if not o.escaped]
        while stack:
            obj = stack.pop()
            if obj.escaped:
                continue
            obj.escaped = True
            self.changed = True
            # External code can store arbitrary pointers into it ...
            obj.contents.add(self.unknown)
            # ... and read pointers out of it, leaking what it holds.
            stack.extend(o for o in obj.contents if not o.escaped)

    def _store_into(self, targets: set[MemObject],
                    stored: set[MemObject]) -> None:
        for obj in targets:
            self._include(obj.contents, stored)
            if obj.escaped:
                self._escape(stored)
            elif obj.kind == "param":
                # Stored into caller-visible memory: the caller (and via
                # it, other threads) can reach anything non-param we put
                # there while this function is still running.
                self._escape([o for o in stored if o.kind != "param"])

    def _load_from(self, sources: set[MemObject]) -> set[MemObject]:
        out: set[MemObject] = set()
        for obj in sources:
            out |= obj.contents
        return out

    # -- per-instruction transfer -------------------------------------

    def transfer(self, inst: Instruction) -> None:
        result = self.pts.setdefault(id(inst), set())
        self._values[id(inst)] = inst
        self.known.add(id(inst))
        if isinstance(inst, Alloca):
            self._include(result, {self.object_for(inst)})
        elif isinstance(inst, (Cast, GEP)):
            src = inst.value if isinstance(inst, Cast) else inst.pointer
            self._include(result, self.lookup(src))
        elif isinstance(inst, BinOp):
            self._include(result, self.lookup(inst.lhs))
            self._include(result, self.lookup(inst.rhs))
        elif isinstance(inst, Phi):
            for value, _block in inst.incoming():
                self._include(result, self.lookup(value))
        elif isinstance(inst, Select):
            self._include(result, self.lookup(inst.true_value))
            self._include(result, self.lookup(inst.false_value))
        elif isinstance(inst, (ExtractElement, InsertElement)):
            for op in inst.operands:
                self._include(result, self.lookup(op))
        elif isinstance(inst, Load):
            self._include(result, self._load_from(self.lookup(inst.pointer)))
        elif isinstance(inst, Store):
            self._store_into(self.lookup(inst.pointer),
                             self.lookup(inst.value))
        elif isinstance(inst, AtomicRMW):
            targets = self.lookup(inst.pointer)
            self._include(result, self._load_from(targets))
            self._store_into(targets, self.lookup(inst.value))
        elif isinstance(inst, CmpXchg):
            targets = self.lookup(inst.pointer)
            self._include(result, self._load_from(targets))
            self._store_into(targets, self.lookup(inst.new))
        elif isinstance(inst, Call):
            summary = self._call_summary(inst)
            if summary is not None:
                self._apply_summary(inst, summary, result)
            else:
                if not inst.is_readnone_callee():
                    for arg in inst.args:
                        self._escape(self.lookup(arg))
                self._include(result, {self.unknown})
        elif isinstance(inst, Ret):
            if inst.value is not None:
                if self.summary_mode:
                    # Recorded as a returns-token; a returned address only
                    # reaches the caller after every access here retired,
                    # so it does not escape for thread-locality purposes.
                    self._include(self.return_objs, self.lookup(inst.value))
                else:
                    self._escape(self.lookup(inst.value))
        # Fence / Br / ICmp / FCmp / Unreachable: no provenance, no escape.

    # -- interprocedural call handling --------------------------------

    def _call_summary(self, inst: Call):
        """The :class:`~repro.analysis.summaries.FunctionSummary` for a
        direct call to a defined, already-summarised callee — or, for a
        declared external, the loader catalog's mod-ref/escape summary
        (libc calls stay precise instead of escaping every argument) —
        else None."""
        callee = inst.callee
        if not isinstance(callee, Function):
            return None
        if callee.is_declaration:
            from ..loader.externs import catalog_summary
            return catalog_summary(callee.name.split("@", 1)[0])
        if not self.summaries:
            return None
        return self.summaries.get(callee.name)

    def _resolve_tokens(self, tokens,
                        argpts: list[set[MemObject]]) -> set[MemObject]:
        """Map a callee summary's provenance tokens onto this call site's
        actual argument points-to sets."""
        out: set[MemObject] = set()
        for tok in tokens:
            kind = tok[0]
            if kind == "param" and tok[1] < len(argpts):
                out |= argpts[tok[1]]
            elif kind == "contents" and tok[1] < len(argpts):
                for obj in argpts[tok[1]]:
                    out |= obj.contents
            else:
                out.add(self.unknown)
        return out

    def _apply_summary(self, inst: Call, summary,
                       result: set[MemObject]) -> None:
        argpts = [self.lookup(arg) for arg in inst.args]
        for i, pts in enumerate(argpts):
            if i >= summary.nparams:
                self._escape(pts)  # arity mismatch: stay conservative
                continue
            if summary.param_escapes[i]:
                self._escape(pts)
            elif summary.contents_escape[i]:
                for obj in pts:
                    self._escape(obj.contents)
            stored = summary.stores_into[i]
            if stored:
                self._store_into(set(pts),
                                 self._resolve_tokens(stored, argpts))
        self._include(result, self._resolve_tokens(summary.returns, argpts))

    def solve(self) -> None:
        insts = list(self.func.instructions())
        # Sets grow monotonically into a finite universe; a handful of
        # passes reaches the fixpoint even with loops in the use graph.
        rounds = 0
        while True:
            rounds += 1
            self.changed = False
            for inst in insts:
                self.transfer(inst)
            if not self.changed:
                break
        self.solved = True
        # Round count is order-independent (each round applies every
        # constraint in instruction order; unions commute), so these are
        # deterministic work tallies (repro.profiler).
        work("pointsto.rounds", rounds, function=self.func.name)
        work("pointsto.transfers", rounds * len(insts),
             function=self.func.name)


class AliasInfo:
    """Query interface over a solved points-to analysis of one function.

    ``points_to``/``is_thread_local`` answer per-value questions;
    ``may_alias`` and ``mod_ref`` serve the optimizer; ``call_may_access``
    tells whether a call can touch the memory behind a pointer.
    """

    def __init__(self, solver: _Solver) -> None:
        self._solver = solver
        self.func = solver.func
        self.unknown = solver.unknown

    # -- value-level queries ------------------------------------------

    def points_to(self, value: Value) -> frozenset[MemObject]:
        return frozenset(self._solver.lookup(value))

    def is_thread_local(self, value: Value) -> bool:
        """True when every object ``value`` may address is a non-escaped
        stack slot of this function — no other thread can see the access."""
        pts = self._solver.lookup(value)
        if not pts:
            return False
        return all(o.kind == "stack" and not o.escaped for o in pts)

    def stack_objects(self) -> list[MemObject]:
        return [o for o in self._solver.objects.values() if o.kind == "stack"]

    # -- alias queries -------------------------------------------------

    def may_alias(self, a: Value, b: Value) -> bool:
        """May the pointers ``a`` and ``b`` address overlapping memory?

        UNKNOWN stands for memory whose provenance we lost — but never for
        a stack slot that provably did not escape, so UNKNOWN-carrying
        pointers still do not alias thread-local allocas.
        """
        if a is b:
            return True
        sa = self._solver.lookup(a)
        sb = self._solver.lookup(b)
        if not sa or not sb:
            return False  # null/undef: no storage to overlap
        return self._sets_may_overlap(sa, sb)

    def _opaque(self, obj: MemObject) -> bool:
        # Memory of unbounded provenance: UNKNOWN, or a caller-owned
        # parameter object (two params may name the same storage).
        return obj is self.unknown or obj.kind == "param"

    def _sets_may_overlap(self, sa: set[MemObject],
                          sb: set[MemObject]) -> bool:
        if sa & sb:
            return True
        if any(self._opaque(o) for o in sa):
            if any(o.escaped or self._opaque(o) for o in sb):
                return True
        if any(self._opaque(o) for o in sb):
            if any(o.escaped for o in sa):
                return True
        return False

    def alias(self, a: Value, b: Value) -> str:
        """Three-valued answer: ``"must"`` (identical SSA value),
        ``"may"`` or ``"no"``."""
        if a is b:
            return "must"
        return "may" if self.may_alias(a, b) else "no"

    def call_may_access(self, call: Call, pointer: Value) -> bool:
        """May executing ``call`` read or write the memory ``pointer``
        addresses?  Without a callee summary, callees reach escaped
        objects and UNKNOWN; with one, only the memory the summary says
        the callee touches (mod/ref'd parameters, escaped/global state)."""
        if call.is_readnone_callee():
            return False
        pts = self._solver.lookup(pointer)
        summary = self._solver._call_summary(call)
        if summary is None:
            return (any(o.escaped for o in pts)
                    or any(self._opaque(o) for o in pts))
        if summary.touches and (any(o.escaped for o in pts)
                                or any(self._opaque(o) for o in pts)):
            return True
        touched: set[MemObject] = set()
        for i, arg in enumerate(call.args):
            if i < summary.nparams and not summary.param_modref[i]:
                continue  # callee provably never dereferences this param
            touched |= self._contents_closure(self._solver.lookup(arg))
        return bool(touched) and self._sets_may_overlap(pts, touched)

    def _contents_closure(self, objs: set[MemObject]) -> set[MemObject]:
        out = set(objs)
        work = list(objs)
        while work:
            for inner in work.pop().contents:
                if inner not in out:
                    out.add(inner)
                    work.append(inner)
        return out

    def mod_ref(self, inst: Instruction, pointer: Value) -> int:
        """How ``inst`` may interact with the memory at ``pointer``:
        a bitmask of :data:`REF` and :data:`MOD`."""
        if isinstance(inst, Load):
            return REF if self.may_alias(inst.pointer, pointer) else NO_MODREF
        if isinstance(inst, Store):
            return MOD if self.may_alias(inst.pointer, pointer) else NO_MODREF
        if isinstance(inst, (AtomicRMW, CmpXchg)):
            return MOD_REF if self.may_alias(inst.pointer, pointer) else NO_MODREF
        if isinstance(inst, Call):
            return MOD_REF if self.call_may_access(inst, pointer) else NO_MODREF
        if isinstance(inst, Fence):
            return NO_MODREF
        return NO_MODREF

    # -- reporting -----------------------------------------------------

    def describe(self, value: Value) -> str:
        pts = sorted(self._solver.lookup(value),
                     key=lambda o: (o.kind, o.name))
        names = ", ".join(
            f"{o.kind}:{o.name}" + ("!" if o.escaped else "") for o in pts)
        local = "thread-local" if self.is_thread_local(value) else "shared"
        return f"{{{names or 'empty'}}} [{local}]"


def analyze_function(func: Function,
                     module: Optional[Module] = None,
                     summaries: Optional[dict] = None,
                     summary_mode: bool = False) -> AliasInfo:
    """Run the points-to/escape analysis on ``func`` and return the
    :class:`AliasInfo` query interface (empty for declarations).

    ``summaries`` (name → ``FunctionSummary``) enables precise handling
    of direct calls to summarised callees; ``summary_mode`` additionally
    models formal parameters as ``param`` objects and records return
    tokens — the configuration :func:`repro.analysis.summaries.analyze_module`
    uses.  The default keeps the PR-3 intraprocedural semantics.
    """
    solver = _Solver(func, module, summaries=summaries,
                     summary_mode=summary_mode)
    if not func.is_declaration:
        solver.solve()
    return AliasInfo(solver)
