"""Litmus programs and execution events (§6.1 of the paper).

A litmus program is a list of threads; each thread is a straight-line list
of operations.  Operations are architecture-neutral; which *model* judges an
execution decides how fences and access orderings are interpreted:

* ``Ld(loc, reg)`` — load into a thread-local register;
* ``St(loc, value)`` — store a constant, or ``St(loc, Reg(r))`` to store a
  previously-loaded register (creating a *data dependency*);
* ``Rmw(loc, expect, new)`` — compare-and-swap; succeeds iff the value read
  equals ``expect`` (generates an rmw-related R/W pair), fails otherwise
  (generates a lone R);
* ``Fence(kind)`` — ``"mfence"`` (x86), ``"ff"``/``"ld"``/``"st"`` (Arm
  DMBFF/DMBLD/DMBST), ``"sc"``/``"rm"``/``"ww"`` (LIMM Fsc/Frm/Fww).

Loads and stores carry an ``ordering`` tag: ``"plain"`` for architecture
accesses and LIMM non-atomics, ``"sc"`` for LIMM seq_cst accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Reg:
    """Reference to a thread-local register (for data dependencies)."""

    name: str


@dataclass(frozen=True)
class Ld:
    loc: str
    reg: str
    ordering: str = "plain"


@dataclass(frozen=True)
class St:
    loc: str
    value: Union[int, Reg]
    ordering: str = "plain"


@dataclass(frozen=True)
class Rmw:
    loc: str
    expect: int
    new: int
    reg: str = ""  # optional register receiving the read value
    # A *blocking* RMW models a synchronization primitive that retries until
    # it succeeds (a spinlock acquire/release): enumeration only considers
    # executions where it succeeds — the failed attempts are spin iterations
    # of the same operation, not distinct behaviours.
    blocking: bool = False
    sync: str = ""  # "acquire" / "release" for lock operations, else ""


def Lock(loc: str) -> Rmw:
    """A spinlock acquire: a blocking CAS(0 -> 1) on ``loc``.

    Both halves are sc events, so LIMM's ord3/ord4 order every po-earlier
    and po-later access across the lock — which is what makes sync-based
    fence elision between Lock/Unlock sound (see docs/analysis.md §6).
    """
    return Rmw(loc, 0, 1, blocking=True, sync="acquire")


def Unlock(loc: str) -> Rmw:
    """A spinlock release: a blocking RMW(1 -> 0) on ``loc``.

    Modeled as an RMW rather than a plain store: a plain-store unlock would
    let LIMM delay a protected plain read past the releasing store, which is
    observable (and unsound) once another thread acquires the lock.
    """
    return Rmw(loc, 1, 0, blocking=True, sync="release")


@dataclass(frozen=True)
class Fence:
    kind: str


@dataclass(frozen=True)
class CtrlDep:
    """Marks all *subsequent* ops of the thread as control-dependent on the
    load that defined ``reg`` (models a conditional branch on the value).
    Generates no event; contributes to Arm's ``dob`` via ``ctrl``."""

    reg: str


Op = Union[Ld, St, Rmw, Fence, CtrlDep]


@dataclass
class Program:
    """A litmus test: initial values (default 0) and threads of ops."""

    threads: list[list[Op]]
    init: dict[str, int] = field(default_factory=dict)
    name: str = ""

    def locations(self) -> list[str]:
        locs = set(self.init)
        for thread in self.threads:
            for op in thread:
                if isinstance(op, (Ld, St, Rmw)):
                    locs.add(op.loc)
        return sorted(locs)


# ---- events ----------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    eid: int
    tid: int            # 0 = initialization
    kind: str           # 'R', 'W' or 'F'
    loc: Optional[str]  # None for fences
    val: Optional[int]  # read or written value; None for fences
    ordering: str = "plain"   # 'plain', 'sc', or fence kind for F events
    po_index: int = 0   # position within the thread
    op_index: int = 0   # source operation index (R and W of an RMW share it)

    @property
    def is_read(self) -> bool:
        return self.kind == "R"

    @property
    def is_write(self) -> bool:
        return self.kind == "W"

    @property
    def is_fence(self) -> bool:
        return self.kind == "F"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_fence:
            return f"F{self.eid}(t{self.tid},{self.ordering})"
        tag = self.ordering if self.ordering != "plain" else ""
        return f"{self.kind}{tag}{self.eid}(t{self.tid},{self.loc}={self.val})"


@dataclass
class Execution:
    """A candidate execution: events plus po/rf/co/rmw and dependencies."""

    events: list[Event]
    po: set[tuple[int, int]]
    rf: dict[int, int]                  # read eid -> write eid
    co: dict[str, list[int]]            # loc -> write eids in coherence order
    rmw: set[tuple[int, int]]           # (read eid, write eid)
    data: set[tuple[int, int]] = field(default_factory=set)
    ctrl: set[tuple[int, int]] = field(default_factory=set)
    registers: dict[tuple[int, str], int] = field(default_factory=dict)

    def event(self, eid: int) -> Event:
        return self.events[eid]

    def reads(self) -> list[Event]:
        return [e for e in self.events if e.is_read]

    def writes(self) -> list[Event]:
        return [e for e in self.events if e.is_write]

    def co_pairs(self) -> set[tuple[int, int]]:
        pairs = set()
        for order in self.co.values():
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    pairs.add((order[i], order[j]))
        return pairs

    def fr_pairs(self) -> set[tuple[int, int]]:
        """from-read: fr = rf^-1 ; co."""
        co_pairs = self.co_pairs()
        fr = set()
        for read_eid, write_eid in self.rf.items():
            for w1, w2 in co_pairs:
                if w1 == write_eid:
                    fr.add((read_eid, w2))
        return fr

    def rf_pairs(self) -> set[tuple[int, int]]:
        return {(w, r) for r, w in self.rf.items()}

    def external(self, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
        """Pairs not related by po (init-thread events count as external)."""
        return {
            (a, b)
            for a, b in pairs
            if (a, b) not in self.po and (b, a) not in self.po
        }

    def behaviour(self) -> frozenset[tuple[str, int]]:
        """Final memory values: the co-maximal write per location."""
        out = []
        for loc, order in self.co.items():
            final = self.events[order[-1]]
            out.append((loc, final.val))
        return frozenset(out)

    def outcome(self) -> frozenset[tuple[str, int]]:
        """Final memory values plus observed register values."""
        regs = frozenset(
            (f"t{tid}:{name}", value)
            for (tid, name), value in self.registers.items()
        )
        return self.behaviour() | regs


def transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        new = set()
        for a, b in closure:
            for c, d in closure:
                if b == c and (a, d) not in closure:
                    new.add((a, d))
        if new:
            closure |= new
            changed = True
    return closure


def is_irreflexive(pairs: set[tuple[int, int]]) -> bool:
    return all(a != b for a, b in pairs)


def is_acyclic(pairs: set[tuple[int, int]]) -> bool:
    return is_irreflexive(transitive_closure(pairs))


def compose(
    r1: set[tuple[int, int]], r2: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    by_first: dict[int, list[int]] = {}
    for a, b in r2:
        by_first.setdefault(a, []).append(b)
    return {(a, d) for a, b in r1 for d in by_first.get(b, ())}
