"""Shasha–Snir delay-set analysis: which placed fences are *required*?

Fig. 8a fences every shared access pairwise (``ldna;Frm``, ``Fww;stna``),
which enforces **every** program-order edge between shared accesses.  The
classic delay-set observation (Shasha & Snir 1988; surveyed for
architecture-to-architecture mappings by Chakraborty, see PAPERS.md) is
that only po edges lying on a *critical cycle* of the static conflict
graph can ever be observed out of order — a cycle alternating

* **po edges** inside a thread (at most two accesses per thread, to
  different locations), and
* **conflict edges** between accesses of different threads to overlapping
  locations, at least one a write.

A fence is *required* iff it covers a delay edge (an enforceable po edge
on some critical cycle); every other Frm/Fww is *redundant* and may be
elided without admitting any execution the x86-TSO source forbids.

Three TSO/LIMM-specific refinements:

* po edges x86 itself does not order — ``W → R`` — are never delay edges
  (the source already allows that reordering; MFENCEs became ``Fsc``
  which this tier never touches);
* accesses with ``sc`` ordering (RMW/CmpXchg and their fences) are
  ordered by LIMM's ord3/ord4 natively — edges touching them need no
  ``Frm``/``Fww``;
* po edges between *provably identical* concrete locations are enforced
  by LIMM's per-location coherence (``sc_per_loc``) — pruned only when
  both sides resolve to the same (global, offset, size) key, never for
  merely may-aliasing abstract objects.

An opt-in fourth refinement (``sync=True``) consumes the must-lockset
analysis of :mod:`repro.analysis.sync`: a conflict edge between two
accesses that both hold a common lock is ordered by the lock's own sc
RMW chain (mutual exclusion + ord3/ord4 across the critical-section
boundary) and therefore cannot lie on a critical cycle.  Fences that
become redundant only under this refinement form the ``sync`` elision
tier (``fences.skipped_sync``); the refinement runs *on top of* the base
analysis and contributes nothing when it is capped.

Two frontends build the conflict graph: :func:`graph_from_litmus` (each
litmus thread is a thread; locations are exact) and
:func:`graph_from_module` (thread roots are ``main``-like entries plus
escaped-function-pointer targets, which get **two** copies so self-races
are visible; per-root access sets are inlined through direct calls with a
CFG-reachability "may execute before" relation; locations come from the
interprocedural points-to analysis).  Everything over-approximates toward
*more* cycles — unknown locations conflict with everything, cycle-search
budget overruns mark the analysis ``capped`` and keep every fence.

Cost.  Every relation is a Python-int bitset over the graph's nodes.
``graph_from_module`` closes each thread's "may execute before" edges
into po rows with one OR per edge of the SCC condensation, in reverse
topological order.  The cycle search runs once per *source* access ``v``
rather than once per candidate edge: a forward sweep over
(access, used-thread mask) states ORs conflict rows and "exit" rows
(``{w}`` plus the po-later accesses of ``w``'s thread at a location not
provably ``w``'s), and the conflict rows it reaches that land in ``v``'s
thread are exactly the ``u`` with ``u -> v`` on a critical cycle.  With
at most ``MAX_THREADS`` threads a sweep has at most
``accesses x 2^threads`` states, so a source costs
``O(accesses x 2^threads)`` row unions; a state already expanded under a
subset of its mask is skipped, and a sweep stops once every conflicting
access of ``v``'s thread is reached.  Coverage ORs, per delay-edge source
``u``, the po rows of the fences after ``u``.  ``CYCLE_BUDGET`` bounds
the row unions of one analysis — conflict, exit and coverage rows, the
count the ``delayset.cycle_steps`` work counter reports.  The plain and
the sync tier share one graph: the sync tier searches the same po and
exit rows with the lock-sharing conflict pairs dropped.

Every elision is double-checked: the protected access is stamped with a
``delayset_cert`` (cycle-freeness certificate) that ``fencecheck``
honours and :func:`audit_module` re-derives from scratch, and the litmus
path is validated exhaustively by enumeration in the tests/CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from ..lir import (
    GEP,
    AtomicRMW,
    Call,
    Cast,
    CmpXchg,
    ConstantInt,
    Fence,
    Function,
    GlobalVariable,
    Load,
    Module,
    Store,
)
from ..memmodel import events as ev
from ..profiler.workcounters import work
from ..provenance.origin import x86_location
from .summaries import ModuleAnalysis, analyze_module

TOP = ("top",)  # unknown location: conflicts with every shared access

# Work caps: overrunning any of them keeps every fence (sound fallback).
MAX_THREADS = 8
MAX_NODES = 800
MAX_CANDIDATES = 20000
CYCLE_BUDGET = 1000000  # bitset row unions per analysis (~1 s)


@dataclass(eq=False)
class Access:
    uid: int
    thread: int
    kind: str            # "R" | "W" | "RW"
    ordering: str        # "na" | "sc"
    locs: frozenset      # location keys, possibly {TOP}
    label: str
    inst: object = None  # LIR Instruction (module) or (thread, index)
    func: str = ""
    block: str = ""
    index: int = -1
    #: must-held lock keys at this access (repro.analysis.sync); empty when
    #: unknown, which is the sound direction for the sync refinement
    locks: frozenset = frozenset()


@dataclass(eq=False)
class FenceNode:
    uid: int
    thread: int
    kind: str            # "rm" | "ww" | "sc"
    label: str
    inst: object = None
    func: str = ""
    block: str = ""
    index: int = -1


@dataclass
class ConflictGraph:
    accesses: dict[int, Access] = field(default_factory=dict)
    fences: dict[int, FenceNode] = field(default_factory=dict)
    nthreads: int = 0
    #: every access and fence in insertion order; a node's position here is
    #: its bit in the ``po`` rows
    nodes: list = field(default_factory=list)
    #: uid -> position in ``nodes``
    bit: dict[int, int] = field(default_factory=dict)
    #: uid -> bitset of the nodes (accesses and fences) that may execute
    #: later in the same thread
    po: dict[int, int] = field(default_factory=dict)
    #: access uid -> conflicting access uids (symmetric, cross-thread)
    conflicts: dict[int, set[int]] = field(default_factory=dict)
    capped: bool = False
    #: conflict pairs whose must-locksets intersect: the sync refinement
    #: drops them (they are ordered by the lock's RMW chain)
    sync_dropped: int = 0
    _rows: Optional["_Rows"] = field(default=None, repr=False)

    def _add_node(self, node) -> None:
        self.bit[node.uid] = len(self.nodes)
        self.nodes.append(node)
        self.po[node.uid] = 0

    def add_access(self, node: Access) -> None:
        self.accesses[node.uid] = node
        self._add_node(node)
        self.conflicts.setdefault(node.uid, set())

    def add_fence(self, node: FenceNode) -> None:
        self.fences[node.uid] = node
        self._add_node(node)

    def add_po(self, before: int, after: int) -> None:
        """Record that node ``after`` may execute later than ``before``."""
        self.po[before] |= 1 << self.bit[after]

    def build_conflicts(self) -> None:
        nodes = list(self.accesses.values())
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if a.thread == b.thread:
                    continue
                if a.kind == "R" and b.kind == "R":
                    continue
                if not _locs_overlap(a.locs, b.locs):
                    continue
                if a.locks & b.locks:
                    self.sync_dropped += 1
                self.conflicts[a.uid].add(b.uid)
                self.conflicts[b.uid].add(a.uid)

    def rows(self) -> "_Rows":
        """The bitset rows both analysis tiers search (built once)."""
        if self._rows is None:
            self._rows = _Rows(self)
        return self._rows


# -- location keys ----------------------------------------------------------


def _keys_overlap(k1: tuple, k2: tuple) -> bool:
    if k1 == TOP or k2 == TOP:
        return True
    if k1[0] == "g" and k2[0] == "g":
        if k1[1] != k2[1]:
            return False
        return k1[2] < k2[2] + k2[3] and k2[2] < k1[2] + k1[3]
    if k1[0] == k2[0]:
        return k1 == k2
    # concrete global range vs abstract object key
    if {k1[0], k2[0]} == {"g", "obj"}:
        g, o = (k1, k2) if k1[0] == "g" else (k2, k1)
        return o[1] == "global" and o[2] == g[1]
    return False


def _locs_overlap(ls1: frozenset, ls2: frozenset) -> bool:
    return any(_keys_overlap(k1, k2) for k1 in ls1 for k2 in ls2)


def _same_loc_key(a: Access) -> Optional[tuple]:
    """The key of the *concrete* bytes ``a`` provably touches, or None.
    Two accesses with the same such key are provably the same location —
    the only case per-location coherence is allowed to discharge.
    Field-insensitive abstract object keys (e.g. a whole array) never
    qualify."""
    if len(a.locs) != 1:
        return None
    (key,) = a.locs
    return key if key != TOP and key[0] in ("g", "lit") else None


def _concrete_key(pointer, size: int) -> Optional[tuple]:
    """Syntactic walk to a (global, byte-offset, size) key, or None."""
    offset = 0
    value = pointer
    for _ in range(64):
        if isinstance(value, GlobalVariable):
            return ("g", value.name, offset, size)
        if isinstance(value, Cast) and value.op == "bitcast":
            value = value.value
        elif isinstance(value, GEP):
            element = (value.source_type.element
                       if len(value.indices) == 2 else value.source_type)
            scales = ([value.source_type.size_bytes(), element.size_bytes()]
                      if len(value.indices) == 2
                      else [value.source_type.size_bytes()])
            for idx, scale in zip(value.indices, scales):
                if not isinstance(idx, ConstantInt):
                    return None
                offset += idx.value * scale
            value = value.pointer
        else:
            return None
    return None


def _access_size(inst) -> int:
    try:
        if isinstance(inst, Store):
            return max(1, inst.value.type.size_bytes())
        return max(1, inst.type.size_bytes())
    except Exception:
        return 8


def _location_keys(inst, pointer, func, alias) -> frozenset:
    key = _concrete_key(pointer, _access_size(inst))
    if key is not None:
        return frozenset({key})
    keys = set()
    for obj in alias.points_to(pointer):
        if obj.kind == "global" and obj.origin is not None:
            keys.add(("obj", "global", obj.origin.name))
        elif obj.kind == "stack" and obj.origin is not None:
            # Keyed by the alloca identity: shared across thread copies of
            # the same root on purpose (a leaked frame address may travel).
            keys.add(("obj", "stack", func.name, id(obj.origin)))
        else:
            return frozenset({TOP})
    return frozenset(keys) if keys else frozenset({TOP})


# -- delay-edge computation -------------------------------------------------


@dataclass
class DelayAnalysis:
    graph: ConflictGraph
    delay_edges: set[tuple[int, int]] = field(default_factory=set)
    required: set[int] = field(default_factory=set)     # fence uids
    redundant: set[int] = field(default_factory=set)
    #: fence uid -> one (u, v) delay edge it covers (evidence for logs)
    witness: dict[int, tuple[int, int]] = field(default_factory=dict)
    uncovered: set[tuple[int, int]] = field(default_factory=set)
    candidates: int = 0
    cycles: int = 0
    capped: bool = False

    @property
    def keep_all(self) -> bool:
        """Sound fallback: budget overrun, or a delay edge with no
        covering fence (the placement invariant did not hold here)."""
        return self.capped or bool(self.uncovered)


def _bits(x: int):
    """Positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Rows:
    """Bitset rows over ``graph.nodes`` positions, built once per graph and
    shared by the plain and the sync tier.

    * ``conf[i]``: the accesses conflicting with access ``i`` (0 for a
      fence); ``sync_conf()`` drops the pairs whose locksets intersect;
    * ``exit[i]``: where a thread segment entered at access ``i`` may be
      left — ``i`` itself, or a po-later access of the same thread at a
      location not provably the same (at most two accesses per thread);
    * ``same_loc[i]``: the accesses provably at the same concrete bytes as
      ``i`` (per-location coherence orders po edges between them);
    * per-thread access and fence masks, and the R / W / na masks.
    """

    def __init__(self, graph: ConflictGraph):
        nodes = graph.nodes
        bit = graph.bit
        nthreads = max([graph.nthreads] + [n.thread + 1 for n in nodes])
        self.graph = graph
        self.thread_acc = [0] * nthreads
        self.thread_fences = [0] * nthreads
        self.reads = self.writes = self.na = 0
        self.conf = [0] * len(nodes)
        self._sync_conf: Optional[list[int]] = None
        groups: dict[frozenset, int] = {}
        for i, node in enumerate(nodes):
            b = 1 << i
            if node.uid not in graph.accesses:
                self.thread_fences[node.thread] |= b
                continue
            self.thread_acc[node.thread] |= b
            if node.kind == "R":
                self.reads |= b
            elif node.kind == "W":
                self.writes |= b
            if node.ordering == "na":
                self.na |= b
            if _same_loc_key(node) is not None:
                groups[node.locs] = groups.get(node.locs, 0) | b
            row = 0
            for other in graph.conflicts[node.uid]:
                row |= 1 << bit[other]
            self.conf[i] = row
        self.same_loc = [0] * len(nodes)
        self.exit = [0] * len(nodes)
        for i, node in enumerate(nodes):
            if node.uid not in graph.accesses:
                continue
            if _same_loc_key(node) is not None:
                self.same_loc[i] = groups[node.locs]
            self.exit[i] = (1 << i) | (graph.po[node.uid]
                                       & self.thread_acc[node.thread]
                                       & ~self.same_loc[i])

    def sync_conf(self) -> list[int]:
        """``conf`` without the conflict pairs whose locksets intersect."""
        if self._sync_conf is None:
            graph = self.graph
            rows = list(self.conf)
            for i, node in enumerate(graph.nodes):
                if not rows[i] or not node.locks:
                    continue
                for other in graph.conflicts[node.uid]:
                    if node.locks & graph.accesses[other].locks:
                        # Both sides hold a common lock at the access:
                        # mutual exclusion plus the lock's sc RMW chain
                        # (ord3/ord4) orders the pair, so it cannot lie on
                        # a critical cycle (Chakraborty's sync-ordered
                        # conflict rule).
                        rows[i] &= ~(1 << graph.bit[other])
            self._sync_conf = rows
        return self._sync_conf


class _CycleSearch:
    """Critical-cycle predecessors per source access, under a budget of
    bitset row unions."""

    def __init__(self, rows: _Rows, conf: list[int], budget: int):
        self.rows = rows
        self.conf = conf
        self.budget = budget
        #: row unions spent: conflict rows, exit rows and coverage rows
        self.steps = 0
        self.exhausted = False
        #: accesses with a conflict: the only ones a cycle can pass through
        self.live = 0
        for i, row in enumerate(conf):
            if row:
                self.live |= 1 << i
        self._preds: dict[int, int] = {}

    def spend(self, unions: int) -> None:
        self.steps += unions
        if self.steps > self.budget:
            self.exhausted = True

    def cycle_preds(self, i: int) -> int:
        """The accesses ``u`` of access ``i``'s thread for which the po
        edge ``u -> i`` may lie on a critical cycle, as a bitset.

        One forward sweep over (access, used-thread mask) states from
        ``i`` under its own thread's mask: a state's conflict row leads
        into a thread not yet used, whose exit rows give the next states
        (one or two accesses per intermediate thread, each thread used at
        most once).  Masks grow by one thread per step, so the sweep goes
        level by level in increasing popcount.  Every conflict row reached
        that lands back in ``i``'s thread closes a cycle.

        Two exact shortcuts: a state whose access was already expanded
        under a subset of its mask reaches nothing new (fewer used threads
        only allow more), and the sweep stops once every conflicting
        access of the thread is reached.  Budget exhaustion answers "every
        access" (more cycles = more fences = sound)."""
        if i in self._preds:
            return self._preds[i]
        conf, exit_ = self.conf, self.rows.exit
        thread_acc = self.rows.thread_acc
        home = self.rows.graph.nodes[i].thread
        goal = thread_acc[home] & self.live
        start = 1 << home
        level = {start: 1 << i}
        #: mask -> accesses expanded under it or a subset of it
        expanded = {start: 1 << i}
        reached = 0
        while level and not self.exhausted and reached & goal != goal:
            nxt: dict[int, int] = {}
            for used, frontier in level.items():
                hit = 0
                for w in _bits(frontier):
                    hit |= conf[w]
                unions = frontier.bit_count()
                reached |= hit
                for t, accesses in enumerate(thread_acc):
                    entered = hit & accesses
                    if not entered or used >> t & 1:
                        continue
                    out = 0
                    for w in _bits(entered):
                        out |= exit_[w]
                    unions += entered.bit_count()
                    mask = used | 1 << t
                    nxt[mask] = nxt.get(mask, 0) | out
                self.spend(unions)
            level = {}
            for mask, states in nxt.items():
                below = 0
                for t in _bits(mask ^ start):
                    below |= expanded.get(mask ^ 1 << t, 0)
                expanded[mask] = below | states
                if states & ~below:
                    level[mask] = states & ~below
        preds = thread_acc[home] if self.exhausted else reached & goal
        self._preds[i] = preds
        return preds


def analyze_graph(graph: ConflictGraph, sync: bool = False) -> DelayAnalysis:
    """Find delay edges and classify every fence as required/redundant.

    With ``sync=True`` the search runs over the sync conflict rows: pairs
    whose must-locksets intersect are dropped (the ``sync`` tier)."""
    result = DelayAnalysis(graph)
    if graph.capped:
        result.capped = True
        return result
    rows = graph.rows()
    search = _CycleSearch(rows, rows.sync_conf() if sync else rows.conf,
                          CYCLE_BUDGET)
    try:
        return _analyze_graph(graph, rows, result, search)
    finally:
        # Deterministic cost attribution (repro.profiler): candidate po
        # edges examined and bitset row unions spent.
        work("delayset.candidates", result.candidates)
        work("delayset.cycle_steps", search.steps)


def _analyze_graph(graph: ConflictGraph, rows: _Rows, result: DelayAnalysis,
                   search: _CycleSearch) -> DelayAnalysis:
    nodes, po = graph.nodes, graph.po
    live_na = rows.na & search.live
    # Candidate po pairs: enforceable na->na edges between shared accesses
    # where both endpoints can touch a conflict (else no cycle through
    # them).  sc accesses are ordered by ord3/ord4 natively; x86-TSO itself
    # allows W->R reordering; per-location coherence (sc_per_loc) enforces
    # edges between provably identical locations.
    by_u: list[tuple[int, int]] = []  # (u position, its delay-edge targets)
    for i in _bits(live_na):
        u = nodes[i]
        targets = po[u.uid] & live_na & ~(1 << i) & ~rows.same_loc[i]
        if u.kind == "W":
            targets &= ~rows.reads
        if not targets:
            continue
        result.candidates += targets.bit_count()
        if result.candidates > MAX_CANDIDATES:
            result.capped = True
            return result
        delay = 0
        for j in _bits(targets):
            if search.cycle_preds(j) >> i & 1:
                delay |= 1 << j
        if search.exhausted:
            result.capped = True
            return result
        if delay:
            by_u.append((i, delay))
            for j in _bits(delay):
                result.delay_edges.add((u.uid, nodes[j].uid))
            result.cycles += delay.bit_count()
    # Coverage: a fence is required iff it covers some delay edge; the
    # fences po-between u and v in u's thread are po[u] & po^-1[v].
    for i, delay in by_u:
        u = nodes[i]
        covered = 0
        fences = po[u.uid] & rows.thread_fences[u.thread]
        search.spend(fences.bit_count())
        for f in _bits(fences):
            fence = nodes[f]
            if fence.kind == "sc":
                hit = delay
            elif fence.kind == "rm":
                hit = delay if u.kind == "R" else 0
            elif fence.kind == "ww":
                hit = delay & rows.writes if u.kind == "W" else 0
            else:
                hit = 0
            hit &= po[fence.uid]
            if not hit:
                continue
            covered |= hit
            if fence.uid not in result.required:
                result.required.add(fence.uid)
                result.witness[fence.uid] = (
                    u.uid, nodes[(hit & -hit).bit_length() - 1].uid)
        for j in _bits(delay & ~covered):
            result.uncovered.add((u.uid, nodes[j].uid))
    if search.exhausted:
        result.capped = True
        return result
    result.redundant = set(graph.fences) - result.required
    return result


# -- litmus frontend --------------------------------------------------------


def litmus_locksets(program: ev.Program) -> list[list[frozenset]]:
    """Per-thread, per-op must-held lock keys of a litmus program.

    Threads are straight-line, so the lockset is a simple scan: a blocking
    acquire RMW (``events.Lock``) adds its location, a blocking release
    (``events.Unlock``) removes it.  The lock operations themselves carry
    an empty lockset — their conflicts on the lock word *are* the
    synchronization and must stay in the graph."""
    out: list[list[frozenset]] = []
    for ops in program.threads:
        held: set[str] = set()
        thread_sets: list[frozenset] = []
        for op in ops:
            if isinstance(op, ev.Rmw) and op.blocking:
                thread_sets.append(frozenset())
                if op.sync == "acquire":
                    held.add(op.loc)
                elif op.sync == "release":
                    held.discard(op.loc)
            else:
                thread_sets.append(frozenset(("lit", loc) for loc in held))
        out.append(thread_sets)
    return out


def graph_from_litmus(program: ev.Program) -> ConflictGraph:
    """Conflict graph of a LIMM-level litmus program (e.g. the image of
    ``map_x86_to_ir``).  x86 ``mfence`` is treated as ``sc``.  Every
    access carries its lockset (see :func:`litmus_locksets`) for the sync
    tier."""
    graph = ConflictGraph(nthreads=len(program.threads))
    locksets = litmus_locksets(program)
    uid = 0
    for t, ops in enumerate(program.threads):
        thread_nodes: list[int] = []
        for idx, op in enumerate(ops):
            if isinstance(op, ev.Ld):
                ordering = "sc" if op.ordering == "sc" else "na"
                graph.add_access(Access(
                    uid, t, "R", ordering, frozenset({("lit", op.loc)}),
                    f"T{t}: Ld {op.loc}", inst=(t, idx), index=idx,
                    locks=locksets[t][idx]))
            elif isinstance(op, ev.St):
                ordering = "sc" if op.ordering == "sc" else "na"
                graph.add_access(Access(
                    uid, t, "W", ordering, frozenset({("lit", op.loc)}),
                    f"T{t}: St {op.loc}", inst=(t, idx), index=idx,
                    locks=locksets[t][idx]))
            elif isinstance(op, ev.Rmw):
                graph.add_access(Access(
                    uid, t, "RW", "sc", frozenset({("lit", op.loc)}),
                    f"T{t}: RMW {op.loc}", inst=(t, idx), index=idx,
                    locks=locksets[t][idx]))
            elif isinstance(op, ev.Fence):
                kind = "sc" if op.kind == "mfence" else op.kind
                if kind not in ("rm", "ww", "sc"):
                    kind = "sc"  # arm-level fences: strongest, never elided
                graph.add_fence(FenceNode(
                    uid, t, kind, f"T{t}: F{kind}", inst=(t, idx), index=idx))
            else:  # CtrlDep: no event
                continue
            thread_nodes.append(uid)
            uid += 1
        for i, a in enumerate(thread_nodes):
            for b in thread_nodes[i + 1:]:
                graph.add_po(a, b)
    graph.build_conflicts()
    return graph


@dataclass
class LitmusDecision:
    thread: int
    index: int
    kind: str
    verdict: str  # "required" | "redundant" | "kept"
    reason: str
    tier: str = ""  # "delayset" | "sync" for redundant verdicts


@dataclass
class LitmusDelayResult:
    program: ev.Program
    elided: ev.Program
    analysis: DelayAnalysis
    decisions: list[LitmusDecision]
    sync_analysis: Optional[DelayAnalysis] = None

    @property
    def elided_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict == "redundant")

    @property
    def elided_sync_count(self) -> int:
        return sum(1 for d in self.decisions
                   if d.verdict == "redundant" and d.tier == "sync")

    @property
    def required_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict == "required")


def elide_litmus_fences(program: ev.Program,
                        sync: bool = False) -> LitmusDelayResult:
    """Classify and drop redundant Frm/Fww fences of a LIMM litmus
    program.  ``sc`` fences are always kept (they encode source MFENCEs).

    With ``sync=True`` a second, sync-refined analysis runs on top of the
    base one, over the same graph: fences required by the base delay sets
    but redundant once lock-ordered conflict edges are dropped are elided
    under the ``sync`` tier.  A capped/uncovered sync analysis contributes
    nothing (fences fall back to the base verdict)."""
    graph = graph_from_litmus(program)
    analysis = analyze_graph(graph)
    sync_analysis: Optional[DelayAnalysis] = None
    sync_redundant: set = set()  # (t, idx) inst keys
    if sync:
        sync_analysis = analyze_graph(graph, sync=True)
        if not sync_analysis.keep_all:
            sync_redundant = {
                f.inst for f_uid, f in graph.fences.items()
                if f.kind != "sc" and f_uid in sync_analysis.redundant
            }
    verdicts: dict[tuple[int, int], tuple[str, str, str]] = {}
    for f_uid, f in graph.fences.items():
        if f.kind == "sc":
            verdicts[f.inst] = (
                "kept", "Fsc (source MFENCE) is never elided", "")
        elif analysis.keep_all:
            reason = ("analysis budget exhausted"
                      if analysis.capped else "uncovered delay edge")
            verdicts[f.inst] = ("kept", f"kept conservatively: {reason}", "")
        elif f_uid in analysis.required:
            if f.inst in sync_redundant:
                verdicts[f.inst] = (
                    "redundant",
                    "every conflict it orders is lock-protected "
                    "(sync-refined delay sets)", "sync")
                continue
            u_uid, v_uid = analysis.witness[f_uid]
            u, v = graph.accesses[u_uid], graph.accesses[v_uid]
            verdicts[f.inst] = (
                "required",
                f"covers delay edge {u.label} -> {v.label} "
                "(on a critical cycle)", "")
        else:
            verdicts[f.inst] = (
                "redundant", "covers no critical-cycle delay edge",
                "delayset")
    threads = []
    decisions = []
    for t, ops in enumerate(program.threads):
        kept_ops = []
        for idx, op in enumerate(ops):
            if isinstance(op, ev.Fence):
                verdict, reason, tier = verdicts.get(
                    (t, idx), ("kept", "unclassified fence kept", ""))
                decisions.append(LitmusDecision(
                    t, idx, op.kind, verdict, reason, tier=tier))
                if verdict == "redundant":
                    continue
            kept_ops.append(op)
        threads.append(kept_ops)
    elided = ev.Program(threads, dict(program.init),
                        f"{program.name}-delayset")
    return LitmusDelayResult(program, elided, analysis, decisions,
                             sync_analysis=sync_analysis)


def check_litmus_elision(
    source: ev.Program, sync: bool = False
) -> tuple[bool, "LitmusDelayResult"]:
    """The enumeration gate: map an x86 litmus program through Fig. 8a,
    elide redundant fences, and prove by exhaustive LIMM enumeration that
    the elided program admits no outcome the x86 source forbids."""
    from ..memmodel.axioms import outcomes
    from ..memmodel.mappings import map_x86_to_ir

    mapped = map_x86_to_ir(source)
    result = elide_litmus_fences(mapped, sync=sync)
    allowed = outcomes(source, "x86")
    observed = outcomes(result.elided, "limm")
    return observed <= allowed, result


# -- module frontend --------------------------------------------------------


def _block_reach(func: Function) -> dict:
    """block -> set of blocks reachable via >= 1 CFG edge (so a block in a
    cycle reaches itself)."""
    blocks = list(func.blocks)
    index = {bb: k for k, bb in enumerate(blocks)}
    rows = _reach_rows([[index[s] for s in bb.successors()] for bb in blocks])
    return {bb: {blocks[k] for k in _bits(row)}
            for bb, row in zip(blocks, rows)}


def _reach_rows(succ: list[list[int]]) -> list[int]:
    """Transitive closure by SCC condensation: row ``i`` is the bitset of
    the nodes reachable from ``i`` by one or more edges (so a node on a
    cycle reaches itself).  Tarjan's algorithm completes every SCC after
    the SCCs it reaches, so one OR per condensation edge, in completion
    (reverse topological) order, fills every row."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    rows = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, children = frames[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # still on the stack: same SCC or above
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] != index[v]:
                    continue
                members = []
                while True:
                    w = stack.pop()
                    comp[w] = v
                    members.append(w)
                    if w == v:
                        break
                row = 0
                cyclic = len(members) > 1
                for m in members:
                    for w in succ[m]:
                        if comp[w] == v:
                            cyclic = True
                        else:
                            row |= (1 << w) | rows[w]
                if cyclic:
                    for m in members:
                        row |= 1 << m
                for m in members:
                    rows[m] = row
    return rows


@dataclass
class FenceDecision:
    func: str
    block: str
    index: int
    kind: str
    verdict: str  # "required" | "redundant" | "kept"
    reason: str
    x86: str = ""
    tier: str = ""  # "delayset" | "sync" for redundant verdicts


@dataclass
class ModuleDelayResult:
    graph: ConflictGraph
    analysis: DelayAnalysis
    #: the sync tier over the same graph; None unless asked for and the
    #: base analysis was usable
    sync_analysis: Optional[DelayAnalysis] = None
    #: id(fence inst) -> True when some thread copy needs it
    required_insts: set[int] = field(default_factory=set)
    #: the same under the sync tier
    sync_required_insts: set[int] = field(default_factory=set)
    seen_insts: set[int] = field(default_factory=set)
    #: id(fence inst) -> (u.label, v.label) witness
    witnesses: dict[int, tuple[str, str]] = field(default_factory=dict)
    threads: list[str] = field(default_factory=list)

    @property
    def keep_all(self) -> bool:
        return self.analysis.keep_all


def graph_from_module(module: Module,
                      ma: Optional[ModuleAnalysis] = None,
                      locksets: bool = False) -> tuple[
                          ConflictGraph, list[str]]:
    """Build the whole-module conflict graph.

    Thread roots are ``main``-like entries (no intra-module caller) plus
    every address-taken function; address-taken roots contribute **two**
    thread copies so a worker racing its own clone is modelled.  Each
    root's thread inlines the shared accesses of every function reachable
    through direct calls; "may execute before" is CFG reachability within
    a function composed with call structure (enter/exit virtual nodes).
    External calls are assumed memory-model-neutral (see module docstring
    Limitations) and contribute no access node.

    With ``locksets=True`` every access node carries the must-lockset the
    :mod:`repro.analysis.sync` dataflow computed for its instruction, which
    the sync tier (``analyze_graph(graph, sync=True)``) needs.
    """
    ma = ma or analyze_module(module)
    cg = ma.callgraph
    locks_at: dict[int, frozenset] = {}
    if locksets:
        from .sync import compute_locksets
        locks_at = compute_locksets(module, ma).at_instruction
    graph = ConflictGraph()
    thread_names: list[str] = []
    roots: list[tuple[Function, int]] = []
    for root in cg.thread_roots():
        copies = 2 if root.name in cg.address_taken else 1
        for c in range(copies):
            roots.append((root, c))
            thread_names.append(root.name + (f"#{c}" if copies > 1 else ""))
    if not roots or len(roots) > MAX_THREADS:
        graph.capped = True
        return graph, thread_names
    graph.nthreads = len(roots)

    uid_counter = [0]

    def fresh_uid() -> int:
        uid_counter[0] += 1
        return uid_counter[0]

    reach_cache: dict[str, dict] = {}

    for thread, (root, _copy) in enumerate(roots):
        base = len(graph.nodes)
        funcs = cg.reachable_from(root)
        # virtual enter/exit per function for cross-call ordering
        enter = {f.name: fresh_uid() for f in funcs}
        exit_ = {f.name: fresh_uid() for f in funcs}
        edges: dict[int, set[int]] = {}

        def add_edge(a: int, b: int) -> None:
            edges.setdefault(a, set()).add(b)

        real_nodes: list[int] = []
        for func in funcs:
            alias = ma.alias(func)
            if func.name not in reach_cache:
                reach_cache[func.name] = _block_reach(func)
            breach = reach_cache[func.name]
            positions: list[tuple[int, object, int]] = []  # (uid, bb, idx)
            calls: list[tuple[str, object, int]] = []
            for bb in func.blocks:
                for idx, inst in enumerate(bb.instructions):
                    node = None
                    if isinstance(inst, Load) and \
                            not alias.is_thread_local(inst.pointer):
                        node = Access(
                            fresh_uid(), thread, "R",
                            "na" if inst.ordering == "na" else "sc",
                            _location_keys(inst, inst.pointer, func, alias),
                            f"{func.name}:{bb.name}:{idx} load",
                            inst=inst, func=func.name, block=bb.name,
                            index=idx, locks=locks_at.get(id(inst),
                                                          frozenset()))
                        graph.add_access(node)
                    elif isinstance(inst, Store) and \
                            not alias.is_thread_local(inst.pointer):
                        node = Access(
                            fresh_uid(), thread, "W",
                            "na" if inst.ordering == "na" else "sc",
                            _location_keys(inst, inst.pointer, func, alias),
                            f"{func.name}:{bb.name}:{idx} store",
                            inst=inst, func=func.name, block=bb.name,
                            index=idx, locks=locks_at.get(id(inst),
                                                          frozenset()))
                        graph.add_access(node)
                    elif isinstance(inst, (AtomicRMW, CmpXchg)):
                        if not alias.is_thread_local(inst.pointer):
                            node = Access(
                                fresh_uid(), thread, "RW", "sc",
                                _location_keys(inst, inst.pointer, func,
                                               alias),
                                f"{func.name}:{bb.name}:{idx} rmw",
                                inst=inst, func=func.name, block=bb.name,
                                index=idx, locks=locks_at.get(id(inst),
                                                              frozenset()))
                            graph.add_access(node)
                    elif isinstance(inst, Fence):
                        node = FenceNode(
                            fresh_uid(), thread, inst.kind,
                            f"{func.name}:{bb.name}:{idx} F{inst.kind}",
                            inst=inst, func=func.name, block=bb.name,
                            index=idx)
                        graph.add_fence(node)
                    elif isinstance(inst, Call):
                        callee = inst.callee
                        if isinstance(callee, Function) and \
                                callee.name in enter:
                            calls.append((callee.name, bb, idx))
                    if node is not None:
                        positions.append((node.uid, bb, idx))
                        real_nodes.append(node.uid)
                        if len(real_nodes) > MAX_NODES:
                            graph.capped = True
                            return graph, thread_names

            def before(bb_a, idx_a, bb_b, idx_b) -> bool:
                if bb_a is bb_b:
                    return idx_a < idx_b or bb_a in breach[bb_a]
                return bb_b in breach[bb_a]

            add_edge(enter[func.name], exit_[func.name])
            for uid_a, bb_a, idx_a in positions:
                add_edge(enter[func.name], uid_a)
                add_edge(uid_a, exit_[func.name])
                for uid_b, bb_b, idx_b in positions:
                    if uid_a != uid_b and before(bb_a, idx_a, bb_b, idx_b):
                        add_edge(uid_a, uid_b)
            for callee_name, bb_c, idx_c in calls:
                add_edge(enter[func.name], enter[callee_name])
                add_edge(exit_[callee_name], exit_[func.name])
                for uid_a, bb_a, idx_a in positions:
                    if before(bb_a, idx_a, bb_c, idx_c):
                        add_edge(uid_a, enter[callee_name])
                    if before(bb_c, idx_c, bb_a, idx_a):
                        add_edge(exit_[callee_name], uid_a)
                # A call's exit reaches every call that may follow it
                # (itself too, around a loop): two calls with no access
                # or fence of this function between them are still
                # ordered.
                for later_name, bb_l, idx_l in calls:
                    if before(bb_c, idx_c, bb_l, idx_l):
                        add_edge(exit_[callee_name], enter[later_name])

        # po = reachability over the per-thread edge graph, restricted to
        # this thread's real (access/fence) nodes.  They come first in the
        # local numbering and hold positions [base, base + len) of
        # graph.nodes, so a row converts by a mask and a shift.
        local = {uid: k for k, uid in enumerate(real_nodes)}
        for uid, targets in edges.items():
            local.setdefault(uid, len(local))
            for target in targets:
                local.setdefault(target, len(local))
        succ: list[list[int]] = [[] for _ in local]
        for uid, targets in edges.items():
            succ[local[uid]] = [local[target] for target in targets]
        rows = _reach_rows(succ)
        real_mask = (1 << len(real_nodes)) - 1
        for k, uid in enumerate(real_nodes):
            graph.po[uid] = (rows[k] & real_mask) << base
    graph.build_conflicts()
    return graph, thread_names


def analyze_module_fences(module: Module,
                          ma: Optional[ModuleAnalysis] = None,
                          sync: bool = False) -> ModuleDelayResult:
    """Build the module's conflict graph once and run the delay-set
    analysis over it; with ``sync=True`` the graph carries locksets and,
    unless the base analysis keeps every fence, the sync tier runs too,
    over the same po and exit rows."""
    graph, thread_names = graph_from_module(module, ma, locksets=sync)
    analysis = analyze_graph(graph)
    result = ModuleDelayResult(graph, analysis, threads=thread_names)
    if sync and not analysis.keep_all:
        result.sync_analysis = analyze_graph(graph, sync=True)
    for f_uid, f in graph.fences.items():
        result.seen_insts.add(id(f.inst))
        if result.sync_analysis is not None and \
                f_uid in result.sync_analysis.required:
            result.sync_required_insts.add(id(f.inst))
        if f_uid in analysis.required:
            result.required_insts.add(id(f.inst))
            u_uid, v_uid = analysis.witness[f_uid]
            result.witnesses.setdefault(
                id(f.inst), (graph.accesses[u_uid].label,
                             graph.accesses[v_uid].label))
    return result


# -- elision on LIR modules -------------------------------------------------


@dataclass
class DelaySetStats:
    fences_before: int = 0
    required: int = 0
    elided: int = 0
    elided_sync: int = 0       # of ``elided``: only via the sync refinement
    kept_sc: int = 0
    kept_conservative: int = 0
    delay_edges: int = 0
    sync_dropped_conflicts: int = 0
    capped: bool = False
    kept_all: bool = False
    sync: bool = False         # the sync refinement ran and was usable
    decisions: list[FenceDecision] = field(default_factory=list)


def _protected_access(fence_inst: Fence, insts: list, pos: int):
    """The access a placed fence (at ``insts[pos]``) is adjacent to: the
    load right before an ``Frm``, the store right after an ``Fww``.  None
    if the shape is not the placement shape (then the fence is kept)."""
    if fence_inst.kind == "rm":
        if pos > 0 and isinstance(insts[pos - 1], Load):
            return insts[pos - 1]
    elif fence_inst.kind == "ww":
        if pos + 1 < len(insts) and isinstance(insts[pos + 1], Store):
            return insts[pos + 1]
    return None


def elide_redundant_fences(module: Module,
                           ma: Optional[ModuleAnalysis] = None,
                           result: Optional[ModuleDelayResult] = None,
                           sync: bool = False) -> DelaySetStats:
    """Remove every Frm/Fww the delay-set analysis proves redundant.

    Must run right after :func:`repro.fences.place_fences` (before the O2
    pipeline and fence merging), while every fence still sits adjacent to
    the access it protects.  Each elided fence stamps its access with a
    ``delayset_cert`` so ``fencecheck`` (and the oracle's audit rung) can
    distinguish a certified elision from a lost fence.

    With ``sync=True`` a second, lockset-refined analysis runs on top, over
    the same graph: fences the base delay sets require but whose every
    ordered conflict is lock-protected are elided under the ``sync`` tier
    (``fences.skipped_sync``).  A capped or uncovered sync analysis
    contributes nothing — fences keep their base verdict.  A precomputed
    ``result`` needs ``analyze_module_fences(..., sync=True)`` for the
    sync tier to contribute.
    """
    if result is None:
        result = analyze_module_fences(module, ma, sync=sync)
    use_sync = (sync and result.sync_analysis is not None
                and not result.sync_analysis.keep_all)
    stats = DelaySetStats(capped=result.analysis.capped,
                          kept_all=result.keep_all,
                          delay_edges=len(result.analysis.delay_edges),
                          sync=use_sync)
    if use_sync:
        stats.sync_dropped_conflicts = result.graph.sync_dropped
    emit = telemetry.remarks_enabled()
    for func in module.functions.values():
        if func.is_declaration:
            continue
        for bb in func.blocks:
            erased = 0  # fences of this block already erased
            for idx, inst in enumerate(list(bb.instructions)):
                if not isinstance(inst, Fence):
                    continue
                stats.fences_before += 1
                where = FenceDecision(func.name, bb.name, idx, inst.kind,
                                      "kept", "", x86=x86_location(inst))
                if inst.kind == "sc":
                    stats.kept_sc += 1
                    continue  # Fsc encodes a source MFENCE: never elide
                if result.keep_all:
                    stats.kept_conservative += 1
                    where.reason = ("analysis budget exhausted"
                                    if result.analysis.capped
                                    else "uncovered delay edge; kept all")
                    stats.decisions.append(where)
                    continue
                if id(inst) not in result.seen_insts:
                    stats.kept_conservative += 1
                    where.reason = "unreachable from any thread root"
                    stats.decisions.append(where)
                    continue
                tier = ""
                if id(inst) not in result.required_insts:
                    tier = "delayset"
                    reason = ("covers no critical-cycle delay edge "
                              "(Shasha-Snir delay-set analysis)")
                elif (use_sync
                        and id(inst) not in result.sync_required_insts):
                    tier = "sync"
                    reason = ("every conflict it orders is lock-protected "
                              "(sync-refined delay sets)")
                if not tier:
                    stats.required += 1
                    u_label, v_label = result.witnesses[id(inst)]
                    where.verdict = "required"
                    where.reason = (f"covers delay edge {u_label} -> "
                                    f"{v_label} (critical cycle)")
                    stats.decisions.append(where)
                    continue
                access = _protected_access(inst, bb.instructions,
                                           idx - erased)
                if access is None:
                    stats.kept_conservative += 1
                    where.reason = "not adjacent to its access; kept"
                    stats.decisions.append(where)
                    continue
                # Redundant: remove, certify, log.
                certs = set(getattr(access, "delayset_cert", ()))
                certs.add(inst.kind)
                access.delayset_cert = frozenset(certs)
                access.placement = tuple(getattr(access, "placement", ())) + (
                    f"elided: F{inst.kind} for this access is redundant — "
                    + reason,)
                where.verdict = "redundant"
                where.reason = reason
                where.tier = tier
                stats.decisions.append(where)
                if emit:
                    telemetry.remark(
                        "delay-set", "fence-elided",
                        f"F{inst.kind} elided: {reason}",
                        function=func.name, block=bb.name,
                        instruction=f"fence.{inst.kind}",
                        x86=x86_location(inst) or "")
                inst.erase_from_parent()
                erased += 1
                stats.elided += 1
                if tier == "sync":
                    stats.elided_sync += 1
    if stats.kept_all and emit:
        telemetry.remark(
            "delay-set", "analysis-capped",
            "delay-set analysis fell back to keeping every fence "
            + ("(budget exhausted)" if stats.capped
               else "(uncovered delay edge)"))
    return stats


def audit_module(module: Module,
                 ma: Optional[ModuleAnalysis] = None,
                 sync: bool = False) -> list[str]:
    """Re-derive the delay-set facts from scratch and check every
    cycle-freeness certificate: a certified access must not start an
    uncovered enforceable delay edge.  Returns violation strings (empty =
    every certificate is justified).  Intended for the placement-stage
    snapshot, where fences are still adjacent to their accesses.

    Pass ``sync=True`` when the module was elided under the sync tier —
    the audit then searches the lockset-refined conflict rows, whose delay
    edges are a subset of the base analysis's."""
    graph, _threads = graph_from_module(module, ma, locksets=sync)
    analysis = analyze_graph(graph, sync=sync)
    violations: list[str] = []
    if analysis.capped:
        certified = any(
            getattr(inst, "delayset_cert", None)
            for func in module.functions.values()
            if not func.is_declaration
            for inst in func.instructions())
        if certified:
            violations.append(
                "delay-set audit: analysis budget exhausted but the module "
                "carries delayset_cert stamps")
        return violations
    for u_uid, v_uid in sorted(analysis.uncovered):
        u = graph.accesses[u_uid]
        v = graph.accesses[v_uid]
        violations.append(
            f"uncovered delay edge {u.label} -> {v.label}: no surviving "
            "fence orders a critical-cycle pair")
    return violations
