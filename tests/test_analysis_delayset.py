"""Tests for the Shasha–Snir delay-set tier (repro.analysis.delayset):
litmus classification, the exhaustive-enumeration soundness gate, module
elision with cycle-freeness certificates, the audit path, the bitset
cycle search against a brute-force enumeration of critical cycles, and
the cycle budget."""

import itertools
import random
from pathlib import Path

import pytest

from repro.analysis import check_module, delayset
from repro.analysis.delayset import (
    TOP,
    Access,
    ConflictGraph,
    FenceNode,
    analyze_graph,
    analyze_module_fences,
    audit_module,
    check_litmus_elision,
    elide_litmus_fences,
    elide_redundant_fences,
    graph_from_litmus,
)
from repro.lir import (
    ConstantInt,
    Fence,
    Function,
    FunctionType,
    GlobalVariable,
    I64,
    IRBuilder,
    Module,
)
from repro.lir.clone import clone_module
from repro.memmodel.axioms import outcomes
from repro.memmodel.litmus import MP, SB, X86_SOURCE_CORPUS
from repro.memmodel.mappings import map_x86_to_ir
from repro.profiler import workcounters


class TestLitmusClassification:
    def test_sb_fences_are_redundant(self):
        # SB's po edges are W -> R, which x86-TSO itself leaves unordered:
        # no Frm/Fww covers a delay edge, so Fig. 8a's fences all go.
        result = elide_litmus_fences(map_x86_to_ir(SB))
        assert result.required_count == 0
        assert result.elided_count > 0
        assert all(d.verdict in ("redundant", "kept")
                   for d in result.decisions)

    def test_mp_fences_are_required(self):
        # MP's W->W (data, flag) and R->R (flag, data) edges lie on the
        # classic critical cycle: the covering Fww and Frm must stay.
        result = elide_litmus_fences(map_x86_to_ir(MP))
        assert result.required_count >= 2
        kinds = {d.kind for d in result.decisions if d.verdict == "required"}
        assert kinds == {"ww", "rm"}
        # The elided program still forbids the MP weak outcome.
        allowed = outcomes(MP, "x86")
        assert outcomes(result.elided, "limm") <= allowed

    def test_mfence_image_never_elided(self):
        from repro.memmodel.litmus import ALL_LITMUS

        fenced = next(p for p in ALL_LITMUS if p.name == "SB+mfences")
        result = elide_litmus_fences(map_x86_to_ir(fenced))
        sc_decisions = [d for d in result.decisions if d.kind == "sc"]
        assert sc_decisions
        assert all(d.verdict == "kept" for d in sc_decisions)

    def test_graph_shape(self):
        graph = graph_from_litmus(map_x86_to_ir(SB))
        assert graph.nthreads == 2
        # Every access conflicts with the other thread's same-location pair.
        assert all(graph.conflicts[a.uid] for a in graph.accesses.values())


class TestEnumerationGate:
    def test_every_elision_is_sound(self):
        """The acceptance gate: exhaustive LIMM enumeration proves every
        delay-set elision on the x86-source corpus admits no execution
        the TSO source forbids."""
        total_elided = 0
        total_required = 0
        for program in X86_SOURCE_CORPUS:
            sound, result = check_litmus_elision(program)
            assert sound, f"{program.name}: delay-set elision is UNSOUND"
            total_elided += result.elided_count
            total_required += result.required_count
        assert total_elided > 0
        assert total_required > 0


def _two_thread_module(mp_shape: bool):
    """Two thread roots over globals: MP (requires fences) or SB (all
    fences redundant), pre-fenced in the Fig. 8a placement shape."""
    m = Module("t")
    gx = GlobalVariable("x", I64)
    gy = GlobalVariable("y", I64)
    m.add_global(gx)
    m.add_global(gy)
    t0 = Function("t0", FunctionType(I64, ()), [])
    t1 = Function("t1", FunctionType(I64, ()), [])
    m.add_function(t0)
    m.add_function(t1)
    b0 = IRBuilder(t0.new_block("entry"))
    b1 = IRBuilder(t1.new_block("entry"))
    if mp_shape:
        b0.store(ConstantInt(I64, 1), gx)   # data
        b0.store(ConstantInt(I64, 1), gy)   # flag
        r0 = b1.load(gy, name="flag")
        r1 = b1.load(gx, name="data")
        b1.ret(b1.add(r0, r1, "s"))
        b0.ret(ConstantInt(I64, 0))
    else:
        b0.store(ConstantInt(I64, 1), gx)
        r0 = b0.load(gy, name="r0")
        b0.ret(r0)
        b1.store(ConstantInt(I64, 1), gy)
        r1 = b1.load(gx, name="r1")
        b1.ret(r1)
    from repro.fences import place_fences

    place_fences(m)
    return m


def _fences(m):
    return [i for f in m.functions.values() if not f.is_declaration
            for i in f.instructions() if isinstance(i, Fence)]


def _mp_through_calls_module():
    """MP with the writer's stores in two callees called back to back:
    ``writer`` calls ``set_x()`` (x = 1) then ``set_y()`` (y = 1); the
    reader loads y then x.  Nothing of ``writer`` lies between the calls,
    so only call structure orders the two stores."""
    m = Module("t")
    gx = GlobalVariable("x", I64)
    gy = GlobalVariable("y", I64)
    m.add_global(gx)
    m.add_global(gy)
    setters = []
    for name, g in (("set_x", gx), ("set_y", gy)):
        f = Function(name, FunctionType(I64, ()), [])
        m.add_function(f)
        b = IRBuilder(f.new_block("entry"))
        b.store(ConstantInt(I64, 1), g)
        b.ret(ConstantInt(I64, 0))
        setters.append(f)
    writer = Function("writer", FunctionType(I64, ()), [])
    reader = Function("reader", FunctionType(I64, ()), [])
    m.add_function(writer)
    m.add_function(reader)
    bw = IRBuilder(writer.new_block("entry"))
    for f in setters:
        bw.call(f, [])
    bw.ret(ConstantInt(I64, 0))
    br = IRBuilder(reader.new_block("entry"))
    flag = br.load(gy, name="flag")
    data = br.load(gx, name="data")
    br.ret(br.add(flag, data, "s"))
    from repro.fences import place_fences

    place_fences(m)
    return m


class TestModuleElision:
    def test_sb_module_elides_everything(self):
        m = _two_thread_module(mp_shape=False)
        before = len(_fences(m))
        assert before == 4
        stats = elide_redundant_fences(m)
        assert stats.elided == 4
        assert stats.required == 0
        assert not _fences(m)
        # Decision log covers every fence with a reason.
        assert len(stats.decisions) == 4
        assert all(d.reason for d in stats.decisions)

    def test_mp_module_keeps_critical_fences(self):
        m = _two_thread_module(mp_shape=True)
        stats = elide_redundant_fences(m)
        assert stats.required == 2
        assert stats.elided == 2
        kinds = sorted(f.kind for f in _fences(m))
        assert kinds == ["rm", "ww"]
        witnesses = [d for d in stats.decisions if d.verdict == "required"]
        assert all("delay edge" in d.reason for d in witnesses)

    def test_mp_across_back_to_back_calls_keeps_critical_fences(self):
        # exit[set_x] -> enter[set_y] puts x = 1 po-before y = 1 although
        # no access or fence of the writer lies between the two calls.
        m = _mp_through_calls_module()
        assert len(_fences(m)) == 4
        stats = elide_redundant_fences(m)
        assert stats.required == 2
        kept = {(d.func, d.kind) for d in stats.decisions
                if d.verdict == "required"}
        assert kept == {("set_y", "ww"), ("reader", "rm")}
        assert audit_module(m) == []

    def test_ppopt_build_keeps_mp_fences_across_calls(self):
        from repro.core import Lasagne

        source = """
int x = 0;
int y = 0;
int set_x() { x = 1; return 0; }
int set_y() { y = 1; return 0; }
int writer(int t) { set_x(); set_y(); return 0; }
int main() {
  int w = spawn(writer, 0);
  int r = y;
  int d = x;
  join(w);
  return r + d;
}
"""
        built = Lasagne(fence_analysis="delay-sets").build(source, "ppopt")
        assert built.fences_naive == 4
        kept = {(d.func, d.kind) for d in built.delayset.decisions
                if d.verdict == "required"}
        assert kept == {("set_y", "ww"), ("main", "rm")}
        assert built.fences_elided_delayset == 2

    def test_elision_stamps_certificates(self):
        m = _two_thread_module(mp_shape=False)
        elide_redundant_fences(m)
        certs = {}
        for func in m.functions.values():
            for inst in func.instructions():
                cert = getattr(inst, "delayset_cert", None)
                if cert:
                    certs[type(inst).__name__] = cert
        assert certs.get("Load") == frozenset({"rm"})
        assert certs.get("Store") == frozenset({"ww"})

    def test_certificates_survive_cloning(self):
        m = _two_thread_module(mp_shape=False)
        elide_redundant_fences(m)
        snap = clone_module(m)
        stamped = [inst for func in snap.functions.values()
                   for inst in func.instructions()
                   if getattr(inst, "delayset_cert", None)]
        assert len(stamped) == 4

    def test_fencecheck_honours_certificates(self):
        m = _two_thread_module(mp_shape=False)
        assert check_module(m) == []          # fully fenced: clean
        elide_redundant_fences(m)
        # Without the certificates these would all be missing-fence
        # violations; the delayset_cert stamps discharge them.
        assert check_module(m) == []

    def test_uncertified_removal_still_caught(self):
        m = _two_thread_module(mp_shape=False)
        for fence in _fences(m):
            fence.erase_from_parent()          # no certificates stamped
        assert len(check_module(m)) == 4

    def test_audit_accepts_certified_module(self):
        m = _two_thread_module(mp_shape=False)
        elide_redundant_fences(m)
        assert audit_module(m) == []

    def test_audit_flags_missing_required_fence(self):
        m = _two_thread_module(mp_shape=True)
        elide_redundant_fences(m)
        for fence in _fences(m):               # strip the REQUIRED fences
            fence.erase_from_parent()
        violations = audit_module(m)
        assert violations
        assert any("uncovered delay edge" in v for v in violations)

    def test_analyze_module_fences_witnesses(self):
        m = _two_thread_module(mp_shape=True)
        result = analyze_module_fences(m)
        assert result.required_insts
        assert result.witnesses
        assert len(result.threads) == 2

    def test_thread_local_accesses_not_in_graph(self):
        m = Module("t")
        f = Function("main", FunctionType(I64, ()), [])
        m.add_function(f)
        b = IRBuilder(f.new_block("entry"))
        a = b.alloca(I64, "a")
        b.store(ConstantInt(I64, 1), a)
        v = b.load(a, name="v")
        b.ret(v)
        result = analyze_module_fences(m)
        assert not result.graph.accesses


# -- the bitset search against a brute-force reference ------------------------

_LOCS = [frozenset({TOP}), frozenset({("lit", "x")}), frozenset({("lit", "y")}),
         frozenset({("g", "g", 0, 8)}), frozenset({("g", "g", 4, 8)}),
         frozenset({("g", "h", 0, 8)}),
         frozenset({("lit", "x"), ("lit", "y")})]
_LOCKS = [frozenset(), frozenset(), frozenset({("lit", "m")}),
          frozenset({("lit", "m"), ("lit", "n")}), frozenset({("lit", "n")})]


def _random_graph(rng: random.Random) -> ConflictGraph:
    """<= 4 threads of <= 6 accesses (plus fences), mixed TOP / global /
    litmus locations, R/W/RW, na/sc, some under locks; a thread's po is
    straight-line or, sometimes, a loop (every pair both ways)."""
    nthreads = rng.randint(2, 4)
    graph = ConflictGraph(nthreads=nthreads)
    uid = 0
    for t in range(nthreads):
        thread_nodes = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.25:
                graph.add_fence(FenceNode(uid, t, rng.choice(["rm", "ww", "sc"]),
                                          f"T{t}:F{uid}"))
            else:
                kind = rng.choice(["R", "R", "W", "W", "RW"])
                ordering = "sc" if kind == "RW" or rng.random() < 0.15 else "na"
                graph.add_access(Access(uid, t, kind, ordering,
                                        rng.choice(_LOCS), f"T{t}:A{uid}",
                                        locks=rng.choice(_LOCKS)))
            thread_nodes.append(uid)
            uid += 1
        loop = rng.random() < 0.2
        for i, a in enumerate(thread_nodes):
            for j, b in enumerate(thread_nodes):
                if i < j or (loop and i != j):
                    graph.add_po(a, b)
    graph.build_conflicts()
    return graph


def _po_uids(graph: ConflictGraph, uid: int) -> set:
    return {node.uid for i, node in enumerate(graph.nodes)
            if graph.po[uid] >> i & 1}


def _same_loc(a: Access, b: Access) -> bool:
    if len(a.locs) != 1 or a.locs != b.locs:
        return False
    (key,) = a.locs
    return key != TOP and key[0] in ("g", "lit")


def _reference_delay_edges(graph: ConflictGraph, sync: bool) -> set:
    """Enumerate critical cycles directly: u -po-> v, then a path through
    distinct other threads, one or two accesses each (two only if
    po-ordered and at different locations), joined by conflict edges, and
    back to u."""
    acc = graph.accesses

    def conflict(a: Access, b: Access) -> bool:
        if b.uid not in graph.conflicts[a.uid]:
            return False
        return not (sync and a.locks & b.locks)

    def po(a: Access, b: Access) -> bool:
        return b.uid in _po_uids(graph, a.uid)

    segments: dict[int, list[tuple[Access, Access]]] = {}
    for w in acc.values():
        segments.setdefault(w.thread, []).append((w, w))
        for y in acc.values():
            if (y is not w and y.thread == w.thread and po(w, y)
                    and not _same_loc(w, y)):
                segments[w.thread].append((w, y))

    def closes(last: Access, u: Access, used: frozenset) -> bool:
        if conflict(last, u):
            return True
        for t in range(graph.nthreads):
            if t in used:
                continue
            for w, y in segments.get(t, ()):
                if conflict(last, w) and closes(y, u, used | {t}):
                    return True
        return False

    edges = set()
    for u, v in itertools.permutations(acc.values(), 2):
        if u.thread != v.thread or not po(u, v):
            continue
        if u.ordering != "na" or v.ordering != "na":
            continue
        if (u.kind, v.kind) == ("W", "R") or _same_loc(u, v):
            continue
        if closes(v, u, frozenset({u.thread})):
            edges.add((u.uid, v.uid))
    return edges


def _reference_coverage(graph: ConflictGraph, edges: set) -> tuple[set, set]:
    """(required fences, uncovered delay edges) by scanning every fence."""
    required, uncovered = set(), set()
    for u_uid, v_uid in edges:
        u, v = graph.accesses[u_uid], graph.accesses[v_uid]
        covering = {
            f.uid for f in graph.fences.values()
            if f.thread == u.thread and f.uid in _po_uids(graph, u_uid)
            and v_uid in _po_uids(graph, f.uid)
            and (f.kind == "sc" or (f.kind == "rm" and u.kind == "R")
                 or (f.kind == "ww" and u.kind == v.kind == "W"))}
        required |= covering
        if not covering:
            uncovered.add((u_uid, v_uid))
    return required, uncovered


class TestBitsetSearchMatchesEnumeration:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_graph(self, seed):
        graph = _random_graph(random.Random(seed))
        for sync in (False, True):
            analysis = analyze_graph(graph, sync=sync)
            assert not analysis.capped
            want = _reference_delay_edges(graph, sync)
            assert analysis.delay_edges == want, f"sync={sync}"
            required, uncovered = _reference_coverage(graph, want)
            assert analysis.required == required
            assert analysis.uncovered == uncovered
            assert analysis.redundant == set(graph.fences) - analysis.required
            for f_uid, (u_uid, v_uid) in analysis.witness.items():
                assert (u_uid, v_uid) in want
                assert f_uid in _po_uids(graph, u_uid)
                assert v_uid in _po_uids(graph, f_uid)

    def test_sync_edges_are_a_subset(self):
        for seed in range(60):
            graph = _random_graph(random.Random(seed))
            plain = analyze_graph(graph).delay_edges
            assert analyze_graph(graph, sync=True).delay_edges <= plain


@pytest.mark.parametrize("seed", range(20))
def test_reach_rows_is_the_transitive_closure(seed):
    """The SCC-condensed closure against a DFS from every node, on random
    digraphs with cycles and self-loops."""
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    succ = [rng.sample(range(n), rng.randint(0, min(n, 3)))
            for _ in range(n)]
    rows = delayset._reach_rows(succ)
    for start in range(n):
        seen, stack = set(), list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ[node])
        assert rows[start] == sum(1 << node for node in seen)


def _placed_module(source: str):
    """The module as the delay-set tier sees it in lifted/opt/popt:
    lifted and fenced by Fig. 8a with escape analysis."""
    from repro.fences import place_fences
    from repro.lifter import lift_program
    from repro.minicc.codegen_x86 import compile_to_x86

    module = lift_program(compile_to_x86(source))
    place_fences(module, use_analysis=True)
    return module


def _phoenix_source(name: str) -> str:
    from repro.phoenix import SIZE_TINY, all_programs

    return next(p.source for p in all_programs(SIZE_TINY, include_extensions=True)
                if p.name == name)


class TestPhoenixDelayEdges:
    @pytest.mark.parametrize("name,count", [
        ("histogram", 1333), ("matrix_multiply", 1071),
        ("string_match", 2350), ("word_count", 3475),
        ("linear_regression", 5011)])
    def test_delay_edge_count(self, name, count):
        result = analyze_module_fences(_placed_module(_phoenix_source(name)))
        assert not result.keep_all
        assert len(result.analysis.delay_edges) == count

    def test_cycle_steps_track_the_work(self):
        steps = {}
        for name in ("histogram", "kmeans"):
            module = _placed_module(_phoenix_source(name))
            with workcounters.collect() as counters:
                analyze_module_fences(module)
            steps[name] = counters.total("delayset.cycle_steps")
        assert steps["kmeans"] > steps["histogram"] > 0


class TestBudget:
    def test_exhausted_budget_keeps_every_fence(self, monkeypatch):
        monkeypatch.setattr(delayset, "CYCLE_BUDGET", 50)
        source = (Path(__file__).resolve().parents[1] / "examples"
                  / "demo.c").read_text()
        module = _placed_module(source)
        before = len(_fences(module))
        stats = elide_redundant_fences(module, sync=True)
        assert stats.capped and stats.kept_all
        assert stats.elided == stats.elided_sync == 0
        assert len(_fences(module)) == before
        assert not any(getattr(inst, "delayset_cert", None)
                       for func in module.functions.values()
                       for inst in func.instructions())
        assert audit_module(module) == []
