"""Fence placement (§8): enforce the x86→IR mapping of Figure 8a.

For every non-atomic memory access the x86→LIMM mapping demands

* ``ld  → ldna ; Frm``  (trailing read-to-memory fence)
* ``st  → Fww ; stna``  (leading write-write fence)

RMW and MFENCE were already lifted to ``RMWsc``/``Fsc`` by the translator.

Step 1 (stack elision): before fencing an access, the access must be
proven thread-local.  The fast path walks the pointer's use-def chain
through ``bitcast`` and ``getelementptr`` only, looking for an alloca
(:func:`is_stack_address`).  When the walk fails, the points-to/escape
analysis of :mod:`repro.analysis.pointsto` decides: it follows provenance
through ``phi``/``select``/integer arithmetic and knows which allocas
escaped, so accesses the syntactic walk conservatively fenced (the exact
pessimism Figure 14 measures) are elided when provably thread-local —
and, conversely, an alloca leaked to a callee is *not* treated as local
even though the walk reaches it.

Step 2 (merging, §7 "fence merging"): within a basic block, fences
separated only by instructions that cannot access memory merge into one
fence of the required strength (``Frm·Fww → Fsc``; like-kinded fences
collapse).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from ..profiler.workcounters import work
from ..lir import (
    Alloca,
    Cast,
    Fence,
    GEP,
    Load,
    Module,
    Phi,
    Select,
    Store,
    Value,
)
from ..provenance.origin import merge_origins, origins_of, x86_location


def _origin_addrs(inst) -> list[str]:
    """Hex x86 addresses for remark args (what explain correlates on)."""
    return [f"0x{o.addr:x}" for o in origins_of(inst)]


def is_stack_address(pointer: Value) -> bool:
    """Use-def walk through bitcast/gep looking for an alloca (§8 step 1),
    extended through ``select`` and single-incoming ``phi`` whose operands
    *all* reach allocas.

    This is the syntactic fast path: no escape reasoning.  Every branch of
    the walk must bottom out at an alloca for the answer to be True (AND
    semantics), so a ``select`` between two allocas is stack but a
    ``select`` of an alloca and an argument is not.  Iterative, so
    arbitrarily deep chains resolve; revisiting a ``phi`` (a use-def
    cycle with no alloca root) answers False."""
    seen: set[int] = set()
    work: list[Value] = [pointer]
    while work:
        value = work.pop()
        if isinstance(value, Alloca):
            continue
        if id(value) in seen:
            if isinstance(value, Phi):
                return False  # degenerate phi cycle: no alloca root
            continue  # DAG sharing: this branch was already proven
        seen.add(id(value))
        if isinstance(value, Cast) and value.op == "bitcast":
            work.append(value.value)
        elif isinstance(value, GEP):
            work.append(value.pointer)
        elif isinstance(value, Select):
            work.append(value.true_value)
            work.append(value.false_value)
        elif isinstance(value, Phi):
            incoming = value.incoming()
            if len(incoming) != 1:
                return False
            work.append(incoming[0][0])
        else:
            return False
    return True


@dataclass
class PlacementStats:
    loads_fenced: int = 0
    stores_fenced: int = 0
    skipped_stack: int = 0
    skipped_escape: int = 0   # elided by intraprocedural escape analysis
    skipped_interproc: int = 0  # elided only via interprocedural summaries
    leaked_fenced: int = 0    # walk said stack, analysis says escaped
    already_fenced: int = 0   # adjacent fence already present (idempotence)

    @property
    def total_inserted(self) -> int:
        return self.loads_fenced + self.stores_fenced

    @property
    def total_elided(self) -> int:
        return self.skipped_stack + self.skipped_escape \
            + self.skipped_interproc


def _thread_locality(pointer: Value, alias, intra_alias=None) -> str:
    """Classify an access address: ``"stack"`` (syntactic walk suffices),
    ``"escape"`` (the intraprocedural points-to analysis proves it local),
    ``"interproc"`` (only the interprocedural summaries prove it — the
    alloca is handed to a well-behaved callee), ``"leaked"`` (the walk
    reaches an alloca but it escaped — must fence) or ``"shared"``.

    ``intra_alias`` is a zero-argument callable returning the function's
    *intraprocedural* AliasInfo, used only to split ``escape`` from
    ``interproc`` when ``alias`` is summary-based."""
    walk_hit = is_stack_address(pointer)
    if alias is None:
        return "stack" if walk_hit else "shared"
    if alias.is_thread_local(pointer):
        # The interprocedural tier is what proved it when the function's
        # own analysis (calls escape everything) could not — even if the
        # syntactic walk reaches the alloca, the *proof* is the summary.
        if intra_alias is not None and \
                not intra_alias().is_thread_local(pointer):
            return "interproc"
        return "stack" if walk_hit else "escape"
    return "leaked" if walk_hit else "shared"


def place_fences(module: Module, use_analysis: bool = True,
                 module_analysis=None) -> PlacementStats:
    """Insert Frm/Fww fences per the Fig. 8a mapping.  Idempotent per
    call: an access already protected by an adjacent fence of the right
    kind is skipped, so re-running on a placed module changes nothing.

    With ``use_analysis`` (the default) thread-locality is decided by the
    *interprocedural* escape analysis (bottom-up callee summaries, see
    ``repro.analysis.summaries``), with :func:`is_stack_address` kept as
    the fast-path label; pass ``False`` for the seed behaviour (syntactic
    walk only).  ``module_analysis`` lets callers share an already-built
    :class:`~repro.analysis.summaries.ModuleAnalysis`."""
    from ..analysis import analyze_function
    from ..analysis.summaries import analyze_module

    stats = PlacementStats()
    emit = telemetry.remarks_enabled()
    ma = None
    if use_analysis:
        ma = module_analysis or analyze_module(module)

    def skip_remark(func, bb, inst, what: str, how: str) -> None:
        if not emit:
            return
        reason = {
            "stack": "use-def chain reaches an alloca",
            "escape": "escape analysis proves the address thread-local",
            "interproc": "interprocedural summaries prove the address "
                         "thread-local (callee does not publish it)",
        }[how]
        telemetry.remark(
            "place-fences", "fence-skipped",
            f"non-atomic {what} is thread-local ({reason}); "
            "no fence needed",
            function=func.name, block=bb.name,
            instruction=f"{what} {inst.pointer.short_name()}",
            via=how, x86=x86_location(inst), origins=_origin_addrs(inst))

    accesses_examined = 0
    for func in module.functions.values():
        if func.is_declaration:
            continue
        alias = ma.alias(func) if use_analysis else None
        intra_cache: list = []

        def intra_alias(func=func):
            if not intra_cache:
                intra_cache.append(analyze_function(func, module))
            return intra_cache[0]

        for bb in func.blocks:
            insts = list(bb.instructions)
            for pos, inst in enumerate(insts):
                if isinstance(inst, Load) and inst.ordering == "na":
                    accesses_examined += 1
                    if pos + 1 < len(insts) and \
                            isinstance(insts[pos + 1], Fence) and \
                            insts[pos + 1].kind in ("rm", "sc"):
                        stats.already_fenced += 1
                        continue
                    local = _thread_locality(inst.pointer, alias,
                                             intra_alias)
                    if local in ("stack", "escape", "interproc"):
                        if local == "stack":
                            stats.skipped_stack += 1
                        elif local == "escape":
                            stats.skipped_escape += 1
                        else:
                            stats.skipped_interproc += 1
                        skip_remark(func, bb, inst, "load", local)
                        continue
                    if local == "leaked":
                        stats.leaked_fenced += 1
                    fence = Fence("rm")
                    # Blame the fence on the access it protects.
                    fence.origins = origins_of(inst)
                    fence.placement = (
                        f"placed: Frm after load {inst.pointer.short_name()} "
                        f"[{x86_location(inst) or 'no x86 origin'}] "
                        "(Fig. 8a ld -> ldna;Frm)",
                    )
                    bb.insert_after(inst, fence)
                    stats.loads_fenced += 1
                    if emit:
                        telemetry.remark(
                            "place-fences", "fence-inserted",
                            "Frm inserted after non-atomic load (Fig. 8a "
                            "ld -> ldna;Frm mapping)",
                            function=func.name, block=bb.name,
                            instruction=f"load {inst.pointer.short_name()}",
                            fence="rm", x86=x86_location(inst),
                            origins=_origin_addrs(inst))
                elif isinstance(inst, Store) and inst.ordering == "na":
                    accesses_examined += 1
                    if pos > 0 and isinstance(insts[pos - 1], Fence) and \
                            insts[pos - 1].kind in ("ww", "sc"):
                        stats.already_fenced += 1
                        continue
                    local = _thread_locality(inst.pointer, alias,
                                             intra_alias)
                    if local in ("stack", "escape", "interproc"):
                        if local == "stack":
                            stats.skipped_stack += 1
                        elif local == "escape":
                            stats.skipped_escape += 1
                        else:
                            stats.skipped_interproc += 1
                        skip_remark(func, bb, inst, "store", local)
                        continue
                    if local == "leaked":
                        stats.leaked_fenced += 1
                    fence = Fence("ww")
                    fence.origins = origins_of(inst)
                    fence.placement = (
                        f"placed: Fww before store {inst.pointer.short_name()} "
                        f"[{x86_location(inst) or 'no x86 origin'}] "
                        "(Fig. 8a st -> Fww;stna)",
                    )
                    bb.insert_before(inst, fence)
                    stats.stores_fenced += 1
                    if emit:
                        telemetry.remark(
                            "place-fences", "fence-inserted",
                            "Fww inserted before non-atomic store (Fig. 8a "
                            "st -> Fww;stna mapping)",
                            function=func.name, block=bb.name,
                            instruction=f"store {inst.pointer.short_name()}",
                            fence="ww", x86=x86_location(inst),
                            origins=_origin_addrs(inst))
    work("place.accesses", accesses_examined)
    work("place.fences", stats.loads_fenced + stats.stores_fenced)
    return stats


def merge_fences(module: Module) -> int:
    """Merge runs of fences with no intervening memory access.  Within a
    block, runs collapse to one fence of the required strength (§7); then
    a trailing fence merges with a leading fence across single-successor /
    single-predecessor edges (the pair is adjacent on every execution, so
    one fence of the combined strength at the head of the successor
    covers both).  Returns the number of fences removed."""
    removed = 0
    for func in module.functions.values():
        if func.is_declaration:
            continue
        for bb in func.blocks:
            removed += _merge_block(bb, func.name)
        removed += _merge_cross_block(func)
    return removed


def _combine_kinds(a: str, b: str) -> str:
    kinds = {a, b}
    if "sc" in kinds or kinds == {"rm", "ww"}:
        return "sc"
    return a


def _trailing_fence(bb):
    """The last fence of ``bb`` with no memory access after it."""
    for inst in reversed(list(bb.instructions)):
        if isinstance(inst, Fence):
            return inst
        if inst.accesses_memory():
            return None
    return None


def _leading_fence(bb):
    """The first fence of ``bb`` with no memory access before it."""
    for inst in bb.instructions:
        if isinstance(inst, Fence):
            return inst
        if inst.accesses_memory():
            return None
    return None


def _merge_cross_block(func) -> int:
    """§7 merging across CFG edges: when block A's only successor is B and
    B's only predecessor is A, a fence trailing A (no access after it) and
    a fence leading B (no access before it) order exactly the same access
    pairs, so they merge into one fence of the combined strength at B."""
    removed = 0
    emit = telemetry.remarks_enabled()
    changed = True
    while changed:
        changed = False
        for bb in list(func.blocks):
            succs = bb.successors()
            if len(succs) != 1 or succs[0] is bb:
                continue
            nxt = succs[0]
            if len(nxt.predecessors()) != 1:
                continue
            first = _trailing_fence(bb)
            second = _leading_fence(nxt)
            if first is None or second is None or first is second:
                continue
            merged_kind = _combine_kinds(first.kind, second.kind)
            merged_origins = merge_origins(origins_of(first),
                                           origins_of(second))
            merged_log = (tuple(getattr(first, "placement", ()))
                          + tuple(getattr(second, "placement", ()))
                          + (f"merged: cross-block {first.kind}+"
                             f"{second.kind} -> F{merged_kind} over edge "
                             f"{bb.name} -> {nxt.name} (section 7)",))
            if emit:
                telemetry.remark(
                    "merge-fences", "fence-merged-cross-block",
                    f"merged F{first.kind} (end of {bb.name}) with "
                    f"F{second.kind} (head of {nxt.name}) into one "
                    f"F{merged_kind} across the single-pred/single-succ "
                    "edge (section 7 merging rules)",
                    function=func.name, block=nxt.name,
                    instruction=f"fence.{merged_kind}",
                    merged_kind=merged_kind,
                    origins=[f"0x{o.addr:x}" for o in merged_origins])
            keeper = second
            if keeper.kind != merged_kind:
                new = Fence(merged_kind)
                nxt.insert_before(keeper, new)
                keeper.erase_from_parent()
                keeper = new
            keeper.origins = merged_origins
            keeper.placement = merged_log
            first.erase_from_parent()
            removed += 1
            changed = True
    return removed


def _merge_block(bb, func_name: str = "") -> int:
    removed = 0
    run: list[Fence] = []
    emit = telemetry.remarks_enabled()

    def flush() -> int:
        nonlocal run
        if len(run) < 2:
            run = []
            return 0
        kinds = {f.kind for f in run}
        if "sc" in kinds or ("rm" in kinds and "ww" in kinds):
            merged_kind = "sc"
        elif kinds == {"rm"}:
            merged_kind = "rm"
        else:
            merged_kind = "ww"
        # The survivor blames every access the run's fences protected; the
        # per-fence decision logs are concatenated plus a merge event.
        merged_origins: tuple = ()
        merged_log: tuple = ()
        for f in run:
            merged_origins = merge_origins(merged_origins, origins_of(f))
            merged_log = merged_log + tuple(getattr(f, "placement", ()))
        merged_log = merged_log + (
            f"merged: run of {len(run)} fences "
            f"({'+'.join(f.kind for f in run)}) -> F{merged_kind} (section 7)",
        )
        if emit:
            telemetry.remark(
                "merge-fences", "fence-merged",
                f"merged run of {len(run)} adjacent fences "
                f"({'+'.join(f.kind for f in run)}) into one F{merged_kind} "
                f"(section 7 merging rules)",
                function=func_name, block=bb.name,
                instruction=f"fence.{merged_kind}",
                run_length=len(run), merged_kind=merged_kind,
                origins=[f"0x{o.addr:x}" for o in merged_origins])
        keeper = run[0]
        count = 0
        for extra in run[1:]:
            extra.erase_from_parent()
            count += 1
        if keeper.kind != merged_kind:
            new = Fence(merged_kind)
            keeper.parent.insert_before(keeper, new)
            keeper.erase_from_parent()
            keeper = new
        keeper.origins = merged_origins
        keeper.placement = merged_log
        run = []
        return count

    for inst in list(bb.instructions):
        if isinstance(inst, Fence):
            run.append(inst)
        elif inst.accesses_memory():
            removed += flush()
        # pure instructions in between are transparent
    removed += flush()
    return removed


def count_fences(module: Module) -> int:
    total = 0
    for func in module.functions.values():
        for bb in func.blocks:
            for inst in bb.instructions:
                if isinstance(inst, Fence):
                    total += 1
    return total
