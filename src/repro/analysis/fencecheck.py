"""fencecheck — static linter for the LIMM fence-mapping obligations.

Lasagne's verified x86→LIMM mapping (Fig. 8a) requires, for every access
that another thread could observe:

* ``ld  →  ldna ; Frm``   — each non-atomic load is followed by a
  read-ordering fence before the next memory access on *every* path;
* ``st  →  Fww ; stna``   — each non-atomic store is preceded by a
  write-ordering fence after the previous memory access on every path;
* ``rmw →  RMWsc``        — atomic read-modify-writes (and cmpxchg) carry
  sequentially-consistent ordering themselves.

``Fsc`` is stronger than both ``Frm`` and ``Fww``, so it discharges either
obligation; ``sc`` loads/stores are self-ordered; accesses whose address
is provably thread-local (per :mod:`repro.analysis.pointsto`) have no
obligation because no other thread can observe them.

Fence placement establishes these facts trivially (the fence sits adjacent
to the access); the point of the checker is everything that runs *after*
placement — O2 passes and fence merging — which may legally move, merge or
delete fences only while preserving the obligations.  The checker
re-derives them from scratch with two dataflow problems on the generic
engine (fences *since* the last access, forward; fences *before* the next
access, backward), so any weakening along any path surfaces as a
diagnostic with a ``function:block:instruction`` location.

Two relaxations, both proof-carrying:

* thread-locality comes from the *interprocedural* analysis
  (:func:`repro.analysis.summaries.analyze_module`) so the exemption
  matches what placement elides — pass ``module_analysis`` to share it;
* an access stamped with a ``delayset_cert`` (a cycle-freeness
  certificate from :mod:`repro.analysis.delayset`, audited separately by
  the oracle's delay-set rung) is exempt from the fence obligation the
  certificate names — its missing fence covered no critical-cycle edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import telemetry
from ..lir import (
    AtomicRMW,
    BasicBlock,
    CmpXchg,
    Fence,
    Function,
    Load,
    Module,
    Store,
    format_instruction,
)
from ..provenance.origin import format_origins
from .dataflow import BACKWARD, FORWARD, DataflowProblem, run_dataflow
from .pointsto import AliasInfo, analyze_function

# Fence kinds that discharge each obligation (Fsc subsumes both).
READ_FENCES = frozenset({"rm", "sc"})
WRITE_FENCES = frozenset({"ww", "sc"})
_ALL_KINDS = frozenset({"rm", "ww", "sc"})


@dataclass(frozen=True)
class FenceDiag:
    """One discharged-obligation failure, locatable in the printed IR."""

    function: str
    block: str
    index: int           # instruction position within the block
    kind: str            # "missing-frm" | "missing-fww" | "rmw-not-sc"
    message: str
    instruction: str     # formatted instruction text
    x86: str = ""        # originating x86 instruction(s), when provenance
                         # survived to the checked module

    @property
    def location(self) -> str:
        """The x86 source location when known, else the LIR position."""
        if self.x86:
            return f"{self.function} @ {self.x86}"
        return f"{self.function}:{self.block}:{self.index}"

    @property
    def lir_location(self) -> str:
        return f"{self.function}:{self.block}:{self.index}"

    def __str__(self) -> str:
        return f"{self.location}: {self.kind}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "kind": self.kind,
            "message": self.message,
            "instruction": self.instruction,
            "x86": self.x86,
        }


class _FencesSinceAccess(DataflowProblem):
    """Forward: fence kinds executed since the last memory access, on
    every path.  At function entry nothing has executed, so the boundary
    is the empty set; join is intersection (must-hold on all paths)."""

    direction = FORWARD

    def top(self, func: Function) -> frozenset[str]:
        return _ALL_KINDS

    def boundary(self, func: Function) -> frozenset[str]:
        return frozenset()

    def join(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def transfer(self, block: BasicBlock,
                 state: frozenset[str]) -> frozenset[str]:
        for inst in block.instructions:
            if isinstance(inst, Fence):
                state = state | {inst.kind}
            elif inst.accesses_memory():
                state = frozenset()
        return state


class _FencesBeforeNextAccess(DataflowProblem):
    """Backward: fence kinds guaranteed to execute before the next memory
    access (or function exit), on every path.  Function exit offers no
    fences — the caller resumes with arbitrary accesses."""

    direction = BACKWARD

    def top(self, func: Function) -> frozenset[str]:
        return _ALL_KINDS

    def boundary(self, func: Function) -> frozenset[str]:
        return frozenset()

    def join(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def transfer(self, block: BasicBlock,
                 state: frozenset[str]) -> frozenset[str]:
        for inst in reversed(block.instructions):
            if isinstance(inst, Fence):
                state = state | {inst.kind}
            elif inst.accesses_memory():
                state = frozenset()
        return state


def _fences_after(block: BasicBlock, index: int,
                  block_exit: frozenset[str]) -> frozenset[str]:
    """Fence kinds guaranteed between instruction ``index`` and the next
    memory access (``block_exit`` = the backward state at block end)."""
    kinds: set[str] = set()
    for inst in block.instructions[index + 1:]:
        if isinstance(inst, Fence):
            kinds.add(inst.kind)
        elif inst.accesses_memory():
            return frozenset(kinds)
    return frozenset(kinds) | block_exit


def _fences_before(block: BasicBlock, index: int,
                   block_entry: frozenset[str]) -> frozenset[str]:
    """Fence kinds guaranteed between the previous memory access and
    instruction ``index`` (``block_entry`` = the forward state at entry)."""
    kinds: set[str] = set()
    for inst in reversed(block.instructions[:index]):
        if isinstance(inst, Fence):
            kinds.add(inst.kind)
        elif inst.accesses_memory():
            return frozenset(kinds)
    return frozenset(kinds) | block_entry


def _certified(inst, obligation: str) -> bool:
    """Does ``inst`` carry a delay-set cycle-freeness certificate for the
    named fence obligation (``"rm"``/``"ww"``)?"""
    return obligation in getattr(inst, "delayset_cert", ())


def check_function(func: Function,
                   alias: Optional[AliasInfo] = None,
                   module: Optional[Module] = None) -> list[FenceDiag]:
    """Check one function's LIMM obligations; returns the diagnostics.

    ``alias`` enables the thread-locality exemption; pass ``None`` to
    compute it here, or a pre-computed :class:`AliasInfo` to share work.
    """
    if func.is_declaration:
        return []
    if alias is None:
        alias = analyze_function(func, module)

    forward = run_dataflow(func, _FencesSinceAccess())
    backward = run_dataflow(func, _FencesBeforeNextAccess())

    diags: list[FenceDiag] = []

    def diag(block: BasicBlock, index: int, kind: str, message: str) -> None:
        inst = block.instructions[index]
        diags.append(FenceDiag(
            function=func.name, block=block.name, index=index,
            kind=kind, message=message,
            instruction=format_instruction(inst).strip(),
            x86=format_origins(inst.origins) if inst.origins else ""))

    for block in func.blocks:
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Load) and inst.ordering == "na":
                if alias.is_thread_local(inst.pointer):
                    continue
                have = _fences_after(block, index, backward.block_out(block))
                if not (have & READ_FENCES):
                    if _certified(inst, "rm"):
                        continue
                    diag(block, index, "missing-frm",
                         "non-thread-local ldna is not followed by Frm/Fsc "
                         "before the next memory access")
            elif isinstance(inst, Store) and inst.ordering == "na":
                if alias.is_thread_local(inst.pointer):
                    continue
                have = _fences_before(block, index, forward.block_in(block))
                if not (have & WRITE_FENCES):
                    if _certified(inst, "ww"):
                        continue
                    diag(block, index, "missing-fww",
                         "non-thread-local stna is not preceded by Fww/Fsc "
                         "after the previous memory access")
            elif isinstance(inst, (AtomicRMW, CmpXchg)):
                if inst.ordering != "sc":
                    diag(block, index, "rmw-not-sc",
                         f"{inst.opcode} must map to RMWsc, "
                         f"found ordering {inst.ordering!r}")

    if telemetry.remarks_enabled():
        for d in diags:
            telemetry.remark(
                "fencecheck", d.kind, d.message,
                function=d.function, block=d.block, instruction=d.index,
                x86=d.x86)
    return diags


def check_module(module: Module,
                 module_analysis: Optional[object] = None) -> list[FenceDiag]:
    """Run :func:`check_function` over every defined function.

    Thread-locality comes from the shared interprocedural analysis so the
    checker's exemption matches what fence placement elides; pass a
    pre-built :class:`~repro.analysis.summaries.ModuleAnalysis` to reuse
    one, or let it be computed here.
    """
    from .summaries import analyze_module
    ma = module_analysis or analyze_module(module)
    diags: list[FenceDiag] = []
    for func in module.functions.values():
        if func.is_declaration:
            continue
        diags.extend(check_function(func, alias=ma.alias(func), module=module))
    return diags
