"""IR refinement peepholes (§5.1, Figure 5): raise integer address
arithmetic to typed pointer operations.

Every ``inttoptr`` is traced backwards through its integer operand chain
(``add``/``sub`` nodes).  The chain is separated into

* at most one *pointer root* — a ``ptrtoint`` of some pointer value,
* dynamic index terms (non-constant values),
* a folded constant offset.

When a pointer root exists, the ``inttoptr`` is rewritten as the
pointer-typed equivalent: ``bitcast`` of the root to ``i8*``, one
``getelementptr i8`` per dynamic term, one for the constant offset, and a
final ``bitcast`` to the original destination type.  This generalizes the
paper's three rules:

* Rule 1 (pointer casting): zero offset → plain ``bitcast``;
* Rule 2 (stack offset): constant offset from ``ptrtoint %stacktop``;
* Rule 3 (parameter offset): an integer *argument* root is first wrapped in
  ``inttoptr %arg to i8*`` so that pointer-parameter promotion (§5.2) can
  subsequently retype the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from ..lir import (
    Argument,
    BinOp,
    Cast,
    ConstantInt,
    Function,
    GEP,
    I8,
    IntType,
    Value,
    ptr,
)
from ..opt.utils import erase_if_trivially_dead


@dataclass
class _Chain:
    root_ptr: Optional[Value] = None       # pointer behind a ptrtoint
    arg_root: Optional[Argument] = None    # integer argument root (rule 3)
    dynamic: list[Value] = field(default_factory=list)
    offset: int = 0
    ok: bool = True


def _trace(value: Value, chain: _Chain, sign: int, depth: int = 0) -> None:
    if not chain.ok or depth > 64:
        chain.ok = False
        return
    if isinstance(value, ConstantInt):
        chain.offset += sign * value.signed_value
        return
    if isinstance(value, Cast) and value.op == "ptrtoint":
        if chain.root_ptr is not None or chain.arg_root is not None or sign < 0:
            chain.ok = False
            return
        chain.root_ptr = value.value
        return
    if isinstance(value, BinOp) and value.op == "add":
        _trace(value.lhs, chain, sign, depth + 1)
        _trace(value.rhs, chain, sign, depth + 1)
        return
    if isinstance(value, BinOp) and value.op == "sub":
        _trace(value.lhs, chain, sign, depth + 1)
        _trace(value.rhs, chain, -sign, depth + 1)
        return
    if isinstance(value, Argument) and isinstance(value.type, IntType):
        if chain.root_ptr is not None or chain.arg_root is not None or sign < 0:
            chain.ok = False
            return
        chain.arg_root = value
        return
    # Anything else is an opaque dynamic term.
    if sign < 0:
        chain.ok = False
        return
    chain.dynamic.append(value)


def _classify_rule(chain: _Chain) -> str:
    """Which of the paper's Figure 5 rules this chain instantiates."""
    if chain.arg_root is not None:
        return "rule3-parameter-offset"
    if not chain.dynamic and chain.offset == 0:
        return "rule1-pointer-cast"
    return "rule2-address-offset"


def run_peephole(func: Function) -> bool:
    """Rewrite inttoptr chains whose root is a pointer or an int argument."""
    changed = False
    emit = telemetry.remarks_enabled()
    for bb in list(func.blocks):
        for inst in list(bb.instructions):
            if not isinstance(inst, Cast) or inst.op != "inttoptr":
                continue
            chain = _Chain()
            _trace(inst.value, chain, +1)
            if not chain.ok:
                continue
            if chain.root_ptr is None and chain.arg_root is None:
                continue
            rule = _classify_rule(chain)
            if emit:
                telemetry.remark(
                    "refine-peephole", rule,
                    f"raised inttoptr chain to typed pointer ops "
                    f"({len(chain.dynamic)} dynamic terms, "
                    f"constant offset {chain.offset})",
                    function=func.name, block=bb.name,
                    instruction=f"inttoptr {inst.value.short_name()}",
                    dynamic_terms=len(chain.dynamic), offset=chain.offset)

            insert_before = inst
            new_insts: list = []

            def place(new_inst):
                # Replacement pointer ops inherit the inttoptr's provenance.
                new_inst.origins = inst.origins
                bb.insert_before(insert_before, new_inst)
                new_insts.append(new_inst)
                return new_inst

            if chain.root_ptr is not None:
                base = chain.root_ptr
                if base.type != ptr(I8):
                    base = place(Cast("bitcast", base, ptr(I8)))
            else:
                # Rule 3: expose the argument as a raw i8 pointer; pointer
                # parameter promotion will retype it.
                base = place(Cast("inttoptr", chain.arg_root, ptr(I8)))
            for term in chain.dynamic:
                base = place(GEP(I8, base, [term]))
            if chain.offset != 0:
                base = place(
                    GEP(I8, base, [ConstantInt(IntType(64), chain.offset)])
                )
            if base.type == inst.type:
                final = base
            else:
                final = place(Cast("bitcast", base, inst.type))
            inst.replace_all_uses_with(final)
            inst.erase_from_parent()
            changed = True
    if changed:
        for bb in func.blocks:
            for inst in reversed(list(bb.instructions)):
                erase_if_trivially_dead(inst)
    return changed


def count_pointer_casts(func: Function) -> int:
    """Number of inttoptr/ptrtoint instructions (Figure 13's metric)."""
    return sum(
        1
        for bb in func.blocks
        for inst in bb.instructions
        if isinstance(inst, Cast) and inst.op in ("inttoptr", "ptrtoint")
    )
