"""Shared utilities for the optimization passes."""

from __future__ import annotations

from ..lir import Function, Instruction, Load, Phi, UndefValue


def reachable_blocks(func: Function) -> set[int]:
    seen: set[int] = set()
    stack = [func.entry]
    seen.add(id(func.entry))
    while stack:
        bb = stack.pop()
        for succ in bb.successors():
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append(succ)
    return seen


def remove_unreachable_blocks(func: Function) -> bool:
    """Delete blocks not reachable from the entry.  Returns True on change."""
    live = reachable_blocks(func)
    dead = [bb for bb in func.blocks if id(bb) not in live]
    if not dead:
        return False
    dead_ids = {id(bb) for bb in dead}
    # Remove phi incomings that flow from dead blocks.
    for bb in func.blocks:
        if id(bb) in dead_ids:
            continue
        for phi in bb.phis():
            for pred in list(phi.incoming_blocks):
                if id(pred) in dead_ids:
                    phi.remove_incoming(pred)
    for bb in dead:
        for inst in list(bb.instructions):
            inst.replace_all_uses_with(UndefValue(inst.type))
            inst.erase_from_parent()
        func.remove_block(bb)
    return True


def erase_if_trivially_dead(inst: Instruction) -> bool:
    """Erase an instruction with no users and no side effects."""
    if inst.users:
        return False
    if inst.has_side_effects() or inst.is_terminator:
        return False
    if isinstance(inst, Load) and inst.ordering != "na":
        return False
    inst.erase_from_parent()
    return True


def simplify_trivial_phis(func: Function) -> bool:
    """Replace phis whose incomings are all the same value (or self)."""
    changed = False
    progress = True
    while progress:
        progress = False
        for bb in func.blocks:
            for phi in list(bb.phis()):
                distinct = {
                    id(v) for v in phi.operands if v is not phi
                }
                if len(distinct) == 1:
                    value = next(v for v in phi.operands if v is not phi)
                    phi.replace_all_uses_with(value)
                    phi.erase_from_parent()
                    changed = progress = True
                elif len(distinct) == 0:
                    phi.replace_all_uses_with(UndefValue(phi.type))
                    phi.erase_from_parent()
                    changed = progress = True
    return changed


def instruction_count(func: Function) -> int:
    return func.instruction_count()


def is_pure(inst: Instruction) -> bool:
    """No memory access, no side effect, no control flow."""
    return not (
        inst.has_side_effects()
        or inst.accesses_memory()
        or inst.is_terminator
        or isinstance(inst, Phi)
    )
