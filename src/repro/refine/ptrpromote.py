"""Pointer parameter promotion (§5.2).

For every integer parameter whose uses are all ``inttoptr`` instructions,
rewrite the parameter to a pointer type: the common destination pointer
type if all ``inttoptr`` users agree, otherwise ``i8*`` with ``bitcast``\\ s
at the uses.  Call sites are rewritten to pass pointer-typed values —
unwrapping ``ptrtoint`` chains where the caller built the address from a
pointer, inserting an ``inttoptr`` otherwise.

Functions whose address is taken (e.g. thread entry points passed to
``spawn``) are skipped: their callers are not statically visible.
"""

from __future__ import annotations

from .. import telemetry
from ..lir import (
    Argument,
    Call,
    Cast,
    Function,
    FunctionType,
    I8,
    IntType,
    Module,
    PointerType,
    Value,
    ptr,
)
from ..opt.utils import erase_if_trivially_dead


def _address_taken(module: Module, func: Function) -> bool:
    for user in func.users:
        if not (isinstance(user, Call) and user.callee is func):
            return True
    return False


def _promotable_type(arg: Argument) -> PointerType | None:
    if not isinstance(arg.type, IntType) or not arg.users:
        return None
    dest_types = set()
    for user in arg.users:
        if not (isinstance(user, Cast) and user.op == "inttoptr"):
            return None
        if user.value is not arg:
            return None
        dest_types.add(user.type)
    if len(dest_types) == 1:
        return next(iter(dest_types))
    return ptr(I8)


def run_pointer_promotion(module: Module) -> bool:
    changed = False
    emit = telemetry.remarks_enabled()
    for func in module.functions.values():
        if func.is_declaration or _address_taken(module, func):
            continue
        for index, arg in enumerate(func.arguments):
            new_type = _promotable_type(arg)
            if new_type is None:
                continue
            if emit:
                telemetry.remark(
                    "refine-ptrpromote", "parameter-promoted",
                    f"integer parameter #{index} "
                    f"({arg.short_name()}) promoted to {new_type} "
                    f"(section 5.2: every use is an inttoptr)",
                    function=func.name, instruction=arg.short_name(),
                    index=index, new_type=str(new_type))
            _promote(module, func, index, new_type)
            changed = True
    return changed


def _promote(
    module: Module, func: Function, index: int, new_type: PointerType
) -> None:
    arg = func.arguments[index]
    # Retype the argument and the function signature.
    arg.type = new_type
    params = list(func.ftype.params)
    params[index] = new_type
    func.ftype = FunctionType(func.ftype.ret, tuple(params), func.ftype.variadic)
    func.type = ptr(func.ftype)

    # Rewrite uses: inttoptr of the arg becomes the arg (or a bitcast).
    for user in list(arg.users):
        assert isinstance(user, Cast) and user.op == "inttoptr"
        if user.type == new_type:
            user.replace_all_uses_with(arg)
            user.erase_from_parent()
        else:
            bb = user.parent
            cast = Cast("bitcast", arg, user.type)
            bb.insert_before(user, cast)
            user.replace_all_uses_with(cast)
            user.erase_from_parent()

    # Rewrite call sites.
    for caller in module.functions.values():
        for bb in caller.blocks:
            for inst in list(bb.instructions):
                if not isinstance(inst, Call) or inst.callee is not func:
                    continue
                inst.ftype = func.ftype
                value = inst.args[index]
                new_value = _as_pointer(bb, inst, value, new_type)
                inst.set_operand(1 + index, new_value)
    # Dead ptrtoint feeders may remain at call sites.
    for caller in module.functions.values():
        for bb in caller.blocks:
            for inst in reversed(list(bb.instructions)):
                erase_if_trivially_dead(inst)


def _as_pointer(bb, call: Call, value: Value, want: PointerType) -> Value:
    if isinstance(value, Cast) and value.op == "ptrtoint":
        src = value.value
        if src.type == want:
            return src
        cast = Cast("bitcast", src, want)
        cast.origins = call.origins
        bb.insert_before(call, cast)
        return cast
    cast = Cast("inttoptr", value, want)
    cast.origins = call.origins
    bb.insert_before(call, cast)
    return cast
