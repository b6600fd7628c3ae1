"""IRBuilder: convenience API for constructing LIR, LLVM-style."""

from __future__ import annotations

from typing import Optional, Sequence

from .function import BasicBlock
from .instructions import (
    GEP,
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CmpXchg,
    ExtractElement,
    FCmp,
    Fence,
    ICmp,
    InsertElement,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .types import IntType, PointerType, Type
from .values import Value


class IRBuilder:
    """Appends instructions at an insertion point inside a basic block."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block
        # Provenance stamp applied to every inserted instruction that does
        # not already carry origins (see repro.provenance.origin).
        self.origins: tuple = ()

    # ---- positioning --------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    # ---- provenance ----------------------------------------------------
    def set_origin(self, *origins) -> None:
        """Stamp subsequently inserted instructions with these origins."""
        self.origins = tuple(o for o in origins if o is not None)

    def insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("IRBuilder has no insertion block")
        if self.origins and not inst.origins:
            inst.origins = self.origins
        self.block.append(inst)
        return inst

    # ---- memory ---------------------------------------------------------
    def alloca(self, type_: Type, name: str = "") -> Alloca:
        return self.insert(Alloca(type_, name))  # type: ignore[return-value]

    def load(self, pointer: Value, ordering: str = "na", name: str = "") -> Load:
        return self.insert(Load(pointer, ordering, name))  # type: ignore[return-value]

    def store(self, value: Value, pointer: Value, ordering: str = "na") -> Store:
        return self.insert(Store(value, pointer, ordering))  # type: ignore[return-value]

    def atomicrmw(
        self, op: str, pointer: Value, value: Value, ordering: str = "sc",
        name: str = "",
    ) -> AtomicRMW:
        return self.insert(AtomicRMW(op, pointer, value, ordering, name))  # type: ignore[return-value]

    def cmpxchg(
        self, pointer: Value, expected: Value, new: Value, ordering: str = "sc",
        name: str = "",
    ) -> CmpXchg:
        return self.insert(CmpXchg(pointer, expected, new, ordering, name))  # type: ignore[return-value]

    def fence(self, kind: str) -> Fence:
        return self.insert(Fence(kind))  # type: ignore[return-value]

    def gep(
        self, source_type: Type, pointer: Value, indices: Sequence[Value],
        name: str = "",
    ) -> GEP:
        return self.insert(GEP(source_type, pointer, indices, name))  # type: ignore[return-value]

    # ---- arithmetic -------------------------------------------------------
    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.insert(BinOp(op, lhs, rhs, name))  # type: ignore[return-value]

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("mul", lhs, rhs, name)

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self.insert(ICmp(pred, lhs, rhs, name))  # type: ignore[return-value]

    def fcmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> FCmp:
        return self.insert(FCmp(pred, lhs, rhs, name))  # type: ignore[return-value]

    def select(self, cond: Value, tval: Value, fval: Value, name: str = "") -> Select:
        return self.insert(Select(cond, tval, fval, name))  # type: ignore[return-value]

    # ---- casts -------------------------------------------------------------
    def cast(self, op: str, value: Value, dest: Type, name: str = "") -> Cast:
        return self.insert(Cast(op, value, dest, name))  # type: ignore[return-value]

    def bitcast(self, value: Value, dest: Type, name: str = "") -> Cast:
        return self.cast("bitcast", value, dest, name)

    def inttoptr(self, value: Value, dest: PointerType, name: str = "") -> Cast:
        return self.cast("inttoptr", value, dest, name)

    def ptrtoint(self, value: Value, dest: IntType, name: str = "") -> Cast:
        return self.cast("ptrtoint", value, dest, name)

    def trunc(self, value: Value, dest: IntType, name: str = "") -> Cast:
        return self.cast("trunc", value, dest, name)

    def zext(self, value: Value, dest: IntType, name: str = "") -> Cast:
        return self.cast("zext", value, dest, name)

    def sext(self, value: Value, dest: IntType, name: str = "") -> Cast:
        return self.cast("sext", value, dest, name)

    # ---- vectors -------------------------------------------------------------
    def extractelement(self, vector: Value, index: Value, name: str = "") -> ExtractElement:
        return self.insert(ExtractElement(vector, index, name))  # type: ignore[return-value]

    def insertelement(
        self, vector: Value, element: Value, index: Value, name: str = ""
    ) -> InsertElement:
        return self.insert(InsertElement(vector, element, index, name))  # type: ignore[return-value]

    # ---- control flow ----------------------------------------------------------
    def phi(self, type_: Type, name: str = "") -> Phi:
        return self.insert(Phi(type_, name))  # type: ignore[return-value]

    def call(self, callee: Value, args: Sequence[Value], name: str = "") -> Call:
        return self.insert(Call(callee, args, name))  # type: ignore[return-value]

    def br(self, target: BasicBlock) -> Br:
        return self.insert(Br(None, target))  # type: ignore[return-value]

    def cond_br(self, cond: Value, then_bb: BasicBlock, else_bb: BasicBlock) -> Br:
        return self.insert(Br(cond, then_bb, else_bb))  # type: ignore[return-value]

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self.insert(Ret(value))  # type: ignore[return-value]

    def unreachable(self) -> Unreachable:
        return self.insert(Unreachable())  # type: ignore[return-value]
