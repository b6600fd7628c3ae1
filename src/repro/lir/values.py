"""Values for LIR: the SSA value hierarchy and use-def tracking.

Everything an instruction can reference is a :class:`Value`.  Instructions
(defined in :mod:`repro.lir.instructions`) are themselves values.  Use-def
edges are maintained eagerly: each value knows the set of instructions that
use it, which is what makes ``replace_all_uses_with`` and the optimizer's
dead-code reasoning cheap.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Optional

from .types import FloatType, FunctionType, IntType, PointerType, Type, VectorType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instructions import Instruction


class Value:
    """Base class of every SSA value."""

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        # Instructions that have this value as an operand.  A user may appear
        # once even if it uses the value in several operand slots; operand
        # slots are the source of truth, this is an acceleration structure.
        self.users: set["Instruction"] = set()

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every operand slot holding ``self`` to hold ``new``.

        Provenance: when an *instruction* replaces an instruction, the
        replaced value's origins are merged into the replacement, so folds
        (GVN, instcombine, mem2reg...) accumulate x86 blame instead of
        dropping it.  Constants and other origin-free values are left
        untouched — they are shared and must stay immutable.
        """
        if new is self:
            return
        mine = getattr(self, "origins", ())
        if mine:
            theirs = getattr(new, "origins", None)
            if theirs is not None:
                seen = set(theirs)
                extra = tuple(o for o in mine if o not in seen)
                if extra:
                    new.origins = tuple(theirs) + extra
        for user in list(self.users):
            for i, op in enumerate(user.operands):
                if op is self:
                    user.set_operand(i, new)

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.short_name()}: {self.type}>"


class Constant(Value):
    """Base class for constants (no defining instruction)."""


class ConstantInt(Constant):
    def __init__(self, type_: IntType, value: int) -> None:
        if not isinstance(type_, IntType):
            raise TypeError(f"ConstantInt requires an integer type, got {type_}")
        super().__init__(type_)
        self.value = value & type_.mask()

    @property
    def signed_value(self) -> int:
        """The value interpreted as a two's-complement signed integer."""
        bits = self.type.bits
        v = self.value
        if v >= (1 << (bits - 1)):
            v -= 1 << bits
        return v

    def short_name(self) -> str:
        return str(self.signed_value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cint", self.type, self.value))


class ConstantFloat(Constant):
    def __init__(self, type_: FloatType, value: float) -> None:
        if not isinstance(type_, FloatType):
            raise TypeError(f"ConstantFloat requires a float type, got {type_}")
        super().__init__(type_)
        if type_.bits == 32:
            # Round-trip through binary32 so the constant is exact.
            value = struct.unpack("<f", struct.pack("<f", value))[0]
        self.value = float(value)

    def short_name(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantFloat)
            and other.type == self.type
            and struct.pack("<d", other.value) == struct.pack("<d", self.value)
        )

    def __hash__(self) -> int:
        return hash(("cfloat", self.type, struct.pack("<d", self.value)))


class ConstantPointerNull(Constant):
    def __init__(self, type_: PointerType) -> None:
        super().__init__(type_)

    def short_name(self) -> str:
        return "null"


class ConstantVector(Constant):
    def __init__(self, type_: VectorType, elements: Iterable[Constant]) -> None:
        super().__init__(type_)
        self.elements = list(elements)
        if len(self.elements) != type_.count:
            raise ValueError(
                f"vector constant has {len(self.elements)} elements, "
                f"type wants {type_.count}"
            )

    def short_name(self) -> str:
        inner = ", ".join(e.short_name() for e in self.elements)
        return f"<{inner}>"


class UndefValue(Constant):
    """LLVM's ``undef``: produced e.g. by reading an uninitialized slot."""

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index


class GlobalValue(Constant):
    """Base of values with a module-level name (globals and functions)."""

    def short_name(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable.

    ``value_type`` is the type of the stored value; the global itself, as an
    SSA value, has pointer-to-``value_type`` type (as in LLVM).
    ``initializer`` is either ``None`` (zero-initialized), a ``Constant``, or
    raw ``bytes``.
    """

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[object] = None,
    ) -> None:
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer

    def size_bytes(self) -> int:
        return self.value_type.size_bytes()


class ExternalFunction(GlobalValue):
    """A declared-but-not-defined function (runtime calls like ``malloc``)."""

    def __init__(self, name: str, ftype: FunctionType) -> None:
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
