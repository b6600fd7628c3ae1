"""Module / Function / BasicBlock containers for LIR."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .instructions import Br, Instruction, Phi
from .types import FunctionType, PointerType
from .values import Argument, ExternalFunction, GlobalValue, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "") -> None:
        # Blocks are labels; they have no first-class type in our IR but we
        # keep a placeholder so they can live in the Value hierarchy.
        from .types import VOID

        super().__init__(VOID, name)
        self.instructions: list[Instruction] = []
        self.parent: Optional["Function"] = None

    # ---- structural helpers ------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert_before(self, pos: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(pos)
        self.instructions.insert(idx, inst)
        inst.parent = self
        return inst

    def insert_after(self, pos: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(pos)
        self.instructions.insert(idx + 1, inst)
        inst.parent = self
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors() if not isinstance(term, Br) else term.successors()

    def predecessors(self) -> list["BasicBlock"]:
        if self.parent is None:
            return []
        preds = []
        for bb in self.parent.blocks:
            if self in bb.successors():
                preds.append(bb)
        return preds

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def short_name(self) -> str:
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition: arguments plus a CFG of basic blocks."""

    def __init__(self, name: str, ftype: FunctionType, arg_names: Iterable[str] = ()) -> None:
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
        names = list(arg_names)
        while len(names) < len(ftype.params):
            names.append(f"arg{len(names)}")
        self.arguments = [
            Argument(t, names[i], i) for i, t in enumerate(ftype.params)
        ]
        self.blocks: list[BasicBlock] = []
        self.parent: Optional["Module"] = None
        self._name_counter = 0

    # ---- block management ---------------------------------------------
    def append_block(self, block: BasicBlock) -> BasicBlock:
        if not block.name:
            block.name = self.next_name("bb")
        self.blocks.append(block)
        block.parent = self
        return block

    def new_block(self, name: str = "") -> BasicBlock:
        return self.append_block(BasicBlock(name or self.next_name("bb")))

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    # ---- naming ---------------------------------------------------------
    def next_name(self, prefix: str = "v") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def assign_names(self) -> None:
        """Give every unnamed instruction/block a unique printable name."""
        seen: set[str] = set()
        for arg in self.arguments:
            seen.add(arg.name)
        counter = 0
        for bb in self.blocks:
            if not bb.name or bb.name in seen:
                counter += 1
                bb.name = f"bb{counter}"
                while bb.name in seen:
                    counter += 1
                    bb.name = f"bb{counter}"
            seen.add(bb.name)
        counter = 0
        for bb in self.blocks:
            for inst in bb.instructions:
                if inst.type.is_void:
                    continue
                if not inst.name or inst.name in seen:
                    counter += 1
                    inst.name = f"t{counter}"
                    while inst.name in seen:
                        counter += 1
                        inst.name = f"t{counter}"
                seen.add(inst.name)

    # ---- traversal --------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    def instruction_count(self) -> int:
        return sum(len(bb.instructions) for bb in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} {self.name}: {self.ftype}>"


class Module:
    """A translation unit: globals plus functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}
        self.externals: dict[str, ExternalFunction] = {}

    def add_global(self, g: GlobalVariable) -> GlobalVariable:
        if g.name in self.globals:
            raise ValueError(f"duplicate global {g.name}")
        self.globals[g.name] = g
        return g

    def add_function(self, f: Function) -> Function:
        if f.name in self.functions:
            raise ValueError(f"duplicate function {f.name}")
        self.functions[f.name] = f
        f.parent = self
        return f

    def declare_external(self, name: str, ftype: FunctionType) -> ExternalFunction:
        if name in self.externals:
            existing = self.externals[name]
            return existing
        ext = ExternalFunction(name, ftype)
        self.externals[name] = ext
        return ext

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
