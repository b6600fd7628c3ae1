"""LIR→Arm source map: resolve every emitted Arm instruction to x86.

Codegen attaches the current LIR instruction's ``origins`` (and a short
``lir`` description) to each :class:`~repro.arm.isa.AInstr` it emits.
``SourceMap.from_program`` collects those attachments into a queryable
table and computes the coverage figures the acceptance bar asks for:
what fraction of Arm instructions — and specifically of memory accesses
and fences — resolve to at least one x86 origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arm.isa import AInstr, AMem, is_fence
from ..arm.program import ArmProgram
from .origin import Origin, origins_of

#: Mnemonics that touch memory even when modelled without an AMem operand.
_MEM_MNEMONICS = {"ldxr", "stxr", "ldar", "stlr"}


def is_memory_access(instr: AInstr) -> bool:
    """True when the Arm instruction reads or writes memory."""
    if instr.mnemonic in _MEM_MNEMONICS:
        return True
    return any(isinstance(op, AMem) for op in instr.operands)


@dataclass
class SourceMapEntry:
    function: str
    index: int                      # position in the function's item stream
    instr: AInstr
    origins: tuple[Origin, ...]
    lir: str = ""                   # short originating-LIR description

    @property
    def resolved(self) -> bool:
        return bool(self.origins)

    @property
    def is_fence(self) -> bool:
        return is_fence(self.instr)

    @property
    def is_memory(self) -> bool:
        return is_memory_access(self.instr)

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "index": self.index,
            "arm": str(self.instr),
            "lir": self.lir,
            "origins": [o.to_dict() for o in self.origins],
        }


@dataclass
class CoverageReport:
    total: int = 0
    resolved: int = 0
    mem_total: int = 0
    mem_resolved: int = 0
    fence_total: int = 0
    fence_resolved: int = 0

    @staticmethod
    def _pct(num: int, den: int) -> float:
        return 100.0 if den == 0 else 100.0 * num / den

    @property
    def instruction_pct(self) -> float:
        return self._pct(self.resolved, self.total)

    @property
    def memory_pct(self) -> float:
        return self._pct(self.mem_resolved, self.mem_total)

    @property
    def fence_pct(self) -> float:
        return self._pct(self.fence_resolved, self.fence_total)

    def to_dict(self) -> dict:
        return {
            "instructions": {"total": self.total, "resolved": self.resolved,
                             "pct": round(self.instruction_pct, 2)},
            "memory": {"total": self.mem_total, "resolved": self.mem_resolved,
                       "pct": round(self.memory_pct, 2)},
            "fences": {"total": self.fence_total,
                       "resolved": self.fence_resolved,
                       "pct": round(self.fence_pct, 2)},
        }


@dataclass
class SourceMap:
    entries: list[SourceMapEntry] = field(default_factory=list)

    @classmethod
    def from_program(cls, program: ArmProgram) -> "SourceMap":
        sm = cls()
        for func in program.functions.values():
            for index, item in enumerate(func.items):
                if not isinstance(item, AInstr):
                    continue
                sm.entries.append(SourceMapEntry(
                    function=func.name,
                    index=index,
                    instr=item,
                    origins=origins_of(item),
                    lir=getattr(item, "lir", ""),
                ))
        return sm

    # ---- queries -------------------------------------------------------
    def fences(self) -> list[SourceMapEntry]:
        return [e for e in self.entries if e.is_fence]

    def memory_accesses(self) -> list[SourceMapEntry]:
        return [e for e in self.entries if e.is_memory]

    def unresolved(self) -> list[SourceMapEntry]:
        return [e for e in self.entries if not e.resolved]

    # ---- coverage ------------------------------------------------------
    def coverage(self) -> CoverageReport:
        cov = CoverageReport()
        for e in self.entries:
            cov.total += 1
            cov.resolved += e.resolved
            if e.is_memory:
                cov.mem_total += 1
                cov.mem_resolved += e.resolved
            if e.is_fence:
                cov.fence_total += 1
                cov.fence_resolved += e.resolved
        return cov
