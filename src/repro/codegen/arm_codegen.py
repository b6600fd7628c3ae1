"""LIR → AArch64 code generation (the paper's modified LLVM backend, §8).

Implements the IR→Arm mapping of Figure 8b:

* ``ldna → ld``, ``stna → st`` (no extra ordering),
* ``Frm → DMB ISHLD``, ``Fww → DMB ISHST``, ``Fsc → DMB ISH``,
* ``RMWsc → DMB ISH ; ldxr/stxr loop ; DMB ISH``,
* seq_cst loads/stores → ``ldar``/``stlr``.

The backend is a classic three-step code generator: SSA liveness analysis,
Poletto-style linear-scan register allocation over the callee-saved
register files (``x19``–``x28``, ``d8``–``d15``) with frame spill slots,
then per-instruction selection.  Phi nodes are lowered through dedicated
staging slots written at predecessor exits and read at block entry, which
handles parallel-copy cycles without critical-edge surgery.
"""

from __future__ import annotations

import struct
from typing import Optional, Union

from .. import telemetry
from ..profiler.workcounters import work
from ..arm.isa import AImm, AInstr, ALabel, AMem, DReg, XReg
from ..arm.program import ArmFunction, ArmProgram
from ..lir import (
    Alloca,
    Argument,
    AtomicRMW,
    BasicBlock,
    BinOp,
    Br,
    Call,
    Cast,
    CmpXchg,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ExternalFunction,
    FCmp,
    Fence,
    FloatType,
    Function,
    GEP,
    GlobalVariable,
    ICmp,
    Instruction,
    IntType,
    Load,
    Module,
    Phi,
    PointerType,
    Ret,
    Select,
    Store,
    Type,
    UndefValue,
    Unreachable,
    Value,
    format_instruction,
)
from ..provenance.origin import synthetic_origin

INT_POOL = [f"x{i}" for i in range(19, 29)]
FP_POOL = [f"d{i}" for i in range(8, 16)]

ICMP_COND = {"eq": "eq", "ne": "ne", "slt": "lt", "sle": "le", "sgt": "gt",
             "sge": "ge", "ult": "lo", "ule": "ls", "ugt": "hi", "uge": "hs"}
FCMP_COND = {"oeq": "eq", "one": "ne", "olt": "mi", "ole": "ls", "ogt": "gt",
             "oge": "ge", "uno": "vs", "ord": "vc"}
FENCE_MNEMONIC = {"sc": "dmb ish", "rm": "dmb ishld", "ww": "dmb ishst"}


class BackendError(Exception):
    pass


def _is_fp(type_: Type) -> bool:
    return isinstance(type_, FloatType)


def _pow2_shift(n: int) -> Optional[int]:
    if n > 0 and (n & (n - 1)) == 0:
        return n.bit_length() - 1
    return None


class LIRToArm:
    def __init__(self, module: Module, entry: str = "main") -> None:
        self.module = module
        self.entry = entry

    def compile(self) -> ArmProgram:
        program = ArmProgram(entry=self.entry)
        for name in self.module.externals:
            program.declare_external(name)
        for g in self.module.globals.values():
            init = b""
            if isinstance(g.initializer, bytes):
                init = g.initializer
            elif isinstance(g.initializer, ConstantInt):
                size = g.value_type.size_bytes()
                init = (g.initializer.value).to_bytes(size, "little")
            elif isinstance(g.initializer, ConstantFloat):
                init = struct.pack("<d", g.initializer.value)
            program.add_global(g.name, max(1, g.size_bytes()), init)
        for func in self.module.functions.values():
            if not func.is_declaration:
                program.add_function(_FuncCodegen(func).run())
        return program


class _FuncCodegen:
    def __init__(self, func: Function) -> None:
        self.func = func
        self.out = ArmFunction(func.name)
        func.assign_names()
        self.blocks = func.blocks
        # value id -> ("reg", name) | ("slot", off) | special handling
        self.loc: dict[int, tuple[str, Union[str, int]]] = {}
        self.alloca_offset: dict[int, int] = {}
        self.phi_slot: dict[int, int] = {}
        self.frame = 0
        self.used_callee_saved: list[str] = []
        self.label_counter = 0
        self.epilogue = f".Lret_{func.name}"
        # Provenance state: every emitted AInstr is tagged with the current
        # LIR instruction's x86 origins (the LIR→Arm source map).
        self._origins: tuple = ()
        self._lir: str = ""
        self._placement: tuple = ()

    # ------------------------------------------------------------------
    def run(self) -> ArmFunction:
        self._layout_allocas()
        intervals = self._intervals()
        self._allocate(intervals)
        self._layout_frame()
        self._set_synthetic("prologue")
        self._emit_prologue()
        for bb in self.blocks:
            self.out.label(f".L{bb.name}")
            for phi in bb.phis():
                self._set_current(phi)
                self._load_phi(phi)
            for inst in bb.instructions:
                if not isinstance(inst, Phi):
                    self._set_current(inst)
                    self._emit(inst)
        self.out.label(self.epilogue)
        self._set_synthetic("epilogue")
        self._emit_epilogue()
        emitted = len(self.out.instructions())
        work("codegen.instructions", emitted, function=self.func.name)
        work("codegen.intervals", len(intervals), function=self.func.name)
        if self._spill_count and telemetry.remarks_enabled():
            telemetry.remark(
                "regalloc", "spill",
                f"linear scan spilled {self._spill_count} of "
                f"{len(intervals)} live intervals to frame slots; "
                f"{emitted} Arm instructions emitted",
                function=self.func.name,
                spills=self._spill_count, intervals=len(intervals))
        return self.out

    # ---- liveness + intervals ------------------------------------------
    def _intervals(self) -> list[tuple[Value, int, int]]:
        index: dict[int, int] = {}
        block_range: dict[int, tuple[int, int]] = {}
        pos = 0
        for bb in self.blocks:
            start = pos
            for inst in bb.instructions:
                index[id(inst)] = pos
                pos += 1
            block_range[id(bb)] = (start, pos - 1)

        def needs_interval(v: Value) -> bool:
            if isinstance(v, (Constant, BasicBlock, UndefValue)):
                return False
            if isinstance(v, Alloca):
                return False
            if isinstance(v, Instruction) and v.type.is_void:
                return False
            return isinstance(v, (Instruction, Argument))

        # use/def per block, with phi incomings charged to predecessors.
        use: dict[int, set[int]] = {id(b): set() for b in self.blocks}
        define: dict[int, set[int]] = {id(b): set() for b in self.blocks}
        values: dict[int, Value] = {}
        phi_uses: dict[int, set[int]] = {id(b): set() for b in self.blocks}
        for bb in self.blocks:
            for inst in bb.instructions:
                if needs_interval(inst):
                    define[id(bb)].add(id(inst))
                    values[id(inst)] = inst
                if isinstance(inst, Phi):
                    for v, pred in inst.incoming():
                        if needs_interval(v):
                            phi_uses[id(pred)].add(id(v))
                            values[id(v)] = v
                    continue
                for op in inst.operands:
                    if needs_interval(op) and id(op) not in define[id(bb)]:
                        use[id(bb)].add(id(op))
                        values[id(op)] = op

        live_in: dict[int, set[int]] = {id(b): set() for b in self.blocks}
        changed = True
        while changed:
            changed = False
            for bb in reversed(self.blocks):
                out: set[int] = set(phi_uses[id(bb)])
                for s in bb.successors():
                    out |= live_in[id(s)]
                new_in = use[id(bb)] | (out - define[id(bb)])
                if new_in != live_in[id(bb)]:
                    live_in[id(bb)] = new_in
                    changed = True

        start: dict[int, int] = {}
        end: dict[int, int] = {}
        for arg in self.func.arguments:
            values[id(arg)] = arg
            start[id(arg)] = 0
            end[id(arg)] = 0
        # Pass 1: record every definition point.  Doing this before looking
        # at uses matters: linear block order need not follow control flow,
        # so a value can be *used* in a block that the layout places before
        # its defining block (e.g. a loop-exit successor emitted early).
        for bb in self.blocks:
            for inst in bb.instructions:
                if needs_interval(inst):
                    start.setdefault(id(inst), index[id(inst)])
                    end.setdefault(id(inst), index[id(inst)])
        # Pass 2: widen each interval over explicit uses and over every
        # block where the value is live, in both directions.
        for bb in self.blocks:
            bstart, bend = block_range[id(bb)]
            for inst in bb.instructions:
                if isinstance(inst, Phi):
                    continue
                for op in inst.operands:
                    if needs_interval(op) and id(op) in start:
                        end[id(op)] = max(end[id(op)], index[id(inst)])
                        start[id(op)] = min(start[id(op)], index[id(inst)])
            out: set[int] = set(phi_uses[id(bb)])
            for s in bb.successors():
                out |= live_in[id(s)]
            for vid in out | live_in[id(bb)]:
                if vid in start:
                    end[vid] = max(end[vid], bend)
                    start[vid] = min(start[vid], bstart)
            for vid in phi_uses[id(bb)]:
                if vid in start:
                    end[vid] = max(end[vid], bend)

        out_list = [
            (values[vid], start[vid], end[vid]) for vid in start if vid in values
        ]
        out_list.sort(key=lambda t: (t[1], t[2]))
        return out_list

    # ---- linear scan allocation ---------------------------------------------
    def _allocate(self, intervals: list[tuple[Value, int, int]]) -> None:
        free = {"int": list(INT_POOL), "fp": list(FP_POOL)}
        # (end, seq, pool, v): seq is the interval's position in the
        # (deterministically ordered) interval list, so every sort and
        # victim choice below is reproducible.  Tiebreaking on id(value)
        # would let memory addresses pick the spill victim — the same IR
        # could allocate differently across runs.
        active: list[tuple[int, int, str, Value]] = []
        self._spill_count = 0

        def pool_of(v: Value) -> str:
            return "fp" if _is_fp(v.type) else "int"

        for seq, (value, s, e) in enumerate(intervals):
            active.sort(key=lambda t: (t[0], t[1]))
            while active and active[0][0] < s:
                _, _, pool, old = active.pop(0)
                kind, reg = self.loc[id(old)]
                if kind == "reg":
                    free[pool].append(reg)  # type: ignore[arg-type]
            pool = pool_of(value)
            if free[pool]:
                reg = free[pool].pop(0)
                self.loc[id(value)] = ("reg", reg)
                active.append((e, seq, pool, value))
            else:
                # Spill the active interval with the furthest end if it
                # outlives the current one.
                candidates = [a for a in active if a[2] == pool]
                candidates.sort(key=lambda t: (t[0], t[1]))
                if candidates and candidates[-1][0] > e:
                    victim = candidates[-1]
                    active.remove(victim)
                    old = victim[3]
                    kind, reg = self.loc[id(old)]
                    self.loc[id(old)] = ("slot", self._new_spill())
                    self.loc[id(value)] = ("reg", reg)
                    active.append((e, seq, pool, value))
                else:
                    self.loc[id(value)] = ("slot", self._new_spill())

        self.used_callee_saved = sorted(
            {
                loc[1]
                for loc in self.loc.values()
                if loc[0] == "reg"
            },
            key=lambda r: (r[0], int(r[1:])),  # type: ignore[index]
        )

    def _new_spill(self) -> int:
        self._spill_count += 1
        return self._spill_count - 1

    # ---- frame layout ----------------------------------------------------------
    def _layout_allocas(self) -> None:
        offset = 0
        for bb in self.blocks:
            for inst in bb.instructions:
                if isinstance(inst, Alloca):
                    size = max(1, inst.size_bytes())
                    offset = (offset + 7) & ~7
                    if size >= 16:
                        offset = (offset + 15) & ~15
                    self.alloca_offset[id(inst)] = offset
                    offset += size
        self._alloca_area = (offset + 7) & ~7

    def _layout_frame(self) -> None:
        offset = self._alloca_area
        self._spill_base = offset
        offset += self._spill_count * 8
        self._phi_base = offset
        phis = [
            inst
            for bb in self.blocks
            for inst in bb.instructions
            if isinstance(inst, Phi)
        ]
        for i, phi in enumerate(phis):
            self.phi_slot[id(phi)] = offset
            offset += 8
        self._save_area = offset
        offset += 16 + 8 * len(self.used_callee_saved)
        self.frame = (offset + 15) & ~15

    def _slot_offset(self, slot_index: int) -> int:
        return self._spill_base + slot_index * 8

    # ---- provenance -----------------------------------------------------------
    def _set_current(self, inst: Instruction) -> None:
        """Tag subsequently emitted Arm instructions with ``inst``'s lineage."""
        self._origins = inst.origins
        try:
            self._lir = format_instruction(inst)
        except Exception:  # pragma: no cover - printing is best-effort
            self._lir = inst.opcode
        self._placement = tuple(getattr(inst, "placement", ()))

    def _set_synthetic(self, kind: str) -> None:
        """Anchor prologue/epilogue code at the function's x86 entry."""
        addr = getattr(self.func, "x86_addr", None)
        if addr is None:
            self._origins = ()
        else:
            self._origins = (synthetic_origin(kind, addr, self.func.name),)
        self._lir = f"<{kind}>"
        self._placement = ()

    # ---- emission helpers -----------------------------------------------------
    def emit(self, mnemonic: str, *operands) -> None:
        instr = AInstr(mnemonic, list(operands))
        instr.origins = self._origins
        instr.lir = self._lir
        if self._placement:
            instr.placement = self._placement
        self.out.emit(instr)

    def _new_label(self, hint: str) -> str:
        self.label_counter += 1
        return f".L{hint}_{self.func.name}_{self.label_counter}"

    def _emit_prologue(self) -> None:
        self.emit("sub", XReg("sp"), XReg("sp"), AImm(self.frame))
        self.emit("str", XReg("x29"), AMem(base="sp", offset_imm=self.frame - 8))
        self.emit("str", XReg("x30"), AMem(base="sp", offset_imm=self.frame - 16))
        for i, reg in enumerate(self.used_callee_saved):
            mem = AMem(base="sp", offset_imm=self._save_area + 8 * i, width=64)
            if reg.startswith("d"):
                self.emit("fstr", DReg(reg), mem)
            else:
                self.emit("str", XReg(reg), mem)
        self.emit("mov", XReg("x29"), XReg("sp"))
        # Move incoming arguments to their assigned locations.
        int_idx = 0
        fp_idx = 0
        for arg in self.func.arguments:
            if _is_fp(arg.type):
                src = f"d{fp_idx}"
                fp_idx += 1
                self._store_result(arg, src, fp=True)
            else:
                src = f"x{int_idx}"
                int_idx += 1
                self._store_result(arg, src, fp=False)

    def _emit_epilogue(self) -> None:
        for i, reg in enumerate(self.used_callee_saved):
            mem = AMem(base="sp", offset_imm=self._save_area + 8 * i, width=64)
            if reg.startswith("d"):
                self.emit("fldr", DReg(reg), mem)
            else:
                self.emit("ldr", XReg(reg), mem)
        self.emit("ldr", XReg("x29"), AMem(base="sp", offset_imm=self.frame - 8))
        self.emit("ldr", XReg("x30"), AMem(base="sp", offset_imm=self.frame - 16))
        self.emit("add", XReg("sp"), XReg("sp"), AImm(self.frame))
        self.emit("ret")

    # ---- value access ------------------------------------------------------------
    def _reg_of(self, value: Value, temp: str) -> str:
        """Return a register holding ``value``, materializing into ``temp``
        when needed."""
        if isinstance(value, ConstantInt):
            self.emit("mov", XReg(temp), AImm(value.value))
            return temp
        if isinstance(value, ConstantFloat):
            bits = int.from_bytes(struct.pack("<d", value.value), "little")
            self.emit("mov", XReg("x15"), AImm(bits))
            self.emit("fmov", DReg(temp), XReg("x15"))
            return temp
        if isinstance(value, ConstantPointerNull):
            self.emit("mov", XReg(temp), AImm(0))
            return temp
        if isinstance(value, UndefValue):
            if _is_fp(value.type):
                self.emit("mov", XReg("x15"), AImm(0))
                self.emit("fmov", DReg(temp), XReg("x15"))
            else:
                self.emit("mov", XReg(temp), AImm(0))
            return temp
        if isinstance(value, (GlobalVariable, Function, ExternalFunction)):
            self.emit("adr", XReg(temp), ALabel(value.name))
            return temp
        if isinstance(value, Alloca):
            self.emit(
                "add", XReg(temp), XReg("x29"),
                AImm(self.alloca_offset[id(value)]),
            )
            return temp
        loc = self.loc.get(id(value))
        if loc is None:
            raise BackendError(
                f"{self.func.name}: no location for %{value.name}"
            )
        kind, where = loc
        if kind == "reg":
            return where  # type: ignore[return-value]
        off = self._slot_offset(where)  # type: ignore[arg-type]
        if _is_fp(value.type):
            self.emit("fldr", DReg(temp), AMem(base="x29", offset_imm=off, width=64))
        else:
            self.emit("ldr", XReg(temp), AMem(base="x29", offset_imm=off))
        return temp

    def _dest_reg(self, value: Value, temp: str) -> str:
        loc = self.loc.get(id(value))
        if loc is not None and loc[0] == "reg":
            return loc[1]  # type: ignore[return-value]
        return temp

    def _store_result(self, value: Value, reg: str, fp: bool) -> None:
        loc = self.loc.get(id(value))
        if loc is None:
            return  # result never used
        kind, where = loc
        if kind == "reg":
            if where != reg:
                if fp:
                    self.emit("fmov", DReg(where), DReg(reg))
                else:
                    self.emit("mov", XReg(where), XReg(reg))
            return
        off = self._slot_offset(where)  # type: ignore[arg-type]
        if fp:
            self.emit("fstr", DReg(reg), AMem(base="x29", offset_imm=off, width=64))
        else:
            self.emit("str", XReg(reg), AMem(base="x29", offset_imm=off))

    def _finish(self, inst: Value, reg: str, fp: bool = False) -> None:
        self._store_result(inst, reg, fp)

    # ---- phi lowering ------------------------------------------------------------
    def _load_phi(self, phi: Phi) -> None:
        off = self.phi_slot[id(phi)]
        fp = _is_fp(phi.type)
        dst = self._dest_reg(phi, "d16" if fp else "x9")
        if fp:
            self.emit("fldr", DReg(dst), AMem(base="x29", offset_imm=off, width=64))
        else:
            self.emit("ldr", XReg(dst), AMem(base="x29", offset_imm=off))
        self._store_result(phi, dst, fp)

    def _emit_phi_copies(self, bb: BasicBlock) -> None:
        for succ in bb.successors():
            for phi in succ.phis():
                value = phi.incoming_for(bb)
                if value is None:
                    raise BackendError(
                        f"{self.func.name}: phi without incoming for "
                        f"{bb.name}"
                    )
                fp = _is_fp(phi.type)
                reg = self._reg_of(value, "d16" if fp else "x9")
                off = self.phi_slot[id(phi)]
                mem = AMem(base="x29", offset_imm=off, width=64)
                if fp:
                    self.emit("fstr", DReg(reg), mem)
                else:
                    self.emit("str", XReg(reg), mem)

    # ---- instruction selection ------------------------------------------------------
    def _emit(self, inst: Instruction) -> None:
        if isinstance(inst, Alloca):
            return
        if isinstance(inst, Load):
            self._emit_load(inst)
        elif isinstance(inst, Store):
            self._emit_store(inst)
        elif isinstance(inst, Fence):
            self.emit(FENCE_MNEMONIC[inst.kind])
        elif isinstance(inst, AtomicRMW):
            self._emit_rmw(inst)
        elif isinstance(inst, CmpXchg):
            self._emit_cmpxchg(inst)
        elif isinstance(inst, BinOp):
            self._emit_binop(inst)
        elif isinstance(inst, ICmp):
            self._emit_icmp(inst)
        elif isinstance(inst, FCmp):
            self._emit_fcmp(inst)
        elif isinstance(inst, Cast):
            self._emit_cast(inst)
        elif isinstance(inst, GEP):
            self._emit_gep(inst)
        elif isinstance(inst, Select):
            self._emit_select(inst)
        elif isinstance(inst, Call):
            self._emit_call(inst)
        elif isinstance(inst, Br):
            self._emit_phi_copies(inst.parent)
            if inst.is_conditional:
                c = self._reg_of(inst.cond, "x9")
                self.emit("cbnz", XReg(c), ALabel(f".L{inst.targets[0].name}"))
                self.emit("b", ALabel(f".L{inst.targets[1].name}"))
            else:
                self.emit("b", ALabel(f".L{inst.targets[0].name}"))
        elif isinstance(inst, Ret):
            if inst.value is not None:
                if _is_fp(inst.value.type):
                    reg = self._reg_of(inst.value, "d16")
                    if reg != "d0":
                        self.emit("fmov", DReg("d0"), DReg(reg))
                else:
                    reg = self._reg_of(inst.value, "x9")
                    if reg != "x0":
                        self.emit("mov", XReg("x0"), XReg(reg))
            self.emit("b", ALabel(self.epilogue))
        elif isinstance(inst, Unreachable):
            self.emit("udf")
        else:
            raise BackendError(f"cannot select {inst.opcode}")

    def _emit_load(self, inst: Load) -> None:
        p = self._reg_of(inst.pointer, "x9")
        ty = inst.type
        if _is_fp(ty):
            dst = self._dest_reg(inst, "d16")
            self.emit("fldr", DReg(dst), AMem(base=p, width=ty.size_bytes() * 8))
            self._finish(inst, dst, fp=True)
            return
        dst = self._dest_reg(inst, "x10")
        if inst.ordering == "sc":
            self.emit("ldar", XReg(dst), AMem(base=p))
        elif isinstance(ty, IntType) and ty.bits > 32:
            self.emit("ldr", XReg(dst), AMem(base=p))
        elif isinstance(ty, PointerType):
            self.emit("ldr", XReg(dst), AMem(base=p))
        elif isinstance(ty, IntType) and ty.bits > 8:
            self.emit("ldr32", XReg(dst), AMem(base=p, width=32))
        else:
            self.emit("ldrb", XReg(dst), AMem(base=p, width=8))
        self._finish(inst, dst)

    def _emit_store(self, inst: Store) -> None:
        ty = inst.value.type
        p = self._reg_of(inst.pointer, "x9")
        if _is_fp(ty):
            v = self._reg_of(inst.value, "d16")
            self.emit("fstr", DReg(v), AMem(base=p, width=ty.size_bytes() * 8))
            return
        v = self._reg_of(inst.value, "x10")
        if inst.ordering == "sc":
            self.emit("stlr", XReg(v), AMem(base=p))
        elif isinstance(ty, IntType) and ty.bits <= 8:
            self.emit("strb", XReg(v), AMem(base=p, width=8))
        elif isinstance(ty, IntType) and ty.bits <= 32:
            self.emit("str32", XReg(v), AMem(base=p, width=32))
        else:
            self.emit("str", XReg(v), AMem(base=p))

    def _emit_rmw(self, inst: AtomicRMW) -> None:
        p = self._reg_of(inst.pointer, "x9")
        v = self._reg_of(inst.value, "x10")
        loop = self._new_label("rmw")
        self.emit("dmb ish")
        self.out.label(loop)
        self.emit("ldxr", XReg("x11"), AMem(base=p))
        if inst.op == "xchg":
            self.emit("mov", XReg("x12"), XReg(v))
        elif inst.op in ("add", "sub", "and", "or", "xor"):
            mn = {"add": "add", "sub": "sub", "and": "and", "or": "orr",
                  "xor": "eor"}[inst.op]
            self.emit(mn, XReg("x12"), XReg("x11"), XReg(v))
        elif inst.op in ("max", "min"):
            self.emit("cmp", XReg("x11"), XReg(v))
            cond = "gt" if inst.op == "max" else "lt"
            self.emit("csel", XReg("x12"), XReg("x11"), XReg(v), ALabel(cond))
        else:
            raise BackendError(f"rmw op {inst.op}")
        self.emit("stxr", XReg("x13"), XReg("x12"), AMem(base=p))
        self.emit("cbnz", XReg("x13"), ALabel(loop))
        self.emit("dmb ish")
        self._finish(inst, "x11")

    def _emit_cmpxchg(self, inst: CmpXchg) -> None:
        p = self._reg_of(inst.pointer, "x9")
        expected = self._reg_of(inst.expected, "x10")
        new = self._reg_of(inst.new, "x12")
        loop = self._new_label("cas")
        done = self._new_label("casdone")
        self.emit("dmb ish")
        self.out.label(loop)
        self.emit("ldxr", XReg("x11"), AMem(base=p))
        self.emit("cmp", XReg("x11"), XReg(expected))
        self.emit("b.ne", ALabel(done))
        self.emit("stxr", XReg("x13"), XReg(new), AMem(base=p))
        self.emit("cbnz", XReg("x13"), ALabel(loop))
        self.out.label(done)
        self.emit("dmb ish")
        self._finish(inst, "x11")

    _INT_OPS = {"add": "add", "sub": "sub", "mul": "mul", "and": "and",
                "or": "orr", "xor": "eor", "shl": "lsl", "lshr": "lsr",
                "sdiv": "sdiv", "udiv": "udiv"}

    def _emit_binop(self, inst: BinOp) -> None:
        if _is_fp(inst.type):
            a = self._reg_of(inst.lhs, "d16")
            b = self._reg_of(inst.rhs, "d17")
            dst = self._dest_reg(inst, "d18")
            mn = {"fadd": "fadd", "fsub": "fsub", "fmul": "fmul",
                  "fdiv": "fdiv"}[inst.op]
            self.emit(mn, DReg(dst), DReg(a), DReg(b))
            self._finish(inst, dst, fp=True)
            return
        ty = inst.type
        assert isinstance(ty, IntType)
        a = self._reg_of(inst.lhs, "x9")
        b = self._reg_of(inst.rhs, "x10")
        dst = self._dest_reg(inst, "x11")
        op = inst.op
        if op == "ashr" and ty.bits < 64:
            # Sign-extend into 64-bit before the arithmetic shift.
            shift = 64 - ty.bits
            self.emit("lsl", XReg("x12"), XReg(a), AImm(shift))
            self.emit("asr", XReg("x12"), XReg("x12"), AImm(shift))
            self.emit("asr", XReg(dst), XReg("x12"), XReg(b))
        elif op == "ashr":
            self.emit("asr", XReg(dst), XReg(a), XReg(b))
        elif op in ("srem", "urem"):
            div = "sdiv" if op == "srem" else "udiv"
            if op == "srem" and ty.bits < 64:
                raise BackendError("narrow srem unsupported")
            self.emit(div, XReg("x12"), XReg(a), XReg(b))
            self.emit("msub", XReg(dst), XReg("x12"), XReg(b), XReg(a))
        elif op == "sdiv" and ty.bits < 64:
            raise BackendError("narrow sdiv unsupported")
        elif op in self._INT_OPS:
            self.emit(self._INT_OPS[op], XReg(dst), XReg(a), XReg(b))
        else:
            raise BackendError(f"binop {op}")
        # Maintain the invariant that narrow integers stay zero-masked.
        if ty.bits < 64 and op in ("add", "sub", "mul", "shl"):
            self.emit("and", XReg(dst), XReg(dst), AImm(ty.mask()))
        self._finish(inst, dst)

    def _emit_icmp(self, inst: ICmp) -> None:
        ty = inst.lhs.type
        a = self._reg_of(inst.lhs, "x9")
        b = self._reg_of(inst.rhs, "x10")
        signed = inst.pred in ("slt", "sle", "sgt", "sge")
        if signed and isinstance(ty, IntType) and ty.bits < 64:
            shift = 64 - ty.bits
            self.emit("lsl", XReg("x12"), XReg(a), AImm(shift))
            self.emit("asr", XReg("x12"), XReg("x12"), AImm(shift))
            self.emit("lsl", XReg("x13"), XReg(b), AImm(shift))
            self.emit("asr", XReg("x13"), XReg("x13"), AImm(shift))
            a, b = "x12", "x13"
        dst = self._dest_reg(inst, "x11")
        self.emit("cmp", XReg(a), XReg(b))
        self.emit("cset", XReg(dst), ALabel(ICMP_COND[inst.pred]))
        self._finish(inst, dst)

    def _emit_fcmp(self, inst: FCmp) -> None:
        a = self._reg_of(inst.lhs, "d16")
        b = self._reg_of(inst.rhs, "d17")
        dst = self._dest_reg(inst, "x11")
        self.emit("fcmp", DReg(a), DReg(b))
        self.emit("cset", XReg(dst), ALabel(FCMP_COND[inst.pred]))
        self._finish(inst, dst)

    def _emit_cast(self, inst: Cast) -> None:
        op = inst.op
        src_ty = inst.value.type
        dst_ty = inst.type
        if op in ("bitcast",) and isinstance(src_ty, FloatType) and isinstance(
            dst_ty, IntType
        ):
            a = self._reg_of(inst.value, "d16")
            dst = self._dest_reg(inst, "x11")
            self.emit("fmov", XReg(dst), DReg(a))
            self._finish(inst, dst)
            return
        if op in ("bitcast",) and isinstance(src_ty, IntType) and isinstance(
            dst_ty, FloatType
        ):
            a = self._reg_of(inst.value, "x9")
            dst = self._dest_reg(inst, "d16")
            self.emit("fmov", DReg(dst), XReg(a))
            self._finish(inst, dst, fp=True)
            return
        if op == "sitofp":
            a = self._reg_of(inst.value, "x9")
            dst = self._dest_reg(inst, "d16")
            if isinstance(src_ty, IntType) and src_ty.bits < 64:
                shift = 64 - src_ty.bits
                self.emit("lsl", XReg("x12"), XReg(a), AImm(shift))
                self.emit("asr", XReg("x12"), XReg("x12"), AImm(shift))
                a = "x12"
            self.emit("scvtf", DReg(dst), XReg(a))
            self._finish(inst, dst, fp=True)
            return
        if op == "uitofp":
            a = self._reg_of(inst.value, "x9")
            dst = self._dest_reg(inst, "d16")
            self.emit("scvtf", DReg(dst), XReg(a))
            self._finish(inst, dst, fp=True)
            return
        if op in ("fptosi", "fptoui"):
            a = self._reg_of(inst.value, "d16")
            dst = self._dest_reg(inst, "x11")
            self.emit("fcvtzs", XReg(dst), DReg(a))
            if isinstance(dst_ty, IntType) and dst_ty.bits < 64:
                self.emit("and", XReg(dst), XReg(dst), AImm(dst_ty.mask()))
            self._finish(inst, dst)
            return
        if op in ("fpext", "fptrunc"):
            a = self._reg_of(inst.value, "d16")
            dst = self._dest_reg(inst, "d17")
            if dst != a:
                self.emit("fmov", DReg(dst), DReg(a))
            self._finish(inst, dst, fp=True)
            return
        # Integer/pointer-only casts.
        a = self._reg_of(inst.value, "x9")
        dst = self._dest_reg(inst, "x11")
        if op == "trunc":
            assert isinstance(dst_ty, IntType)
            self.emit("and", XReg(dst), XReg(a), AImm(dst_ty.mask()))
        elif op == "zext":
            if dst != a:
                self.emit("mov", XReg(dst), XReg(a))
        elif op == "sext":
            assert isinstance(src_ty, IntType)
            shift = 64 - src_ty.bits
            self.emit("lsl", XReg("x12"), XReg(a), AImm(shift))
            self.emit("asr", XReg(dst), XReg("x12"), AImm(shift))
            if isinstance(dst_ty, IntType) and dst_ty.bits < 64:
                self.emit("and", XReg(dst), XReg(dst), AImm(dst_ty.mask()))
        elif op in ("bitcast", "inttoptr", "ptrtoint"):
            if dst != a:
                self.emit("mov", XReg(dst), XReg(a))
        else:
            raise BackendError(f"cast {op}")
        self._finish(inst, dst)

    def _emit_gep(self, inst: GEP) -> None:
        base = self._reg_of(inst.pointer, "x9")
        dst = self._dest_reg(inst, "x11")
        sizes = [inst.source_type.size_bytes()]
        if len(inst.indices) == 2:
            sizes.append(inst.source_type.element.size_bytes())  # type: ignore[union-attr]
        current = base
        for idx_value, size in zip(inst.indices, sizes):
            if isinstance(idx_value, ConstantInt):
                delta = idx_value.signed_value * size
                if delta == 0:
                    continue
                self.emit("add", XReg(dst), XReg(current), AImm(delta))
                current = dst
                continue
            idx = self._reg_of(idx_value, "x10")
            shift = _pow2_shift(size)
            if size == 1:
                scaled = idx
            elif shift is not None:
                self.emit("lsl", XReg("x12"), XReg(idx), AImm(shift))
                scaled = "x12"
            else:
                self.emit("mov", XReg("x12"), AImm(size))
                self.emit("mul", XReg("x12"), XReg(idx), XReg("x12"))
                scaled = "x12"
            self.emit("add", XReg(dst), XReg(current), XReg(scaled))
            current = dst
        if current != dst:
            self.emit("mov", XReg(dst), XReg(current))
        self._finish(inst, dst)

    def _emit_select(self, inst: Select) -> None:
        c = self._reg_of(inst.cond, "x9")
        self.emit("cmp", XReg(c), AImm(0))
        if _is_fp(inst.type):
            a = self._reg_of(inst.true_value, "d16")
            b = self._reg_of(inst.false_value, "d17")
            dst = self._dest_reg(inst, "d18")
            self.emit("fcsel", DReg(dst), DReg(a), DReg(b), ALabel("ne"))
            self._finish(inst, dst, fp=True)
        else:
            a = self._reg_of(inst.true_value, "x10")
            b = self._reg_of(inst.false_value, "x12")
            dst = self._dest_reg(inst, "x11")
            self.emit("csel", XReg(dst), XReg(a), XReg(b), ALabel("ne"))
            self._finish(inst, dst)

    def _emit_call(self, inst: Call) -> None:
        callee = inst.callee
        # Marshal arguments (AAPCS64: separate int and FP register files).
        int_idx = 0
        fp_idx = 0
        moves: list[tuple[str, Value]] = []
        for arg in inst.args:
            if _is_fp(arg.type):
                moves.append((f"d{fp_idx}", arg))
                fp_idx += 1
            else:
                moves.append((f"x{int_idx}", arg))
                int_idx += 1
        if int_idx > 8 or fp_idx > 8:
            raise BackendError("too many call arguments")
        for dst, arg in moves:
            if dst.startswith("d"):
                reg = self._reg_of(arg, "d16")
                if reg != dst:
                    self.emit("fmov", DReg(dst), DReg(reg))
            else:
                reg = self._reg_of(arg, "x9")
                if reg != dst:
                    self.emit("mov", XReg(dst), XReg(reg))
        if isinstance(callee, (Function, ExternalFunction)):
            self.emit("bl", ALabel(callee.name))
        else:
            target = self._reg_of(callee, "x9")
            self.emit("blr", XReg(target))
        if not inst.type.is_void:
            if _is_fp(inst.type):
                self._store_result(inst, "d0", fp=True)
            else:
                self._store_result(inst, "x0", fp=False)


def compile_lir_to_arm(module: Module, entry: str = "main") -> ArmProgram:
    return LIRToArm(module, entry).compile()
