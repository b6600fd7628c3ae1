"""AArch64-subset emulator with a cycle cost model.

Executes an :class:`~repro.arm.program.ArmProgram`.  Code addresses are
synthetic (function index × 2^20 + instruction index) since the Arm side is
structured rather than byte-encoded; data lives in a flat byte memory that
shares its layout with the x86 emulator, so lifted programs see the same
global addresses on both sides.

Cycle accounting uses :mod:`repro.arm.costs`; per-thread cycles are summed
into ``total_cycles``, the runtime metric of the Figure 12/15 benchmarks.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ..loader.externs import RETRY
from .costs import cost_of
from .isa import AImm, AInstr, AMem, DReg, XReg
from .program import DATA_BASE, ArmProgram

HEAP_BASE = 0x900000
STACK_BASE = 0x2000000
STACK_SIZE = 0x40000
MEMORY_SIZE = STACK_BASE + 64 * STACK_SIZE

CODE_STRIDE = 1 << 20
EXTERNAL_BASE = 1 << 40


class ArmEmuError(Exception):
    pass


def _signed(v: int, bits: int = 64) -> int:
    v &= (1 << bits) - 1
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


class ArmThread:
    def __init__(self, tid: int, pc: int, sp: int) -> None:
        self.tid = tid
        self.x: dict[str, int] = {f"x{i}": 0 for i in range(31)}
        self.x["sp"] = sp
        self.d: dict[str, float] = {f"d{i}": 0.0 for i in range(32)}
        self.flags = {"n": 0, "z": 0, "c": 0, "v": 0}
        self.pc = pc
        self.done = False
        self.cycles = 0
        self.fence_cycles = 0  # cycles spent in dmb barriers
        self.instret = 0
        self.monitor: Optional[int] = None  # exclusive monitor address


class ArmEmulator:
    def __init__(self, program: ArmProgram, quantum: int = 64) -> None:
        self.program = program
        self.quantum = quantum
        self.memory = bytearray(MEMORY_SIZE)
        self.heap_ptr = HEAP_BASE
        self.output: list[str] = []
        self.threads: list[ArmThread] = []
        self.next_tid = 0
        self.steps = 0
        self.max_steps = 500_000_000
        self.total_cycles = 0
        self.code: list[list[AInstr]] = []
        self.func_index: dict[str, int] = {}
        self.labels: dict[tuple[int, str], int] = {}
        self.symbols: dict[str, int] = {}
        self.external_addr: dict[str, int] = {}
        self._resolve()
        self.externals: dict[str, Callable[[ArmThread], None]] = {
            "malloc": self._ext_malloc,
            "spawn": self._ext_spawn,
            "join": self._ext_join,
            "print_i64": self._ext_print_i64,
            "print_f64": self._ext_print_f64,
            "abort": self._ext_abort,
            "thread_id": self._ext_thread_id,
            "sqrt": self._ext_sqrt,
        }
        # Loader-catalog externals (libc names from real ELF binaries)
        # run through the shared execution kernel, so both emulators
        # produce identical output streams for the oracle.
        from ..loader.externs import install_arm_catalog
        install_arm_catalog(self)

    # ---- program loading -------------------------------------------------
    def _resolve(self) -> None:
        for fi, (name, func) in enumerate(self.program.functions.items()):
            self.func_index[name] = fi
            insts: list[AInstr] = []
            for item in func.items:
                if isinstance(item, str):
                    self.labels[(fi, item)] = len(insts)
                else:
                    insts.append(item)
            self.code.append(insts)
            self.symbols[name] = fi * CODE_STRIDE
        for i, name in enumerate(self.program.externals):
            addr = EXTERNAL_BASE + i
            self.external_addr[name] = addr
            self.symbols.setdefault(name, addr)
        addr = DATA_BASE
        for g in self.program.globals.values():
            addr = (addr + 15) & ~15
            self.symbols[g.name] = addr
            if g.init:
                self.memory[addr : addr + len(g.init)] = g.init
            addr += max(1, g.size)

    def _label_target(self, pc: int, label: str) -> int:
        fi = pc // CODE_STRIDE
        key = (fi, label)
        if key in self.labels:
            return fi * CODE_STRIDE + self.labels[key]
        if label in self.symbols:
            return self.symbols[label]
        raise ArmEmuError(f"unresolved label {label!r}")

    # ---- memory -----------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > len(self.memory):
            raise ArmEmuError(f"memory access out of range: {addr:#x}+{size}")

    def load(self, addr: int, size: int) -> int:
        self._check(addr, size)
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        self._check(addr, size)
        self.memory[addr : addr + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )
        # A store to a monitored address clears other threads' monitors.
        for t in self.threads:
            if t.monitor is not None and t.monitor == addr:
                if t is not self._current:
                    t.monitor = None

    # ---- registers ------------------------------------------------------------
    @staticmethod
    def _rx(thread: ArmThread, name: str) -> int:
        if name == "xzr":
            return 0
        return thread.x[name]

    @staticmethod
    def _wx(thread: ArmThread, name: str, value: int) -> None:
        if name == "xzr":
            return
        thread.x[name] = value & (2**64 - 1)

    def _operand(self, thread: ArmThread, op) -> int:
        if isinstance(op, XReg):
            return self._rx(thread, op.name)
        if isinstance(op, AImm):
            return op.value & (2**64 - 1)
        raise ArmEmuError(f"bad integer operand {op!r}")

    def _mem_addr(self, thread: ArmThread, mem: AMem) -> int:
        addr = self._rx(thread, mem.base) + mem.offset_imm
        if mem.offset_reg is not None:
            addr += self._rx(thread, mem.offset_reg)
        return addr & (2**64 - 1)

    # ---- run ---------------------------------------------------------------------
    def run(self, entry: Optional[str] = None, args: Optional[list[int]] = None) -> int:
        name = entry or self.program.entry
        main = self._make_thread(self.symbols[name])
        for i, v in enumerate(args or []):
            main.x[f"x{i}"] = v & (2**64 - 1)
        while not main.done:
            self._schedule()
        self.total_cycles = sum(t.cycles for t in self.threads)
        return _signed(main.x["x0"])

    RETURN_SENTINEL = (1 << 44) + 7

    def _make_thread(self, pc: int) -> ArmThread:
        tid = self.next_tid
        self.next_tid += 1
        sp = STACK_BASE + (tid + 1) * STACK_SIZE - 64
        thread = ArmThread(tid, pc, sp)
        thread.x["x30"] = self.RETURN_SENTINEL
        self.threads.append(thread)
        return thread

    def _schedule(self) -> None:
        ran = False
        for thread in list(self.threads):
            if thread.done:
                continue
            ran = True
            for _ in range(self.quantum):
                if thread.done:
                    break
                self.step(thread)
        if not ran:
            raise ArmEmuError("no runnable threads")

    _current: Optional[ArmThread] = None

    def _fetch(self, pc: int) -> AInstr:
        fi, idx = pc // CODE_STRIDE, pc % CODE_STRIDE
        if fi >= len(self.code) or idx >= len(self.code[fi]):
            raise ArmEmuError(f"pc outside code: {pc:#x}")
        return self.code[fi][idx]

    # ---- single step ----------------------------------------------------------
    def step(self, thread: ArmThread) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ArmEmuError("instruction budget exceeded")
        self._current = thread
        instr = self._fetch(thread.pc)
        thread.instret += 1
        cost = cost_of(instr.mnemonic)
        thread.cycles += cost
        if instr.mnemonic.startswith("dmb"):
            thread.fence_cycles += cost
        next_pc = thread.pc + 1
        mn = instr.mnemonic
        ops = instr.operands

        if mn == "mov":
            dst, src = ops
            if isinstance(dst, XReg):
                self._wx(thread, dst.name, self._operand(thread, src))
            else:
                thread.d[dst.name] = thread.d[src.name]
        elif mn == "adr":
            dst, label = ops
            self._wx(thread, dst.name, self._label_target(thread.pc, label.name))
        elif mn in ("ldr", "ldr32", "ldrb", "ldar", "ldxr"):
            dst, mem = ops
            size = {"ldr": 8, "ldr32": 4, "ldrb": 1, "ldar": 8, "ldxr": 8}[mn]
            addr = self._mem_addr(thread, mem)
            if mn == "ldxr":
                thread.monitor = addr
            self._wx(thread, dst.name, self.load(addr, size))
        elif mn in ("str", "str32", "strb", "stlr"):
            src, mem = ops
            size = {"str": 8, "str32": 4, "strb": 1, "stlr": 8}[mn]
            self.store(
                self._mem_addr(thread, mem), size, self._rx(thread, src.name)
            )
        elif mn == "stxr":
            status, src, mem = ops
            addr = self._mem_addr(thread, mem)
            if thread.monitor == addr:
                self.store(addr, 8, self._rx(thread, src.name))
                self._wx(thread, status.name, 0)
            else:
                self._wx(thread, status.name, 1)
            thread.monitor = None
        elif mn in ("add", "sub", "mul", "sdiv", "udiv", "and", "orr", "eor",
                    "lsl", "lsr", "asr"):
            dst, a, b = ops
            av = self._operand(thread, a)
            bv = self._operand(thread, b)
            self._wx(thread, dst.name, _int_alu(mn, av, bv))
        elif mn == "msub":
            dst, a, b, c = ops
            r = self._operand(thread, c) - self._operand(thread, a) * self._operand(
                thread, b
            )
            self._wx(thread, dst.name, r)
        elif mn == "mvn":
            dst, src = ops
            self._wx(thread, dst.name, ~self._operand(thread, src))
        elif mn == "neg":
            dst, src = ops
            self._wx(thread, dst.name, -self._operand(thread, src))
        elif mn == "cmp":
            a, b = ops
            av = _signed(self._operand(thread, a))
            bv = _signed(self._operand(thread, b))
            r = av - bv
            thread.flags.update(
                n=1 if r < 0 else 0,
                z=1 if r == 0 else 0,
                c=1 if (av & (2**64 - 1)) >= (bv & (2**64 - 1)) else 0,
                v=1 if not -(2**63) <= r < 2**63 else 0,
            )
        elif mn == "cset":
            dst, cond = ops
            self._wx(
                thread, dst.name, 1 if self._cond(thread, cond.name) else 0
            )
        elif mn == "csel":
            dst, a, b, cond = ops
            pick = a if self._cond(thread, cond.name) else b
            self._wx(thread, dst.name, self._rx(thread, pick.name))
        elif mn == "fcsel":
            dst, a, b, cond = ops
            pick = a if self._cond(thread, cond.name) else b
            thread.d[dst.name] = thread.d[pick.name]
        elif mn == "udf":
            raise ArmEmuError(f"udf executed at pc={thread.pc:#x}")
        elif mn == "b":
            next_pc = self._label_target(thread.pc, ops[0].name)
        elif mn.startswith("b."):
            if self._cond(thread, mn[2:]):
                next_pc = self._label_target(thread.pc, ops[0].name)
        elif mn == "cbz":
            reg, label = ops
            if self._rx(thread, reg.name) == 0:
                next_pc = self._label_target(thread.pc, label.name)
        elif mn == "cbnz":
            reg, label = ops
            if self._rx(thread, reg.name) != 0:
                next_pc = self._label_target(thread.pc, label.name)
        elif mn in ("bl", "blr"):
            if mn == "bl":
                target = self._label_target(thread.pc, ops[0].name)
            else:
                target = self._rx(thread, ops[0].name)
            if target >= EXTERNAL_BASE:
                name = self.program.externals[target - EXTERNAL_BASE]
                handler = self.externals.get(name)
                if handler is None:
                    raise ArmEmuError(
                        f"call to external {name!r} has no runtime handler "
                        f"(opaque/uncatalogued function)")
                if handler(thread) == RETRY:
                    # Blocking call (mutex lock, join): leave pc on the bl
                    # so the scheduler re-executes it after other threads
                    # get to run.
                    return
            else:
                thread.x["x30"] = next_pc
                next_pc = target
        elif mn == "ret":
            target = thread.x["x30"]
            if target == self.RETURN_SENTINEL:
                thread.done = True
                return
            next_pc = target
        elif mn in ("dmb ish", "dmb ishld", "dmb ishst"):
            pass  # single-copy-atomic emulator: barrier is cost only
        elif mn == "nop":
            pass
        elif mn in ("fadd", "fsub", "fmul", "fdiv"):
            dst, a, b = ops
            av, bv = thread.d[a.name], thread.d[b.name]
            r = {
                "fadd": av + bv, "fsub": av - bv, "fmul": av * bv,
                "fdiv": av / bv if bv != 0.0 else float("inf") if av > 0
                else float("-inf") if av < 0 else float("nan"),
            }[mn]
            thread.d[dst.name] = r
        elif mn == "fsqrt":
            dst, a = ops
            thread.d[dst.name] = thread.d[a.name] ** 0.5
        elif mn == "fmov":
            dst, src = ops
            if isinstance(dst, DReg) and isinstance(src, XReg):
                thread.d[dst.name] = struct.unpack(
                    "<d", self._rx(thread, src.name).to_bytes(8, "little")
                )[0]
            elif isinstance(dst, XReg) and isinstance(src, DReg):
                self._wx(
                    thread,
                    dst.name,
                    int.from_bytes(struct.pack("<d", thread.d[src.name]), "little"),
                )
            elif isinstance(dst, DReg) and isinstance(src, DReg):
                thread.d[dst.name] = thread.d[src.name]
            elif isinstance(dst, DReg) and isinstance(src, AImm):
                thread.d[dst.name] = float(src.value)
            else:
                raise ArmEmuError(f"bad fmov {instr}")
        elif mn == "fldr":
            dst, mem = ops
            width = mem.width
            raw = self.load(self._mem_addr(thread, mem), width // 8)
            fmt = "<f" if width == 32 else "<d"
            thread.d[dst.name] = struct.unpack(
                fmt, raw.to_bytes(width // 8, "little")
            )[0]
        elif mn == "fstr":
            src, mem = ops
            width = mem.width
            fmt = "<f" if width == 32 else "<d"
            raw = int.from_bytes(struct.pack(fmt, thread.d[src.name]), "little")
            self.store(self._mem_addr(thread, mem), width // 8, raw)
        elif mn == "fcmp":
            a, b = ops
            av = thread.d[a.name]
            bv = thread.d[b.name] if isinstance(b, DReg) else float(b.value)
            f = thread.flags
            if av != av or bv != bv:
                f.update(n=0, z=0, c=1, v=1)
            elif av == bv:
                f.update(n=0, z=1, c=1, v=0)
            elif av < bv:
                f.update(n=1, z=0, c=0, v=0)
            else:
                f.update(n=0, z=0, c=1, v=0)
        elif mn == "scvtf":
            dst, src = ops
            thread.d[dst.name] = float(_signed(self._rx(thread, src.name)))
        elif mn == "fcvtzs":
            dst, src = ops
            self._wx(thread, dst.name, int(thread.d[src.name]))
        else:
            raise ArmEmuError(f"cannot emulate {instr}")
        thread.pc = next_pc

    def _cond(self, thread: ArmThread, cond: str) -> bool:
        f = thread.flags
        table = {
            "eq": f["z"] == 1, "ne": f["z"] == 0,
            "lt": f["n"] != f["v"], "ge": f["n"] == f["v"],
            "le": f["z"] == 1 or f["n"] != f["v"],
            "gt": f["z"] == 0 and f["n"] == f["v"],
            "lo": f["c"] == 0, "hs": f["c"] == 1,
            "ls": f["c"] == 0 or f["z"] == 1,
            "hi": f["c"] == 1 and f["z"] == 0,
            "mi": f["n"] == 1, "pl": f["n"] == 0,
            "vs": f["v"] == 1, "vc": f["v"] == 0,
        }
        return table[cond]

    # ---- runtime externals -------------------------------------------------
    def _ext_malloc(self, thread: ArmThread) -> None:
        size = thread.x["x0"]
        addr = (self.heap_ptr + 15) & ~15
        self.heap_ptr = addr + max(1, size)
        if self.heap_ptr >= STACK_BASE:
            raise ArmEmuError("heap exhausted")
        thread.x["x0"] = addr

    def _ext_spawn(self, thread: ArmThread) -> None:
        target = thread.x["x0"]
        child = self._make_thread(target)
        child.x["x0"] = thread.x["x1"]
        thread.x["x0"] = child.tid

    def _ext_join(self, thread: ArmThread) -> None:
        tid = thread.x["x0"]
        for t in self.threads:
            if t.tid == tid:
                while not t.done:
                    for _ in range(self.quantum):
                        if t.done:
                            break
                        self.step(t)
                thread.x["x0"] = t.x["x0"]
                return
        raise ArmEmuError(f"join of unknown thread {tid}")

    def _ext_print_i64(self, thread: ArmThread) -> None:
        self.output.append(str(_signed(thread.x["x0"])))

    def _ext_print_f64(self, thread: ArmThread) -> None:
        self.output.append(f"{thread.d['d0']:.6f}")

    def _ext_abort(self, thread: ArmThread) -> None:
        raise ArmEmuError("program aborted")

    def _ext_thread_id(self, thread: ArmThread) -> None:
        thread.x["x0"] = thread.tid

    def _ext_sqrt(self, thread: ArmThread) -> None:
        thread.d["d0"] = thread.d["d0"] ** 0.5


def _int_alu(mn: str, a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    if mn == "add":
        return a + b
    if mn == "sub":
        return a - b
    if mn == "mul":
        return a * b
    if mn == "sdiv":
        if sb == 0:
            return 0  # AArch64 SDIV by zero yields 0
        q = abs(sa) // abs(sb)
        return -q if (sa < 0) != (sb < 0) else q
    if mn == "udiv":
        return a // b if b else 0
    if mn == "and":
        return a & b
    if mn == "orr":
        return a | b
    if mn == "eor":
        return a ^ b
    if mn == "lsl":
        return a << (b & 63)
    if mn == "lsr":
        return a >> (b & 63)
    if mn == "asr":
        return sa >> (b & 63)
    raise ArmEmuError(f"bad ALU op {mn}")
