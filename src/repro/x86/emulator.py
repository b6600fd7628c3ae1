"""x86-64 emulator with an operational TSO memory model.

Executes a linked :class:`~repro.x86.objfile.X86Object`.  Each thread owns a
FIFO *store buffer*: stores enter the buffer, loads forward from the
thread's own buffer before falling through to memory, and buffers drain to
memory at scheduling points, on ``mfence`` and on ``lock``-prefixed
instructions — the standard operational presentation of x86-TSO.

The emulator provides the same runtime the LIR interpreter and Arm emulator
provide (``malloc``/``spawn``/``join``/``print_*``), so the whole pipeline is
differentially testable end to end.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from .decoder import decode_one
from .isa import CC_NUM, Imm, Instr, Mem, Reg
from .objfile import X86Object
from .registers import GPR64, reg_info

HEAP_BASE = 0x900000
STACK_BASE = 0x2000000
STACK_SIZE = 0x40000
MEMORY_SIZE = STACK_BASE + 64 * STACK_SIZE


class EmuError(Exception):
    pass


def _signed(v: int, bits: int) -> int:
    v &= (1 << bits) - 1
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


def _parity(v: int) -> int:
    return 1 if bin(v & 0xFF).count("1") % 2 == 0 else 0


class Thread:
    def __init__(self, tid: int, rip: int, rsp: int) -> None:
        self.tid = tid
        self.regs: dict[str, int] = {r: 0 for r in GPR64}
        self.xmm: list[int] = [0] * 16  # 128-bit values as ints
        self.flags = {"cf": 0, "pf": 0, "zf": 0, "sf": 0, "of": 0}
        self.rip = rip
        self.regs["rsp"] = rsp
        self.store_buffer: list[tuple[int, bytes]] = []
        self.done = False
        self.instret = 0  # retired instruction count


class X86Emulator:
    def __init__(
        self, obj: X86Object, quantum: int = 64, lazy_flush: bool = False
    ) -> None:
        """``lazy_flush=True`` keeps store buffers across scheduling
        quanta (draining only at fences, locked instructions, runtime
        calls, capacity pressure and thread exit), which lets genuinely
        weak TSO behaviours such as SB's a=b=0 manifest.  The default
        drains at every context switch, which is deterministic and
        sufficient for data-race-free programs."""
        self.obj = obj
        self.quantum = quantum
        self.lazy_flush = lazy_flush
        self.buffer_capacity = 16
        self.memory = bytearray(MEMORY_SIZE)
        self.heap_ptr = HEAP_BASE
        self.output: list[str] = []
        self.threads: list[Thread] = []
        self.next_tid = 0
        self.steps = 0
        self.max_steps = 500_000_000
        self.icache: dict[int, Instr] = {}
        self._load_image()
        self.externals: dict[str, Callable[[Thread], None]] = {
            "malloc": self._ext_malloc,
            "spawn": self._ext_spawn,
            "join": self._ext_join,
            "print_i64": self._ext_print_i64,
            "print_f64": self._ext_print_f64,
            "abort": self._ext_abort,
            "thread_id": self._ext_thread_id,
        }
        # Catalogued externals (libc string/memory helpers, pthread
        # mutexes) run through the loader catalog's shared execution
        # kernel; it only fills names the built-in runtime above does not
        # already provide, so minicc-built objects get mutex support
        # without perturbing the core runtime.
        from ..loader.externs import install_x86_catalog
        install_x86_catalog(self)

    # ---- image loading ---------------------------------------------------
    def _load_image(self) -> None:
        base = self.obj.text_base
        self.memory[base : base + len(self.obj.text)] = self.obj.text
        for sym in self.obj.data_symbols.values():
            if sym.init:
                self.memory[sym.address : sym.address + len(sym.init)] = sym.init

    def _fetch(self, rip: int) -> Instr:
        instr = self.icache.get(rip)
        if instr is None:
            offset = rip - self.obj.text_base
            if not 0 <= offset < len(self.obj.text):
                raise EmuError(f"rip outside text: {rip:#x}")
            instr = decode_one(self.obj.text, offset, rip)
            self.icache[rip] = instr
        return instr

    # ---- memory with TSO store buffers -------------------------------------
    def _mem_read(self, thread: Thread, addr: int, size: int) -> bytes:
        if addr < 0 or addr + size > len(self.memory):
            raise EmuError(f"load out of range: {addr:#x}+{size}")
        data = bytearray(self.memory[addr : addr + size])
        # Store-to-load forwarding from this thread's own buffer (oldest
        # first so newer stores win).
        for baddr, bdata in thread.store_buffer:
            lo = max(addr, baddr)
            hi = min(addr + size, baddr + len(bdata))
            if lo < hi:
                data[lo - addr : hi - addr] = bdata[lo - baddr : hi - baddr]
        return bytes(data)

    def _mem_write(self, thread: Thread, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise EmuError(f"store out of range: {addr:#x}+{len(data)}")
        thread.store_buffer.append((addr, data))

    def _flush(self, thread: Thread) -> None:
        for addr, data in thread.store_buffer:
            self.memory[addr : addr + len(data)] = data
        thread.store_buffer.clear()

    # ---- register access -----------------------------------------------------
    @staticmethod
    def _read_reg(thread: Thread, name: str) -> int:
        info = reg_info(name)
        if info.kind == "xmm":
            return thread.xmm[info.num]
        full = thread.regs[info.full_name]
        if info.width == 64:
            return full
        return full & ((1 << info.width) - 1)

    @staticmethod
    def _write_reg(thread: Thread, name: str, value: int) -> None:
        info = reg_info(name)
        if info.kind == "xmm":
            thread.xmm[info.num] = value & (2**128 - 1)
            return
        if info.width == 64:
            thread.regs[info.full_name] = value & (2**64 - 1)
        elif info.width == 32:
            # 32-bit writes zero the upper half, as hardware does.
            thread.regs[info.full_name] = value & 0xFFFFFFFF
        else:
            mask = (1 << info.width) - 1
            old = thread.regs[info.full_name]
            thread.regs[info.full_name] = (old & ~mask) | (value & mask)

    def _mem_addr(self, thread: Thread, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self._read_reg(thread, mem.base)
        if mem.index is not None:
            addr += self._read_reg(thread, mem.index) * mem.scale
        return addr & (2**64 - 1)

    # ---- operand helpers ----------------------------------------------------
    def _read_operand(self, thread: Thread, op, width: int) -> int:
        if isinstance(op, Reg):
            return self._read_reg(thread, op.name)
        if isinstance(op, Imm):
            return op.value & (2**64 - 1)
        if isinstance(op, Mem):
            addr = self._mem_addr(thread, op)
            raw = self._mem_read(thread, addr, width // 8)
            return int.from_bytes(raw, "little")
        raise EmuError(f"cannot read operand {op!r}")

    def _write_operand(self, thread: Thread, op, width: int, value: int) -> None:
        if isinstance(op, Reg):
            self._write_reg(thread, op.name, value)
        elif isinstance(op, Mem):
            addr = self._mem_addr(thread, op)
            data = (value & ((1 << width) - 1)).to_bytes(width // 8, "little")
            self._mem_write(thread, addr, data)
        else:
            raise EmuError(f"cannot write operand {op!r}")

    @staticmethod
    def _op_width(op, default: int = 64) -> int:
        if isinstance(op, Reg):
            return op.info.width
        if isinstance(op, Mem):
            return op.width
        return default

    # ---- flags -----------------------------------------------------------------
    def _set_logic_flags(self, thread: Thread, result: int, width: int) -> None:
        mask = (1 << width) - 1
        r = result & mask
        thread.flags.update(
            cf=0, of=0,
            zf=1 if r == 0 else 0,
            sf=1 if r >> (width - 1) else 0,
            pf=_parity(r),
        )

    def _set_add_flags(self, thread: Thread, a: int, b: int, width: int) -> int:
        mask = (1 << width) - 1
        r = (a + b) & mask
        sa, sb, sr = _signed(a, width), _signed(b, width), _signed(r, width)
        thread.flags.update(
            cf=1 if (a & mask) + (b & mask) > mask else 0,
            of=1 if (sa >= 0) == (sb >= 0) and (sr >= 0) != (sa >= 0) else 0,
            zf=1 if r == 0 else 0,
            sf=1 if r >> (width - 1) else 0,
            pf=_parity(r),
        )
        return r

    def _set_sub_flags(self, thread: Thread, a: int, b: int, width: int) -> int:
        mask = (1 << width) - 1
        r = (a - b) & mask
        sa, sb, sr = _signed(a, width), _signed(b, width), _signed(r, width)
        thread.flags.update(
            cf=1 if (a & mask) < (b & mask) else 0,
            of=1 if (sa >= 0) != (sb >= 0) and (sr >= 0) != (sa >= 0) else 0,
            zf=1 if r == 0 else 0,
            sf=1 if r >> (width - 1) else 0,
            pf=_parity(r),
        )
        return r

    def _cc_holds(self, thread: Thread, cc: str) -> bool:
        f = thread.flags
        table = {
            "o": f["of"] == 1, "no": f["of"] == 0,
            "b": f["cf"] == 1, "ae": f["cf"] == 0,
            "e": f["zf"] == 1, "ne": f["zf"] == 0,
            "be": f["cf"] == 1 or f["zf"] == 1,
            "a": f["cf"] == 0 and f["zf"] == 0,
            "s": f["sf"] == 1, "ns": f["sf"] == 0,
            "p": f["pf"] == 1, "np": f["pf"] == 0,
            "l": f["sf"] != f["of"], "ge": f["sf"] == f["of"],
            "le": f["zf"] == 1 or f["sf"] != f["of"],
            "g": f["zf"] == 0 and f["sf"] == f["of"],
        }
        return table[cc]

    # ---- run loop -----------------------------------------------------------
    def run(self, entry: Optional[str] = None, args: Optional[list[int]] = None) -> int:
        name = entry or self.obj.entry
        sym = self.obj.functions.get(name)
        if sym is None:
            from .objfile import EntryError
            raise EntryError(name, sorted(self.obj.functions))
        main = self._make_thread(sym.address)
        from .registers import INT_PARAM_REGS

        for reg, val in zip(INT_PARAM_REGS, args or []):
            self._write_reg(main, reg, val)
        while not main.done:
            self._schedule()
        return _signed(main.regs["rax"], 64)

    RETURN_SENTINEL = 0xDEAD0000

    def _make_thread(self, rip: int) -> Thread:
        tid = self.next_tid
        self.next_tid += 1
        rsp = STACK_BASE + (tid + 1) * STACK_SIZE - 64
        thread = Thread(tid, rip, rsp)
        # Push a sentinel return address; returning to it ends the thread.
        rsp -= 8
        thread.regs["rsp"] = rsp
        self.memory[rsp : rsp + 8] = self.RETURN_SENTINEL.to_bytes(8, "little")
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
            # Store buffers drain at context-switch boundaries unless the
            # TSO-exploration mode keeps them live across quanta.
            if not self.lazy_flush:
                self._flush(thread)
            elif len(thread.store_buffer) > self.buffer_capacity:
                # Capacity pressure: drain the oldest half, FIFO order.
                drain = len(thread.store_buffer) // 2
                for addr, data in thread.store_buffer[:drain]:
                    self.memory[addr : addr + len(data)] = data
                del thread.store_buffer[:drain]
        if not ran:
            raise EmuError("no runnable threads")

    # ---- single instruction -----------------------------------------------------
    def step(self, thread: Thread) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise EmuError("instruction budget exceeded")
        instr = self._fetch(thread.rip)
        thread.instret += 1
        next_rip = thread.rip + instr.size
        mn = instr.mnemonic
        ops = instr.operands

        if mn in ("mov", "movabs"):
            dst, src = ops
            width = self._op_width(dst) if not isinstance(dst, Reg) else dst.info.width
            if isinstance(src, Mem):
                width = src.width
            value = self._read_operand(thread, src, width)
            self._write_operand(thread, dst, width, value)
        elif mn in ("movzx", "movsx", "movsxd"):
            dst, src = ops
            src_width = self._op_width(src, 32)
            v = self._read_operand(thread, src, src_width)
            if mn != "movzx":
                v = _signed(v, src_width) & (2**64 - 1)
            self._write_reg(thread, dst.name, v)
        elif mn == "lea":
            dst, src = ops
            self._write_reg(thread, dst.name, self._mem_addr(thread, src))
        elif mn == "push":
            v = self._read_reg(thread, ops[0].name)
            rsp = (thread.regs["rsp"] - 8) & (2**64 - 1)
            thread.regs["rsp"] = rsp
            self._mem_write(thread, rsp, v.to_bytes(8, "little"))
        elif mn == "pop":
            rsp = thread.regs["rsp"]
            v = int.from_bytes(self._mem_read(thread, rsp, 8), "little")
            thread.regs["rsp"] = (rsp + 8) & (2**64 - 1)
            self._write_reg(thread, ops[0].name, v)
        elif mn in ("add", "sub", "and", "or", "xor", "cmp"):
            dst, src = ops
            width = self._op_width(dst)
            a = self._read_operand(thread, dst, width)
            b = self._read_operand(thread, src, width)
            if mn == "add":
                r = self._set_add_flags(thread, a, b, width)
            elif mn in ("sub", "cmp"):
                r = self._set_sub_flags(thread, a, b, width)
            else:
                r = {"and": a & b, "or": a | b, "xor": a ^ b}[mn]
                r &= (1 << width) - 1
                self._set_logic_flags(thread, r, width)
            if mn != "cmp":
                self._write_operand(thread, dst, width, r)
        elif mn == "test":
            dst, src = ops
            width = self._op_width(dst)
            a = self._read_operand(thread, dst, width)
            b = self._read_operand(thread, src, width)
            self._set_logic_flags(thread, a & b, width)
        elif mn == "imul":
            dst, src = ops
            a = _signed(self._read_reg(thread, dst.name), 64)
            b = _signed(self._read_operand(thread, src, 64), 64)
            r = a * b
            self._write_reg(thread, dst.name, r & (2**64 - 1))
            overflow = not (-(2**63) <= r < 2**63)
            thread.flags["cf"] = thread.flags["of"] = 1 if overflow else 0
        elif mn == "cqo":
            rax = _signed(thread.regs["rax"], 64)
            thread.regs["rdx"] = (2**64 - 1) if rax < 0 else 0
        elif mn == "idiv":
            divisor = _signed(self._read_operand(thread, ops[0], 64), 64)
            if divisor == 0:
                raise EmuError("integer division by zero")
            dividend = _signed(
                (thread.regs["rdx"] << 64) | thread.regs["rax"], 128
            )
            q = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                q = -q
            r = dividend - q * divisor
            if not -(2**63) <= q < 2**63:
                raise EmuError("idiv overflow")
            thread.regs["rax"] = q & (2**64 - 1)
            thread.regs["rdx"] = r & (2**64 - 1)
        elif mn == "neg":
            width = self._op_width(ops[0])
            a = self._read_operand(thread, ops[0], width)
            r = self._set_sub_flags(thread, 0, a, width)
            self._write_operand(thread, ops[0], width, r)
        elif mn == "not":
            width = self._op_width(ops[0])
            a = self._read_operand(thread, ops[0], width)
            self._write_operand(thread, ops[0], width, ~a)
        elif mn in ("shl", "shr", "sar"):
            dst, src = ops
            width = self._op_width(dst)
            count = self._read_operand(thread, src, 8) & (width - 1)
            a = self._read_operand(thread, dst, width) & ((1 << width) - 1)
            if mn == "shl":
                r = (a << count) & ((1 << width) - 1)
                carry = (a >> (width - count)) & 1 if count else 0
            elif mn == "shr":
                r = a >> count
                carry = (a >> (count - 1)) & 1 if count else 0
            else:
                r = (_signed(a, width) >> count) & ((1 << width) - 1)
                carry = (_signed(a, width) >> (count - 1)) & 1 if count else 0
            if count:
                # zf/sf/pf from the result; CF is the last bit shifted out;
                # OF is architecturally undefined for count>1 — we pin it to
                # 0 and the lifter mirrors that choice.
                self._set_logic_flags(thread, r, width)
                thread.flags["cf"] = carry
            self._write_operand(thread, dst, width, r)
        elif mn.startswith("set") and mn[3:] in CC_NUM:
            v = 1 if self._cc_holds(thread, mn[3:]) else 0
            self._write_operand(thread, ops[0], 8, v)
        elif mn == "jmp":
            next_rip = ops[0].value
        elif mn.startswith("j") and mn[1:] in CC_NUM:
            if self._cc_holds(thread, mn[1:]):
                next_rip = ops[0].value
        elif mn == "call":
            if isinstance(ops[0], Reg):
                target = self._read_reg(thread, ops[0].name)
            else:
                target = ops[0].value
            ext = self.obj.external_at(target)
            if ext is not None:
                handler = self.externals.get(ext)
                if handler is None:
                    raise EmuError(
                        f"call to external {ext!r} at {target:#x} has no "
                        f"runtime handler (opaque/uncatalogued function)")
                self._flush(thread)  # runtime entry is a full barrier
                if handler(thread) == "retry":
                    return  # rip unchanged: re-execute the call later
            else:
                rsp = (thread.regs["rsp"] - 8) & (2**64 - 1)
                thread.regs["rsp"] = rsp
                self._mem_write(thread, rsp, next_rip.to_bytes(8, "little"))
                next_rip = target
        elif mn == "ret":
            rsp = thread.regs["rsp"]
            next_rip = int.from_bytes(self._mem_read(thread, rsp, 8), "little")
            thread.regs["rsp"] = (rsp + 8) & (2**64 - 1)
            if next_rip == self.RETURN_SENTINEL:
                self._flush(thread)
                thread.done = True
                return
        elif mn == "nop":
            pass
        elif mn == "mfence":
            self._flush(thread)
        elif mn == "cmpxchg":
            self._flush(thread)  # locked: acts on memory directly
            dst, src = ops
            width = self._op_width(dst)
            addr = self._mem_addr(thread, dst)
            old = int.from_bytes(self.memory[addr : addr + width // 8], "little")
            rax = thread.regs["rax"] & ((1 << width) - 1)
            self._set_sub_flags(thread, rax, old, width)
            if old == rax:
                new = self._read_reg(thread, src.name) & ((1 << width) - 1)
                self.memory[addr : addr + width // 8] = new.to_bytes(
                    width // 8, "little"
                )
                thread.flags["zf"] = 1
            else:
                thread.flags["zf"] = 0
                self._write_reg(thread, "rax", old)
        elif mn == "xadd":
            self._flush(thread)
            dst, src = ops
            width = self._op_width(dst)
            addr = self._mem_addr(thread, dst)
            old = int.from_bytes(self.memory[addr : addr + width // 8], "little")
            add = self._read_reg(thread, src.name) & ((1 << width) - 1)
            new = self._set_add_flags(thread, old, add, width)
            self.memory[addr : addr + width // 8] = new.to_bytes(
                width // 8, "little"
            )
            self._write_reg(thread, src.name, old)
        elif mn == "xchg":
            self._flush(thread)
            dst, src = ops
            width = self._op_width(dst)
            addr = self._mem_addr(thread, dst)
            old = int.from_bytes(self.memory[addr : addr + width // 8], "little")
            new = self._read_reg(thread, src.name) & ((1 << width) - 1)
            self.memory[addr : addr + width // 8] = new.to_bytes(
                width // 8, "little"
            )
            self._write_reg(thread, src.name, old)
        elif mn in ("movsd", "movss", "movq", "movaps", "pxor", "ucomisd",
                    "cvtsi2sd", "cvttsd2si", "addsd", "subsd", "mulsd",
                    "divsd", "addss", "subss", "mulss", "divss", "sqrtsd",
                    "addpd", "subpd", "mulpd", "paddq", "paddd"):
            self._step_sse(thread, instr)
        elif mn == "ud2":
            raise EmuError(f"ud2 executed at {thread.rip:#x}")
        else:
            raise EmuError(f"cannot emulate {instr}")
        thread.rip = next_rip

    # ---- SSE ---------------------------------------------------------------
    def _xmm_f64(self, value: int) -> float:
        return struct.unpack("<d", (value & (2**64 - 1)).to_bytes(8, "little"))[0]

    def _f64_bits(self, value: float) -> int:
        return int.from_bytes(struct.pack("<d", value), "little")

    def _step_sse(self, thread: Thread, instr: Instr) -> None:
        mn = instr.mnemonic
        ops = instr.operands

        def read64(op) -> int:
            if isinstance(op, Reg):
                return thread.xmm[op.info.num] & (2**64 - 1)
            return self._read_operand(thread, op, 64)

        if mn == "movsd" or mn == "movss":
            width = 64 if mn == "movsd" else 32
            dst, src = ops
            if isinstance(dst, Reg) and dst.info.kind == "xmm":
                if isinstance(src, Mem):
                    v = self._read_operand(thread, src, width)
                    thread.xmm[dst.info.num] = v  # load zeroes the upper bits
                else:
                    lo = thread.xmm[src.info.num] & ((1 << width) - 1)
                    old = thread.xmm[dst.info.num]
                    thread.xmm[dst.info.num] = (old >> width << width) | lo
            else:
                v = thread.xmm[src.info.num] & ((1 << width) - 1)
                self._write_operand(thread, dst, width, v)
        elif mn == "movq":
            dst, src = ops
            if isinstance(dst, Reg) and dst.info.kind == "xmm":
                thread.xmm[dst.info.num] = self._read_operand(thread, src, 64)
            else:
                self._write_operand(thread, dst, 64, thread.xmm[src.info.num])
        elif mn == "movaps":
            dst, src = ops
            if isinstance(dst, Reg) and dst.info.kind == "xmm":
                if isinstance(src, Mem):
                    thread.xmm[dst.info.num] = self._read_operand(thread, src, 128)
                else:
                    thread.xmm[dst.info.num] = thread.xmm[src.info.num]
            else:
                self._write_operand(thread, dst, 128, thread.xmm[src.info.num])
        elif mn == "pxor":
            dst, src = ops
            thread.xmm[dst.info.num] ^= thread.xmm[src.info.num]
        elif mn == "ucomisd":
            a = self._xmm_f64(thread.xmm[ops[0].info.num])
            b = self._xmm_f64(read64(ops[1]))
            f = thread.flags
            f["of"] = f["sf"] = 0
            if a != a or b != b:
                f["zf"] = f["pf"] = f["cf"] = 1
            elif a == b:
                f["zf"], f["pf"], f["cf"] = 1, 0, 0
            elif a < b:
                f["zf"], f["pf"], f["cf"] = 0, 0, 1
            else:
                f["zf"], f["pf"], f["cf"] = 0, 0, 0
        elif mn == "cvtsi2sd":
            dst, src = ops
            v = _signed(self._read_operand(thread, src, 64), 64)
            old = thread.xmm[dst.info.num]
            thread.xmm[dst.info.num] = (old >> 64 << 64) | self._f64_bits(float(v))
        elif mn == "cvttsd2si":
            dst, src = ops
            f = self._xmm_f64(read64(src))
            self._write_reg(thread, dst.name, int(f) & (2**64 - 1))
        elif mn == "sqrtsd":
            dst, src = ops
            f = self._xmm_f64(read64(src))
            old = thread.xmm[dst.info.num]
            thread.xmm[dst.info.num] = (old >> 64 << 64) | self._f64_bits(
                f ** 0.5
            )
        elif mn in ("addsd", "subsd", "mulsd", "divsd"):
            dst, src = ops
            a = self._xmm_f64(thread.xmm[dst.info.num])
            b = self._xmm_f64(read64(src))
            r = {
                "addsd": a + b, "subsd": a - b, "mulsd": a * b,
                "divsd": a / b if b != 0.0 else float("inf") * (1 if a > 0 else -1 if a < 0 else float("nan")),
            }[mn]
            old = thread.xmm[dst.info.num]
            thread.xmm[dst.info.num] = (old >> 64 << 64) | self._f64_bits(r)
        elif mn in ("addpd", "subpd", "mulpd"):
            dst, src = ops
            av = thread.xmm[dst.info.num]
            bv = thread.xmm[src.info.num] if isinstance(src, Reg) else (
                self._read_operand(thread, src, 128)
            )
            out = 0
            for lane in range(2):
                a = self._xmm_f64(av >> (64 * lane))
                b = self._xmm_f64(bv >> (64 * lane))
                r = {"addpd": a + b, "subpd": a - b, "mulpd": a * b}[mn]
                out |= self._f64_bits(r) << (64 * lane)
            thread.xmm[dst.info.num] = out
        elif mn in ("paddq", "paddd"):
            dst, src = ops
            av = thread.xmm[dst.info.num]
            bv = thread.xmm[src.info.num] if isinstance(src, Reg) else (
                self._read_operand(thread, src, 128)
            )
            lanes = 2 if mn == "paddq" else 4
            width = 128 // lanes
            mask = (1 << width) - 1
            out = 0
            for lane in range(lanes):
                a = (av >> (width * lane)) & mask
                b = (bv >> (width * lane)) & mask
                out |= ((a + b) & mask) << (width * lane)
            thread.xmm[dst.info.num] = out
        else:
            raise EmuError(f"cannot emulate SSE {instr}")

    # ---- runtime externals ---------------------------------------------------
    def _ext_malloc(self, thread: Thread) -> None:
        size = thread.regs["rdi"]
        addr = (self.heap_ptr + 15) & ~15
        self.heap_ptr = addr + max(1, size)
        if self.heap_ptr >= STACK_BASE:
            raise EmuError("heap exhausted")
        thread.regs["rax"] = addr

    def _ext_spawn(self, thread: Thread) -> None:
        target = thread.regs["rdi"]
        child = self._make_thread(target)
        child.regs["rdi"] = thread.regs["rsi"]
        thread.regs["rax"] = child.tid

    def _ext_join(self, thread: Thread):
        """Blocking join: if the target is still running, leave rip on the
        call instruction and yield (the scheduler keeps running the target);
        once done, publish its buffered stores and collect the result."""
        tid = thread.regs["rdi"]
        for t in self.threads:
            if t.tid == tid:
                if not t.done:
                    return "retry"
                self._flush(t)
                thread.regs["rax"] = t.regs["rax"]
                return None
        raise EmuError(f"join of unknown thread {tid}")

    def _ext_print_i64(self, thread: Thread) -> None:
        self.output.append(str(_signed(thread.regs["rdi"], 64)))

    def _ext_print_f64(self, thread: Thread) -> None:
        self.output.append(f"{self._xmm_f64(thread.xmm[0]):.6f}")

    def _ext_abort(self, thread: Thread) -> None:
        raise EmuError("program aborted")

    def _ext_thread_id(self, thread: Thread) -> None:
        thread.regs["rax"] = thread.tid
