"""x86-64 machine-code encoder for the subset Lasagne's pipeline uses.

Produces genuine x86-64 bytes (REX prefixes, ModRM/SIB addressing, legacy
prefixes for SSE and LOCK).  The decoder in :mod:`repro.x86.decoder` is the
exact inverse; ``decode(encode(i))`` round-trips, which the property tests
exercise.

Supported subset (Intel operand order, destination first):

* data movement: ``mov`` (r/r, r/imm32, r/m, m/r), ``movabs`` (r/imm64),
  ``movzx``/``movsx``/``movsxd``, ``lea``, ``push``/``pop``
* ALU: ``add``/``sub``/``and``/``or``/``xor``/``cmp`` (r/r, r/imm),
  ``test``, ``imul`` (r/r), ``neg``/``not``, ``cqo``+``idiv``,
  ``shl``/``shr``/``sar`` (imm8 or ``cl``), ``setcc``
* control: ``jmp``/``jcc``/``call`` (rel32), ``call r64``, ``ret``, ``nop``
* concurrency: ``mfence``, ``lock cmpxchg``, ``lock xadd``, ``xchg``
* SSE: ``movsd``/``movss``/``movaps``/``movq``, scalar arithmetic
  (``addsd`` etc.), packed (``addpd``/``paddq``/``paddd``), ``ucomisd``,
  ``pxor``, ``cvtsi2sd``/``cvttsd2si``
"""

from __future__ import annotations

import struct

from .isa import CC_NUM, Imm, Instr, Mem, Operand, Reg
from .registers import reg_info


class EncodeError(Exception):
    pass


ALU_MR_OPCODE = {"add": 0x01, "or": 0x09, "and": 0x21, "sub": 0x29,
                 "xor": 0x31, "cmp": 0x39}
ALU_IMM_EXT = {"add": 0, "or": 1, "and": 4, "sub": 5, "xor": 6, "cmp": 7}
SHIFT_EXT = {"shl": 4, "shr": 5, "sar": 7}
SSE_SCALAR_OPCODE = {"addsd": 0x58, "mulsd": 0x59, "subsd": 0x5C,
                     "divsd": 0x5E, "addss": 0x58, "mulss": 0x59,
                     "subss": 0x5C, "divss": 0x5E, "sqrtsd": 0x51}
SSE_PACKED_OPCODE = {"addpd": 0x58, "subpd": 0x5C, "mulpd": 0x59,
                     "paddq": 0xD4, "paddd": 0xFE}


def _i8(v: int) -> bytes:
    return struct.pack("<b", v)


def _i32(v: int) -> bytes:
    return struct.pack("<i", v)


def _u64(v: int) -> bytes:
    return struct.pack("<Q", v & (2**64 - 1))


def fits_i8(v: int) -> bool:
    return -128 <= v <= 127


def fits_i32(v: int) -> bool:
    return -(2**31) <= v < 2**31


class _ModRM:
    """ModRM/SIB/displacement assembly with REX bit bookkeeping."""

    def __init__(self, reg_field: int, rm: Operand) -> None:
        self.rex_r = reg_field >> 3
        self.rex_x = 0
        self.rex_b = 0
        reg3 = reg_field & 7
        body = bytearray()
        if isinstance(rm, Reg):
            info = rm.info
            self.rex_b = info.num >> 3
            body.append(0xC0 | (reg3 << 3) | (info.num & 7))
        elif isinstance(rm, Mem):
            body.extend(self._encode_mem(reg3, rm))
        else:
            raise EncodeError(f"bad rm operand {rm!r}")
        self.bytes = bytes(body)

    def _encode_mem(self, reg3: int, mem: Mem) -> bytes:
        out = bytearray()
        disp = mem.disp
        if mem.base is None and mem.index is None:
            # Absolute [disp32]: mod=00 rm=100, SIB base=101 index=100.
            out.append((reg3 << 3) | 0x04)
            out.append((0 << 6) | (0x04 << 3) | 0x05)
            out.extend(_i32(disp))
            return bytes(out)
        if mem.base is None:
            raise EncodeError("index without base not supported")
        base = reg_info(mem.base)
        self.rex_b = base.num >> 3
        base3 = base.num & 7
        need_sib = mem.index is not None or base3 == 4  # rsp/r12 need SIB
        # rbp/r13 with mod=00 means disp32-only, so force disp8.
        if disp == 0 and base3 != 5:
            mod = 0
        elif fits_i8(disp):
            mod = 1
        else:
            if not fits_i32(disp):
                raise EncodeError(f"displacement {disp} out of range")
            mod = 2
        if need_sib:
            out.append((mod << 6) | (reg3 << 3) | 0x04)
            if mem.index is not None:
                index = reg_info(mem.index)
                self.rex_x = index.num >> 3
                index3 = index.num & 7
                if index3 == 4 and index.num == 4:
                    raise EncodeError("rsp cannot be an index")
            else:
                index3 = 4  # none
            scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
            out.append((scale_bits << 6) | (index3 << 3) | base3)
        else:
            out.append((mod << 6) | (reg3 << 3) | base3)
        if mod == 1:
            out.extend(_i8(disp))
        elif mod == 2:
            out.extend(_i32(disp))
        return bytes(out)


def _rex(w: int, m: _ModRM) -> bytes:
    val = 0x40 | (w << 3) | (m.rex_r << 2) | (m.rex_x << 1) | m.rex_b
    if val == 0x40:
        return b""
    return bytes([val])


def _rex_force(w: int, m: _ModRM) -> bytes:
    """REX that is always emitted (needed when W=1)."""
    return bytes([0x40 | (w << 3) | (m.rex_r << 2) | (m.rex_x << 1) | m.rex_b])


def _rm_instr(opcodes: bytes, reg_field: int, rm: Operand, w: int = 1) -> bytes:
    m = _ModRM(reg_field, rm)
    rex = _rex_force(1, m) if w else _rex(0, m)
    return rex + opcodes + m.bytes


def encode(instr: Instr, rel32: int = 0) -> bytes:
    """Encode one instruction.

    ``rel32`` supplies the pre-computed relative displacement for branch and
    call instructions (the assembler resolves labels and passes it in).
    """
    mn = instr.mnemonic
    ops = instr.operands
    lock = b"\xf0" if instr.lock else b""

    # ---- moves -----------------------------------------------------------
    if mn == "mov":
        dst, src = ops
        if isinstance(dst, Reg) and isinstance(src, Reg):
            w = 1 if dst.info.width == 64 else 0
            return _rm_instr(b"\x89", src.info.num, dst, w)
        if isinstance(dst, Reg) and isinstance(src, Imm):
            if not fits_i32(src.value):
                raise EncodeError("use movabs for 64-bit immediates")
            m = _ModRM(0, dst)
            w = 1 if dst.info.width == 64 else 0
            rex = _rex_force(1, m) if w else _rex(0, m)
            return rex + b"\xc7" + m.bytes + _i32(src.value)
        if isinstance(dst, Reg) and isinstance(src, Mem):
            if src.width == 8:
                return _rm_instr(b"\x8a", dst.info.num, src, 0)
            w = 1 if src.width == 64 else 0
            return _rm_instr(b"\x8b", dst.info.num, src, w)
        if isinstance(dst, Mem) and isinstance(src, Reg):
            if dst.width == 8:
                return _rm_instr(b"\x88", src.info.num, dst, 0)
            w = 1 if dst.width == 64 else 0
            return lock + _rm_instr(b"\x89", src.info.num, dst, w)
        raise EncodeError(f"bad mov operands {instr}")
    if mn == "movabs":
        dst, src = ops
        assert isinstance(dst, Reg) and isinstance(src, Imm)
        num = dst.info.num
        rex = bytes([0x48 | (num >> 3)])
        return rex + bytes([0xB8 + (num & 7)]) + _u64(src.value)
    if mn in ("movzx", "movsx"):
        dst, src = ops
        width = src.width if isinstance(src, Mem) else src.info.width
        if width == 8:
            op = b"\x0f\xb6" if mn == "movzx" else b"\x0f\xbe"
        elif width == 16:
            op = b"\x0f\xb7" if mn == "movzx" else b"\x0f\xbf"
        else:
            raise EncodeError(f"bad {mn} source width {width}")
        return _rm_instr(op, dst.info.num, src, 1)
    if mn == "movsxd":
        dst, src = ops
        return _rm_instr(b"\x63", dst.info.num, src, 1)
    if mn == "lea":
        dst, src = ops
        return _rm_instr(b"\x8d", dst.info.num, src, 1)
    if mn == "push":
        (r,) = ops
        num = r.info.num
        rex = b"\x41" if num >= 8 else b""
        return rex + bytes([0x50 + (num & 7)])
    if mn == "pop":
        (r,) = ops
        num = r.info.num
        rex = b"\x41" if num >= 8 else b""
        return rex + bytes([0x58 + (num & 7)])

    # ---- ALU -----------------------------------------------------------
    if mn in ALU_MR_OPCODE:
        dst, src = ops
        if isinstance(src, Reg):
            w = 1 if dst.info.width == 64 else 0
            return _rm_instr(bytes([ALU_MR_OPCODE[mn]]), src.info.num, dst, w)
        if isinstance(src, Imm):
            ext = ALU_IMM_EXT[mn]
            m = _ModRM(ext, dst)
            w = 1 if dst.info.width == 64 else 0
            rex = _rex_force(1, m) if w else _rex(0, m)
            if fits_i8(src.value):
                return rex + b"\x83" + m.bytes + _i8(src.value)
            if not fits_i32(src.value):
                raise EncodeError(f"{mn} immediate too large")
            return rex + b"\x81" + m.bytes + _i32(src.value)
        raise EncodeError(f"bad {mn} operands {instr}")
    if mn == "test":
        dst, src = ops
        w = 1 if dst.info.width == 64 else 0
        return _rm_instr(b"\x85", src.info.num, dst, w)
    if mn == "imul":
        dst, src = ops
        return _rm_instr(b"\x0f\xaf", dst.info.num, src, 1)
    if mn == "cqo":
        return b"\x48\x99"
    if mn == "cdq":
        return b"\x99"
    if mn == "idiv":
        (r,) = ops
        return _rm_instr(b"\xf7", 7, r, 1)
    if mn == "neg":
        (r,) = ops
        return _rm_instr(b"\xf7", 3, r, 1)
    if mn == "not":
        (r,) = ops
        return _rm_instr(b"\xf7", 2, r, 1)
    if mn in SHIFT_EXT:
        dst, src = ops
        ext = SHIFT_EXT[mn]
        m = _ModRM(ext, dst)
        rex = _rex_force(1, m)
        if isinstance(src, Imm):
            return rex + b"\xc1" + m.bytes + bytes([src.value & 0xFF])
        if isinstance(src, Reg) and src.name == "cl":
            return rex + b"\xd3" + m.bytes
        raise EncodeError(f"bad shift operand {src!r}")
    if mn.startswith("set") and mn[3:] in CC_NUM:
        (r,) = ops
        if r.info.width != 8:
            raise EncodeError("setcc needs an 8-bit register")
        m = _ModRM(0, r)
        return bytes([0x0F, 0x90 + CC_NUM[mn[3:]]]) + m.bytes

    # ---- control flow ----------------------------------------------------
    if mn == "jmp":
        return b"\xe9" + _i32(rel32)
    if mn.startswith("j") and mn[1:] in CC_NUM:
        return bytes([0x0F, 0x80 + CC_NUM[mn[1:]]]) + _i32(rel32)
    if mn == "call":
        if ops and isinstance(ops[0], Reg):
            return _rm_instr(b"\xff", 2, ops[0], 0)
        return b"\xe8" + _i32(rel32)
    if mn == "ret":
        return b"\xc3"
    if mn == "nop":
        return b"\x90"
    if mn == "ud2":
        return b"\x0f\x0b"

    # ---- concurrency -------------------------------------------------------
    if mn == "mfence":
        return b"\x0f\xae\xf0"
    if mn == "cmpxchg":
        dst, src = ops
        return lock + _rm_instr(b"\x0f\xb1", src.info.num, dst, 1)
    if mn == "xadd":
        dst, src = ops
        return lock + _rm_instr(b"\x0f\xc1", src.info.num, dst, 1)
    if mn == "xchg":
        dst, src = ops
        return _rm_instr(b"\x87", src.info.num, dst, 1)

    # ---- SSE -----------------------------------------------------------------
    if mn in ("movsd", "movss"):
        prefix = b"\xf2" if mn == "movsd" else b"\xf3"
        dst, src = ops
        if isinstance(dst, Reg) and dst.info.kind == "xmm":
            return prefix + _rm_instr(b"\x0f\x10", dst.info.num, src, 0)
        return prefix + _rm_instr(b"\x0f\x11", src.info.num, dst, 0)
    if mn == "movaps":
        dst, src = ops
        if isinstance(dst, Reg) and dst.info.kind == "xmm" and not isinstance(src, Mem):
            return _rm_instr(b"\x0f\x28", dst.info.num, src, 0)
        if isinstance(dst, Reg):
            return _rm_instr(b"\x0f\x28", dst.info.num, src, 0)
        return _rm_instr(b"\x0f\x29", src.info.num, dst, 0)
    if mn in SSE_SCALAR_OPCODE:
        prefix = b"\xf3" if mn.endswith("ss") else b"\xf2"
        dst, src = ops
        op = bytes([0x0F, SSE_SCALAR_OPCODE[mn]])
        return prefix + _rm_instr(op, dst.info.num, src, 0)
    if mn in SSE_PACKED_OPCODE:
        dst, src = ops
        op = bytes([0x0F, SSE_PACKED_OPCODE[mn]])
        return b"\x66" + _rm_instr(op, dst.info.num, src, 0)
    if mn == "ucomisd":
        dst, src = ops
        return b"\x66" + _rm_instr(b"\x0f\x2e", dst.info.num, src, 0)
    if mn == "pxor":
        dst, src = ops
        return b"\x66" + _rm_instr(b"\x0f\xef", dst.info.num, src, 0)
    if mn == "cvtsi2sd":
        dst, src = ops
        return b"\xf2" + _rm_instr(b"\x0f\x2a", dst.info.num, src, 1)
    if mn == "cvttsd2si":
        dst, src = ops
        return b"\xf2" + _rm_instr(b"\x0f\x2c", dst.info.num, src, 1)
    if mn == "movq":
        dst, src = ops
        if isinstance(dst, Reg) and dst.info.kind == "xmm":
            return b"\x66" + _rm_instr(b"\x0f\x6e", dst.info.num, src, 1)
        return b"\x66" + _rm_instr(b"\x0f\x7e", src.info.num, dst, 1)

    raise EncodeError(f"cannot encode {instr}")
