"""From-scratch ELF64 reader: the container layer of ``repro.loader``.

Parses the pieces of a Linux x86-64 executable the lifter actually
needs — header, program/section headers, ``.symtab``/``.dynsym`` plus
their string tables, ``.rela.*`` relocations — and decodes PLT/IPLT
entries back to the external function they forward to, so calls through
``printf@plt`` (dynamic binaries, ``R_X86_64_JUMP_SLOT``) and glibc's
ifunc trampolines (static binaries, ``R_X86_64_IRELATIVE``) both
resolve to a *name* the external-function catalog can match.

Only the little-endian 64-bit class is supported; everything else is a
clean :class:`ElfError` so triage can degrade instead of crashing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ELF_MAGIC = b"\x7fELF"

# e_ident indexes / values
EI_CLASS, EI_DATA = 4, 5
ELFCLASS64, ELFDATA2LSB = 2, 1

# e_machine
EM_X86_64 = 62

# e_type
ET_EXEC, ET_DYN = 2, 3

# sh_type
SHT_NOBITS, SHT_SYMTAB, SHT_DYNSYM, SHT_RELA = 8, 2, 11, 4
SHF_ALLOC, SHF_EXECINSTR = 0x2, 0x4

# p_type
PT_LOAD = 1

# symbol types / bindings
STT_OBJECT, STT_FUNC, STT_GNU_IFUNC = 1, 2, 10
STB_LOCAL, STB_GLOBAL, STB_WEAK = 0, 1, 2

# x86-64 relocation types
R_X86_64_64 = 1
R_X86_64_GLOB_DAT = 6
R_X86_64_JUMP_SLOT = 7
R_X86_64_RELATIVE = 8
R_X86_64_IRELATIVE = 37


class ElfError(Exception):
    """The input is not an ELF64 image this reader can digest."""


@dataclass(frozen=True)
class ElfHeader:
    ei_class: int
    ei_data: int
    e_type: int
    e_machine: int
    e_entry: int
    e_phoff: int
    e_shoff: int
    e_phnum: int
    e_shnum: int
    e_shstrndx: int


@dataclass(frozen=True)
class ProgramHeader:
    p_type: int
    p_flags: int
    p_offset: int
    p_vaddr: int
    p_filesz: int
    p_memsz: int


@dataclass(frozen=True)
class Section:
    name: str
    sh_type: int
    sh_flags: int
    sh_addr: int
    sh_offset: int
    sh_size: int
    sh_link: int
    sh_info: int
    sh_entsize: int

    @property
    def is_alloc(self) -> bool:
        return bool(self.sh_flags & SHF_ALLOC)

    @property
    def is_exec(self) -> bool:
        return bool(self.sh_flags & SHF_EXECINSTR)

    @property
    def is_nobits(self) -> bool:
        return self.sh_type == SHT_NOBITS

    def contains(self, addr: int) -> bool:
        return self.sh_addr <= addr < self.sh_addr + self.sh_size


@dataclass(frozen=True)
class ElfSymbol:
    name: str
    value: int
    size: int
    stype: int  # STT_*
    bind: int   # STB_*
    shndx: int
    table: str  # "symtab" | "dynsym"

    @property
    def is_function(self) -> bool:
        return self.stype in (STT_FUNC, STT_GNU_IFUNC)

    @property
    def is_object(self) -> bool:
        return self.stype == STT_OBJECT

    @property
    def is_defined(self) -> bool:
        return self.shndx != 0  # not SHN_UNDEF


@dataclass(frozen=True)
class Relocation:
    r_offset: int
    r_type: int
    r_sym: int
    r_addend: int
    section: str  # the .rela.* section it came from


@dataclass
class ElfFile:
    """A parsed ELF64 executable, indexed for the loader's questions."""

    data: bytes
    header: ElfHeader
    phdrs: list[ProgramHeader]
    sections: list[Section]
    symbols: list[ElfSymbol]          # .symtab then .dynsym entries
    relocations: list[Relocation]     # every .rela.* section, concatenated
    _by_addr: dict[int, list[ElfSymbol]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sym in self.symbols:
            if sym.is_defined and sym.name:
                self._by_addr.setdefault(sym.value, []).append(sym)

    # ---- lookups ---------------------------------------------------------
    def section(self, name: str) -> Section | None:
        for sec in self.sections:
            if sec.name == name:
                return sec
        return None

    def section_at(self, addr: int) -> Section | None:
        for sec in self.sections:
            if sec.is_alloc and sec.contains(addr):
                return sec
        return None

    def symbols_at(self, addr: int) -> list[ElfSymbol]:
        """Every defined, named symbol whose value is exactly ``addr``."""
        return list(self._by_addr.get(addr, []))

    def names_at(self, addr: int) -> list[str]:
        return [s.name for s in self.symbols_at(addr)]

    def function_symbols(self) -> list[ElfSymbol]:
        """Defined, named, sized STT_FUNC/STT_GNU_IFUNC symbols, sorted by
        address; one entry per address (``.symtab`` wins over ``.dynsym``,
        then the strongest binding)."""
        best: dict[int, ElfSymbol] = {}

        def rank(s: ElfSymbol) -> tuple:
            return (s.table == "symtab", s.bind == STB_GLOBAL, s.size > 0)

        for sym in self.symbols:
            if not (sym.is_function and sym.is_defined and sym.name):
                continue
            cur = best.get(sym.value)
            if cur is None or rank(sym) > rank(cur):
                best[sym.value] = sym
        return sorted(best.values(), key=lambda s: s.value)

    def object_symbol_covering(self, addr: int) -> ElfSymbol | None:
        """The defined STT_OBJECT symbol whose [value, value+size) interval
        contains ``addr``, preferring the tightest fit."""
        hit: ElfSymbol | None = None
        for sym in self.symbols:
            if not (sym.is_object and sym.is_defined and sym.name):
                continue
            if sym.value <= addr < sym.value + max(1, sym.size):
                if hit is None or sym.size < hit.size:
                    hit = sym
        return hit

    # ---- memory image ----------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        """File-backed bytes at virtual address ``addr`` (``.bss`` reads as
        zeros); raises :class:`ElfError` when the range is unmapped."""
        sec = self.section_at(addr)
        if sec is not None and sec.contains(addr):
            avail = sec.sh_addr + sec.sh_size - addr
            n = min(size, avail)
            if sec.is_nobits:
                chunk = b"\x00" * n
            else:
                off = sec.sh_offset + (addr - sec.sh_addr)
                chunk = self.data[off : off + n]
            if n < size:
                return chunk + self.read(addr + n, size - n)
            return chunk
        # Fall back to program headers (e.g. section table stripped).
        for ph in self.phdrs:
            if ph.p_type != PT_LOAD:
                continue
            if ph.p_vaddr <= addr < ph.p_vaddr + ph.p_memsz:
                off_in = addr - ph.p_vaddr
                n = min(size, ph.p_memsz - off_in)
                file_n = max(0, min(n, ph.p_filesz - off_in))
                chunk = self.data[ph.p_offset + off_in :
                                  ph.p_offset + off_in + file_n]
                chunk += b"\x00" * (n - file_n)
                if n < size:
                    return chunk + self.read(addr + n, size - n)
                return chunk
        raise ElfError(f"virtual address {addr:#x} is not mapped")

    def read_cstr(self, addr: int, limit: int = 4096) -> bytes:
        """NUL-terminated bytes at ``addr`` (terminator not included)."""
        out = bytearray()
        while len(out) < limit:
            b = self.read(addr + len(out), 1)
            if not b or b == b"\x00":
                break
            out += b
        return bytes(out)

    # ---- relocation indexes ---------------------------------------------
    def jump_slot_targets(self) -> dict[int, int]:
        """GOT slot address -> dynsym index, from R_X86_64_JUMP_SLOT."""
        return {r.r_offset: r.r_sym for r in self.relocations
                if r.r_type == R_X86_64_JUMP_SLOT}

    def irelative_targets(self) -> dict[int, int]:
        """GOT slot address -> ifunc resolver address (R_X86_64_IRELATIVE)."""
        return {r.r_offset: r.r_addend for r in self.relocations
                if r.r_type == R_X86_64_IRELATIVE}


def is_elf(data: bytes) -> bool:
    return data[:4] == ELF_MAGIC


def parse_elf(data: bytes) -> ElfFile:
    """Parse an ELF64 little-endian x86-64 image from raw bytes."""
    if not is_elf(data):
        raise ElfError("bad magic: not an ELF file")
    if len(data) < 64:
        raise ElfError("truncated ELF header")
    ident = data[:16]
    if ident[EI_CLASS] != ELFCLASS64:
        raise ElfError("only ELF64 (class 2) is supported")
    if ident[EI_DATA] != ELFDATA2LSB:
        raise ElfError("only little-endian ELF is supported")
    (e_type, e_machine, _ver, e_entry, e_phoff, e_shoff, _flags,
     _ehsize, _phentsize, e_phnum, _shentsize, e_shnum,
     e_shstrndx) = struct.unpack_from("<HHIQQQIHHHHHH", data, 16)
    header = ElfHeader(ELFCLASS64, ELFDATA2LSB, e_type, e_machine, e_entry,
                       e_phoff, e_shoff, e_phnum, e_shnum, e_shstrndx)
    if e_machine != EM_X86_64:
        raise ElfError(f"unsupported machine {e_machine} (want x86-64)")

    phdrs: list[ProgramHeader] = []
    for i in range(e_phnum):
        off = e_phoff + i * 56
        if off + 56 > len(data):
            raise ElfError("truncated program header table")
        (p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz,
         p_memsz, _align) = struct.unpack_from("<IIQQQQQQ", data, off)
        phdrs.append(ProgramHeader(p_type, p_flags, p_offset, p_vaddr,
                                   p_filesz, p_memsz))

    raw_sections: list[tuple] = []
    for i in range(e_shnum):
        off = e_shoff + i * 64
        if off + 64 > len(data):
            raise ElfError("truncated section header table")
        raw_sections.append(struct.unpack_from("<IIQQQQIIQQ", data, off))

    def shstr(name_off: int) -> str:
        if e_shstrndx >= len(raw_sections):
            return ""
        tab = raw_sections[e_shstrndx]
        base, size = tab[4], tab[5]
        return _strz(data, base + name_off, base + size)

    sections = [
        Section(shstr(s[0]), s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[9])
        for s in raw_sections
    ]

    symbols: list[ElfSymbol] = []
    for sec, table in ((next((s for s in sections
                              if s.sh_type == SHT_SYMTAB), None), "symtab"),
                       (next((s for s in sections
                              if s.sh_type == SHT_DYNSYM), None), "dynsym")):
        if sec is None:
            continue
        strtab = sections[sec.sh_link] if sec.sh_link < len(sections) else None
        count = sec.sh_size // 24
        for i in range(count):
            off = sec.sh_offset + i * 24
            st_name, st_info, _other, st_shndx, st_value, st_size = \
                struct.unpack_from("<IBBHQQ", data, off)
            name = ""
            if strtab is not None and st_name:
                name = _strz(data, strtab.sh_offset + st_name,
                             strtab.sh_offset + strtab.sh_size)
            symbols.append(ElfSymbol(name, st_value, st_size,
                                     st_info & 0xF, st_info >> 4,
                                     st_shndx, table))

    relocations: list[Relocation] = []
    for sec in sections:
        if sec.sh_type != SHT_RELA:
            continue
        for i in range(sec.sh_size // 24):
            off = sec.sh_offset + i * 24
            r_offset, r_info, r_addend = struct.unpack_from("<QQq", data, off)
            relocations.append(Relocation(r_offset, r_info & 0xFFFFFFFF,
                                          r_info >> 32, r_addend, sec.name))

    return ElfFile(data, header, phdrs, sections, symbols, relocations)


def _strz(data: bytes, start: int, end: int) -> str:
    nul = data.find(b"\x00", start, end)
    if nul < 0:
        nul = end
    return data[start:nul].decode("utf-8", errors="replace")


# ---- PLT / IPLT decoding --------------------------------------------------

PLT_SECTION_NAMES = (".plt", ".plt.sec", ".plt.got", ".iplt")


def decode_plt(elf: ElfFile) -> dict[int, str]:
    """Map every PLT/IPLT entry address to the external it forwards to.

    An entry is an indirect ``jmp *disp32(%rip)`` (``FF 25``), possibly
    preceded by ``endbr64`` (``F3 0F 1E FA``) and/or a ``bnd`` prefix
    (``F2``).  The referenced GOT slot identifies the function:

    * ``R_X86_64_JUMP_SLOT`` relocations name a ``.dynsym`` entry
      directly (dynamically linked binaries);
    * ``R_X86_64_IRELATIVE`` relocations carry the ifunc *resolver*
      address in the addend — the resolver is the symbol glibc names
      after the function itself (``strlen``, ``memcpy`` ... as
      ``STT_GNU_IFUNC``), so a symtab lookup of the addend recovers the
      name (statically linked binaries).
    """
    jump_slots = elf.jump_slot_targets()
    irelative = elf.irelative_targets()
    dynsyms = [s for s in elf.symbols if s.table == "dynsym"]
    out: dict[int, str] = {}
    for sec in elf.sections:
        if sec.name not in PLT_SECTION_NAMES or sec.sh_size == 0:
            continue
        raw = elf.read(sec.sh_addr, sec.sh_size)
        # Entry layout varies (8-byte packed, 16-byte, endbr64/bnd
        # prefixed), so scan for the jmp pattern rather than assuming a
        # stride; call sites target the entry start, i.e. the prefix
        # when one is present.
        entry_off = 0
        while entry_off < len(raw) - 5:
            jmp_off = _find_indirect_jmp(raw[entry_off : entry_off + 16])
            if jmp_off is None:
                entry_off += 1
                continue
            disp = struct.unpack_from("<i", raw, entry_off + jmp_off + 2)[0]
            entry_addr = sec.sh_addr + entry_off
            got_addr = entry_addr + jmp_off + 6 + disp
            name = None
            if got_addr in jump_slots:
                idx = jump_slots[got_addr]
                if 0 <= idx < len(dynsyms):
                    name = dynsyms[idx].name or None
            elif got_addr in irelative:
                resolver = irelative[got_addr]
                for sym in elf.symbols_at(resolver):
                    if sym.is_function:
                        name = sym.name
                        break
            if name:
                out[entry_addr] = name
            entry_off += jmp_off + 6
    return out


def _find_indirect_jmp(entry: bytes) -> int | None:
    """Offset of the ``FF 25`` jmp inside one PLT entry, skipping the
    optional ``endbr64`` / ``bnd`` prefixes; None for non-jump entries
    (such as the push/jmp PLT header)."""
    off = 0
    if entry[off : off + 4] == b"\xf3\x0f\x1e\xfa":  # endbr64
        off += 4
    if off < len(entry) and entry[off : off + 1] == b"\xf2":  # bnd
        off += 1
    if entry[off : off + 2] == b"\xff\x25" and off + 6 <= len(entry):
        return off
    return None
