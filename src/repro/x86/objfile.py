"""A minimal linked-image container for x86-64 programs ("ELF-lite").

Holds the final text bytes at a fixed image base, a symbol table for
functions, a data segment for globals, and stub addresses for external
runtime functions (``malloc``, ``spawn`` ...).  This is what the binary
lifter consumes — raw machine code plus the minimal symbol information
mctoll also relies on.

Address lookups (`function_at`, `external_at`, `symbol_for_data_address`)
run once per decoded instruction operand, so they are backed by sorted
interval tables built lazily and invalidated whenever the symbol dicts
change size — real ELF binaries carry thousands of symbols and the old
linear scans dominated lift time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

TEXT_BASE = 0x400000
DATA_BASE = 0x600000
STUB_BASE = 0x3F0000  # external-function stubs live below text
STUB_SIZE = 16


class EntryError(Exception):
    """The requested entry function does not exist in the image.

    Carries enough context for triage to print a useful diagnostic
    (what was asked for, what the image actually defines).
    """

    def __init__(self, entry: str, candidates: list[str]):
        self.entry = entry
        self.candidates = candidates
        preview = ", ".join(candidates[:8])
        if len(candidates) > 8:
            preview += f", ... ({len(candidates)} total)"
        hint = f"; defined functions: {preview}" if candidates else \
            "; the image defines no functions at all"
        super().__init__(f"entry function {entry!r} not found in image{hint}")


@dataclass
class FuncSymbol:
    name: str
    address: int
    size: int


@dataclass
class DataSymbol:
    name: str
    address: int
    size: int
    init: bytes  # zero-padded to size at load


@dataclass
class X86Object:
    """A fully linked x86-64 image."""

    text: bytes = b""
    text_base: int = TEXT_BASE
    functions: dict[str, FuncSymbol] = field(default_factory=dict)
    data_symbols: dict[str, DataSymbol] = field(default_factory=dict)
    externals: dict[str, int] = field(default_factory=dict)  # name -> stub addr
    entry: str = "main"
    # Per-external (argc, n_float_args, return kind) overrides discovered by
    # the loader's catalog; consulted before the built-in EXTERNAL_SIGS.
    extern_sigs: dict[str, tuple[int, int, str]] = field(default_factory=dict)
    # "elf-lite" for minicc output, "elf64" for real binaries via repro.loader.
    source_format: str = "elf-lite"

    def __post_init__(self) -> None:
        self._func_index: tuple[list[int], list[FuncSymbol]] | None = None
        self._data_index: tuple[list[int], list[DataSymbol]] | None = None
        self._ext_index: dict[int, str] | None = None

    # ---- lazily built sorted-interval indexes ---------------------------
    def _functions_index(self) -> tuple[list[int], list[FuncSymbol]]:
        cached = self._func_index
        if cached is None or len(cached[1]) != len(self.functions):
            syms = sorted(self.functions.values(), key=lambda s: s.address)
            cached = ([s.address for s in syms], syms)
            self._func_index = cached
        return cached

    def _data_symbols_index(self) -> tuple[list[int], list[DataSymbol]]:
        cached = self._data_index
        if cached is None or len(cached[1]) != len(self.data_symbols):
            syms = sorted(self.data_symbols.values(), key=lambda s: s.address)
            cached = ([s.address for s in syms], syms)
            self._data_index = cached
        return cached

    def _externals_index(self) -> dict[int, str]:
        cached = self._ext_index
        if cached is None or len(cached) != len(self.externals):
            cached = {addr: name for name, addr in self.externals.items()}
            self._ext_index = cached
        return cached

    # ---- lookups ---------------------------------------------------------
    def function_at(self, address: int) -> FuncSymbol | None:
        starts, syms = self._functions_index()
        i = bisect_right(starts, address) - 1
        if i >= 0:
            sym = syms[i]
            if sym.address <= address < sym.address + sym.size:
                return sym
        return None

    def external_at(self, address: int) -> str | None:
        return self._externals_index().get(address)

    def symbol_for_data_address(self, address: int) -> DataSymbol | None:
        starts, syms = self._data_symbols_index()
        i = bisect_right(starts, address) - 1
        if i >= 0:
            sym = syms[i]
            if sym.address <= address < sym.address + max(1, sym.size):
                return sym
        return None

    def require_entry(self) -> FuncSymbol:
        """The entry function's symbol, or a clear :class:`EntryError`
        naming the candidates instead of a ``KeyError`` deep in the
        lifter or emulator."""
        sym = self.functions.get(self.entry)
        if sym is None:
            raise EntryError(self.entry, sorted(self.functions))
        return sym

    def function_body(self, name: str) -> bytes:
        sym = self.functions[name]
        start = sym.address - self.text_base
        return self.text[start : start + sym.size]
