"""mini-C: the C-subset compiler that produces x86-64 binaries (the
lifter's input) and LIR (:mod:`.frontend_lir`).  The evaluation's Native
baseline is that LIR, optimized and lowered by the same :mod:`repro.codegen`
Arm backend that compiles translated code (``Lasagne.native``)."""

from .astnodes import CType, FuncDef, Program
from .codegen_x86 import CodegenError, compile_to_x86
from .lexer import LexError, tokenize
from .parser import ParseError, parse
from .sema import BUILTINS, SemaError, SemaResult, analyze

__all__ = [
    "CType", "FuncDef", "Program",
    "CodegenError", "compile_to_x86",
    "LexError", "tokenize",
    "ParseError", "parse",
    "BUILTINS", "SemaError", "SemaResult", "analyze",
]
