"""Hash-consed bitvector terms + the normalizing rewriter.

The term language is the vocabulary of the translation validator
(:mod:`repro.analysis.tv`): every LIR value a pass could rewrite is
mapped to a term, and two program fragments are considered equal when
their terms normalize to the *same interned node*.  Three design rules
keep that decision procedure sound and cheap:

* **Hash-consing** — every structurally distinct term exists exactly
  once per :class:`TermBuilder`, so semantic comparison of normalized
  terms is pointer identity and common subterms are shared (the DAG
  stays linear in program size even for exponentially many paths).
* **Normalization at construction** — the smart constructors apply the
  same algebraic identities the optimizer's scalar passes do (constant
  folding, commutative canonicalization, ``x+0``, ``x^x``,
  re-association of constant chains, cast collapsing, icmp/select
  folds), so an instcombine/GVN/reassociate/SCCP rewrite maps both the
  before- and after-function to one normal form.  Constant folding
  calls into :mod:`repro.lir.interp`'s arithmetic so the rewriter can
  never disagree with the concrete semantics the confirmer replays.
* **Uninterpreted effects** — fences, atomics and calls have no
  algebraic laws at all.  They build opaque, *ordered* chains
  (``effect``/``barrier``/``clobber`` nodes), so a LIMM-relevant
  reordering always produces a different term and is never provable
  away (see docs/translation-validation.md).

Every identity the rewriter applies is also listed declaratively in
:data:`ALGEBRAIC_RULES` so the test suite can validate each rule by
exhaustive 4-bit concrete evaluation of both sides.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, Optional

from ...lir.interp import InterpError, _binop_apply, _fcmp_apply, _icmp_apply
from ...lir.types import FloatType, IntType

#: Operators the optimizer treats as commutative (mirrors
#: ``BinOp.is_commutative`` and instcombine's canonicalization).
COMMUTATIVE = {"add", "mul", "and", "or", "xor", "fadd", "fmul"}

#: Operators whose constant chains instcombine/reassociate re-associate.
ASSOCIATIVE = {"add", "mul", "and", "or", "xor"}

_INT_BINOPS = {"add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
               "and", "or", "xor", "shl", "lshr", "ashr"}

_SWAPPED_PRED = {
    "eq": "eq", "ne": "ne",
    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
}

_REFLEXIVE_TRUE = {"eq", "ule", "uge", "sle", "sge"}
_REFLEXIVE_FALSE = {"ne", "ult", "ugt", "slt", "sgt"}


class TermCapExceeded(Exception):
    """The builder created more nodes than the per-check budget allows."""


class Term:
    """One interned node of the term DAG.  Never construct directly —
    always go through a :class:`TermBuilder` so interning and
    normalization hold."""

    __slots__ = ("op", "attr", "args", "tid", "sort")

    def __init__(self, op: str, attr: tuple, args: tuple, tid: int,
                 sort: tuple) -> None:
        self.op = op
        self.attr = attr
        self.args = args
        self.tid = tid
        self.sort = sort  # ("i", bits) | ("f", bits) | ("mem",) | ("eff",)

    @property
    def bits(self) -> int:
        return self.sort[1] if self.sort[0] in ("i", "f") else 0

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        assert self.op in ("const", "fconst")
        return self.attr[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return render(self, max_depth=4)


def render(term: Term, max_depth: int = 6) -> str:
    """A bounded, human-readable rendering (for refuted-verdict detail)."""
    if max_depth <= 0:
        return "..."
    if term.op == "const":
        return str(term.attr[1])
    if term.op in ("var", "fconst"):
        return str(term.attr[0] if term.op == "var" else term.attr[1])
    inner = ", ".join(render(a, max_depth - 1) for a in term.args)
    tag = ":".join(str(a) for a in term.attr)
    head = term.op + (f"[{tag}]" if tag else "")
    return f"{head}({inner})" if inner else head


class TermBuilder:
    """Interning factory with normalization-at-construction.

    One builder is shared by the before- and after-function evaluation
    of a check, so identical computations intern to identical nodes and
    the commutative canonical order (by interning id) is consistent
    across both sides.  ``simplify=False`` turns every smart
    constructor into a raw one — the rule-validation tests use that to
    build the un-rewritten side of each identity.
    """

    def __init__(self, simplify: bool = True,
                 cap: Optional[int] = None) -> None:
        self.simplify = simplify
        self.cap = cap
        self.created = 0
        self._interned: dict[tuple, Term] = {}
        self.true = self.const(1, 1)
        self.false = self.const(1, 0)
        self.mem0 = self._mk("mem0", (), (), ("mem",))
        self.eff0 = self._mk("eff0", (), (), ("eff",))

    # ---- interning -----------------------------------------------------
    def _mk(self, op: str, attr: tuple, args: tuple, sort: tuple) -> Term:
        key = (op, attr, tuple(a.tid for a in args))
        term = self._interned.get(key)
        if term is None:
            if self.cap is not None and self.created >= self.cap:
                raise TermCapExceeded(f"term budget of {self.cap} exhausted")
            term = Term(op, attr, args, len(self._interned), sort)
            self._interned[key] = term
            self.created += 1
        return term

    # ---- leaves --------------------------------------------------------
    def const(self, bits: int, value: int) -> Term:
        mask = (1 << bits) - 1
        return self._mk("const", (bits, value & mask), (), ("i", bits))

    def fconst(self, bits: int, value: float) -> Term:
        # Key by bit pattern so -0.0/0.0 and NaN payloads stay distinct.
        fmt = "<f" if bits == 32 else "<d"
        pattern = struct.unpack("<I" if bits == 32 else "<Q",
                                struct.pack(fmt, value))[0]
        return self._mk("fconst", (value, pattern), (), ("f", bits))

    def var(self, name: str, bits: int, kind: str = "i") -> Term:
        return self._mk("var", (name, bits), (), (kind, bits))

    def undef(self, bits: int, kind: str = "i") -> Term:
        return self._mk("undef", (bits,), (), (kind, bits))

    def opaque(self, tag: str, args: tuple[Term, ...], bits: int,
               kind: str = "i") -> Term:
        """A deterministic uninterpreted function of its operands."""
        return self._mk("opaque", (tag, bits), tuple(args), (kind, bits))

    # ---- integer / float arithmetic -----------------------------------
    def binop(self, op: str, a: Term, b: Term) -> Term:
        if op not in _INT_BINOPS:
            return self._fbinop(op, a, b)
        bits = a.bits
        raw = lambda x, y: self._mk("binop", (op, bits), (x, y), ("i", bits))
        if not self.simplify:
            return raw(a, b)
        if a.is_const and b.is_const:
            folded = self._fold_binop(op, a.value, b.value, bits)
            if folded is not None:
                return self.const(bits, folded)
        if op in COMMUTATIVE:
            # Constants to the right; otherwise a canonical operand order
            # (interning ids are consistent across both sides of a check
            # because the builder is shared).
            if a.is_const and not b.is_const:
                a, b = b, a
            elif not a.is_const and not b.is_const and a.tid > b.tid:
                a, b = b, a
        if op == "sub" and b.is_const and b.value != 0:
            return self.binop("add", a, self.const(bits, -b.value))
        if b.is_const:
            c = b.value
            mask = (1 << bits) - 1
            if c == 0 and op in ("add", "sub", "or", "xor",
                                 "shl", "lshr", "ashr"):
                return a
            if c == 1 and op in ("mul", "sdiv", "udiv"):
                return a
            if c == 0 and op in ("mul", "and"):
                return self.const(bits, 0)
            if c == mask and op == "and":
                return a
            if c == mask and op == "or":
                return self.const(bits, mask)
            if (op in ASSOCIATIVE and a.op == "binop" and a.attr[0] == op
                    and a.args[1].is_const):
                folded = self._fold_binop(op, a.args[1].value, c, bits)
                if folded is not None:
                    return self.binop(op, a.args[0],
                                      self.const(bits, folded))
        if a is b:
            if op in ("sub", "xor"):
                return self.const(bits, 0)
            if op in ("and", "or"):
                return a
        return raw(a, b)

    @staticmethod
    def _fold_binop(op: str, x: int, y: int, bits: int) -> Optional[int]:
        try:
            return int(_binop_apply(op, x, y, IntType(bits)))
        except (InterpError, ZeroDivisionError):
            return None  # division by zero: keep the term symbolic

    def _fbinop(self, op: str, a: Term, b: Term) -> Term:
        bits = a.bits
        if (self.simplify and a.op == "fconst" and b.op == "fconst"):
            try:
                folded = _binop_apply(op, a.attr[0], b.attr[0],
                                      FloatType(bits))
                return self.fconst(bits, float(folded))
            except (InterpError, ZeroDivisionError, OverflowError):
                pass
        return self._mk("binop", (op, bits), (a, b), ("f", bits))

    def icmp(self, pred: str, a: Term, b: Term) -> Term:
        bits = a.bits
        raw = lambda p, x, y: self._mk("icmp", (p, bits), (x, y), ("i", 1))
        if not self.simplify:
            return raw(pred, a, b)
        if a.is_const and b.is_const:
            return self.const(1, _icmp_apply(pred, a.value, b.value,
                                             IntType(bits)))
        if a.is_const and not b.is_const:
            pred, a, b = _SWAPPED_PRED[pred], b, a
        if a is b:
            if pred in _REFLEXIVE_TRUE:
                return self.true
            if pred in _REFLEXIVE_FALSE:
                return self.false
        # icmp (zext i1 x) vs 0  ->  !x / x  (the boolean-test idiom
        # instcombine reduces after mem2reg exposes the flag).
        if (b.is_const and b.value == 0 and a.op == "cast"
                and a.attr[0] == "zext" and a.attr[1] == 1):
            if pred == "eq":
                return self.not_(a.args[0])
            if pred == "ne":
                return a.args[0]
        if pred in ("eq", "ne") and not a.is_const and not b.is_const \
                and a.tid > b.tid:
            a, b = b, a
        return raw(pred, a, b)

    def fcmp(self, pred: str, a: Term, b: Term) -> Term:
        if self.simplify and a.op == "fconst" and b.op == "fconst":
            return self.const(1, _fcmp_apply(pred, a.attr[0], b.attr[0]))
        return self._mk("fcmp", (pred, a.bits), (a, b), ("i", 1))

    def not_(self, a: Term) -> Term:
        return self.binop("xor", a, self.true)

    # ---- casts ---------------------------------------------------------
    def cast(self, op: str, a: Term, to_bits: int, kind: str = "i") -> Term:
        from_bits = a.bits
        raw = lambda x: self._mk("cast", (op, from_bits, to_bits), (x,),
                                 (kind, to_bits))
        if not self.simplify:
            return raw(a)
        if op in ("ptrtoint", "inttoptr"):
            return a  # pointers are 64-bit bitvectors in this model
        if op == "bitcast" and a.sort == (kind, to_bits):
            return a
        if op in ("trunc", "zext", "sext"):
            if to_bits == from_bits:
                return a
            if a.is_const:
                v = a.value
                if op == "sext" and v >> (from_bits - 1):
                    v -= 1 << from_bits
                return self.const(to_bits, v)
            if op == "trunc" and a.op == "cast" \
                    and a.attr[0] in ("zext", "sext"):
                inner = a.args[0]
                if to_bits == inner.bits:
                    return inner
                if to_bits < inner.bits:
                    return self.cast("trunc", inner, to_bits)
                return self.cast(a.attr[0], inner, to_bits)
            if op in ("zext", "sext") and a.op == "cast" \
                    and a.attr[0] == op:
                return self.cast(op, a.args[0], to_bits)
        return raw(a)

    # ---- select / control merge ---------------------------------------
    def ite(self, cond: Term, t: Term, f: Term) -> Term:
        sort = t.sort
        raw = lambda c, x, y: self._mk("ite", (sort,), (c, x, y), sort)
        if not self.simplify:
            return raw(cond, t, f)
        if t is f:
            return t
        if cond.is_const:
            return t if cond.value & 1 else f
        if cond.op == "binop" and cond.attr == ("xor", 1) \
                and cond.args[1] is self.true:
            return self.ite(cond.args[0], f, t)
        if sort == ("i", 1) and t.is_const and f.is_const:
            if t.value == 1 and f.value == 0:
                return cond
            if t.value == 0 and f.value == 1:
                return self.not_(cond)
        if t.op == "ite" and t.args[0] is cond:
            t = t.args[1]
        if f.op == "ite" and f.args[0] is cond:
            f = f.args[2]
        if t is f:
            return t
        return raw(cond, t, f)

    def and_(self, a: Term, b: Term) -> Term:
        return self.binop("and", a, b)

    def or_(self, a: Term, b: Term) -> Term:
        return self.binop("or", a, b)

    # ---- memory / effect chains (never simplified) ---------------------
    def load(self, mem: Term, addr: Term, typekey: str) -> Term:
        kind, bits = _typekey_sort(typekey)
        return self._mk("load", (typekey,), (mem, addr), (kind, bits))

    def store(self, mem: Term, addr: Term, val: Term, typekey: str) -> Term:
        return self._mk("store", (typekey,), (mem, addr, val), ("mem",))

    def barrier(self, mem: Term, kind: str) -> Term:
        return self._mk("barrier", (kind,), (mem,), ("mem",))

    def clobber(self, mem: Term, eff: Term) -> Term:
        return self._mk("clobber", (), (mem, eff), ("mem",))

    def effect(self, eff: Term, tag: str, *values: Term) -> Term:
        return self._mk("effect", (tag,), (eff, *values), ("eff",))

    def effres(self, eff: Term, typekey: str) -> Term:
        kind, bits = _typekey_sort(typekey)
        return self._mk("effres", (typekey,), (eff,), (kind, bits))


def _typekey_sort(typekey: str) -> tuple[str, int]:
    if typekey.startswith("f"):
        return "f", int(typekey[1:])
    if typekey.startswith("i"):
        return "i", int(typekey[1:])
    return "i", 64  # pointers and anything address-shaped


def contains_op(term: Term, op: str) -> bool:
    """Does ``op`` occur anywhere in the term DAG?"""
    seen: set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        if t.op == op:
            return True
        stack.extend(t.args)
    return False


# --------------------------------------------------------------------------
# Declarative rule table: one entry per algebraic identity the smart
# constructors implement.  ``lhs``/``rhs`` build the two sides of the
# identity from fresh variables; tests/test_tv_terms.py validates every
# rule by exhaustive 4-bit concrete evaluation of both sides and checks
# the normalizing builder maps lhs and rhs to the same node.
# --------------------------------------------------------------------------

class Rule(NamedTuple):
    name: str
    nvars: int
    lhs: Callable[..., Term]      # (builder, bits, *vars) -> Term
    rhs: Callable[..., Term]


def _c(b: TermBuilder, bits: int, v: int) -> Term:
    return b.const(bits, v)


ALGEBRAIC_RULES: list[Rule] = [
    Rule("add-zero", 1,
         lambda b, n, x: b.binop("add", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("sub-zero", 1,
         lambda b, n, x: b.binop("sub", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("or-zero", 1,
         lambda b, n, x: b.binop("or", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("xor-zero", 1,
         lambda b, n, x: b.binop("xor", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("shl-zero", 1,
         lambda b, n, x: b.binop("shl", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("lshr-zero", 1,
         lambda b, n, x: b.binop("lshr", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("ashr-zero", 1,
         lambda b, n, x: b.binop("ashr", x, _c(b, n, 0)),
         lambda b, n, x: x),
    Rule("mul-one", 1,
         lambda b, n, x: b.binop("mul", x, _c(b, n, 1)),
         lambda b, n, x: x),
    Rule("udiv-one", 1,
         lambda b, n, x: b.binop("udiv", x, _c(b, n, 1)),
         lambda b, n, x: x),
    Rule("sdiv-one", 1,
         lambda b, n, x: b.binop("sdiv", x, _c(b, n, 1)),
         lambda b, n, x: x),
    Rule("mul-zero", 1,
         lambda b, n, x: b.binop("mul", x, _c(b, n, 0)),
         lambda b, n, x: _c(b, n, 0)),
    Rule("and-zero", 1,
         lambda b, n, x: b.binop("and", x, _c(b, n, 0)),
         lambda b, n, x: _c(b, n, 0)),
    Rule("and-allones", 1,
         lambda b, n, x: b.binop("and", x, _c(b, n, (1 << n) - 1)),
         lambda b, n, x: x),
    Rule("or-allones", 1,
         lambda b, n, x: b.binop("or", x, _c(b, n, (1 << n) - 1)),
         lambda b, n, x: _c(b, n, (1 << n) - 1)),
    Rule("sub-self", 1,
         lambda b, n, x: b.binop("sub", x, x),
         lambda b, n, x: _c(b, n, 0)),
    Rule("xor-self", 1,
         lambda b, n, x: b.binop("xor", x, x),
         lambda b, n, x: _c(b, n, 0)),
    Rule("and-self", 1,
         lambda b, n, x: b.binop("and", x, x),
         lambda b, n, x: x),
    Rule("or-self", 1,
         lambda b, n, x: b.binop("or", x, x),
         lambda b, n, x: x),
    Rule("add-commute", 2,
         lambda b, n, x, y: b.binop("add", x, y),
         lambda b, n, x, y: b.binop("add", y, x)),
    Rule("mul-commute", 2,
         lambda b, n, x, y: b.binop("mul", x, y),
         lambda b, n, x, y: b.binop("mul", y, x)),
    Rule("and-commute", 2,
         lambda b, n, x, y: b.binop("and", x, y),
         lambda b, n, x, y: b.binop("and", y, x)),
    Rule("or-commute", 2,
         lambda b, n, x, y: b.binop("or", x, y),
         lambda b, n, x, y: b.binop("or", y, x)),
    Rule("xor-commute", 2,
         lambda b, n, x, y: b.binop("xor", x, y),
         lambda b, n, x, y: b.binop("xor", y, x)),
    Rule("sub-const-to-add", 1,
         lambda b, n, x: b.binop("sub", x, _c(b, n, 3)),
         lambda b, n, x: b.binop("add", x, _c(b, n, -3))),
    Rule("add-reassociate", 1,
         lambda b, n, x: b.binop("add", b.binop("add", x, _c(b, n, 3)),
                                 _c(b, n, 5)),
         lambda b, n, x: b.binop("add", x, _c(b, n, 8))),
    Rule("mul-reassociate", 1,
         lambda b, n, x: b.binop("mul", b.binop("mul", x, _c(b, n, 3)),
                                 _c(b, n, 5)),
         lambda b, n, x: b.binop("mul", x, _c(b, n, 15))),
    Rule("and-reassociate", 1,
         lambda b, n, x: b.binop("and", b.binop("and", x, _c(b, n, 12)),
                                 _c(b, n, 6)),
         lambda b, n, x: b.binop("and", x, _c(b, n, 4))),
    Rule("or-reassociate", 1,
         lambda b, n, x: b.binop("or", b.binop("or", x, _c(b, n, 1)),
                                _c(b, n, 4)),
         lambda b, n, x: b.binop("or", x, _c(b, n, 5))),
    Rule("xor-reassociate", 1,
         lambda b, n, x: b.binop("xor", b.binop("xor", x, _c(b, n, 6)),
                                 _c(b, n, 5)),
         lambda b, n, x: b.binop("xor", x, _c(b, n, 3))),
    Rule("double-negate-bool", 1,
         lambda b, n, x: b.binop("xor", b.binop("xor", x, _c(b, n, 1)),
                                 _c(b, n, 1)),
         lambda b, n, x: x),
    Rule("icmp-self-eq", 1,
         lambda b, n, x: b.icmp("eq", x, x),
         lambda b, n, x: _c(b, 1, 1)),
    Rule("icmp-self-ne", 1,
         lambda b, n, x: b.icmp("ne", x, x),
         lambda b, n, x: _c(b, 1, 0)),
    Rule("icmp-self-ule", 1,
         lambda b, n, x: b.icmp("ule", x, x),
         lambda b, n, x: _c(b, 1, 1)),
    Rule("icmp-self-slt", 1,
         lambda b, n, x: b.icmp("slt", x, x),
         lambda b, n, x: _c(b, 1, 0)),
    Rule("icmp-swap-const", 1,
         lambda b, n, x: b.icmp("slt", _c(b, n, 2), x),
         lambda b, n, x: b.icmp("sgt", x, _c(b, n, 2))),
    Rule("trunc-of-zext-roundtrip", 1,
         lambda b, n, x: b.cast("trunc", b.cast("zext", x, 2 * n), n),
         lambda b, n, x: x),
    Rule("trunc-of-sext-roundtrip", 1,
         lambda b, n, x: b.cast("trunc", b.cast("sext", x, 2 * n), n),
         lambda b, n, x: x),
    Rule("zext-of-zext", 1,
         lambda b, n, x: b.cast("zext", b.cast("zext", x, 2 * n), 4 * n),
         lambda b, n, x: b.cast("zext", x, 4 * n)),
    Rule("sext-of-sext", 1,
         lambda b, n, x: b.cast("sext", b.cast("sext", x, 2 * n), 4 * n),
         lambda b, n, x: b.cast("sext", x, 4 * n)),
    Rule("select-same-arms", 2,
         lambda b, n, x, y: b.ite(b.icmp("eq", x, y), y, y),
         lambda b, n, x, y: y),
    Rule("select-bool-identity", 1,
         lambda b, n, x: b.ite(b.icmp("ne", x, _c(b, n, 0)),
                               _c(b, 1, 1), _c(b, 1, 0)),
         lambda b, n, x: b.icmp("ne", x, _c(b, n, 0))),
    Rule("select-bool-negate", 1,
         lambda b, n, x: b.ite(b.icmp("ne", x, _c(b, n, 0)),
                               _c(b, 1, 0), _c(b, 1, 1)),
         lambda b, n, x: b.binop("xor", b.icmp("ne", x, _c(b, n, 0)),
                                 _c(b, 1, 1))),
    Rule("icmp-zext-bool-eq-zero", 1,
         lambda b, n, x: b.icmp(
             "eq", b.cast("zext", b.icmp("ne", x, _c(b, n, 0)), n),
             _c(b, n, 0)),
         lambda b, n, x: b.binop("xor", b.icmp("ne", x, _c(b, n, 0)),
                                 _c(b, 1, 1))),
    Rule("icmp-zext-bool-ne-zero", 1,
         lambda b, n, x: b.icmp(
             "ne", b.cast("zext", b.icmp("ne", x, _c(b, n, 0)), n),
             _c(b, n, 0)),
         lambda b, n, x: b.icmp("ne", x, _c(b, n, 0))),
]
