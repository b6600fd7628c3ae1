"""Bottom-up interprocedural function summaries.

A :class:`FunctionSummary` condenses what one function does to pointer
provenance, so callers can apply the effect of a call precisely instead
of escaping every argument (the PR-3 worst case).  Summaries are computed
in bottom-up SCC order over the call graph: when a function is solved,
all of its (non-recursive) callees already have summaries, which the
points-to solver applies at each call site (:mod:`repro.analysis.pointsto`,
``summary_mode``).

Provenance that crosses the call boundary is expressed as *tokens*
relative to the callee's formals:

* ``("param", i)`` — the i-th argument value itself;
* ``("contents", i)`` — whatever the i-th argument's pointee held on entry;
* ``("unknown",)`` — anything else (callee-owned stack, globals, heap).

``stores_into[i]`` lists the tokens the callee may store into ``*argi``;
``returns`` the tokens the return value may carry.  ``param_escapes`` /
``contents_escape`` record publication, ``param_modref`` whether the
callee may load/store through each parameter, and ``touches`` whether it
mod/refs any memory the caller did not pass in (globals, escaped, heap).

Mutually-recursive SCCs and functions we cannot model keep the
conservative worst case (every pointer argument escapes), matching the
intraprocedural behaviour.

Entry points: :func:`compute_summaries`, :func:`analyze_module` →
:class:`ModuleAnalysis` (cached per-function :class:`AliasInfo` views
that share one summary table).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lir import AtomicRMW, Call, CmpXchg, Function, Load, Module, Store
from .callgraph import CallGraph, build_callgraph, tarjan_sccs
from .pointsto import MOD, MOD_REF, REF, AliasInfo, _Solver

UNKNOWN_TOKEN = ("unknown",)


@dataclass(frozen=True)
class FunctionSummary:
    """Caller-visible effect of calling one defined function."""

    function: str
    nparams: int
    param_escapes: tuple[bool, ...]     # arg published to other threads
    contents_escape: tuple[bool, ...]   # *arg's prior pointees published
    param_modref: tuple[int, ...]       # REF/MOD bits per parameter memory
    stores_into: tuple[frozenset, ...]  # tokens stored into *arg
    returns: frozenset                  # tokens the return value carries
    touches: int                        # mod/ref on caller-invisible memory
    recursive: bool = False             # conservatively summarised

    def describe(self) -> str:
        bits = {0: "-", REF: "r", MOD: "w", MOD_REF: "rw"}
        params = []
        for i in range(self.nparams):
            flags = bits[self.param_modref[i]]
            if self.param_escapes[i]:
                flags += "!"
            elif self.contents_escape[i]:
                flags += "*!"
            if self.stores_into[i]:
                flags += "s"
            params.append(f"arg{i}:{flags}")
        ret = ",".join(sorted(":".join(map(str, t)) for t in self.returns))
        return (f"{self.function}({' '.join(params)}) "
                f"-> {{{ret or 'none'}}} touches={bits[self.touches]}"
                + (" [recursive]" if self.recursive else ""))


def _conservative_summary(func: Function) -> FunctionSummary:
    n = len(func.arguments)
    return FunctionSummary(
        function=func.name,
        nparams=n,
        param_escapes=(True,) * n,
        contents_escape=(True,) * n,
        param_modref=(MOD_REF,) * n,
        stores_into=(frozenset({UNKNOWN_TOKEN}),) * n,
        returns=frozenset({UNKNOWN_TOKEN}),
        touches=MOD_REF,
        recursive=True,
    )


def _tokenize(solver: _Solver, objs) -> frozenset:
    param_idx = {id(o): i for i, o in solver.param_objects.items()}
    cont_idx = {id(o): i for i, o in solver.param_contents.items()}
    tokens = set()
    for obj in objs:
        if id(obj) in param_idx:
            tokens.add(("param", param_idx[id(obj)]))
        elif id(obj) in cont_idx:
            tokens.add(("contents", cont_idx[id(obj)]))
        else:
            tokens.add(UNKNOWN_TOKEN)
    return frozenset(tokens)


def _derive_summary(solver: _Solver) -> FunctionSummary:
    func = solver.func
    n = len(func.arguments)
    param_idx = {id(o): i for i, o in solver.param_objects.items()}
    cont_idx = {id(o): i for i, o in solver.param_contents.items()}
    modref = [0] * n
    touches = 0

    def classify(objs, bits: int) -> None:
        nonlocal touches
        for obj in objs:
            i = param_idx.get(id(obj), cont_idx.get(id(obj)))
            if i is not None:
                modref[i] |= bits
            elif obj.kind == "stack" and not obj.escaped:
                pass  # invisible to the caller
            else:
                touches |= bits

    for inst in func.instructions():
        if isinstance(inst, Load):
            classify(solver.lookup(inst.pointer), REF)
        elif isinstance(inst, Store):
            classify(solver.lookup(inst.pointer), MOD)
        elif isinstance(inst, (AtomicRMW, CmpXchg)):
            classify(solver.lookup(inst.pointer), MOD_REF)
        elif isinstance(inst, Call):
            inner = solver._call_summary(inst)
            if inner is None:
                if inst.is_readnone_callee():
                    continue
                touches |= MOD_REF
                for arg in inst.args:
                    classify(solver.lookup(arg), MOD_REF)
                    for obj in solver.lookup(arg):
                        classify(obj.contents, MOD_REF)
            else:
                touches |= inner.touches
                for j, arg in enumerate(inst.args):
                    if j < inner.nparams:
                        bits = inner.param_modref[j]
                    else:
                        bits = MOD_REF
                    if not bits:
                        continue
                    classify(solver.lookup(arg), bits)
                    for obj in solver.lookup(arg):
                        classify(obj.contents, bits)

    stores = []
    for i in range(n):
        param = solver.param_objects[i]
        cont = solver.param_contents[i]
        extra = {o for o in param.contents if o is not cont}
        stores.append(_tokenize(solver, extra))
    return FunctionSummary(
        function=func.name,
        nparams=n,
        param_escapes=tuple(solver.param_objects[i].escaped
                            for i in range(n)),
        contents_escape=tuple(solver.param_contents[i].escaped
                              for i in range(n)),
        param_modref=tuple(modref),
        stores_into=tuple(stores),
        returns=_tokenize(solver, solver.return_objs),
        touches=touches,
    )


class ModuleAnalysis:
    """Whole-module escape analysis: one summary table computed bottom-up
    plus cached interprocedural :class:`AliasInfo` views per function."""

    def __init__(self, module: Module,
                 callgraph: CallGraph | None = None) -> None:
        self.module = module
        self.callgraph = callgraph or build_callgraph(module)
        self.summaries: dict[str, FunctionSummary] = {}
        self._alias: dict[str, AliasInfo] = {}
        self._compute()

    def _compute(self) -> None:
        graph = self.callgraph
        for scc in tarjan_sccs(graph):
            recursive = (len(scc) > 1
                         or scc[0] in graph.callees.get(scc[0], ()))
            for name in sorted(scc):
                func = self.module.functions[name]
                if recursive:
                    # In-SCC calls have no summary yet, so each member is
                    # solved with its SCC siblings treated conservatively;
                    # publish only the worst-case summary for callers
                    # *outside* the SCC (a fixpoint would be sounder to
                    # tighten, not to loosen — keep it simple).
                    solver = _Solver(func, self.module,
                                     summaries=self.summaries,
                                     summary_mode=True)
                    solver.solve()
                    self._alias[name] = AliasInfo(solver)
                    self.summaries[name] = _conservative_summary(func)
                else:
                    solver = _Solver(func, self.module,
                                     summaries=self.summaries,
                                     summary_mode=True)
                    solver.solve()
                    self._alias[name] = AliasInfo(solver)
                    self.summaries[name] = _derive_summary(solver)

    # -- queries -------------------------------------------------------

    def alias(self, func: Function) -> AliasInfo:
        """Interprocedural :class:`AliasInfo` for a defined function."""
        info = self._alias.get(func.name)
        if info is None or info.func is not func:
            info = analyze_with_summaries(func, self.module, self.summaries)
            self._alias[func.name] = info
        return info

    def summary(self, func: Function) -> FunctionSummary | None:
        return self.summaries.get(func.name)


def analyze_with_summaries(func: Function, module: Module,
                           summaries: dict[str, FunctionSummary]) -> AliasInfo:
    solver = _Solver(func, module, summaries=summaries, summary_mode=True)
    if not func.is_declaration:
        solver.solve()
    return AliasInfo(solver)


def compute_summaries(module: Module,
                      callgraph: CallGraph | None = None
                      ) -> dict[str, FunctionSummary]:
    """Summary table for every defined function, bottom-up."""
    return ModuleAnalysis(module, callgraph).summaries


def analyze_module(module: Module) -> ModuleAnalysis:
    """One-stop whole-module analysis used by fence placement, the
    delay-set tier and fencecheck."""
    return ModuleAnalysis(module)
