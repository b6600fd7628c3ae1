"""Pass manager: named passes, standard pipelines, per-pass statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .. import telemetry
from ..lir import Function, Module, verify_module
from ..lir.clone import clone_module
from ..profiler.workcounters import scope as work_scope, work
from .dce import run_adce, run_dce
from .dse import run_dse
from .gvn import run_gvn
from .inline import run_inline
from .instcombine import run_instcombine
from .licm import run_licm
from .mem2reg import run_mem2reg
from .reassociate import run_reassociate
from .sccp import run_ipsccp, run_sccp
from .simplifycfg import run_simplifycfg
from .sroa import run_sroa
from .unroll import run_unroll

FUNCTION_PASSES: dict[str, Callable[[Function], bool]] = {
    "mem2reg": run_mem2reg,
    "sroa": run_sroa,
    "instcombine": run_instcombine,
    "reassociate": run_reassociate,
    "gvn": run_gvn,
    "sccp": run_sccp,
    "licm": run_licm,
    "dse": run_dse,
    "dce": run_dce,
    "adce": run_adce,
    "simplifycfg": run_simplifycfg,
    "unroll": run_unroll,
}

MODULE_PASSES: dict[str, Callable[[Module], bool]] = {
    "ipsccp": run_ipsccp,
    "inline": run_inline,
}

# The default -O2-flavoured pipeline (iterated to a fixpoint by run_pipeline).
# sroa is deliberately not part of the default pipeline: splitting the
# lifted byte-array stack frame into scalars goes beyond what the paper's
# LLVM did on mctoll output; it is available separately as an ablation
# (see benchmarks/test_ablations.py).
STANDARD_PIPELINE = [
    "simplifycfg",
    "mem2reg",
    "instcombine",
    "reassociate",
    "sccp",
    "simplifycfg",
    "gvn",
    "instcombine",
    "licm",
    "dse",
    "adce",
    "ipsccp",
    "dce",
    "simplifycfg",
]


class PassRecord(NamedTuple):
    """One executed pass: instruction counts, fixpoint iteration, outcome."""

    name: str
    before: int
    after: int
    iteration: int = 0
    changed: bool = False


@dataclass
class PassStats:
    """Instruction counts around each executed pass, per fixpoint iteration."""

    records: list[PassRecord] = field(default_factory=list)
    iterations: int = 0

    def add(self, name: str, before: int, after: int,
            iteration: int = 0, changed: bool = False) -> None:
        self.records.append(PassRecord(name, before, after, iteration, changed))
        if iteration + 1 > self.iterations:
            self.iterations = iteration + 1

    def extend(self, other: "PassStats") -> None:
        """Append a later run's records, continuing the iteration
        numbering after this run's last iteration."""
        offset = self.iterations
        for rec in other.records:
            self.add(rec.name, rec.before, rec.after,
                     offset + rec.iteration, rec.changed)

    def reduction_by_pass(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.name] = out.get(rec.name, 0) + (rec.before - rec.after)
        return out

    def reduction_by_iteration(self) -> dict[int, int]:
        """Instructions removed per fixpoint iteration."""
        out: dict[int, int] = {}
        for rec in self.records:
            out[rec.iteration] = out.get(rec.iteration, 0) + (rec.before - rec.after)
        return out

    def by_iteration(self) -> dict[int, list[PassRecord]]:
        out: dict[int, list[PassRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.iteration, []).append(rec)
        return out

    def changed_passes(self, iteration: int | None = None) -> list[str]:
        """Names of passes that reported a change (optionally one iteration)."""
        return [
            rec.name for rec in self.records
            if rec.changed and (iteration is None or rec.iteration == iteration)
        ]


class PassManager:
    def __init__(self, verify: bool = False, tv=None) -> None:
        """``tv`` is an optional translation validator (an object with
        ``check_pass(before, after, name, iteration)``, i.e. a
        :class:`repro.analysis.tv.TVChecker`).  When set, every pass
        invocation is snapshotted and checked for refinement; TV also
        implies post-pass IR verification, since a structurally broken
        module would produce meaningless verdicts."""
        self.verify = verify or tv is not None
        self.tv = tv
        self.stats = PassStats()

    def run_pass(self, module: Module, name: str, iteration: int = 0) -> bool:
        before = module.instruction_count()
        snapshot = clone_module(module) if self.tv is not None else None
        with telemetry.span(name, category="pass", iteration=iteration), \
                work_scope(stage=name):
            if name in MODULE_PASSES:
                # A module pass visits (at least) every instruction once.
                work("opt.visits", before)
                changed = MODULE_PASSES[name](module)
            elif name in FUNCTION_PASSES:
                changed = False
                for func in module.functions.values():
                    if not func.is_declaration:
                        with work_scope(function=func.name):
                            work("opt.visits", func.instruction_count())
                            changed |= FUNCTION_PASSES[name](func)
            else:
                raise KeyError(f"unknown pass {name!r}")
        after = module.instruction_count()
        self.stats.add(name, before, after, iteration, changed)
        if changed:
            if telemetry.remarks_enabled():
                telemetry.remark(
                    f"opt.{name}", "changed",
                    f"iteration {iteration}: changed module, "
                    f"{before} -> {after} instructions",
                    iteration=iteration, before=before, after=after)
        if self.verify:
            verify_module(module)
        if self.tv is not None:
            with telemetry.span("tv", category="tv", pass_name=name), \
                    work_scope(stage="tv"):
                self.tv.check_pass(snapshot, module, name, iteration)
        return changed

    def run_pipeline(
        self,
        module: Module,
        pipeline: list[str] | None = None,
        max_iterations: int = 3,
    ) -> PassStats:
        names = pipeline if pipeline is not None else STANDARD_PIPELINE
        for iteration in range(max_iterations):
            changed = False
            with telemetry.span(f"opt-iteration-{iteration}",
                                category="opt-iteration"):
                work("opt.iterations")
                for name in names:
                    changed |= self.run_pass(module, name, iteration)
            if not changed:
                break
        return self.stats


def optimize_module(
    module: Module,
    pipeline: list[str] | None = None,
    verify: bool = False,
    max_iterations: int = 3,
    tv=None,
) -> PassStats:
    pm = PassManager(verify=verify, tv=tv)
    return pm.run_pipeline(module, pipeline, max_iterations)
