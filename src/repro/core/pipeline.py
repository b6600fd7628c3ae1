"""Lasagne: the end-to-end translation pipeline (Figure 3).

``Lasagne.translate`` drives  binary lifting → IR refinement → fence
placement → optimization → fence merging → Arm code generation  for the
five evaluation configurations of §9.1:

* **native** — mini-C → LIR → O2 → Arm (no translation; the baseline)
* **lifted** — x86 → lift → fence placement → Arm (no re-optimization)
* **opt**    — x86 → lift → placement → O2 → Arm
* **popt**   — opt + the §7 fence-merging rules
* **ppopt**  — x86 → lift → §5 IR refinement → placement → O2 → merging → Arm

One deviation from the paper's §8 ordering is recorded in DESIGN.md: our
lifter materializes registers as memory slots (McSema-style), so adjacent
fence pairs only become visible after optimization; merging therefore runs
post-O2 (it is an IR→IR LIMM transformation, valid anywhere).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from ..profiler import memory as profmem
from ..profiler import workcounters
from ..analysis.summaries import analyze_module
from ..arm.emulator import ArmEmulator
from ..arm.program import ArmProgram
from ..codegen import compile_lir_to_arm
from ..fences import PlacementStats, count_fences, merge_fences, place_fences
from ..lir import Module, clone_module, verify_module
from ..lifter import lift_program
from ..minicc.codegen_x86 import compile_to_x86
from ..minicc.frontend_lir import compile_to_lir
from ..opt import PassStats, optimize_module
from ..refine import module_pointer_casts, run_refinement
from ..x86.objfile import X86Object

CONFIGS = ["native", "lifted", "opt", "popt", "ppopt"]

# Fence-elision tiers for the translated configurations (§8 + delay sets):
# * "walk"       — seed behaviour: syntactic bitcast/gep walk only
# * "escape"     — interprocedural points-to/escape analysis (default)
# * "delay-sets" — escape analysis + Shasha–Snir delay-set elision of
#                  fences covering no critical-cycle edge
# * "sync"       — delay sets refined by must-locksets: conflict edges
#                  between accesses protected by a common pthread mutex
#                  cannot lie on critical cycles
FENCE_ANALYSES = ["walk", "escape", "delay-sets", "sync"]

# Stage names recorded by ``Lasagne(capture_stages=True)``, in pipeline order.
TRANSLATE_STAGES = ["lift", "refine", "place", "opt", "merge"]
NATIVE_STAGES = ["frontend", "opt"]


@contextmanager
def pipeline_stage(name: str, **attrs):
    """One pipeline stage under full observability.

    Opens the telemetry span (as before), brackets the profiler
    work-counter scope so every deterministic tally inside attributes to
    this stage, and — when a :mod:`repro.profiler.memory` accountant is
    installed — records the stage's tracemalloc peak/delta and annotates
    the span with ``mem_peak_bytes`` / ``mem_delta_bytes``.
    """
    with telemetry.span(name, category="stage", **attrs) as sp:
        with workcounters.scope(stage=name):
            with profmem.account(name) as mem:
                yield sp
        if mem is not None:
            sp.annotate(mem_peak_bytes=mem.peak_bytes,
                        mem_delta_bytes=mem.delta_bytes)


def snapshot_module(module: Module) -> Module:
    """An independent deep copy of ``module``.

    Later pipeline stages mutate the module in place; a snapshot taken here
    is immune to that, which is what differential validation needs.  The
    copy is structural (not a printer/parser round-trip) so instruction
    provenance — the x86 ``origins`` carried by every lifted instruction —
    survives into the captured stage modules.
    """
    return clone_module(module)


@dataclass
class TranslationResult:
    config: str
    module: Module
    program: ArmProgram
    fences: int = 0
    fences_naive: int = 0          # fences right after naive placement
    fences_elided: int = 0         # accesses proven thread-local at placement
    fences_elided_beyond_walk: int = 0  # of those, only via escape analysis
    fences_elided_interproc: int = 0    # of those, only via callee summaries
    fences_elided_delayset: int = 0     # fences removed by delay-set tier
    fences_elided_sync: int = 0         # of the elided, via lockset refinement
    placement: Optional[PlacementStats] = None  # translated configs only
    delayset: Optional[object] = None   # DelaySetStats when the tier ran
    pointer_casts_before: int = 0
    pointer_casts_after: int = 0
    pass_stats: Optional[PassStats] = None
    # Per-pass translation-validation report (a repro.analysis.tv.TVReport);
    # populated only under ``Lasagne(tv=True)`` for configs that optimize.
    tv_report: Optional[object] = None
    # Intermediate modules, keyed by stage name (see TRANSLATE_STAGES /
    # NATIVE_STAGES); populated only under ``Lasagne(capture_stages=True)``.
    stages: dict[str, Module] = field(default_factory=dict)
    # The root pipeline span, with one child span per stage; populated
    # only when a repro.telemetry session is active.
    trace: Optional[telemetry.Span] = None

    def stage_seconds(self) -> dict[str, float]:
        """Wall time per pipeline stage, from the telemetry trace."""
        if self.trace is None:
            return {}
        return {
            s.name: s.duration
            for s in self.trace.walk()
            if s.category == "stage" and s.end is not None
        }

    @property
    def arm_instructions(self) -> int:
        return self.program.instruction_count()

    @property
    def lir_instructions(self) -> int:
        return self.module.instruction_count()


@dataclass
class RunResult:
    result: int
    output: list[str]
    cycles: int
    instructions_retired: int


def ingest_binary(data: bytes, entry: str = "main", strict: bool = True):
    """Front-end for real ELF64 executables: run ``repro.loader`` under a
    telemetry span and surface opaque externals as remarks.  The
    :class:`TriageReport` carries the loader's coverage numbers.

    Returns ``(X86Object, TriageReport)``; the object feeds
    :meth:`Lasagne.translate` exactly like a minicc-produced image.
    """
    from ..loader import ingest_elf

    with pipeline_stage("loader", entry=entry):
        obj, report = ingest_elf(data, entry, strict=strict)
    for name, addr in sorted(report.externals_opaque.items()):
        telemetry.remark(
            "loader", "opaque-external",
            f"external at {addr:#x} is not in the catalog; calls become "
            f"conservative opaque calls named {name!r}")
    return obj, report


class Lasagne:
    """End-to-end static binary translator for weak memory architectures."""

    def __init__(self, verify: bool = True, capture_stages: bool = False,
                 fence_analysis: str = "escape", tv: bool = False) -> None:
        if fence_analysis not in FENCE_ANALYSES:
            raise ValueError(f"unknown fence analysis {fence_analysis!r} "
                             f"(choose from {', '.join(FENCE_ANALYSES)})")
        # Translation validation snapshots the module around every pass
        # invocation and checks refinement; it implies IR verification.
        self.verify = verify or tv
        self.capture_stages = capture_stages
        self.fence_analysis = fence_analysis
        self.tv = tv

    def _tv_checker(self):
        if not self.tv:
            return None
        from ..analysis.tv import TVChecker
        return TVChecker()

    def _capture(self, stages: dict[str, Module], name: str, module: Module) -> None:
        if self.capture_stages:
            stages[name] = snapshot_module(module)

    # ---- the five configurations -------------------------------------------
    def native(self, source: str, entry: str = "main") -> TranslationResult:
        stages: dict[str, Module] = {}
        checker = self._tv_checker()
        with telemetry.span("pipeline", category="pipeline",
                            config="native", entry=entry) as root:
            with pipeline_stage("frontend"):
                module = compile_to_lir(source)
                if self.verify:
                    verify_module(module)
            self._capture(stages, "frontend", module)
            with pipeline_stage("opt"):
                stats = optimize_module(module, verify=self.verify, tv=checker)
            self._capture(stages, "opt", module)
            with pipeline_stage("codegen"):
                program = compile_lir_to_arm(module, entry)
        return TranslationResult(
            "native", module, program,
            fences=count_fences(module), pass_stats=stats,
            tv_report=checker.report if checker is not None else None,
            stages=stages,
            trace=root if isinstance(root, telemetry.Span) else None,
        )

    def translate(
        self, obj: X86Object, config: str = "ppopt", entry: str = "main"
    ) -> TranslationResult:
        if config not in ("lifted", "opt", "popt", "ppopt"):
            raise ValueError(f"unknown configuration {config!r}")
        if entry not in obj.functions:
            # A clear triage diagnostic (what was asked for, what the
            # image defines) instead of a KeyError deep in the lifter.
            from ..x86.objfile import EntryError
            raise EntryError(entry, sorted(obj.functions))
        stages: dict[str, Module] = {}
        checker = self._tv_checker() if config != "lifted" else None
        with telemetry.span("pipeline", category="pipeline",
                            config=config, entry=entry) as root:
            with pipeline_stage("lift"):
                module = lift_program(obj)
                if self.verify:
                    verify_module(module)
            self._capture(stages, "lift", module)
            casts_before = module_pointer_casts(module)
            if config == "ppopt":
                with pipeline_stage("refine"):
                    run_refinement(module)
                    if self.verify:
                        verify_module(module)
                self._capture(stages, "refine", module)
            casts_after = module_pointer_casts(module)
            with pipeline_stage("place"):
                # One ModuleAnalysis serves placement and the delay-set
                # tier: inserting fences changes no points-to fact.
                ma = (analyze_module(module)
                      if self.fence_analysis != "walk" else None)
                placement = place_fences(module, use_analysis=ma is not None,
                                         module_analysis=ma)
                fences_naive = count_fences(module)
                delay_stats = None
                if self.fence_analysis in ("delay-sets", "sync"):
                    # Runs while every fence is still adjacent to the
                    # access it protects (before O2 / merging).
                    from ..analysis.delayset import elide_redundant_fences
                    delay_stats = elide_redundant_fences(
                        module, ma, sync=self.fence_analysis == "sync")
                del ma  # it pins the pre-O2 IR; free it before O2
            self._capture(stages, "place", module)
            stats = None
            if config != "lifted":
                with pipeline_stage("opt"):
                    stats = optimize_module(module, verify=self.verify,
                                            tv=checker)
                self._capture(stages, "opt", module)
                if config in ("popt", "ppopt"):
                    with pipeline_stage("merge"):
                        merge_fences(module)
                        stats.extend(optimize_module(
                            module, ["dce"], verify=self.verify,
                            tv=checker))
                    self._capture(stages, "merge", module)
            if self.verify:
                verify_module(module)
            with pipeline_stage("codegen"):
                program = compile_lir_to_arm(module, entry)
        return TranslationResult(
            config, module, program,
            fences=count_fences(module),
            fences_naive=fences_naive,
            fences_elided=placement.total_elided,
            fences_elided_beyond_walk=(placement.skipped_escape
                                       + placement.skipped_interproc),
            fences_elided_interproc=placement.skipped_interproc,
            fences_elided_delayset=(delay_stats.elided
                                    if delay_stats is not None else 0),
            fences_elided_sync=(delay_stats.elided_sync
                                if delay_stats is not None else 0),
            placement=placement,
            delayset=delay_stats,
            pointer_casts_before=casts_before,
            pointer_casts_after=casts_after,
            pass_stats=stats,
            tv_report=checker.report if checker is not None else None,
            stages=stages,
            trace=root if isinstance(root, telemetry.Span) else None,
        )

    # ---- convenience -------------------------------------------------------
    def build(self, source: str, config: str, entry: str = "main") -> TranslationResult:
        """Compile mini-C source and produce the given configuration."""
        if config == "native":
            return self.native(source, entry)
        obj = compile_to_x86(source, entry)
        return self.translate(obj, config, entry)

    @staticmethod
    def run(result: TranslationResult, entry: Optional[str] = None,
            args: Optional[list[int]] = None) -> RunResult:
        emu = ArmEmulator(result.program)
        with telemetry.span("run:arm", category="emu", config=result.config):
            value = emu.run(entry, args)
        return RunResult(
            result=value,
            output=emu.output,
            cycles=sum(t.cycles for t in emu.threads),
            instructions_retired=sum(t.instret for t in emu.threads),
        )
