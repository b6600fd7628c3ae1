"""Workloads, timed passes, output checks and the benchmark's metrics.

Everything here drives the translator through its public Python API with
the CLI defaults (``verify=True``): ``Lasagne``, ``ingest_binary``,
``ArmEmulator``, ``X86Emulator`` and ``repro.validate.run_oracle``.  One
client runs one operation at a time (a closed loop, no threads); a pass
is one sweep over the workload's operation list.

Timed passes run with no profiler, sampler, work-counter collection,
ledger or telemetry session.  The traced run (``trace=True``) alternates
plain passes with passes under :class:`layers.Tracer` and
``workcounters.collect()`` to attribute the time to layers.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.arm.emulator import ArmEmulator
from repro.core import pipeline
from repro.minicc import codegen_x86
from repro.phoenix import SIZE_TINY, all_programs
from repro.profiler import workcounters
from repro.validate import GenConfig, OracleOptions, generate_program, oracle
from repro.x86.emulator import X86Emulator

import layers

ROOT = Path(__file__).resolve().parents[1]
#: Where a traced run writes its spans.
SPAN_DIR = ROOT / ".perfbench"
CONFIGS = ("native", "lifted", "opt", "popt", "ppopt")
TRANSLATED = CONFIGS[1:]
PHOENIX = ("histogram", "kmeans", "linear_regression", "matrix_multiply",
           "string_match", "word_count")
EXAMPLES = ("demo", "locked")
ELF_FIXTURES = ("sum", "strings", "memgrid")
# In lifted, opt and popt, TOP locations make delay sets dominate the
# builds of histogram and matrix_multiply (1.5-2 s each); demo and locked
# stay cheap.  Six heavy builds a pass put op_tail_s among them; sync makes
# three passes, as its long builds are the hardest to time steadily.  Left
# out for length: string_match (~10 s per opt build), linear_regression
# and word_count (~14 s), kmeans (~225 s).
SYNC_PROGRAMS = ("histogram", "matrix_multiply", "demo", "locked")
FUZZ_COUNT = 8
SETUP_REPEATS = 3
TRACED_PASSES = 2
#: An operation that takes the tail percentile needs this many slower ones.
TAIL_BEYOND = 10
#: What probe() takes on the baseline's machine (a 2-core x86-64 VM).  It
#: only sets the scale of the host-normalized times.
PROBE_REFERENCE_S = 0.005


class BenchmarkError(Exception):
    """An output check failed in a way no median may hide."""


# ---- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation: a build of ``program`` in ``config`` (``elf`` builds
    ingest a gcc binary first), or an oracle run (``config == "oracle"``)."""

    program: str
    config: str
    elf: bool = False

    @property
    def label(self) -> str:
        return f"{self.program}/{self.config}"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]          # empty for fuzz: generated from the seed
    lasagne: dict = field(default_factory=dict)   # Lasagne(**lasagne)
    #: Program seeds of a fixed oracle step at the end of the traced run,
    #: so the oracle and the LIR interpreter are measured without fuzz.
    oracle_seeds: tuple[int, ...] = ()
    #: Timed passes a run makes at least.
    min_passes: int = 2


def _builds(programs, configs) -> tuple[Op, ...]:
    return tuple(Op(p, c) for p in programs for c in configs)


# Why each workload (README.md has the full reasons):
# * translate -- the everyday path; lift, place, opt, codegen and the
#   loader do the work, delay sets and tv none.
# * sync -- delay sets dominate the lifted/opt/popt builds (TOP locations)
#   and are cheap on ppopt (typed pointers): the layer used heavily and
#   lightly.
# * tv -- per-pass refinement checks and module snapshots dominate.
# * fuzz -- seeded programs through the co-simulation oracle; the only
#   inputs that vary with the seed.
WORKLOADS = {
    "translate": Workload(
        "translate",
        _builds(PHOENIX + EXAMPLES, CONFIGS)
        + tuple(Op(f, c, elf=True) for f in ELF_FIXTURES for c in TRANSLATED),
        oracle_seeds=(0, 1)),
    "sync": Workload("sync", _builds(SYNC_PROGRAMS, TRANSLATED),
                     {"fence_analysis": "sync"}, min_passes=3),
    "tv": Workload("tv", _builds(PHOENIX + EXAMPLES, ("native", "opt", "ppopt")),
                   {"tv": True}),
    "fuzz": Workload("fuzz", ()),
}

#: End-to-end metrics and units, per workload kind.
BUILD_METRICS = {
    "setup_s": "s", "translate_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MiB", "cycles_vs_native": "ratio", "fences": "count",
    "arm_instructions": "count",
}
FUZZ_METRICS = {"setup_s": "s", "validate_s": "s", "op_tail_s": "s",
                "peak_rss_mb": "MiB"}

#: Per-layer metrics, in report order (units: s for ``*_s``, else count
#: or ratio).
LAYER_COUNTS = {
    # work counters -> metric
    "pointsto.transfers": "analysis.pointsto.transfers",
    "pointsto.rounds": "analysis.pointsto.rounds",
    "delayset.candidates": "analysis.delayset.candidates",
    "delayset.cycle_steps": "analysis.delayset.cycle_steps",
    "tv.checks": "analysis.tv.checks",
    "tv.terms": "analysis.tv.terms",
    "opt.visits": "opt.visits",
    "opt.iterations": "opt.iterations",
    "codegen.instructions": "codegen.instructions",
    "codegen.intervals": "codegen.intervals",
}
RESULT_COUNTS = (
    "fences.naive", "fences.elided", "refine.casts_removed",
    "analysis.delayset.elided", "analysis.delayset.elided_sync",
    "analysis.delayset.kept_all", "opt.instructions_removed",
    "analysis.tv.proved_checked", "analysis.tv.proved_unchanged",
    "analysis.tv.unknown",
)
HOOK_COUNTS = ("loader.functions", "lifter.lir_instructions", "fences.merged",
               "arm.instret", "arm.cycles", "x86.instret", "validate.rungs")
RATIOS = ("analysis.delayset.elided_per_candidate", "analysis.tv.checked_frac",
          "trace.attributed_frac")


def layer_metric_units() -> dict[str, str]:
    units = {f"{layer}_s": "s" for layer in layers.LAYERS}
    units.update({name: "count" for name in LAYER_COUNTS.values()})
    units.update({name: "count" for name in RESULT_COUNTS + HOOK_COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


# ---- set-up ------------------------------------------------------------------

@dataclass
class Inputs:
    ops: list[Op]
    sources: dict[str, str]                 # mini-C source per program
    images: dict[str, object]               # compile_to_x86 per program
    elf: dict[str, bytes]                   # gcc binaries, read from disk
    native: dict[str, object]               # untimed native reference
                                            # builds' Arm programs


def _sources() -> dict[str, str]:
    out = {p.name: p.source
           for p in all_programs(SIZE_TINY, include_extensions=True)}
    for name in EXAMPLES:
        out[name] = (ROOT / "examples" / f"{name}.c").read_text()
    return out


def fuzz_seeds(seed: int) -> list[int]:
    """FUZZ_COUNT program seeds per workload seed, disjoint between them."""
    return [seed * FUZZ_COUNT + i for i in range(FUZZ_COUNT)]


def fuzz_sources(seeds) -> dict[str, str]:
    return {f"fuzz{s}": generate_program(s, GenConfig(threads=True))
            for s in seeds}


def prepare(workload: Workload, seed: int) -> Inputs:
    """Build every input of one run.  Only the fuzz workload reads ``seed``."""
    if workload.name == "fuzz":
        sources = fuzz_sources(fuzz_seeds(seed))
        ops = [Op(name, "oracle") for name in sources]
        return Inputs(ops, sources, {}, {}, {})
    ops = list(workload.ops)
    wanted = {op.program for op in ops if not op.elf}
    sources = {k: v for k, v in _sources().items() if k in wanted}
    images = {name: codegen_x86.compile_to_x86(src)
              for name, src in sources.items()}
    elf = {op.program: (ROOT / "examples" / "elf" / op.program).read_bytes()
           for op in ops if op.elf}
    has_native = {op.program for op in ops if op.config == "native"}
    reference = pipeline.Lasagne()
    native = {name: reference.native(src).program
              for name, src in sources.items() if name not in has_native}
    return Inputs(ops, sources, images, elf, native)


# ---- one pass ----------------------------------------------------------------

def run_op(op: Op, inputs: Inputs, lasagne):
    if op.config == "oracle":
        return oracle.run_oracle(inputs.sources[op.program], OracleOptions())
    if op.elf:
        obj, _report = pipeline.ingest_binary(inputs.elf[op.program])
        return lasagne.translate(obj, op.config)
    if op.config == "native":
        return lasagne.native(inputs.sources[op.program])
    return lasagne.translate(inputs.images[op.program], op.config)


@dataclass
class Pass:
    wall: float                             # sum of the operations' times
    op_seconds: list[float]                 # wall time per operation
    op_normalized: list[float]              # the same at reference host speed
    summaries: list[dict]                   # summarize() per operation


class _Node:
    __slots__ = ("prev", "value", "key")

    def __init__(self, prev, value, key) -> None:
        self.prev, self.value, self.key = prev, value, key


def probe() -> float:
    """Seconds a fixed pure-Python job takes now.  Like the translator, it
    allocates objects, reads attributes, fills dicts and sorts; it calls
    no code of the translator, so only the host's speed moves it.  On a
    shared host, that speed changes by up to 2x within seconds."""
    t0 = perf_counter()
    groups: dict[str, list] = {}
    node = None
    for i in range(6000):
        node = _Node(node, i, f"k{i % 97}")
        groups.setdefault(node.key, []).append(node)
    sorted(groups.values(), key=len)
    return perf_counter() - t0


def run_pass(inputs: Inputs, lasagne, tracer=None, check=None) -> Pass:
    """One sweep over the operation list.  Only the operations are timed;
    each outcome is summarized, handed to ``check`` and dropped between
    them, and the cycle collector runs before each, so no operation pays
    for the garbage of the one before it (as with one ``repro translate``
    per process).  A probe() before each operation and one after the last
    give the host's speed; an operation's time, scaled by the mean of the
    probes on either side, is its normalized time."""
    seconds, probes, summaries = [], [], []
    for i, op in enumerate(inputs.ops):
        gc.collect()
        probes.append(probe())
        t0 = perf_counter()
        if tracer is None:
            outcome = run_op(op, inputs, lasagne)
        else:
            with tracer.op(op.label):
                outcome = run_op(op, inputs, lasagne)
        seconds.append(perf_counter() - t0)
        summaries.append(summarize(outcome))
        if check is not None:
            check(i, op, outcome)
        del outcome
    gc.collect()
    probes.append(probe())
    normalized = [t * 2 * PROBE_REFERENCE_S / (before + after)
                  for t, before, after in zip(seconds, probes, probes[1:])]
    return Pass(sum(seconds), seconds, normalized, summaries)


def warm_up(inputs: Inputs, lasagne) -> float:
    """Run one operation of each kind (configuration, source or ELF) once,
    untimed, so that what the translator builds on first use in a process
    (the first opt build is ~0.2 s slower) is not in pass 1.  It takes the
    last of each kind, a small program in every build list here.  Returns
    the seconds it took."""
    start = perf_counter()
    seen = set()
    for op in reversed(inputs.ops):
        if (op.config, op.elf) not in seen:
            seen.add((op.config, op.elf))
            run_op(op, inputs, lasagne)
    return perf_counter() - start


def summarize(outcome) -> dict:
    """The deterministic facts of one outcome; they must repeat exactly in
    every pass of a run."""
    if isinstance(outcome, oracle.Verdict):
        return {"ok": outcome.ok, "signature": outcome.signature,
                "rungs": len(outcome.rungs),
                "retired": [r.retired for r in outcome.rungs]}
    program = outcome.program
    summary = {
        "digest": hashlib.sha256(program.dump().encode()).hexdigest(),
        "fences": program.fence_count(),
        "arm_instructions": program.instruction_count(),
        "fences.naive": outcome.fences_naive,
        "fences.elided": outcome.fences_elided,
        "refine.casts_removed": (outcome.pointer_casts_before
                                 - outcome.pointer_casts_after),
        "analysis.delayset.elided": outcome.fences_elided_delayset,
        "analysis.delayset.elided_sync": outcome.fences_elided_sync,
        "analysis.delayset.kept_all": int(bool(
            outcome.delayset is not None and outcome.delayset.kept_all)),
        "opt.instructions_removed": sum(
            r.before - r.after for r in outcome.pass_stats.records)
        if outcome.pass_stats is not None else 0,
        "tv_refuted": 0,
    }
    report = outcome.tv_report
    if report is not None:
        verdicts = report.verdicts
        summary.update({
            "analysis.tv.proved_checked": sum(
                v.verdict == "proved" and v.reason == "checked"
                for v in verdicts),
            "analysis.tv.proved_unchanged": sum(
                v.verdict == "proved" and v.reason == "unchanged"
                for v in verdicts),
            "analysis.tv.unknown": report.unknown,
            "tv_changed": sum(v.reason != "unchanged" for v in verdicts),
            "tv_refuted": report.refuted,
        })
    return summary


def check_repeats(ops: list[Op], passes: list[list[dict]]) -> None:
    """Raise unless every pass produced identical deterministic facts."""
    first = passes[0]
    for n, other in enumerate(passes[1:], start=2):
        for op, a, b in zip(ops, first, other):
            if a != b:
                diff = sorted(k for k in a if a.get(k) != b.get(k))
                raise BenchmarkError(
                    f"{op.label}: pass {n} differs from pass 1 in {diff}")


# ---- output checks and code quality (untimed) --------------------------------

def _emulate(program) -> tuple[int, list[str], int]:
    emu = ArmEmulator(program)
    value = emu.run()
    out = value, emu.output, emu.total_cycles
    # An emulator's memory image is freed only by the cycle collector;
    # collect now so emulated runs do not pile up in peak_rss_mb.
    del emu
    gc.collect()
    return out


class OutputChecks:
    """The output checks of one pass, called on each outcome as soon as
    it is made (untimed), so that no pass holds the builds.  A build runs
    on the Arm emulator; its result and printed output must equal an x86
    run of the same image.  An oracle verdict must be ok."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.failed_ops: set[int] = set()       # op indices with wrong output
        self.cycles: dict[int, int] = {}        # op index -> Arm cycles
        self.native_cycles = {name: _emulate(program)[2]
                              for name, program in inputs.native.items()}
        self.problems: list[str] = []
        self._reference: dict[str, tuple[int, list[str]]] = {}

    def _expected(self, op: Op) -> tuple[int, list[str]]:
        if op.program not in self._reference:
            if op.elf:
                image, _ = pipeline.ingest_binary(self.inputs.elf[op.program])
            else:
                image = self.inputs.images[op.program]
            emu = X86Emulator(image)
            self._reference[op.program] = (emu.run("main"), emu.output)
            del emu
            gc.collect()
        return self._reference[op.program]

    def __call__(self, i: int, op: Op, outcome) -> None:
        if isinstance(outcome, oracle.Verdict):
            if not outcome.ok:
                self.failed_ops.add(i)
                self.problems.append(f"{op.label}: {outcome.signature}")
            return
        value, output, cycles = _emulate(outcome.program)
        self.cycles[i] = cycles
        if op.config == "native":
            self.native_cycles[op.program] = cycles
        want = self._expected(op)
        if (value, output) != want:
            self.failed_ops.add(i)
            self.problems.append(
                f"{op.label}: result {value} output {output[:3]} "
                f"!= x86 {want[0]} {want[1][:3]}")


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(inputs: Inputs, summaries: list[dict],
            checked: OutputChecks) -> dict:
    """Fig. 12/14/16 figures of one pass: gmean cycles over native, Arm
    fences and instructions -- overall and per configuration."""
    ratios: dict[str, list[float]] = {}
    fences: dict[str, int] = {}
    for i, (op, s) in enumerate(zip(inputs.ops, summaries)):
        fences[op.config] = fences.get(op.config, 0) + s["fences"]
        if op.config != "native" and not op.elf:
            ratios.setdefault(op.config, []).append(
                checked.cycles[i] / checked.native_cycles[op.program])
    every = [r for rs in ratios.values() for r in rs]
    return {
        "cycles_vs_native": geomean(every),
        "fences": sum(s["fences"] for s in summaries),
        "arm_instructions": sum(s["arm_instructions"] for s in summaries),
        "per_config": {c: {"cycles_vs_native": geomean(ratios[c]),
                           "fences": fences[c]}
                       for c in TRANSLATED if c in ratios},
    }


def shape_flags(per_config: dict) -> list[str]:
    """Where the paper's orderings break (Figs. 12 and 14)."""
    flags = []
    if {"lifted", "opt", "popt", "ppopt"} <= set(per_config):
        cyc = {c: per_config[c]["cycles_vs_native"] for c in per_config}
        if not cyc["ppopt"] < cyc["popt"] <= cyc["opt"] < cyc["lifted"]:
            flags.append("cycles: expected ppopt < popt <= opt < lifted")
    if {"opt", "popt", "ppopt"} <= set(per_config):
        fen = {c: per_config[c]["fences"] for c in per_config}
        if not fen["ppopt"] < fen["popt"] < fen["opt"]:
            flags.append("fences: expected ppopt < popt < opt")
    return flags


# ---- statistics --------------------------------------------------------------

def tail(samples: list[float], guaranteed: int) -> tuple[float, float, int]:
    """``(value, percentile, sample count)`` at the highest percentile that
    leaves at least TAIL_BEYOND samples beyond it in a run with only the
    ``guaranteed`` number of samples.  Fixing the percentile that way keeps
    it the same whether a run fits in more passes or fewer.  With too few
    samples for that, the median."""
    ordered = sorted(samples)
    n = len(ordered)
    guaranteed = min(guaranteed, n)
    if guaranteed <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    fraction = (guaranteed - TAIL_BEYOND) / guaranteed
    return ordered[math.ceil(fraction * n) - 1], 100.0 * fraction, n


def typical_pass(passes: list[Pass], normalized: bool = True) -> float:
    """The time of a typical pass: each operation's median over the
    passes, summed.  A burst of outside load slows a few operations of one
    pass, and the per-operation median drops them."""
    return sum(statistics.median(times) for times in zip(
        *(p.op_normalized if normalized else p.op_seconds for p in passes)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- a whole run ---------------------------------------------------------------

@dataclass
class Report:
    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    notes: list[str]


def timed_setup(workload: Workload, seed: int,
                import_s: float) -> tuple[Inputs, float]:
    """Set up SETUP_REPEATS times; returns the inputs and the imports plus
    the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = prepare(workload, seed)
        times.append(perf_counter() - t0)
    return inputs, import_s + statistics.median(times)


def run(workload_name: str, seed: int, seconds: float, trace: bool = False,
        import_s: float = 0.0) -> Report:
    """One run: set-up, warm-up, then timed passes for ``seconds`` (at
    least the workload's min_passes), the first with the output checks.
    The warm-up time counts in ``setup_s``, which spans process start to
    the first timed operation, normalized by the probes around it."""
    workload = WORKLOADS[workload_name]
    host = probe()
    inputs, setup_s = timed_setup(workload, seed, import_s)
    lasagne = pipeline.Lasagne(**workload.lasagne)
    setup_s += warm_up(inputs, lasagne)
    setup_s *= 2 * PROBE_REFERENCE_S / (host + probe())
    if trace:
        return _traced(workload, seed, inputs, lasagne)

    checked = OutputChecks(inputs)
    passes: list[Pass] = []
    start = perf_counter()
    while (len(passes) < workload.min_passes or perf_counter() - start
           + statistics.median(p.wall for p in passes) <= seconds):
        passes.append(run_pass(inputs, lasagne,
                               check=None if passes else checked))
    summaries = [p.summaries for p in passes]
    check_repeats(inputs.ops, summaries)
    failed = _failed(summaries, checked)
    attempted = len(passes) * len(inputs.ops)

    pass_s = typical_pass(passes)
    op_tail, pct, samples = tail([t for p in passes for t in p.op_normalized],
                                 workload.min_passes * len(inputs.ops))
    notes = [f"passes {len(passes)}, operations per pass {len(inputs.ops)}",
             f"typical pass {pass_s:.3f} s host-normalized, "
             f"{typical_pass(passes, normalized=False):.3f} s wall",
             f"op_tail_s is p{pct:.1f} of {samples} operations",
             f"fail_rate {failed / attempted:.4f} ({failed} of {attempted})"]
    notes += checked.problems
    if workload.name == "fuzz":
        metrics = {"setup_s": setup_s, "validate_s": pass_s,
                   "op_tail_s": op_tail, "peak_rss_mb": peak_rss_mb()}
        units = FUZZ_METRICS
    else:
        q = quality(inputs, summaries[0], checked)
        metrics = {"setup_s": setup_s, "translate_s": pass_s,
                   "op_tail_s": op_tail, "peak_rss_mb": peak_rss_mb(),
                   "cycles_vs_native": q["cycles_vs_native"],
                   "fences": q["fences"],
                   "arm_instructions": q["arm_instructions"]}
        units = BUILD_METRICS
        for config, row in q["per_config"].items():
            notes.append(f"{config:7s} cycles_vs_native "
                         f"{row['cycles_vs_native']:.4f} fences {row['fences']}")
        notes += [f"PAPER-SHAPE FLAG {f}" for f in shape_flags(q["per_config"])]
    return Report(workload.name,
                  {k: (float(metrics[k]), units[k]) for k in units},
                  attempted, failed, failed == 0, notes)


def _failed(summaries: list[list[dict]], checked: OutputChecks) -> int:
    """Failed operations over all passes: a wrong output (the passes built
    identical code, so a wrong first-pass build fails in every pass) or a
    refuted tv verdict."""
    return sum(i in checked.failed_ops or s.get("tv_refuted", 0) > 0
               for ps in summaries for i, s in enumerate(ps))


#: The traced run's one-off phases and the layers whose work in them is
#: reported, added once to the per-pass average: the set-up's compiles,
#: the output checks' emulator runs, the oracle step's own time and
#: interpreter runs.  Other layers' work in these phases is left out.
ONCE_LAYERS = {"setup": {"minicc.compile"},
               "check": {"arm.run", "x86.run"},
               "oracle": {"validate.oracle", "lir.interp"}}


def _traced(workload: Workload, seed: int, inputs: Inputs, lasagne) -> Report:
    """A plain pass that makes the output checks, traced; then
    TRACED_PASSES plain passes, each followed by a pass under the tracer
    and the work counters; last, traced, the set-up and the workload's
    oracle step.  The checks stay out of the passes that
    trace.overhead_s compares."""
    tracer = layers.Tracer(workload.name)
    tracer.phase = "check"
    with tracer.installed():
        checked = OutputChecks(inputs)

    def traced_check(i: int, op: Op, outcome) -> None:
        tracer.phase = "check"
        with tracer.installed():
            checked(i, op, outcome)

    plain: list[Pass] = []
    traced: list[Pass] = []
    digests: list[str] = []
    work: dict[str, int] = {}
    checks_pass = run_pass(inputs, lasagne, check=traced_check)
    for n in range(TRACED_PASSES):
        plain.append(run_pass(inputs, lasagne))
        tracer.phase = f"pass{n + 1}"
        with tracer.installed(), workcounters.collect() as wc:
            traced.append(run_pass(inputs, lasagne, tracer))
        digests.append(wc.digest())
        work = wc.by_counter()
    with tracer.installed():
        tracer.phase = "setup"
        prepare(workload, seed)
        tracer.phase = "oracle"
        verdicts = [oracle.run_oracle(src, OracleOptions())
                    for src in fuzz_sources(workload.oracle_seeds).values()]
    summaries = [p.summaries for p in traced]
    check_repeats(inputs.ops, [p.summaries for p in [checks_pass] + plain]
                  + summaries)
    if len(set(digests)) != 1:
        raise BenchmarkError(f"work-counter digest differs between traced "
                             f"passes: {digests}")
    span_path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.dump(span_path)

    pass_phases = {f"pass{n + 1}" for n in range(TRACED_PASSES)}

    def weight(phase: str, layer: str) -> float:
        if phase in pass_phases:
            return 1.0 / TRACED_PASSES
        return 1.0 if layer in ONCE_LAYERS.get(phase, ()) else 0.0

    metrics: dict[str, float] = {f"{layer}_s": 0.0 for layer in layers.LAYERS}
    for span in tracer.spans:
        if span.name != layers.ROOT_SPAN:
            metrics[f"{span.name}_s"] += (span.self_time
                                          * weight(span.phase, span.name))
    for counter, name in LAYER_COUNTS.items():
        metrics[name] = work.get(counter, 0)
    first = summaries[0]
    for name in RESULT_COUNTS:
        metrics[name] = sum(s.get(name, 0) for s in first)
    for name in HOOK_COUNTS:
        metrics[name] = 0.0
    for (phase, layer), bucket in tracer.counts.items():
        for name, n in bucket.items():
            metrics[name] += n * weight(phase, layer)
    candidates = metrics["analysis.delayset.candidates"]
    metrics["analysis.delayset.elided_per_candidate"] = (
        metrics["analysis.delayset.elided"] / candidates if candidates else 0.0)
    changed = sum(s.get("tv_changed", 0) for s in first)
    metrics["analysis.tv.checked_frac"] = (
        metrics["analysis.tv.proved_checked"] / changed if changed else 0.0)
    per_pass = tracer.self_seconds(pass_phases)
    attributed = sum(v for k, v in per_pass.items() if k != layers.ROOT_SPAN)
    total = sum(p.wall for p in traced)
    metrics["trace.attributed_frac"] = attributed / total
    plain_s, traced_s = typical_pass(plain), typical_pass(traced)
    metrics["trace.overhead_s"] = traced_s - plain_s

    notes = [f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s, "
             f"overhead {traced_s - plain_s:+.3f} s (host-normalized, "
             f"per-operation medians over {TRACED_PASSES} alternating "
             f"passes each)",
             f"spans written to {span_path}"]
    notes += reason_checks(workload.name, tracer, pass_phases, per_pass, total)
    notes += checked.problems
    failed = _failed(summaries, checked)
    for src_seed, verdict in zip(workload.oracle_seeds, verdicts):
        notes.append(f"oracle step, program seed {src_seed}: "
                     f"{'ok' if verdict.ok else verdict.signature}")
        failed += not verdict.ok
    attempted = TRACED_PASSES * len(inputs.ops) + len(verdicts)
    units = layer_metric_units()
    return Report(workload.name,
                  {k: (float(metrics[k]), units[k]) for k in units},
                  attempted, failed, failed == 0, notes)


def reason_checks(workload: str, tracer, pass_phases: set[str],
                  per_pass: dict[str, float], total: float) -> list[str]:
    """Does the traced run show what the workload was chosen for?"""
    out = []

    def verdict(ok: bool, text: str) -> None:
        out.append(f"{'ok  ' if ok else 'FLAG'} {text}")

    share = {k: v / total for k, v in per_pass.items()}
    attributed = 1.0 - share.get(layers.ROOT_SPAN, 0.0)
    verdict(attributed >= 0.9,
            f"named layers cover {attributed:.1%} of traced pass time (>= 90%)")
    if workload == "translate":
        verdict(per_pass.get("analysis.delayset", 0.0) == 0.0,
                "analysis.delayset_s is zero on translate")
    elif workload == "sync":
        opt_spans = [s for s in tracer.spans
                     if s.phase in pass_phases and s.build.endswith("/opt")]
        build = sum(s.duration for s in opt_spans if s.name == layers.ROOT_SPAN)
        ds = sum(s.self_time for s in opt_spans
                 if s.name == "analysis.delayset")
        verdict(ds > 0.5 * build,
                f"analysis.delayset_s is {ds / build:.1%} of sync/opt build "
                f"time (> 50%)")
    elif workload == "tv":
        tv = share.get("analysis.tv.check", 0.0) + share.get("lir.clone", 0.0)
        verdict(tv > 0.5, f"analysis.tv.check_s + lir.clone_s are {tv:.1%} "
                          f"of pass time (> 50%)")
    elif workload == "fuzz":
        emu = sum(share.get(k, 0.0) for k in ("arm.run", "x86.run",
                                              "lir.interp"))
        verdict(emu > 0.5, f"emulators + interpreter are {emu:.1%} of pass "
                           f"time (> 50%)")
    top = sorted(per_pass.items(), key=lambda kv: -kv[1])[:8]
    out.append("top self time per pass: " + ", ".join(
        f"{k} {v / len(pass_phases):.3f}s" for k, v in top))
    return out
