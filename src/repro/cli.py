"""Command-line interface: ``python -m repro <command>``.

Commands
--------
translate   compile mini-C to x86, translate to Arm, optionally run both
lift        show the lifted (optionally refined) LIR of a mini-C program
evaluate    run the Phoenix evaluation and print the §9 tables
litmus      enumerate outcomes of a named litmus test under a model
validate    fuzz-driven differential validation of the whole pipeline
tv          per-pass translation validation: prove each optimization
            pass invocation refines its input (exit 1 on refuted)
analyze     static analysis: escape/alias report, LIMM fencecheck linter
explain     instruction provenance: fence blame, x86/LIR/Arm map, coverage
stats       per-stage / per-pass telemetry breakdown for one program
profile     sampling profiler + deterministic work counters + memory
bench       write the BENCH_translate.json perf baseline; ``--compare``
            gates against the trajectory (exit 3 on regression)
warehouse   the run store (``.repro/warehouse.sqlite``): ``ingest``
            refreshes it from the bench trajectory, ``runs`` lists runs
diff        ranked deltas between two warehouse runs (time with a
            noise/work-change verdict, work cells, fence tiers, passes,
            flamegraph frames); exit 2 on unresolvable runs
dash        render the warehouse to one self-contained HTML dashboard
ledger      show run-ledger activity; ``--gc`` keeps the newest entries

``translate``, ``tv``, ``evaluate`` and ``validate`` accept ``--trace FILE``
(Chrome trace-event JSON, loadable in https://ui.perfetto.dev) and
``--remarks[=FILTER]`` (LLVM ``-Rpass``-style optimization remarks,
optionally filtered by a regex over the remark origin).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path


def _read_source(path: str) -> str | None:
    """Read a source file; on failure print a clean error (no traceback)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"repro: cannot read {path!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return None


def _read_bytes(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"repro: cannot read {path!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return None


def _load_input(path: str, entry: str = "main"):
    """Sniff and load a translation input.

    Returns ``(source, obj)``: for mini-C text, the source string and its
    minicc-compiled image; for a real ELF64 binary, ``source is None``
    and the object comes from ``repro.loader``.  ``(None, None)`` means
    the input could not be loaded (a clean error was printed).
    """
    raw = _read_bytes(path)
    if raw is None:
        return None, None
    from .loader import sniff_format

    if sniff_format(raw) == "elf64":
        from .core import ingest_binary
        from .loader import ElfError, TriageError

        try:
            obj, _report = ingest_binary(raw, entry)
        except (ElfError, TriageError) as exc:
            print(f"repro: cannot load {path!r}: {exc}", file=sys.stderr)
            return None, None
        return None, obj
    from .minicc import compile_to_x86

    source = raw.decode("utf-8", errors="replace")
    return source, compile_to_x86(source, entry)


def _telemetry_session(args: argparse.Namespace):
    """A telemetry session sized to the --trace/--remarks flags.

    Returns a ``nullcontext(None)`` when neither flag is given, keeping the
    default path on the zero-overhead no-op hooks.
    """
    trace_on = getattr(args, "trace", None) is not None
    remarks_on = getattr(args, "remarks", None) is not None
    if not trace_on and not remarks_on:
        return nullcontext(None)
    from . import telemetry

    return telemetry.session(
        trace=trace_on, remarks=remarks_on,
        remark_filter=(args.remarks or None) if remarks_on else None)


def _trace_counters(args: argparse.Namespace):
    """A work-counter collector for a command that keeps none of its own:
    open over the traced extent when --trace is given, so the trace can
    chart the counts; a ``nullcontext(None)`` otherwise."""
    if getattr(args, "trace", None) is None:
        return nullcontext(None)
    from .profiler import workcounters

    return workcounters.collect()


def _flush_telemetry(tel, args: argparse.Namespace, work=None) -> None:
    """Write the Chrome trace (with ``work``'s totals as counter events)
    and print collected remarks, as requested."""
    if tel is None:
        return
    import json

    from . import telemetry

    if getattr(args, "trace", None) and tel.tracer is not None:
        Path(args.trace).write_text(
            json.dumps(telemetry.to_chrome_trace(tel.tracer, work=work)))
        print(f"trace written to {args.trace} "
              f"(open in https://ui.perfetto.dev)", file=sys.stderr)
    if getattr(args, "remarks", None) is not None and tel.remarks is not None:
        for remark in tel.remarks.remarks:
            print(remark.format(), file=sys.stderr)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON file "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--remarks", nargs="?", const="", default=None,
                        metavar="FILTER",
                        help="print optimization remarks, optionally "
                             "filtered by a regex over the remark origin "
                             "(e.g. --remarks=place)")


def _first_output_mismatch(expected: list[str], got: list[str]) -> int | None:
    """Index of the first differing output entry, or None if identical."""
    for i, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return i
    if len(expected) != len(got):
        return min(len(expected), len(got))
    return None


def _cmd_translate(args: argparse.Namespace) -> int:
    from time import perf_counter

    from .profiler import workcounters
    from .profiler.ledger import append_entry

    source, obj = _load_input(args.source)
    if obj is None:
        return 2
    if source is None and args.config == "native":
        print("repro translate: the native configuration recompiles "
              "source and cannot take an ELF binary", file=sys.stderr)
        return 2
    start = perf_counter()
    with _telemetry_session(args) as tel, workcounters.collect() as wc:
        rc = _translate_and_check(args, source, obj)
    _flush_telemetry(tel, args, wc)
    append_entry("translate", {
        "source": args.source,
        "config": args.config,
        "fence_analysis": args.fence_analysis,
        "seconds": round(perf_counter() - start, 6),
        "work_total": wc.total(),
        "work_digest": wc.digest(),
        "rc": rc,
    }, config={"source": args.source, "config": args.config,
               "fence_analysis": args.fence_analysis})
    return rc


def _translate_and_check(args: argparse.Namespace, source, obj) -> int:
    from .core import Lasagne
    from .x86 import X86Emulator

    lasagne = Lasagne(verify=not args.no_verify,
                      fence_analysis=args.fence_analysis,
                      tv=args.tv)
    if source is None:
        built = lasagne.translate(obj, args.config)
    else:
        built = lasagne.build(source, args.config)
    print(f"config={args.config}: {built.arm_instructions} Arm instructions, "
          f"{built.fences} fences, {built.lir_instructions} IR instructions",
          file=sys.stderr)
    if args.tv and built.tv_report is not None:
        report = built.tv_report
        print(f"tv: {report.proved} proved, {report.unknown} unknown, "
              f"{report.refuted} refuted "
              f"over {len(report.verdicts)} pass/function pair(s)",
              file=sys.stderr)
        for v in report.refutations():
            print(f"tv REFUTED {v.pass_name} (iteration {v.iteration}) "
                  f"on {v.function}: {v.detail}"
                  + (f" [x86 blame: {v.blame}]" if v.blame else ""),
                  file=sys.stderr)
        if report.refuted:
            return 1
    elif args.tv:
        print("tv: no passes ran for this configuration", file=sys.stderr)
    if built.delayset is not None:
        ds = built.delayset
        print(f"delay-sets: {ds.fences_before} fences after placement, "
              f"{ds.required} required, {ds.elided} elided, "
              f"{ds.kept_sc} sc kept"
              + (f", {ds.elided_sync} via sync refinement "
                 f"({ds.sync_dropped_conflicts} lock-ordered conflict "
                 "edge(s) dropped)" if ds.sync else "")
              + (" (capped: kept all)" if ds.kept_all else ""),
              file=sys.stderr)
    if args.dump_arm:
        print(built.program.dump())
    if args.dump_ir:
        from .lir import format_module

        print(format_module(built.module))
    if args.run:
        expected = None
        expected_output: list[str] = []
        if args.config != "native":
            emu = X86Emulator(obj)
            expected = emu.run()
            expected_output = emu.output
            print(f"x86 result: {expected}  output: {emu.output}")
        run = Lasagne.run(built)
        print(f"arm result: {run.result}  output: {run.output}  "
              f"cycles: {run.cycles}")
        if expected is not None:
            mismatched = False
            if run.result != expected:
                print("MISMATCH between x86 and translated Arm results!",
                      file=sys.stderr)
                mismatched = True
            index = _first_output_mismatch(expected_output, run.output)
            if index is not None:
                print(f"MISMATCH in output streams at index {index}: "
                      f"x86={expected_output[index:index + 1]!r} "
                      f"arm={run.output[index:index + 1]!r}",
                      file=sys.stderr)
                mismatched = True
            if mismatched:
                return 1
    return 0


def _cmd_tv(args: argparse.Namespace) -> int:
    """``repro tv <input>``: validate every optimization pass invocation.

    Translates the input with the per-pass translation validator
    attached and reports one refinement verdict per (pass invocation,
    function).  Exit 1 when any verdict is ``refuted`` — a concrete
    counterexample shows the pass miscompiled the function; ``unknown``
    verdicts (incompleteness) never fail the run.
    """
    from .core import Lasagne

    source, obj = _load_input(args.source)
    if obj is None:
        return 2
    if source is None and args.config == "native":
        print("repro tv: the native configuration recompiles source and "
              "cannot take an ELF binary", file=sys.stderr)
        return 2
    with _telemetry_session(args) as tel, _trace_counters(args) as wc:
        lasagne = Lasagne(fence_analysis=args.fence_analysis, tv=True)
        if source is None:
            built = lasagne.translate(obj, args.config)
        else:
            built = lasagne.build(source, args.config)
    _flush_telemetry(tel, args, wc)
    report = built.tv_report

    if args.sarif:
        from .analysis.sarif import tv_results, write_sarif

        results = tv_results(report, args.source)
        path = write_sarif(args.sarif, results)
        print(f"SARIF report ({len(results)} result(s)) written to {path}",
              file=sys.stderr)
    if args.json:
        import json

        doc = report.to_dict()
        doc["config"] = args.config
        doc["source"] = args.source
        print(json.dumps(doc, indent=2))
    else:
        print(f"== translation validation ({args.config}) ==")
        shown = report.verdicts if args.verbose else [
            v for v in report.verdicts if v.verdict != "proved"]
        for v in shown:
            line = (f"  {v.pass_name:<12} iter{v.iteration} "
                    f"{v.function:<16} {v.verdict:<8} {v.reason}")
            if v.verdict == "refuted":
                line += f"\n    {v.detail}"
                if v.blame:
                    line += f"\n    x86 blame: {v.blame}"
            print(line)
        print(f"tv: {report.proved} proved, {report.unknown} unknown, "
              f"{report.refuted} refuted over {len(report.verdicts)} "
              f"pass/function pair(s)")
    return 1 if report.refuted else 0


def _cmd_lift(args: argparse.Namespace) -> int:
    from .fences import place_fences
    from .lifter import lift_program
    from .lir import format_module
    from .refine import run_refinement

    _source, obj = _load_input(args.source)
    if obj is None:
        return 2
    module = lift_program(obj)
    if args.refine:
        run_refinement(module)
    if args.fences:
        place_fences(module)
    if args.optimize:
        from .opt import optimize_module

        optimize_module(module)
    print(format_module(module))
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    """``repro triage <input>``: machine-readable loader confidence.

    Works on both input formats: real ELF64 binaries go through the
    loader (non-strict, so undecodable functions become report entries,
    not errors); mini-C text is compiled by minicc and its ELF-lite
    image swept with the same per-function decoder."""
    from .loader import ElfError, ingest_elf, sniff_format, triage_object

    raw = _read_bytes(args.source)
    if raw is None:
        return 2
    if sniff_format(raw) == "elf64":
        try:
            _obj, report = ingest_elf(raw, entry=args.entry, strict=False)
        except ElfError as exc:
            print(f"repro triage: {args.source!r}: {exc}", file=sys.stderr)
            return 2
    else:
        from .minicc import compile_to_x86

        obj = compile_to_x86(raw.decode("utf-8", errors="replace"),
                             args.entry)
        report = triage_object(obj)
    print(report.to_json())
    if args.strict and report.externals_opaque:
        print(f"repro triage: {len(report.externals_opaque)} opaque "
              f"external(s): {sorted(report.externals_opaque)}",
              file=sys.stderr)
        return 1
    return 0 if report.ok else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .phoenix import SIZE_SMALL, SIZE_TINY, evaluate_suite, geomean

    size = SIZE_TINY if args.size == "tiny" else SIZE_SMALL
    with _telemetry_session(args) as tel, _trace_counters(args) as wc:
        rows = evaluate_suite(size=size, verify=False)
    _flush_telemetry(tel, args, wc)
    configs = ["native", "lifted", "opt", "popt", "ppopt"]
    print(f"{'benchmark':<18}" + "".join(f"{c:>9}" for c in configs))
    norm = {c: [] for c in configs}
    for row in rows:
        cells = ""
        for c in configs:
            v = row.normalized_runtime(c)
            norm[c].append(v)
            cells += f"{v:>9.2f}"
        print(f"{row.program:<18}{cells}")
    print(f"{'GMean':<18}"
          + "".join(f"{geomean(norm[c]):>9.2f}" for c in configs))
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    from . import memmodel as mm

    if args.delay_sets:
        return _litmus_delay_gate(args)
    if args.file:
        text = _read_source(args.file)
        if text is None:
            return 2
        test = mm.parse_litmus(text)
        program = test.program
        if test.exists is not None:
            allowed = test.exists_allowed(args.model)
            print(f"{program.name}: exists clause is "
                  f"{'ALLOWED' if allowed else 'forbidden'} under {args.model}")
        for outcome in sorted(mm.outcomes(program, args.model), key=sorted):
            print("  " + ", ".join(f"{k}={v}" for k, v in sorted(outcome)))
        return 0

    program = getattr(mm, args.test, None)
    if program is None or not isinstance(program, mm.Program):
        names = sorted(
            n for n in dir(mm)
            if isinstance(getattr(mm, n), mm.Program)
        )
        print(f"unknown litmus test {args.test!r}; available: {names}",
              file=sys.stderr)
        return 1
    if args.map:
        mapper = {
            "x86-to-ir": mm.map_x86_to_ir,
            "ir-to-arm": mm.map_ir_to_arm,
            "x86-to-arm": mm.map_x86_to_arm,
            "arm-to-ir": mm.map_arm_to_ir,
            "ir-to-x86": mm.map_ir_to_x86,
            "arm-to-x86": mm.map_arm_to_x86,
        }[args.map]
        program = mapper(program)
    print(f"{program.name} under {args.model}:")
    for outcome in sorted(mm.outcomes(program, args.model), key=sorted):
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(outcome)))
    return 0


def _litmus_delay_gate(args: argparse.Namespace) -> int:
    """``repro litmus --delay-sets``: the enumeration soundness gate.

    Each pure-x86 litmus program is mapped through Fig. 8a, its redundant
    fences elided by delay-set analysis, and the elided program's LIMM
    outcome set compared against the TSO source by exhaustive
    enumeration.  Any new weak behaviour is an unsound elision → exit 1.
    """
    from . import memmodel as mm
    from .analysis.delayset import check_litmus_elision

    programs: list
    if args.file:
        text = _read_source(args.file)
        if text is None:
            return 2
        programs = [mm.parse_litmus(text).program]
    elif args.test:
        program = getattr(mm, args.test, None)
        if program is None or not isinstance(program, mm.Program):
            print(f"unknown litmus test {args.test!r}", file=sys.stderr)
            return 1
        programs = [program]
    else:
        programs = list(mm.X86_SOURCE_CORPUS)

    rc = 0
    total_elided = total_required = total_sync = 0
    for program in programs:
        if not mm.is_x86_source(program):
            print(f"{program.name}: skipped (not pure x86 source: has "
                  "non-plain orderings or non-MFENCE fences)")
            continue
        sound, result = check_litmus_elision(program, sync=args.sync)
        total_elided += result.elided_count
        total_required += result.required_count
        sync_count = result.elided_sync_count if args.sync else 0
        total_sync += sync_count
        marker = "ok" if sound else "UNSOUND"
        print(f"{result.elided.name}: {result.required_count} required, "
              f"{result.elided_count} elided"
              + (f" ({sync_count} via sync)" if args.sync else "")
              + f" -> {marker}")
        if args.verbose:
            for d in result.decisions:
                print(f"  T{d.thread}[{d.index}] F{d.kind}: "
                      f"{d.verdict} ({d.reason})")
        if not sound:
            rc = 1
    print(f"delay-set gate: {total_required} fences required, "
          f"{total_elided} elided"
          + (f" ({total_sync} via sync refinement)" if args.sync else "")
          + f" across {len(programs)} program(s); "
          + ("all elisions sound" if rc == 0 else "UNSOUND ELISION FOUND"))
    return rc


def _cmd_validate(args: argparse.Namespace) -> int:
    import json

    from .validate import GenConfig, OracleOptions, RunnerOptions, run_corpus

    if args.count is None and args.minutes is None:
        args.count = 100
    opts = RunnerOptions(
        seed=args.seed,
        jobs=args.jobs,
        count=args.count,
        minutes=args.minutes,
        shrink=args.shrink,
        corpus_dir=args.corpus,
        trace_file=args.trace,
        collect_remarks=args.remarks is not None,
        remark_filter=args.remarks or None,
        gen=GenConfig(threads=args.threads),
        oracle=OracleOptions(verify=not args.no_verify,
                             include_native=not args.no_native,
                             fence_analysis=args.fence_analysis,
                             tv=args.tv),
    )

    def progress(row: dict) -> None:
        if not row["ok"]:
            print(f"divergence [{row['signature']}] seed={row['seed']}: "
                  f"{row['detail']}", file=sys.stderr)

    from .profiler.ledger import append_entry

    report = run_corpus(opts, progress=None if args.quiet else progress)
    append_entry("validate", {
        "seed": args.seed,
        "programs_run": report["programs_run"],
        "divergences": report["divergences"],
        "clean": report["clean"],
        "fence_analysis": args.fence_analysis,
    }, config={"seed": args.seed, "threads": args.threads,
               "fence_analysis": args.fence_analysis})
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2))
    print(f"validate: {report['programs_run']} programs "
          f"({report['corpus_replayed']} from corpus), "
          f"{report['divergences']} divergences, "
          f"{report['throughput_per_minute']:.0f} programs/min, "
          f"report at {Path(opts.corpus_dir) / 'report.json'}")
    if report["stage_histogram"]:
        print("stage histogram: " + ", ".join(
            f"{stage}={count}"
            for stage, count in sorted(report["stage_histogram"].items())))
    timing = report.get("timing", {})
    if timing.get("median_seconds"):
        print(f"wall time per program: median {timing['median_seconds']:.3f}s, "
              f"p95 {timing['p95_seconds']:.3f}s, max {timing['max_seconds']:.3f}s")
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(open in https://ui.perfetto.dev)", file=sys.stderr)
    if args.remarks is not None and report.get("remark_histogram"):
        print("remarks: " + ", ".join(
            f"{key}={n}"
            for key, n in sorted(report["remark_histogram"].items())),
            file=sys.stderr)
    return 0 if report["clean"] else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_function, check_module
    from .core import Lasagne
    from .lir import Load, Store

    source = _read_source(args.source)
    if source is None:
        return 2
    if (args.delay_sets or args.sync) and args.config == "native":
        print("repro analyze: --delay-sets/--sync need a translated config "
              "(the native pipeline places no fences)", file=sys.stderr)
        return 2
    if args.sync:
        fence_analysis = "sync"
    elif args.delay_sets:
        fence_analysis = "delay-sets"
    else:
        fence_analysis = "escape"
    lasagne = Lasagne(verify=not args.no_verify,
                      fence_analysis=fence_analysis
                      if args.config != "native" else "escape")
    built = lasagne.build(source, args.config)
    module = built.module

    # With no mode flag, print every report (--delay-sets/--sync and
    # --racecheck are opt-in: the former change which pipeline ran, the
    # latter runs an extra whole-module classification).
    all_modes = not (args.fencecheck or args.escape or args.aliases
                     or args.delay_sets or args.sync or args.racecheck)

    if args.json:
        return _analyze_json(args, built, module, all_modes)

    if args.escape or all_modes:
        print(f"== escape analysis ({args.config}) ==")
        for func in module.functions.values():
            if func.is_declaration:
                continue
            alias = analyze_function(func, module)
            objs = alias.stack_objects()
            escaped = [o for o in objs if o.escaped]
            print(f"{func.name}: {len(objs)} stack object(s), "
                  f"{len(escaped)} escaped")
            for obj in objs:
                state = "escaped" if obj.escaped else "thread-local"
                print(f"  alloca {obj.name}: {state}")

    if args.aliases or all_modes:
        print(f"== access classification ({args.config}) ==")
        for func in module.functions.values():
            if func.is_declaration:
                continue
            alias = analyze_function(func, module)
            for bb in func.blocks:
                for inst in bb.instructions:
                    if isinstance(inst, (Load, Store)):
                        what = inst.opcode
                        print(f"  {func.name}:{bb.name}: {what} "
                              f"{inst.pointer.short_name()} -> "
                              f"{alias.describe(inst.pointer)}")

    rc = 0
    diags = None
    if args.fencecheck or all_modes:
        print(f"== fencecheck ({args.config}) ==")
        if args.config == "native":
            print("  (native config carries no LIMM mapping obligations; "
                  "checking anyway)")
        diags = check_module(module)
        for diag in diags:
            print(f"  {diag}")
        print(f"fencecheck: {len(diags)} violation(s)")
        if diags:
            rc = 1

    if args.delay_sets or args.sync:
        ds = built.delayset
        print(f"== delay-set analysis ({args.config}) ==")
        if ds is None:
            print("  (no delay-set pass ran)")
        else:
            for d in ds.decisions:
                print(f"  {d.func}:{d.block}:{d.index}: F{d.kind} "
                      f"{d.verdict}: {d.reason}")
            print(f"delay-sets: {ds.fences_before} fences after placement, "
                  f"{ds.required} required, {ds.elided} elided, "
                  f"{ds.kept_sc} sc kept, "
                  f"{ds.delay_edges} delay edge(s)"
                  + (f", {ds.elided_sync} via sync refinement "
                     f"({ds.sync_dropped_conflicts} lock-ordered conflict "
                     "edge(s) dropped)" if ds.sync else "")
                  + (" (capped: kept all)" if ds.kept_all else ""))

    race = None
    if args.racecheck:
        from .analysis.racecheck import classify_module

        # Classify the *refined* module: lock addresses only resolve
        # syntactically after pointer refinement, so earlier configs
        # under-report protection (never races — the sound direction).
        race = classify_module(module)
        print(f"== racecheck ({args.config}) ==")
        for d in race.diags:
            print(f"  {d}")
        print("racecheck: "
              + ", ".join(f"{race.count(c)} {c}"
                          for c in ("racy", "lock-protected", "atomic",
                                    "thread-local"))
              + (f"; locks seen: {', '.join(race.locks_seen)}"
                 if race.locks_seen else "")
              + (" (capped: conflict graph incomplete)"
                 if race.capped else ""))

    if args.sarif:
        _write_analysis_sarif(args, diags, built.delayset, race)
    return rc


def _write_analysis_sarif(args: argparse.Namespace, diags,
                          delayset, race=None) -> None:
    from .analysis.sarif import (
        delayset_results,
        fencecheck_results,
        racecheck_results,
        write_sarif,
    )

    results: list[dict] = []
    if diags is not None:
        results += fencecheck_results(diags, args.source)
    if delayset is not None:
        results += delayset_results(delayset.decisions, args.source)
    if race is not None:
        results += racecheck_results(race.diags, args.source)
    path = write_sarif(args.sarif, results)
    print(f"SARIF report ({len(results)} result(s)) written to {path}",
          file=sys.stderr)


def _analyze_json(args: argparse.Namespace, built, module,
                  all_modes: bool) -> int:
    """Machine-readable ``repro analyze --json`` output."""
    import json

    from .analysis import analyze_function, check_module
    from .lir import Load, Store

    report: dict = {"config": args.config}

    if args.escape or all_modes:
        escape: dict[str, list[dict]] = {}
        for func in module.functions.values():
            if func.is_declaration:
                continue
            alias = analyze_function(func, module)
            escape[func.name] = [
                {"alloca": obj.name, "escaped": obj.escaped}
                for obj in alias.stack_objects()
            ]
        report["escape"] = escape

    if args.aliases or all_modes:
        accesses: list[dict] = []
        for func in module.functions.values():
            if func.is_declaration:
                continue
            alias = analyze_function(func, module)
            for bb in func.blocks:
                for inst in bb.instructions:
                    if isinstance(inst, (Load, Store)):
                        accesses.append({
                            "function": func.name,
                            "block": bb.name,
                            "access": inst.opcode,
                            "pointer": inst.pointer.short_name(),
                            "class": alias.describe(inst.pointer),
                        })
        report["accesses"] = accesses

    rc = 0
    diags = None
    if args.fencecheck or all_modes:
        diags = check_module(module)
        report["fencecheck"] = {
            "violations": len(diags),
            "diagnostics": [d.to_dict() for d in diags],
        }
        if diags:
            rc = 1

    if (args.delay_sets or args.sync) and built.delayset is not None:
        ds = built.delayset
        report["delayset"] = {
            "fences_before": ds.fences_before,
            "required": ds.required,
            "elided": ds.elided,
            "elided_sync": ds.elided_sync,
            "sync": ds.sync,
            "sync_dropped_conflicts": ds.sync_dropped_conflicts,
            "kept_sc": ds.kept_sc,
            "kept_conservative": ds.kept_conservative,
            "delay_edges": ds.delay_edges,
            "capped": ds.capped,
            "kept_all": ds.kept_all,
            "decisions": [
                {"function": d.func, "block": d.block, "index": d.index,
                 "kind": d.kind, "verdict": d.verdict, "reason": d.reason,
                 "tier": d.tier, "x86": d.x86}
                for d in ds.decisions
            ],
        }

    race = None
    if args.racecheck:
        from .analysis.racecheck import classify_module

        race = classify_module(module)
        report["racecheck"] = {
            "counts": race.counts,
            "capped": race.capped,
            "locks_seen": list(race.locks_seen),
            "diagnostics": [d.to_dict() for d in race.diags],
        }

    if args.sarif:
        _write_analysis_sarif(args, diags, built.delayset, race)

    print(json.dumps(report, indent=2))
    return rc


def _cmd_explain(args: argparse.Namespace) -> int:
    from .provenance.explain import (
        build_explanation,
        explanation_to_dict,
        render_coverage,
        render_fences,
        render_map,
    )

    source, obj = _load_input(args.source)
    if source is None and obj is None:
        return 2
    if source is None and args.config == "native":
        print("repro explain: the native configuration recompiles source "
              "and cannot explain an ELF binary", file=sys.stderr)
        return 2
    expl = build_explanation(source, args.config,
                             verify=not args.no_verify,
                             obj=obj if source is None else None)

    if args.json:
        import json

        print(json.dumps(explanation_to_dict(expl), indent=2))
    else:
        # With no view flag, print every view.
        all_views = not (args.fences or args.map or args.coverage)
        sections = []
        if args.fences or all_views:
            sections.append(render_fences(expl))
        if args.map or all_views:
            sections.append(render_map(expl))
        if args.coverage or all_views:
            sections.append(render_coverage(expl))
        print("\n\n".join(sections))

    rc = 0
    cov = expl.coverage
    if args.min_fence_coverage is not None \
            and cov.fence_pct < args.min_fence_coverage:
        print(f"explain: fence provenance coverage {cov.fence_pct:.1f}% "
              f"is below the required {args.min_fence_coverage:.1f}%",
              file=sys.stderr)
        rc = 1
    if args.min_mem_coverage is not None \
            and cov.memory_pct < args.min_mem_coverage:
        print(f"explain: memory-access provenance coverage "
              f"{cov.memory_pct:.1f}% is below the required "
              f"{args.min_mem_coverage:.1f}%", file=sys.stderr)
        rc = 1
    return rc


def _outcomes(built, run) -> dict[str, int]:
    """The outcome numbers ``repro stats`` shows: fields of the build's
    :class:`TranslationResult` and, with --run, its :class:`RunResult`."""
    out = {"fences.naive": built.fences_naive, "fences.final": built.fences}
    placed = built.placement
    if placed is not None:
        out.update({
            "fences.inserted{kind=rm}": placed.loads_fenced,
            "fences.inserted{kind=ww}": placed.stores_fenced,
            "fences.skipped_stack": placed.skipped_stack,
            "fences.skipped_escape": placed.skipped_escape,
            "fences.skipped_interproc": placed.skipped_interproc,
        })
    if built.delayset is not None:
        out["fences.skipped_delayset"] = (built.fences_elided_delayset
                                          - built.fences_elided_sync)
        out["fences.skipped_sync"] = built.fences_elided_sync
    if run is not None:
        out["emu.arm.cycles"] = run.cycles
        out["emu.arm.instret"] = run.instructions_retired
    return out


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import telemetry
    from .core import Lasagne
    from .profiler import workcounters

    source = _read_source(args.source)
    if source is None:
        return 2
    with telemetry.session() as tel, workcounters.collect() as wc:
        lasagne = Lasagne(verify=not args.no_verify)
        built = lasagne.build(source, args.config)
        run = Lasagne.run(built) if args.run else None

    print(f"== stage breakdown ({args.config}) ==")
    print(telemetry.format_tree(tel.tracer.roots,
                                max_depth=None if args.full else 2))

    if built.pass_stats is not None:
        stats = built.pass_stats
        changed = [rec for rec in stats.records if rec.changed]
        print(f"\n== optimization passes "
              f"({len(stats.records)} runs over {stats.iterations} fixpoint "
              f"iterations, {len(changed)} changed) ==")
        print(f"{'pass':<14}{'iter':>5}{'before':>8}{'after':>8}{'removed':>9}")
        for rec in changed:
            print(f"{rec.name:<14}{rec.iteration:>5}{rec.before:>8}"
                  f"{rec.after:>8}{rec.before - rec.after:>9}")
        by_iter = stats.reduction_by_iteration()
        print("per-iteration reduction: " + ", ".join(
            f"iter{i}={by_iter[i]}" for i in sorted(by_iter)))
        print("per-pass reduction: " + ", ".join(
            f"{name}={n}" for name, n in stats.reduction_by_pass().items()))

    # Work totals first, then what the build (and run) produced.
    print("\n== metrics ==")
    for name, value in {**wc.by_counter(), **_outcomes(built, run)}.items():
        print(f"  {name} = {value}")

    histogram = tel.remarks.histogram()
    if histogram:
        print("\n== remarks (origin:kind -> count) ==")
        for key, n in sorted(histogram.items()):
            print(f"  {key} = {n}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile <input>``: drive one translation repeatedly under
    the sampling profiler, the deterministic work-counter collector and
    the memory accountant, then render the attribution report."""
    from time import perf_counter

    from .core import Lasagne
    from .profiler import (
        AttributionReport,
        SamplingProfiler,
        accounting,
        render_report,
        report_to_dict,
        workcounters,
        write_flamegraph,
    )
    from .profiler.ledger import ledger_entry, record_run
    from .warehouse import record_profile

    source, obj = _load_input(args.source)
    if obj is None:
        return 2
    if source is None and args.config == "native":
        print("repro profile: the native configuration recompiles "
              "source and cannot take an ELF binary", file=sys.stderr)
        return 2
    lasagne = Lasagne(verify=not args.no_verify)
    builds = 0
    prof = SamplingProfiler(hz=args.sample_hz)
    with workcounters.collect() as wc, accounting() as acct, prof:
        start = perf_counter()
        # Keep translating until the sampler has had --min-seconds of
        # signal (at least one build regardless).
        while True:
            if source is None:
                lasagne.translate(obj, args.config)
            else:
                lasagne.build(source, args.config)
            builds += 1
            if perf_counter() - start >= args.min_seconds:
                break
    profile = prof.profile
    report = AttributionReport(source=args.source, config=args.config,
                               builds=builds, profile=profile,
                               counters=wc, memory=acct)
    print(render_report(report, top=args.top))
    if args.flamegraph:
        write_flamegraph(profile, args.flamegraph)
        print(f"flamegraph (collapsed stacks) written to {args.flamegraph} "
              "(feed to flamegraph.pl or https://www.speedscope.app)",
              file=sys.stderr)
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(report_to_dict(report, top=args.top), indent=2))
        print(f"profile JSON written to {args.json}", file=sys.stderr)

    def record(store) -> None:
        record_profile(store, report)
        store.put_ledger_entry(ledger_entry("profile", {
            "source": args.source,
            "config": args.config,
            "builds": builds,
            "samples": profile.total,
            "known_stage_pct": round(profile.known_stage_pct(), 2),
            "work_total": wc.total(),
            "work_digest": wc.digest(),
        }, config={"source": args.source, "config": args.config}))

    record_run(record)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .profiler.ledger import ledger_entry, record_run
    from .telemetry.bench import read_trajectory, run_bench, write_bench
    from .warehouse import record_bench

    report = run_bench(size=args.size, repeats=args.repeats,
                       configs=args.configs)
    rc = 0
    if args.compare is not None:
        from .profiler.regression import EXIT_REGRESSION, check_regression

        reg = check_regression(
            report["summary"], read_trajectory(args.out),
            size=args.size, ref=args.compare or None,
            window=args.window, time_threshold=args.time_threshold)
        print(reg.format())
        if not reg.ok:
            rc = EXIT_REGRESSION
    path = write_bench(report, args.out)
    for config, summary in report["summary"].items():
        if config == "loader":
            continue  # the ELF-ingestion row prints separately below
        print(f"{config:>8}: {summary['translate_seconds_total'] * 1e3:8.1f} ms "
              f"translate, {summary['arm_instructions_total']:6d} Arm "
              f"instructions, {summary['fences_total']:4d} fences, "
              f"{summary['fences_elided_total']:4d} elided "
              f"({summary['fences_elided_beyond_walk_total']} beyond walk), "
              f"{summary['fencecheck_violations_total']} fencecheck "
              f"violation(s)")
    loader = report["summary"].get("loader")
    if loader:
        print(f"{'loader':>8}: {loader['ingest_seconds_total'] * 1e3:8.1f} ms "
              f"ingest over {len(report['loader'])} ELF fixture(s), "
              f"{loader['functions_discovered']} functions, "
              f"{loader['externals_resolved']} externals resolved, "
              f"{loader['externals_opaque']} opaque")
    print(f"baseline written to {path}")

    def record(store) -> None:
        record_bench(store, report, path)
        store.put_ledger_entry(ledger_entry("bench", {
            "size": args.size,
            "repeats": args.repeats,
            "compare": args.compare,
            "rc": rc,
            "work_digests": {
                config: summary.get("work_digest")
                for config, summary in report["summary"].items()
                if isinstance(summary, dict) and "work_digest" in summary},
            "translate_seconds": {
                config: summary.get("translate_seconds_total")
                for config, summary in report["summary"].items()
                if isinstance(summary, dict)
                and "translate_seconds_total" in summary},
        }, config={"size": args.size, "repeats": args.repeats,
                   "configs": args.configs}))

    record_run(record)
    return rc


def _open_ingested_warehouse(args: argparse.Namespace):
    """Open the warehouse named by ``--db`` and refresh it from the
    ``--bench`` trajectory (idempotent) when that file exists."""
    from .warehouse import Warehouse, ingest_bench

    store = Warehouse(args.db)
    if Path(args.bench).exists():
        ingest_bench(store, args.bench)
    return store


def _add_db_flag(parser: argparse.ArgumentParser) -> None:
    from .warehouse import DEFAULT_DB

    parser.add_argument("--db", default=DEFAULT_DB,
                        help="warehouse sqlite file "
                             f"(default {DEFAULT_DB}; ':memory:' works)")


def _add_warehouse_flags(parser: argparse.ArgumentParser) -> None:
    _add_db_flag(parser)
    parser.add_argument("--bench", default="BENCH_translate.json",
                        metavar="PATH",
                        help="bench trajectory file ingested first "
                             "(default BENCH_translate.json)")


def _cmd_warehouse(args: argparse.Namespace) -> int:
    """``repro warehouse ingest|runs``."""
    with _open_ingested_warehouse(args) as store:
        if args.action == "ingest":
            counts = store.counts()
            print("warehouse: " + ", ".join(
                f"{counts[t]} {t}" for t in sorted(counts))
                + f" (schema v{store.schema_version}, {store.path})")
            return 0
        runs = store.runs()
        if not runs:
            print("warehouse: no runs ingested yet (run `repro bench` "
                  "first)")
            return 0
        print(f"{'#':>3}  {'sha':<10} {'kind':<8} {'timestamp':<26} "
              f"{'size':<6} dirty")
        for index, run in enumerate(reversed(runs)):
            print(f"@{index:<2}  {run.sha:<10} {run.kind:<8} "
                  f"{run.timestamp:<26} {run.size:<6} "
                  f"{'yes' if run.dirty else 'no'}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff A B``: ranked deltas between two warehouse runs.

    Exit codes: 0 on success, 2 when a selector does not resolve or the
    warehouse holds nothing to compare (the CI contract).
    """
    from .warehouse import diff_runs, render_markdown, render_text, to_json

    with _open_ingested_warehouse(args) as store:
        kind = None if args.any_kind else "bench"
        run_a = store.resolve(args.run_a, kind)
        run_b = store.resolve(args.run_b, kind)
        missing = [sel for sel, run in
                   ((args.run_a, run_a), (args.run_b, run_b))
                   if run is None]
        if missing:
            for sel in missing:
                print(f"repro diff: cannot resolve run {sel!r} "
                      f"(try `repro warehouse runs`)", file=sys.stderr)
            return 2
        report = diff_runs(store, run_a, run_b, top=args.top)
    if args.json:
        print(to_json(report), end="")
    elif args.markdown:
        print(render_markdown(report), end="")
    else:
        print(render_text(report))
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    """``repro dash --html FILE``: the self-contained HTML dashboard."""
    from .warehouse import build_dashboard

    with _open_ingested_warehouse(args) as store:
        html = build_dashboard(store, title=args.title)
    if args.html is None:
        print(html, end="")
    else:
        try:
            Path(args.html).write_text(html)
        except OSError as exc:
            print(f"repro dash: cannot write {args.html!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"dashboard written to {args.html} "
              f"({len(html)} bytes, self-contained)", file=sys.stderr)
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    """``repro ledger [--gc]``: run-ledger activity and compaction."""
    from .warehouse import Warehouse

    if not Path(args.db).exists():  # reading must not create the store
        print(f"ledger: no entries at {args.db}")
        return 0
    with Warehouse(args.db) as store:
        if args.gc:
            before = store.ledger_summary()[0]
            deleted = store.gc_ledger(args.keep)
            print(f"ledger gc: {before} -> {before - deleted} entries "
                  f"({args.db})")
            return 0
        total, failures, by_command = store.ledger_summary()
        entries = store.ledger_entries() if args.tail else []
    if not total:
        print(f"ledger: no entries at {args.db}")
        return 0
    print(f"ledger: {total} entries at {args.db} "
          f"({failures} non-zero exit(s))")
    for command in sorted(by_command):
        print(f"  {command:<12} {by_command[command]:>6}")
    if args.tail:
        import json

        for entry in entries[-args.tail:]:
            print(json.dumps(entry, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate mini-C to Arm")
    p.add_argument("source")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "lifted", "opt", "popt", "ppopt"])
    p.add_argument("--fence-analysis", default="escape",
                   choices=["walk", "escape", "delay-sets", "sync"],
                   help="fence-elision tier: syntactic walk, "
                        "interprocedural escape analysis (default), "
                        "escape + Shasha-Snir delay-set elision, or "
                        "delay sets refined by pthread must-locksets")
    p.add_argument("--run", action="store_true")
    p.add_argument("--dump-arm", action="store_true")
    p.add_argument("--dump-ir", action="store_true")
    p.add_argument("--tv", action="store_true",
                   help="per-pass translation validation: check every "
                        "optimization pass invocation for refinement and "
                        "exit 1 on a refuted (miscompiling) pass")
    p.add_argument("--no-verify", action="store_true")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser(
        "tv",
        help="per-pass translation validation: symbolically check that "
             "each optimization pass invocation's output refines its "
             "input (exit 1 on a refuted pass)")
    p.add_argument("source", help="mini-C source or ELF64 binary")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "opt", "popt", "ppopt"])
    p.add_argument("--fence-analysis", default="escape",
                   choices=["walk", "escape", "delay-sets", "sync"])
    p.add_argument("--json", action="store_true",
                   help="emit the full verdict list as JSON on stdout")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write tv/refuted and tv/unknown findings "
                        "as a SARIF 2.1.0 report")
    p.add_argument("--verbose", action="store_true",
                   help="also list proved verdicts, not just "
                        "unknown/refuted ones")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_tv)

    p = sub.add_parser("lift", help="show lifted LIR")
    p.add_argument("source")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--fences", action="store_true")
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser(
        "triage",
        help="inspect a binary: function discovery confidence, external "
             "resolution, and decode coverage, as JSON")
    p.add_argument("source", help="ELF64 executable or mini-C source")
    p.add_argument("--entry", default="main")
    p.add_argument("--strict", action="store_true",
                   help="also fail (rc 1) when any external is opaque, "
                        "i.e. not resolved against the catalog")
    p.set_defaults(func=_cmd_triage)

    p = sub.add_parser("evaluate", help="run the Phoenix evaluation")
    p.add_argument("--size", default="tiny", choices=["tiny", "small"])
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("litmus", help="enumerate litmus outcomes")
    p.add_argument("test", nargs="?", default="",
                   help="e.g. SB, MP, LB, IRIW, WRC")
    p.add_argument("--file", default=None,
                   help="herd-style litmus file instead of a named test")
    p.add_argument("--model", default="x86", choices=["x86", "arm", "limm"])
    p.add_argument("--map", default=None,
                   choices=["x86-to-ir", "ir-to-arm", "x86-to-arm",
                            "arm-to-ir", "ir-to-x86", "arm-to-x86"])
    p.add_argument("--delay-sets", action="store_true",
                   help="enumeration gate: map through Fig. 8a, elide "
                        "redundant fences via delay-set analysis, and "
                        "prove by exhaustive enumeration that no new "
                        "weak behaviour appears (exit 1 if one does); "
                        "runs the whole pure-x86 corpus when no test is "
                        "named")
    p.add_argument("--sync", action="store_true",
                   help="with --delay-sets, also run the lockset (sync) "
                        "refinement: conflict edges between accesses "
                        "holding a common lock are dropped before the "
                        "cycle search, and the extra elisions face the "
                        "same enumeration soundness check")
    p.add_argument("--verbose", action="store_true",
                   help="with --delay-sets, print per-fence verdicts")
    p.set_defaults(func=_cmd_litmus)

    p = sub.add_parser(
        "validate",
        help="differential validation: fuzz every pipeline rung in lockstep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--count", type=int, default=None,
                   help="number of generated programs (default 100)")
    p.add_argument("--minutes", type=float, default=None,
                   help="wall-clock budget instead of --count")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug each diverging program")
    p.add_argument("--corpus", default=".validate-corpus",
                   help="persistent corpus/crash directory")
    p.add_argument("--report", default=None,
                   help="also write the JSON report to this path")
    p.add_argument("--threads", action="store_true",
                   help="include commutative atomic-counter thread programs")
    p.add_argument("--fence-analysis", default="escape",
                   choices=["walk", "escape", "delay-sets", "sync"],
                   help="fence-elision tier for the translated rungs; "
                        "delay-sets (or sync) adds the certificate-audit "
                        "static rung")
    p.add_argument("--no-native", action="store_true",
                   help="skip the native-config Arm rung")
    p.add_argument("--tv", action="store_true",
                   help="add the static per-pass translation-validation "
                        "rung: a refuted pass invocation is a divergence "
                        "even when no execution observes it")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--quiet", action="store_true")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "analyze",
        help="static analysis: escape report, access classification, "
             "LIMM fencecheck linter (exit 1 on violations)")
    p.add_argument("source")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "lifted", "opt", "popt", "ppopt"])
    p.add_argument("--fencecheck", action="store_true",
                   help="only run the LIMM-mapping linter")
    p.add_argument("--escape", action="store_true",
                   help="only print the per-function escape report")
    p.add_argument("--aliases", action="store_true",
                   help="only print the per-access points-to classification")
    p.add_argument("--delay-sets", action="store_true",
                   help="run the pipeline with the delay-set elision tier "
                        "and print every per-fence required/redundant "
                        "verdict with its critical-cycle witness")
    p.add_argument("--sync", action="store_true",
                   help="like --delay-sets but with the lockset (sync) "
                        "refinement on top: conflict edges between "
                        "accesses holding a common pthread mutex are "
                        "dropped before the cycle search")
    p.add_argument("--racecheck", action="store_true",
                   help="classify every shared access as racy / "
                        "lock-protected / atomic / thread-local via the "
                        "static happens-before analysis")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write the fencecheck/delay-set/racecheck "
                        "findings as a SARIF 2.1.0 report")
    p.add_argument("--json", action="store_true",
                   help="emit the selected reports as JSON on stdout")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="instruction provenance: per-fence x86 blame, side-by-side "
             "x86/LIR/Arm map, and provenance coverage")
    p.add_argument("source")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "lifted", "opt", "popt", "ppopt"])
    p.add_argument("--fences", action="store_true",
                   help="per-fence blame: protected access, placing rule, "
                        "and every merge/elide decision")
    p.add_argument("--map", action="store_true",
                   help="annotated x86/LIR/Arm disassembly keyed by address")
    p.add_argument("--coverage", action="store_true",
                   help="fraction of Arm instructions/accesses/fences with "
                        "resolvable provenance")
    p.add_argument("--json", action="store_true",
                   help="emit blame + coverage as JSON on stdout")
    p.add_argument("--min-fence-coverage", type=float, default=None,
                   metavar="PCT",
                   help="exit 1 if fence provenance coverage is below PCT")
    p.add_argument("--min-mem-coverage", type=float, default=None,
                   metavar="PCT",
                   help="exit 1 if memory-access coverage is below PCT")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "stats",
        help="telemetry breakdown: stage timings, passes, metrics, remarks")
    p.add_argument("source")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "lifted", "opt", "popt", "ppopt"])
    p.add_argument("--run", action="store_true",
                   help="also run the translated program (emulator metrics)")
    p.add_argument("--full", action="store_true",
                   help="print the full span tree including per-pass spans")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "profile",
        help="hot-path attribution: sampling profiler + deterministic "
             "work counters + per-stage memory for one translation")
    p.add_argument("source", help="mini-C source or ELF64 binary")
    p.add_argument("--config", default="ppopt",
                   choices=["native", "lifted", "opt", "popt", "ppopt"])
    p.add_argument("--sample-hz", type=float, default=211.0,
                   help="sampling rate of the profiler thread "
                        "(default 211 Hz; off-round to dodge lockstep "
                        "with periodic work)")
    p.add_argument("--min-seconds", type=float, default=1.0,
                   help="repeat the translation until this much "
                        "wall-clock has been sampled (default 1.0)")
    p.add_argument("--flamegraph", nargs="?", const="flamegraph.txt",
                   default=None, metavar="FILE",
                   help="write collapsed-stack output "
                        "(default FILE: flamegraph.txt)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full attribution report as JSON")
    p.add_argument("--top", type=int, default=10,
                   help="frames shown in the self-sample leaderboard")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "bench", help="write the translate-time perf baseline "
                      "(BENCH_translate.json)")
    p.add_argument("--size", default="tiny", choices=["tiny", "small"])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default="BENCH_translate.json")
    p.add_argument("--configs", nargs="+", default=None,
                   metavar="CONFIG",
                   help="bench only these pipeline configs")
    p.add_argument("--compare", nargs="?", const="", default=None,
                   metavar="REF",
                   help="perf-regression gate: compare this run against "
                        "the median of the last --window clean trajectory "
                        "entries (or the entries matching git ref REF) "
                        "BEFORE appending it; exit 3 on regression")
    p.add_argument("--window", type=int, default=5,
                   help="trajectory entries in the baseline median")
    p.add_argument("--time-threshold", type=float, default=0.15,
                   help="wall-time regression floor as a fraction "
                        "(default 0.15 = 15%%; MAD noise can widen it)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "warehouse",
        help="the sqlite run store: `ingest` refreshes it from the bench "
             "trajectory, `runs` lists comparable runs")
    p.add_argument("action", choices=["ingest", "runs"])
    _add_warehouse_flags(p)
    p.set_defaults(func=_cmd_warehouse)

    p = sub.add_parser(
        "diff",
        help="ranked deltas between two warehouse runs: wall time with "
             "a noise/work-change digest verdict, work counters, "
             "stage×function cells, fence-elision tiers, pass "
             "effectiveness, flamegraph frames (exit 2 if a run "
             "selector does not resolve)")
    p.add_argument("run_a", help="baseline run: a sha prefix, 'latest', "
                                 "'prev', 'latest-clean', 'prev-clean' "
                                 "or '@N' (N-th newest)")
    p.add_argument("run_b", nargs="?", default="latest",
                   help="candidate run (default 'latest')")
    p.add_argument("--json", action="store_true",
                   help="emit the report as deterministic JSON")
    p.add_argument("--markdown", action="store_true",
                   help="emit the report as markdown tables")
    p.add_argument("--top", type=int, default=15,
                   help="rows kept per ranked section (default 15)")
    p.add_argument("--any-kind", action="store_true",
                   help="resolve selectors over profile/trace runs too, "
                        "not just bench trajectory entries")
    _add_warehouse_flags(p)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "dash",
        help="render the warehouse to one self-contained HTML page "
             "(inline SVG sparklines, MAD anomaly flags, per-program "
             "drill-down)")
    p.add_argument("--html", nargs="?", const="dash.html", default=None,
                   metavar="FILE",
                   help="write to FILE (default dash.html); omit the "
                        "flag to print the HTML on stdout")
    p.add_argument("--title", default="repro dashboard")
    _add_warehouse_flags(p)
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser(
        "ledger",
        help="run-ledger activity summary; --gc keeps only the newest "
             "--keep entries")
    _add_db_flag(p)
    p.add_argument("--gc", action="store_true",
                   help="delete all but the newest --keep entries")
    p.add_argument("--keep", type=int, default=500,
                   help="entries kept by --gc (default 500)")
    p.add_argument("--tail", type=int, default=0, metavar="N",
                   help="also print the newest N entries as JSON lines")
    p.set_defaults(func=_cmd_ledger)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
