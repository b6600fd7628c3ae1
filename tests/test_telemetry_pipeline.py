"""Integration tests: telemetry emitted by the translator itself —
pipeline stage spans, pass iteration records, fence/refine remarks,
result fields, validate-runner timing aggregation, bench emitter."""

import json

import pytest

from repro import telemetry
from repro.core import Lasagne
from repro.arm import ArmEmulator
from repro.fences import merge_fences, place_fences
from repro.lir import (
    ConstantInt,
    Function,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    ptr,
)
from repro.opt import PassRecord, optimize_module
from repro.refine.ptrpromote import run_pointer_promotion

SRC = """
int g = 0;
int h = 0;
int worker(int t) { atomic_add(&g, t + 1); return 0; }
int main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  join(a); join(b);
  h = g;
  g = h + 1;
  return g;
}
"""


@pytest.fixture()
def built_with_telemetry():
    with telemetry.session() as tel:
        built = Lasagne().build(SRC, "ppopt")
        run = Lasagne.run(built)
    return tel, built, run


class TestPipelineTrace:
    def test_stage_spans_present(self, built_with_telemetry):
        tel, built, _ = built_with_telemetry
        assert built.trace is not None
        assert built.trace.name == "pipeline"
        assert built.trace.attrs["config"] == "ppopt"
        stages = built.stage_seconds()
        for stage in ("lift", "refine", "place", "opt", "merge", "codegen"):
            assert stage in stages and stages[stage] >= 0.0

    def test_pass_spans_nested_under_opt(self, built_with_telemetry):
        tel, _, _ = built_with_telemetry
        pass_spans = tel.tracer.find(category="pass")
        assert {"gvn", "instcombine", "dce"} <= {s.name for s in pass_spans}

    def test_result_carries_placement_stats(self, built_with_telemetry):
        _, built, _ = built_with_telemetry
        assert built.placement is not None
        assert built.placement.loads_fenced > 0
        assert built.fences_naive == built.placement.total_inserted
        assert built.fences < built.fences_naive  # merging removed some

    def test_chrome_export_has_stage_and_pass_events(self,
                                                     built_with_telemetry):
        tel, _, _ = built_with_telemetry
        doc = telemetry.to_chrome_trace(tel.tracer)
        json.loads(json.dumps(doc))
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"pipeline", "stage", "pass"} <= cats

    def test_no_session_means_no_trace(self):
        built = Lasagne().build(SRC, "ppopt")
        assert built.trace is None
        assert built.stage_seconds() == {}

    def test_emulator_metrics(self, built_with_telemetry):
        _, built, run = built_with_telemetry
        emu = ArmEmulator(built.program)
        assert emu.run() == run.result
        assert run.cycles == emu.total_cycles > 0
        assert run.instructions_retired == \
            sum(t.instret for t in emu.threads) > 0
        assert len(emu.threads) == 3


class TestPassStatsIterations:
    def test_records_carry_iteration_and_changed(self):
        m = Module("t")
        f = Function("f", FunctionType(I64, (I64,)), ["x"])
        m.add_function(f)
        b = IRBuilder(f.new_block("entry"))
        slot = b.alloca(I64)
        b.store(f.arguments[0], slot)
        v = b.load(slot)
        b.ret(b.add(v, ConstantInt(I64, 0)))
        stats = optimize_module(m)
        assert stats.iterations >= 1
        assert all(isinstance(rec, PassRecord) for rec in stats.records)
        assert {rec.iteration for rec in stats.records} == \
            set(range(stats.iterations))
        assert any(rec.changed for rec in stats.records)
        # The last iteration is the fixpoint check: nothing changes there.
        assert not any(
            rec.changed for rec in stats.records
            if rec.iteration == stats.iterations - 1)
        by_iter = stats.reduction_by_iteration()
        assert sum(by_iter.values()) == \
            sum(r.before - r.after for r in stats.records)
        assert by_iter[stats.iterations - 1] == 0
        assert set(stats.by_iteration()) == set(range(stats.iterations))
        assert "mem2reg" in stats.changed_passes(iteration=0)

    def test_pass_change_remarks(self):
        m = Module("t")
        f = Function("f", FunctionType(I64, (I64,)), ["x"])
        m.add_function(f)
        b = IRBuilder(f.new_block("entry"))
        slot = b.alloca(I64)
        b.store(f.arguments[0], slot)
        b.ret(b.load(slot))
        with telemetry.session() as tel:
            optimize_module(m)
        changed = [r for r in tel.remarks.remarks if r.kind == "changed"]
        assert any(r.origin == "opt.mem2reg" for r in changed)
        assert all("iteration" in r.args for r in changed)


def _module_with_global_accesses():
    """store/load a global (fenced) and a stack slot (skipped)."""
    from repro.lir import GlobalVariable

    m = Module("t")
    g = GlobalVariable("g", I64, ConstantInt(I64, 0))
    m.add_global(g)
    f = Function("main", FunctionType(I64, ()), [])
    m.add_function(f)
    b = IRBuilder(f.new_block("entry"))
    local = b.alloca(I64, "local")
    b.store(ConstantInt(I64, 1), local)          # stack-local: skipped
    b.store(ConstantInt(I64, 2), g)              # global: Fww
    v = b.load(g)                                # global: Frm
    b.ret(v)
    return m


class TestFenceRemarks:
    def test_placement_remarks_with_locations(self):
        with telemetry.session() as tel:
            stats = place_fences(_module_with_global_accesses())
        inserted = tel.remarks.select("place-fences", "fence-inserted")
        skipped = tel.remarks.select("place-fences", "fence-skipped")
        assert len(inserted) == 2 and len(skipped) == 1
        for r in inserted + skipped:
            assert r.function == "main"
            assert r.block == "entry"
            assert r.instruction and ("load" in r.instruction
                                      or "store" in r.instruction)
        assert stats.loads_fenced == 1
        assert stats.stores_fenced == 1
        assert stats.skipped_stack == 1

    def test_merge_remarks(self):
        # The tiny module above never places two adjacent fences, so merge
        # the module a real popt build had after O2, where DSE/GVN create
        # adjacent fence runs.
        built = Lasagne(capture_stages=True).build(SRC, "popt")
        with telemetry.session() as tel:
            removed = merge_fences(built.stages["opt"])
        merged = tel.remarks.select("merge-fences", "fence-merged")
        assert merged, "popt build must merge at least one fence run"
        for r in merged:
            assert r.function and r.block
            assert r.args["run_length"] >= 2
        assert removed >= len(merged)
        assert built.fences < built.fences_naive


class TestRefinementRemarks:
    def test_peephole_rule_remarks_from_full_build(self):
        with telemetry.session() as tel:
            built = Lasagne().build(SRC, "ppopt")
        rules = {r.kind for r in tel.remarks.remarks
                 if r.origin == "refine-peephole"}
        assert rules and rules <= {"rule1-pointer-cast",
                                   "rule2-address-offset",
                                   "rule3-parameter-offset"}
        assert built.pointer_casts_after < built.pointer_casts_before

    def test_pointer_promotion_remark(self):
        m = Module("t")
        callee = Function("callee", FunctionType(I64, (I64,)), ["p"])
        m.add_function(callee)
        b = IRBuilder(callee.new_block("entry"))
        p = b.inttoptr(callee.arguments[0], ptr(I64))
        b.ret(b.load(p))
        caller = Function("caller", FunctionType(I64, (I64,)), ["x"])
        m.add_function(caller)
        bc = IRBuilder(caller.new_block("entry"))
        bc.ret(bc.call(callee, [caller.arguments[0]]))
        with telemetry.session() as tel:
            assert run_pointer_promotion(m)
        remarks = tel.remarks.select("refine-ptrpromote",
                                     "parameter-promoted")
        # The promotion propagates: callee's %p, then caller's %x which
        # flows into the now-pointer-typed parameter.
        assert {r.function for r in remarks} == {"callee", "caller"}
        assert len(remarks) == 2  # one remark per promoted parameter


class TestValidateTiming:
    def test_report_aggregates_wall_time_and_stages(self, tmp_path):
        from repro.validate import RunnerOptions, run_corpus

        trace_file = tmp_path / "trace.json"
        opts = RunnerOptions(
            seed=3, count=3, corpus_dir=str(tmp_path / "corpus"),
            trace_file=str(trace_file), collect_remarks=True)
        report = run_corpus(opts)
        timing = report["timing"]
        assert timing["min_seconds"] <= timing["median_seconds"] \
            <= timing["p95_seconds"] <= timing["max_seconds"]
        assert 1 <= len(timing["slowest"]) <= 5
        assert timing["slowest"][0]["elapsed_seconds"] == \
            timing["max_seconds"]
        assert "lift" in timing["stages"]
        stage = timing["stages"]["lift"]
        assert stage["p50_seconds"] <= stage["p95_seconds"]
        assert stage["total_seconds"] > 0
        # Merged chrome trace from every oracle run.
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]
        assert any(e["cat"] == "stage" for e in doc["traceEvents"])
        # Remark histogram survived the report merge.
        assert any(key.startswith("place-fences")
                   for key in report["remark_histogram"])


class TestBenchEmitter:
    def test_bench_schema(self, tmp_path):
        from repro.telemetry.bench import run_bench, write_bench

        report = run_bench(size="tiny", configs=["ppopt"], repeats=1)
        assert report["version"] == 10
        assert report["configs"] == ["ppopt"]
        assert "demo" in report["programs"]
        for name, per_config in report["programs"].items():
            row = per_config["ppopt"]
            assert row["translate_seconds"] > 0
            assert row["arm_instructions"] > 0
            assert row["lir_instructions"] > 0
            assert row["fences"] <= row["fences_naive"]
            assert row["fences_elided"] >= 0
            assert row["fences_elided_interproc"] >= 0
            assert row["fences_elided_delayset"] >= 0
            assert row["fences_elided_sync"] >= 0
            assert row["racecheck"]["racy"] >= 0
            assert row["racecheck"]["lock_protected"] >= 0
            assert row["fencecheck_violations"] == 0
            assert row["provenance"]["fence_pct"] == 100.0
        # The interprocedural and delay-set tiers must each prove real
        # elisions on at least one Phoenix kernel and on examples/demo.c.
        phoenix = [per_config["ppopt"]
                   for name, per_config in report["programs"].items()
                   if name != "demo"]
        assert any(r["fences_elided_interproc"] > 0 for r in phoenix)
        assert any(r["fences_elided_delayset"] > 0 for r in phoenix)
        demo = report["programs"]["demo"]["ppopt"]
        assert demo["fences_elided_interproc"] > 0
        assert demo["fences_elided_delayset"] > 0
        summary = report["summary"]["ppopt"]
        assert summary["translate_seconds_total"] > 0
        assert summary["fences_elided_interproc_total"] > 0
        assert summary["fences_elided_delayset_total"] > 0
        # v7: the sync tier proves real elisions on the locked example,
        # and racecheck sees its lock-protected accesses.
        locked = report["programs"]["locked"]["ppopt"]
        assert locked["fences_elided_sync"] > 0
        assert locked["racecheck"]["lock_protected"] > 0
        assert summary["fences_elided_sync_total"] > 0
        # v8: every in-memory row carries the attribution matrix behind
        # its totals (v10: the written file does not, see below).
        assert demo["work_cells"]
        assert all(len(cell) == 4 for cell in demo["work_cells"])
        assert summary["racecheck_lock_protected_total"] > 0
        # v9: the companion tv build proves every pass invocation (or
        # leaves it unknown) — a refutation anywhere is a miscompile.
        for name, per_config in report["programs"].items():
            row = per_config["ppopt"]
            assert row["tv_refuted"] == 0, name
            assert row["tv_proved"] + row["tv_unknown"] > 0, name
        assert any(c.startswith("tv.") for c in demo["work"])
        assert summary["tv_refuted_total"] == 0
        assert summary["tv_proved_total"] > summary["tv_unknown_total"]
        # v5: the ELF-loader trajectory over examples/elf fixtures.
        for name, row in report["loader"].items():
            assert row["ok"], name
            assert row["ingest_seconds"] > 0
            assert row["functions_discovered"] >= 1
            assert row["externals_resolved"] >= 1
        if report["loader"]:
            loader = report["summary"]["loader"]
            assert loader["externals_opaque"] == 0
            assert loader["functions_discovered"] >= len(report["loader"])
        out = write_bench(report, str(tmp_path / "BENCH_translate.json"))
        data = json.loads(out.read_text())
        assert len(data["trajectory"]) == 1
        assert "work_cells" not in data["programs"]["demo"]["ppopt"]
        assert data["programs"]["demo"]["ppopt"]["work"] == demo["work"]
        assert demo["work_cells"]  # writing does not touch the report
