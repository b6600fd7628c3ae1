"""Tests for the pass manager, pipeline plumbing and the core driver."""

import pytest

from repro.core import CONFIGS, Lasagne
from repro.lir import ConstantInt, Function, FunctionType, I64, IRBuilder, Module
from repro.opt import (
    FUNCTION_PASSES,
    MODULE_PASSES,
    STANDARD_PIPELINE,
    PassManager,
    optimize_module,
)


def junk_module():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)), ["x"])
    m.add_function(f)
    b = IRBuilder(f.new_block("entry"))
    slot = b.alloca(I64)
    b.store(f.arguments[0], slot)
    v = b.load(slot)
    dead = b.add(v, ConstantInt(I64, 0))
    dead2 = b.mul(dead, ConstantInt(I64, 1))
    b.ret(b.add(v, ConstantInt(I64, 0)))
    return m


class TestPassManager:
    def test_every_registered_pass_runs(self):
        pm = PassManager(verify=True)
        for name in list(FUNCTION_PASSES) + list(MODULE_PASSES):
            pm.run_pass(junk_module(), name)

    def test_unknown_pass_rejected(self):
        pm = PassManager()
        with pytest.raises(KeyError):
            pm.run_pass(junk_module(), "loop-vectorize")

    def test_stats_record_reductions(self):
        pm = PassManager()
        m = junk_module()
        pm.run_pipeline(m)
        reductions = pm.stats.reduction_by_pass()
        assert sum(reductions.values()) > 0
        assert all(v >= 0 for v in reductions.values())

    def test_pipeline_reaches_fixpoint(self):
        m = junk_module()
        optimize_module(m)
        before = m.instruction_count()
        optimize_module(m)
        assert m.instruction_count() == before

    def test_standard_pipeline_is_registered(self):
        for name in STANDARD_PIPELINE:
            assert name in FUNCTION_PASSES or name in MODULE_PASSES

    def test_declarations_skipped(self):
        m = junk_module()
        m.add_function(Function("decl", FunctionType(I64, ())))
        optimize_module(m, verify=True)  # must not crash on the declaration


class TestCoreDriver:
    def test_configs_list(self):
        assert CONFIGS == ["native", "lifted", "opt", "popt", "ppopt"]

    def test_build_dispatches_native(self):
        built = Lasagne(verify=True).build("int main() { return 3; }", "native")
        assert built.config == "native"
        assert Lasagne.run(built).result == 3

    def test_run_collects_output_and_cycles(self):
        built = Lasagne(verify=True).build(
            "int main() { print_i(5); return 0; }", "opt"
        )
        run = Lasagne.run(built)
        assert run.output == ["5"]
        assert run.cycles > 0
        assert run.instructions_retired > 0

    def test_translation_result_metrics(self):
        built = Lasagne(verify=True).build(
            "int g = 0; int main() { g = 1; return g; }", "ppopt"
        )
        assert built.arm_instructions > 0
        assert built.lir_instructions > 0
        assert built.pointer_casts_before >= built.pointer_casts_after

    @pytest.mark.parametrize("config", ["popt", "ppopt"])
    def test_pass_stats_cover_the_merge_stage_run(self, config, monkeypatch):
        """The post-merge dce run is part of pass_stats: its iterations
        continue the O2 numbering, so the stats agree with the
        opt.iterations work counter and with every pass invocation."""
        from repro.profiler import workcounters

        calls = []
        run_pass = PassManager.run_pass

        def counting(self, module, name, iteration=0):
            calls.append(name)
            return run_pass(self, module, name, iteration)

        monkeypatch.setattr(PassManager, "run_pass", counting)
        source = ("int g = 0; int h = 0;\n"
                  "int main() { g = 1; h = 2; return g + h; }")
        with workcounters.collect() as wc:
            built = Lasagne().build(source, config)
        stats = built.pass_stats
        assert stats.iterations == wc.by_counter()["opt.iterations"]
        assert len(stats.records) == len(calls)
        assert stats.records[-1].name == "dce"
