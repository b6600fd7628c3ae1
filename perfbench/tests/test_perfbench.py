"""Tests for the translator benchmark (run with ``python -m pytest perfbench/tests``).

Each test runs a workload cut down to its smallest programs, so the whole
file takes well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from repro.core import pipeline

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {"translate": {"demo", "sum"}, "sync": {"demo", "locked"},
         "tv": {"demo"}}


@pytest.fixture
def small_run(monkeypatch, tmp_path):
    """Cut every workload down to its smallest programs, one timed pass,
    one set-up, one fuzz program and one oracle-step program; spans go to
    a temporary directory."""
    for name, workload in harness.WORKLOADS.items():
        programs = SMALL.get(name)
        monkeypatch.setitem(harness.WORKLOADS, name, dataclasses.replace(
            workload,
            ops=tuple(op for op in workload.ops if op.program in programs)
            if programs else workload.ops,
            oracle_seeds=workload.oracle_seeds[:1], min_passes=1))
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "FUZZ_COUNT", 1)
    monkeypatch.setattr(harness, "SPAN_DIR", tmp_path)

    def run(workload, trace=False):
        return harness.run(workload, seed=3, seconds=0, trace=trace)

    return run


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["translate", "sync", "tv"])
def test_spec_lists_the_build_workloads(workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", ["translate", "sync", "tv", "fuzz"])
def test_minimal_run_emits_every_metric_with_its_unit(workload, small_run):
    report = small_run(workload)
    want = (harness.FUZZ_METRICS if workload == "fuzz"
            else declared("end_to_end"))
    assert {k: unit for k, (_, unit) in report.metrics.items()} == want
    assert report.correct and report.failed == 0 and report.attempted >= 1
    assert all(value > 0 for value, _ in report.metrics.values())

    traced = small_run(workload, trace=True)
    assert ({k: unit for k, (_, unit) in traced.metrics.items()}
            == declared("per_layer"))
    assert traced.correct


def test_fuzz_seed_changes_the_programs_and_nothing_else(small_run,
                                                        monkeypatch):
    monkeypatch.setattr(harness, "FUZZ_COUNT", 4)
    fuzz = harness.WORKLOADS["fuzz"]
    a, b = harness.prepare(fuzz, 1), harness.prepare(fuzz, 2)
    again = harness.prepare(fuzz, 1)
    assert a.sources == again.sources
    assert len(a.ops) == len(b.ops) == 4
    assert set(a.sources.values()).isdisjoint(b.sources.values())
    assert {op.config for op in a.ops} == {op.config for op in b.ops}

    translate = harness.WORKLOADS["translate"]
    x = harness.prepare(translate, 1)
    y = harness.prepare(translate, 2)
    assert x.ops == y.ops and x.sources == y.sources


def test_miscompile_raises_fail_rate(monkeypatch, small_run):
    """One build (demo in ppopt) emits another program's code."""
    translate = pipeline.Lasagne.translate
    locked = None

    def miscompile(self, obj, config="ppopt", entry="main"):
        if config == "ppopt" and "worker" in obj.functions:  # demo
            return translate(self, locked, config, entry)
        return translate(self, obj, config, entry)

    inputs = harness.prepare(harness.WORKLOADS["sync"], 0)
    locked = inputs.images["locked"]
    assert "worker" not in locked.functions
    monkeypatch.setattr(pipeline.Lasagne, "translate", miscompile)
    report = small_run("sync")
    assert not report.correct
    assert 0 < report.failed < report.attempted
    assert any("demo/ppopt" in note for note in report.notes)


def test_passes_that_differ_fail_loudly():
    ops = [harness.Op("demo", "opt")]
    with pytest.raises(harness.BenchmarkError, match="demo/opt"):
        harness.check_repeats(ops, [[{"fences": 3}], [{"fences": 4}]])


def test_self_times_never_exceed_span_durations(small_run):
    report = small_run("tv", trace=True)
    spans = json.loads(
        (harness.SPAN_DIR / "spans-tv-seed3.json").read_text())["spans"]
    assert spans and report.correct
    for span in spans:
        assert 0.0 <= span["self_time"] <= span["duration"] + 1e-9
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    names = {s["name"] for s in spans}
    assert {"analysis.tv.check", "lir.clone", "opt.gvn", "arm.run"} <= names


def test_traced_translate_measures_the_oracle_and_counts_builds_once(small_run):
    """The oracle step measures validate and lir.interp; the output checks'
    re-ingest of the ELF fixture is not added to the per-pass loader count."""
    report = small_run("translate", trace=True)
    value = {k: v for k, (v, _) in report.metrics.items()}
    assert report.correct
    assert value["validate.oracle_s"] > 0 and value["lir.interp_s"] > 0
    assert value["validate.rungs"] > 0
    _, loaded = pipeline.ingest_binary(
        (ROOT / "examples" / "elf" / "sum").read_bytes())
    sum_builds = sum(op.elf for op in harness.WORKLOADS["translate"].ops)
    assert value["loader.functions"] == sum_builds * len(loaded.functions)


def test_normalized_times_scale_wall_times_by_the_host_probe(small_run,
                                                            monkeypatch):
    monkeypatch.setattr(harness, "probe", lambda: 2 * harness.PROBE_REFERENCE_S)
    inputs = harness.prepare(harness.WORKLOADS["sync"], 0)
    one = harness.run_pass(inputs, pipeline.Lasagne(fence_analysis="sync"))
    assert one.op_normalized == pytest.approx([t / 2 for t in one.op_seconds])
    assert harness.typical_pass([one]) == pytest.approx(one.wall / 2)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(1, 21)], 20) == (10.0, 50.0, 20)
    value, pct, n = harness.tail([float(i) for i in range(156)], 156)
    assert (value, n) == (145.0, 156) and pct == pytest.approx(93.59, abs=0.01)
    assert harness.tail([1.0, 2.0, 3.0], 3) == (2.0, 50.0, 3)
    # A run that fits a third pass keeps the two-pass percentile.
    assert harness.tail([float(i) for i in range(30)], 20) == (14.0, 50.0, 30)


def test_paper_shape_flags():
    good = {"lifted": (11.0, 700), "opt": (2.9, 700), "popt": (2.7, 500),
            "ppopt": (2.0, 130)}
    rows = {c: {"cycles_vs_native": a, "fences": b} for c, (a, b) in good.items()}
    assert harness.shape_flags(rows) == []
    rows["ppopt"]["fences"] = 900
    assert harness.shape_flags(rows) == ["fences: expected ppopt < popt < opt"]


def test_exits_nonzero_without_the_translator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "translate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
