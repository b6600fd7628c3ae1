"""Tests for the command-line interface (``python -m repro``)."""

from unittest import mock

import pytest

from repro.cli import _first_output_mismatch, main

DEMO = """
int g = 0;
int worker(int t) { atomic_add(&g, t + 1); return 0; }
int main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  join(a); join(b);
  return g;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestTranslateCommand:
    def test_translate_runs_and_matches(self, demo_file, capsys):
        rc = main(["translate", demo_file, "--run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x86 result: 5" in out
        assert "arm result: 5" in out

    def test_translate_dump_arm(self, demo_file, capsys):
        rc = main(["translate", demo_file, "--dump-arm", "--no-verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worker:" in out and "main:" in out
        assert "dmb ish" in out  # atomic_add's barriers

    def test_translate_dump_ir(self, demo_file, capsys):
        rc = main(["translate", demo_file, "--dump-ir", "--config", "opt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "define" in out and "atomicrmw" in out

    def test_all_configs_accepted(self, demo_file):
        for config in ("native", "lifted", "opt", "popt", "ppopt"):
            assert main(["translate", demo_file, "--config", config]) == 0


class TestRunRecording:
    """``repro translate`` records its ledger entry in the run store,
    ``.repro/warehouse.sqlite`` under the working directory."""

    def test_translate_lands_one_ledger_row(self, demo_file, tmp_path,
                                            monkeypatch):
        from repro.warehouse import DEFAULT_DB, Warehouse

        monkeypatch.delenv("REPRO_LEDGER")
        monkeypatch.chdir(tmp_path)
        assert main(["translate", demo_file, "--config", "opt"]) == 0
        with Warehouse(tmp_path / DEFAULT_DB) as store:
            entry, = store.ledger_entries()
        assert entry["command"] == "translate"
        assert entry["config"] == "opt" and entry["rc"] == 0
        assert entry["work_digest"]
        assert sorted(p.name for p in (tmp_path / ".repro").iterdir()) \
            == ["warehouse.sqlite"]

    def test_disabled_recording_writes_nothing(self, demo_file, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        monkeypatch.chdir(tmp_path)
        assert main(["translate", demo_file]) == 0
        assert not (tmp_path / ".repro").exists()

    def test_unwritable_store_still_exits_0(self, demo_file, tmp_path,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER")
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".repro").write_text("a plain file, not a directory")
        assert main(["translate", demo_file]) == 0
        assert (tmp_path / ".repro").is_file()


PRINTING = """
int main() {
  print_i(1); print_i(2); print_i(3);
  return 0;
}
"""


class TestRunOutputComparison:
    def test_first_output_mismatch(self):
        assert _first_output_mismatch(["1", "2"], ["1", "2"]) is None
        assert _first_output_mismatch(["1", "2"], ["1", "9"]) == 1
        assert _first_output_mismatch(["1", "2"], ["1"]) == 1
        assert _first_output_mismatch([], ["1"]) == 0

    def test_matching_outputs_pass(self, tmp_path):
        path = tmp_path / "p.c"
        path.write_text(PRINTING)
        assert main(["translate", str(path), "--run"]) == 0

    def test_output_stream_mismatch_reported(self, tmp_path, capsys):
        """Same return value but different output must fail with the index."""
        path = tmp_path / "p.c"
        path.write_text(PRINTING)
        from repro.core import Lasagne, RunResult

        fake = RunResult(result=0, output=["1", "99", "3"], cycles=1,
                         instructions_retired=1)
        with mock.patch.object(Lasagne, "run", staticmethod(lambda *a: fake)):
            rc = main(["translate", str(path), "--run"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "output streams at index 1" in err


class TestLiftCommand:
    def test_lift_shows_slots(self, demo_file, capsys):
        rc = main(["lift", demo_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rax_slot" in out and "stacktop" in out

    def test_lift_refined_and_fenced(self, demo_file, capsys):
        rc = main(["lift", demo_file, "--refine", "--fences"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fence" in out

    def test_lift_optimized(self, demo_file, capsys):
        rc = main(["lift", demo_file, "--optimize"])
        assert rc == 0


class TestLitmusCommand:
    def test_known_test(self, capsys):
        rc = main(["litmus", "MP", "--model", "x86"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MP under x86" in out
        assert "t2:a=1, t2:b=0" not in out  # forbidden on x86

    def test_mapped_program(self, capsys):
        rc = main(["litmus", "MP", "--map", "x86-to-arm", "--model", "arm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t2:a=1, t2:b=0" not in out  # mapping preserves x86 semantics

    def test_unknown_test_lists_available(self, capsys):
        rc = main(["litmus", "NOPE"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "available" in err and "SB" in err


class TestLitmusFileCommand:
    def test_litmus_file(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(
            "MP\n{ X=0; Y=0 }\n"
            "P0    | P1    ;\n"
            "X = 1 | a = Y ;\n"
            "Y = 1 | b = X ;\n"
            "exists (P1:a=1 /\\ P1:b=0)\n"
        )
        rc = main(["litmus", "--file", str(path), "--model", "x86"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forbidden under x86" in out
        rc = main(["litmus", "--file", str(path), "--model", "arm"])
        out = capsys.readouterr().out
        assert "ALLOWED under arm" in out


FENCED = """
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
def fenced_file(tmp_path):
    """A program with both placeable and mergeable fences (adjacent runs)."""
    path = tmp_path / "fenced.c"
    path.write_text(FENCED)
    return str(path)


class TestTelemetryFlags:
    def test_trace_writes_chrome_trace_json(self, fenced_file, tmp_path,
                                            capsys):
        import json

        trace = tmp_path / "trace.json"
        rc = main(["translate", fenced_file, "--trace", str(trace)])
        assert rc == 0
        assert f"trace written to {trace}" in capsys.readouterr().err
        doc = json.loads(trace.read_text())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        # v6 traces are self-describing: spans plus ph:"M" process/
        # thread names and ph:"C" work counters.
        assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "M", "C"}
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        # One span per pipeline stage and one per executed opt pass.
        assert {"pipeline", "lift", "refine", "place",
                "opt", "merge", "codegen"} <= names
        assert {e["name"] for e in events if e["cat"] == "pass"} >= \
            {"mem2reg", "gvn", "dce"}

    def test_trace_counter_events_are_work_counter_totals(self, fenced_file,
                                                          tmp_path):
        import json

        from repro.core import Lasagne
        from repro.profiler import workcounters

        trace = tmp_path / "trace.json"
        assert main(["translate", fenced_file, "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        counters = {e["name"]: e["args"]["value"]
                    for e in events if e["ph"] == "C"}
        with workcounters.collect() as wc:
            Lasagne().build(FENCED, "ppopt")
        assert "opt.visits" in counters
        assert counters == wc.by_counter()

    def test_remarks_flag_prints_fence_decisions(self, fenced_file, capsys):
        rc = main(["translate", fenced_file, "--remarks"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[place-fences:fence-inserted]" in err
        assert "[merge-fences:fence-merged]" in err
        # Remarks carry function:block:instruction locations.
        assert "remark: main:" in err

    def test_remarks_filter_by_origin(self, fenced_file, capsys):
        rc = main(["translate", fenced_file, "--remarks=merge"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[merge-fences:fence-merged]" in err
        assert "place-fences" not in err

    def test_no_flags_no_telemetry_output(self, fenced_file, capsys):
        rc = main(["translate", fenced_file])
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace" not in captured.out
        assert "remark" not in captured.err


class TestStatsCommand:
    def test_stats_sections(self, fenced_file, capsys):
        rc = main(["stats", fenced_file, "--run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== stage breakdown (ppopt) ==" in out
        for stage in ("lift", "refine", "place", "opt", "merge", "codegen"):
            assert stage in out
        assert "== optimization passes" in out
        assert "mem2reg" in out
        assert "per-iteration reduction: iter0=" in out
        assert "== metrics ==" in out
        assert "fences.inserted{kind=rm}" in out
        assert "emu.arm.instret" in out  # --run adds emulator metrics
        assert "== remarks (origin:kind -> count) ==" in out
        assert "place-fences:fence-inserted" in out


class TestAnalyzeCommand:
    def test_analyze_clean_ppopt(self, demo_file, capsys):
        rc = main(["analyze", demo_file])
        assert rc == 0
        out = capsys.readouterr().out
        # With no mode flag, all three reports print.
        assert "== escape analysis (ppopt) ==" in out
        assert "== access classification (ppopt) ==" in out
        assert "== fencecheck (ppopt) ==" in out
        assert "fencecheck: 0 violation(s)" in out

    def test_analyze_escape_only(self, demo_file, capsys):
        rc = main(["analyze", demo_file, "--escape"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stack object(s)" in out
        assert "fencecheck" not in out

    def test_analyze_aliases(self, demo_file, capsys):
        rc = main(["analyze", demo_file, "--aliases", "--config", "lifted"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== access classification (lifted) ==" in out
        # Lifted code addresses its emulated stack; some accesses must
        # classify as thread-local stack traffic.
        assert "thread-local" in out

    def test_analyze_fencecheck_all_configs(self, demo_file, capsys):
        for config in ("lifted", "opt", "popt", "ppopt"):
            rc = main(["analyze", demo_file, "--fencecheck",
                       "--config", config])
            assert rc == 0, config
            assert "fencecheck: 0 violation(s)" in capsys.readouterr().out

    def test_analyze_missing_file(self, capsys):
        rc = main(["analyze", "/nonexistent/nope.c"])
        assert rc == 2

    def test_analyze_flags_violations(self, demo_file, capsys):
        """A stripped module (fences removed post-placement) must fail."""
        from repro.analysis import check_module
        from repro.core import Lasagne
        from repro.lir import Fence
        from repro.minicc.codegen_x86 import compile_to_x86

        built = Lasagne().translate(compile_to_x86(DEMO), "ppopt")
        for func in built.module.functions.values():
            for bb in func.blocks:
                for inst in list(bb.instructions):
                    if isinstance(inst, Fence):
                        inst.erase_from_parent()
        assert len(check_module(built.module)) > 0


class TestDelaySetCli:
    def test_litmus_delay_gate_whole_corpus(self, capsys):
        rc = main(["litmus", "--delay-sets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delay-set gate:" in out
        assert "all elisions sound" in out
        assert "UNSOUND" not in out

    def test_litmus_delay_gate_single_test_verbose(self, capsys):
        rc = main(["litmus", "MP", "--delay-sets", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "required" in out and "elided" in out
        # Verbose mode prints one verdict per Fig. 8a fence.
        assert "Fww" in out and "Frm" in out

    def test_analyze_delay_sets_report(self, demo_file, capsys):
        rc = main(["analyze", demo_file, "--delay-sets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== delay-set analysis (ppopt) ==" in out
        assert "delay-sets:" in out

    def test_analyze_delay_sets_rejects_native(self, demo_file, capsys):
        rc = main(["analyze", demo_file, "--delay-sets", "--config",
                   "native"])
        assert rc == 2
        assert "translated config" in capsys.readouterr().err

    def test_translate_delay_sets_verified(self, demo_file, capsys):
        """--fence-analysis=delay-sets still passes end-to-end verification
        and reports its elision tally."""
        rc = main(["translate", demo_file, "--run",
                   "--fence-analysis", "delay-sets"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "x86 result: 5" in captured.out
        assert "arm result: 5" in captured.out
        assert "delay-sets:" in captured.err


class TestBenchCommand:
    def test_bench_writes_baseline(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.warehouse import DEFAULT_DB, Warehouse

        # Record into tmp_path's run store (the suite disables recording).
        monkeypatch.delenv("REPRO_LEDGER")
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "BENCH_translate.json"
        rc = main(["bench", "--size", "tiny", "--repeats", "1",
                   "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"baseline written to {out_path}" in out
        report = json.loads(out_path.read_text())
        assert report["version"] == 10
        assert set(report["summary"]) == \
            {"native", "lifted", "opt", "popt", "ppopt", "loader"}
        lifted = report["summary"]["lifted"]
        assert lifted["fences_elided_total"] > 0
        assert "fences_elided_beyond_walk_total" in lifted
        assert lifted["fences_elided_interproc_total"] >= 0
        assert lifted["fences_elided_delayset_total"] >= 0
        # v7: lockset (sync) elision tier + racecheck counts.
        assert lifted["fences_elided_sync_total"] >= 0
        assert lifted["racecheck_racy_total"] >= 0
        assert lifted["racecheck_lock_protected_total"] >= 0
        assert lifted["fencecheck_violations_total"] == 0
        assert lifted["provenance_fence_pct_min"] == 100.0
        # v6: deterministic work counters + memory per config and loader.
        assert lifted["work"]["place.accesses"] > 0
        assert lifted["work_digest"]
        assert lifted["peak_rss_bytes"] > 0
        assert report["summary"]["loader"]["work"]["triage.instructions"] > 0
        assert report["profile_top"]["samples"] >= 0
        # v10: the stage x counter x function matrix of every row is
        # in the warehouse, on the run the file's newest entry yields;
        # the written file keeps only totals and digests.
        program, configs = next(iter(report["programs"].items()))
        prog_row = configs["lifted"]
        assert all("work_cells" not in row
                   for rows in report["programs"].values()
                   for row in rows.values())
        assert all("work_cells" not in row
                   for row in report["loader"].values())
        with Warehouse(tmp_path / DEFAULT_DB) as store:
            run, = store.runs("bench")
            assert run.source == out_path.name and run.version == 10
            cells = store.work_cells(run.id)
            assert store.ledger_summary()[2] == {"bench": 1}
        assert any(key[:2] == ("lifted", program) for key in cells)
        assert any(key[0] == "loader" for key in cells)
        lifted_accesses = sum(n for key, n in cells.items()
                            if key[:2] == ("lifted", program)
                            and key[3] == "place.accesses")
        assert lifted_accesses == prog_row["work"]["place.accesses"]
        # v9: tv verdict counts per row — vacuous for lifted (no passes
        # run), live for every optimizing config.
        assert prog_row["tv_proved"] == prog_row["tv_refuted"] == 0
        ppopt_row = next(iter(report["programs"].values()))["ppopt"]
        assert ppopt_row["tv_proved"] > 0
        assert ppopt_row["tv_refuted"] == 0
        assert report["summary"]["ppopt"]["tv_refuted_total"] == 0
        assert len(report["trajectory"]) == 1
        entry = report["trajectory"][0]
        assert "dirty" in entry
        assert entry["version"] == 10


def test_evaluate_command_smoke(capsys):
    """The evaluate command prints the Figure-12-style table (tiny size)."""
    rc = main(["evaluate", "--size", "tiny"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GMean" in out
    for config in ("native", "lifted", "opt", "popt", "ppopt"):
        assert config in out
