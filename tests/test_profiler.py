"""Tests for repro.profiler: work counters, sampler, memory accounting,
the regression gate, the run ledger, and the CLI surface."""

import json
import threading
import time

import pytest

from repro.profiler import (
    EXIT_REGRESSION,
    SamplingProfiler,
    WorkCounters,
    accounting,
    check_regression,
    eligible_entries,
    stage_of,
    workcounters,
)
from repro.profiler.ledger import append_entry
from repro.warehouse import DEFAULT_DB, Warehouse
from repro.profiler.memory import account, measure_peak
from repro.profiler.sampler import Profile, extract_stack


DEMO = """
int a[8];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { a[i] = i; s = s + a[i]; }
  return s;
}
"""


class TestWorkCounters:
    def test_add_and_aggregate(self):
        wc = WorkCounters()
        wc.add("opt", "opt.visits", "main", 10)
        wc.add("opt", "opt.visits", "helper", 5)
        wc.add("place", "place.fences", None, 2)
        assert wc.total() == 17
        assert wc.by_counter() == {"opt.visits": 15, "place.fences": 2}
        assert wc.by_stage()["opt"] == {"opt.visits": 15}
        assert wc.matrix("opt.visits") == {
            "opt": {"main": 10, "helper": 5}}

    def test_digest_is_order_independent(self):
        a, b = WorkCounters(), WorkCounters()
        a.add("s1", "c1", "f1", 3)
        a.add("s2", "c2", "f2", 4)
        b.add("s2", "c2", "f2", 4)
        b.add("s1", "c1", "f1", 3)
        assert a.digest() == b.digest()
        b.add("s1", "c1", "f1", 1)
        assert a.digest() != b.digest()

    def test_merge(self):
        a, b = WorkCounters(), WorkCounters()
        a.add("s", "c", "f", 1)
        b.add("s", "c", "f", 2)
        b.add("s", "c2", None, 5)
        a.merge(b)
        assert a.by_counter() == {"c": 3, "c2": 5}

    def test_work_is_noop_without_collector(self):
        assert workcounters.current() is None
        workcounters.work("anything", 99)  # must not raise
        assert workcounters.current() is None

    def test_collect_and_scopes(self):
        with workcounters.collect() as wc:
            workcounters.work("bare", 1)
            with workcounters.scope(stage="opt"):
                workcounters.work("opt.visits", 2)
                with workcounters.scope(function="main"):
                    workcounters.work("opt.visits", 3)
                workcounters.work("x", 1, function="override")
        assert workcounters.current() is None
        assert wc.by_counter() == {"bare": 1, "opt.visits": 5, "x": 1}
        assert wc.matrix("opt.visits")["opt"] == {
            "(module)": 2, "main": 3}
        assert wc.matrix("x")["opt"] == {"override": 1}

    def test_collect_restores_previous_collector(self):
        with workcounters.collect() as outer:
            workcounters.work("c", 1)
            with workcounters.collect() as inner:
                workcounters.work("c", 10)
            workcounters.work("c", 1)
        assert outer.by_counter() == {"c": 2}
        assert inner.by_counter() == {"c": 10}

    def test_scopes_are_thread_local(self):
        results = {}

        def worker():
            with workcounters.scope(stage="w", function="wf"):
                results["stack"] = True

        with workcounters.collect():
            with workcounters.scope(stage="main-stage"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        assert results["stack"]


class TestPipelineDeterminism:
    def test_identical_builds_have_identical_digests(self):
        from repro.core import Lasagne
        from repro.minicc import compile_to_x86

        obj = compile_to_x86(DEMO, "main")
        lasagne = Lasagne(verify=False)
        digests = []
        for _ in range(2):
            with workcounters.collect() as wc:
                lasagne.translate(obj, "ppopt")
            digests.append(wc.digest())
        assert digests[0] == digests[1]
        with workcounters.collect() as wc:
            pass
        assert wc.digest() != digests[0]  # empty != populated

    def test_build_populates_known_counters(self):
        from repro.core import Lasagne

        with workcounters.collect() as wc:
            Lasagne(verify=False).build(DEMO, "ppopt")
        counters = wc.by_counter()
        for name in ("opt.visits", "opt.iterations", "place.accesses",
                     "pointsto.rounds", "pointsto.transfers",
                     "codegen.instructions", "codegen.intervals"):
            assert counters.get(name, 0) > 0, name

    def test_regalloc_is_deterministic(self):
        # Spill-pressure codegen must not tie-break on id(): same IR in,
        # same Arm out, every run.
        from repro.core import Lasagne

        src = """
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
  int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
  int k = a+b; int l = c+d; int m = e+f; int n = g+h; int o = i+j;
  int p = k+l+m+n+o;
  return p + a + b + c + d + e + f + g + h + i + j;
}
"""
        lasagne = Lasagne(verify=False)
        dumps = {lasagne.build(src, "opt").program.dump() for _ in range(3)}
        assert len(dumps) == 1


class TestSampler:
    def test_samples_busy_thread(self):
        prof = SamplingProfiler(hz=997.0)

        def busy(deadline):
            while time.perf_counter() < deadline:
                sum(range(200))

        with prof:
            busy(time.perf_counter() + 0.15)
        profile = prof.profile
        assert profile.total > 0
        assert profile.duration > 0.1
        collapsed = profile.collapsed()
        assert collapsed.strip()
        # Every line is "frame;frame;... count".
        for line in collapsed.splitlines():
            stack, n = line.rsplit(" ", 1)
            assert int(n) > 0 and stack

    def test_stage_of(self):
        assert stage_of(("m:f", "repro.opt.gvn:run_gvn")) == "opt"
        assert stage_of(("repro.fences.placement:place_fences",
                        "json:dumps")) == "place"
        assert stage_of(("repro.core.pipeline:build",)) == "pipeline"
        assert stage_of(("os:getcwd",)) == "other"
        assert stage_of(()) == "other"

    def test_extract_stack_labels(self):
        frame = None

        def capture():
            nonlocal frame
            import sys
            frame = sys._current_frames()[threading.get_ident()]

        capture()
        stack = extract_stack(frame)
        assert any(label.endswith(":capture") for label in stack)

    def test_profile_exports(self):
        profile = Profile(hz=100.0)
        profile.samples[("a:f", "repro.opt.gvn:g")] = 3
        profile.samples[("a:f",)] = 1
        profile.total = 4
        shares = profile.stage_shares()
        assert shares["opt"] == 0.75
        assert shares["other"] == 0.25
        assert profile.known_stage_pct() == 75.0
        top = profile.top_frames(5)
        assert top[0][0] == "repro.opt.gvn:g"
        doc = profile.to_dict()
        json.dumps(doc)
        assert doc["samples"] == 4

    def test_double_start_raises(self):
        prof = SamplingProfiler(hz=100.0)
        with prof:
            with pytest.raises(RuntimeError):
                prof.start()
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)


class TestMemoryAccounting:
    def test_account_is_noop_when_off(self):
        with account("stage") as row:
            assert row is None

    def test_accounting_records_stage_peaks(self):
        with accounting() as acct:
            with account("alloc") as row:
                blob = bytearray(512 * 1024)
            del blob
            with account("alloc"):
                pass
        stage = acct.stages["alloc"]
        assert stage.peak_bytes >= 512 * 1024
        assert stage.calls == 2
        assert row.peak_bytes == stage.peak_bytes
        assert acct.peak_bytes() == stage.peak_bytes
        doc = acct.to_dict()
        assert doc["alloc"]["calls"] == 2

    def test_measure_peak(self):
        result, peak = measure_peak(lambda n: bytes(n), 256 * 1024)
        assert len(result) == 256 * 1024
        assert peak >= 256 * 1024

    def test_pipeline_stages_annotated(self):
        from repro import telemetry
        from repro.core import Lasagne

        with telemetry.session() as tel:
            with accounting():
                Lasagne(verify=False).build(DEMO, "opt")
        stage_spans = [s for s in tel.tracer.walk()
                       if s.category == "stage"]
        assert stage_spans
        annotated = [s for s in stage_spans
                     if "mem_peak_bytes" in s.attrs]
        assert annotated, "no stage span carries memory annotations"
        for span in annotated:
            assert span.attrs["mem_peak_bytes"] >= 0


def _entry(sha, seconds, work=None, dirty=False, size="tiny",
           arm=1000, fences=50):
    summary = {"opt": {
        "translate_seconds_total": seconds,
        "arm_instructions_total": arm,
        "fences_total": fences,
    }}
    if work is not None:
        summary["opt"]["work"] = dict(work)
    return {"sha": sha, "size": size, "dirty": dirty, "summary": summary}


def _summary(seconds, work=None, arm=1000, fences=50):
    row = {
        "translate_seconds_total": seconds,
        "arm_instructions_total": arm,
        "fences_total": fences,
    }
    if work is not None:
        row["work"] = dict(work)
    return {"opt": row}


class TestRegressionGate:
    def test_no_baseline_is_ok(self):
        report = check_regression(_summary(1.0), [])
        assert report.ok
        assert any("no eligible" in n for n in report.notes)

    def test_dirty_entries_are_ignored(self):
        trajectory = [_entry("aaa", 1.0),
                      _entry("bbb", 0.1, dirty=True)]
        notes: list[str] = []
        entries = eligible_entries(trajectory, "tiny", notes=notes)
        assert [e["sha"] for e in entries] == ["aaa"]
        assert any("dirty" in n for n in notes)

    def test_time_regression_flagged(self):
        trajectory = [_entry(s, 1.0) for s in ("a", "b", "c")]
        report = check_regression(_summary(3.0), trajectory)
        assert not report.ok
        finding, = report.findings
        assert finding.kind == "time"
        assert finding.metric == "translate_seconds_total"
        assert finding.ratio == pytest.approx(3.0)
        assert "REGRESSION" in report.format()

    def test_small_drift_passes(self):
        trajectory = [_entry(s, 1.0) for s in ("a", "b", "c")]
        assert check_regression(_summary(1.1), trajectory).ok

    def test_mad_widens_noisy_gate(self):
        # Noisy history: median 1.0, MAD 0.4 -> gate 1 + 3*0.4 = 2.2x.
        trajectory = [_entry("a", 0.6), _entry("b", 1.0),
                      _entry("c", 1.4)]
        assert check_regression(_summary(2.0), trajectory).ok
        report = check_regression(_summary(2.5), trajectory)
        assert not report.ok

    def test_work_blowup_flagged_when_sizes_stable(self):
        work = {"opt.visits": 1000}
        trajectory = [_entry(s, 1.0, work=work) for s in ("a", "b")]
        report = check_regression(
            _summary(1.0, work={"opt.visits": 2500}), trajectory)
        assert not report.ok
        finding, = report.findings
        assert finding.kind == "work"
        assert finding.metric == "opt.visits"
        assert not report.work_identical
        assert report.work_deltas["opt"]["opt.visits"] == (1000.0, 2500.0)

    def test_work_gate_skipped_when_sizes_moved(self):
        work = {"opt.visits": 1000}
        trajectory = [_entry(s, 1.0, work=work) for s in ("a", "b")]
        report = check_regression(
            _summary(1.0, work={"opt.visits": 2500}, arm=2000), trajectory)
        assert report.ok
        assert any("sizes moved" in n for n in report.notes)

    def test_identical_work_reports_zero_deltas(self):
        work = {"opt.visits": 1000, "place.fences": 7}
        trajectory = [_entry(s, 1.0, work=work) for s in ("a", "b")]
        report = check_regression(_summary(1.0, work=work), trajectory)
        assert report.ok
        assert report.work_identical
        assert "zero deltas" in report.format()

    def test_baseline_predating_v6_noted(self):
        trajectory = [_entry("old", 1.0)]  # no work dict
        report = check_regression(
            _summary(1.0, work={"opt.visits": 10}), trajectory)
        assert report.ok
        assert any("schema < 6" in n for n in report.notes)

    def test_ref_selects_specific_baseline(self):
        trajectory = [_entry("aaa111", 1.0), _entry("bbb222", 5.0)]
        # Against the slow commit the current run is fine...
        assert check_regression(_summary(2.0), trajectory,
                                ref="bbb").ok
        # ...against the fast one it is a 2x regression.
        assert not check_regression(_summary(2.0), trajectory,
                                    ref="aaa").ok

    def test_window_limits_baseline(self):
        trajectory = ([_entry("old", 9.0)]
                      + [_entry(f"n{i}", 1.0) for i in range(5)])
        report = check_regression(_summary(2.0), trajectory, window=5)
        assert "old" not in report.baseline_shas
        assert not report.ok


def _ledger(root):
    with Warehouse(root / DEFAULT_DB) as store:
        return store.ledger_entries()


class TestLedger:
    @pytest.fixture(autouse=True)
    def _ledger_enabled(self, monkeypatch):
        # The suite runs under REPRO_LEDGER=0 (tests/conftest.py) so its
        # CLI invocations record nothing; these tests record into
        # tmp_path and need the switch back on.
        monkeypatch.delenv("REPRO_LEDGER", raising=False)

    def test_append_and_read(self, tmp_path):
        path = append_entry("translate", {"config": "ppopt", "rc": 0},
                            root=tmp_path)
        assert path == tmp_path / DEFAULT_DB
        append_entry("bench", {"size": "tiny"}, root=tmp_path)
        entries = _ledger(tmp_path)
        assert [e["command"] for e in entries] == ["translate", "bench"]
        assert entries[0]["config"] == "ppopt"
        for entry in entries:
            assert "timestamp" in entry and "sha" in entry
            assert isinstance(entry["dirty"], bool)

    def test_same_second_entries_keep_insertion_order(self, tmp_path):
        """Timestamps have one-second resolution: ties are broken by
        insertion order, for reading and for ``gc`` alike."""
        with Warehouse(tmp_path / DEFAULT_DB) as store:
            for command in ("z-older", "a-newer"):
                store.put_ledger_entry({"timestamp": "2026-01-01T00:00:00",
                                        "command": command})
            store.commit()
            assert [e["command"] for e in store.ledger_entries()] == [
                "z-older", "a-newer"]
            assert store.gc_ledger(keep=1) == 1
            assert [e["command"] for e in store.ledger_entries()] == [
                "a-newer"]

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert append_entry("x", {}, root=tmp_path) is None
        assert not (tmp_path / ".repro").exists()

    def test_store_of_a_newer_schema_is_left_alone(self, tmp_path):
        import sqlite3

        from repro.warehouse import SCHEMA_VERSION

        db = tmp_path / DEFAULT_DB
        db.parent.mkdir()
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        assert append_entry("translate", {}, root=tmp_path) is None

    def test_bad_lines_skipped(self, tmp_path):
        append_entry("ok", {}, root=tmp_path)
        with Warehouse(tmp_path / DEFAULT_DB) as store:
            store.conn.execute(
                "INSERT INTO ledger_entries (entry_hash, data) "
                "VALUES ('a', 'not json'), ('b', '[1,2]')")
            store.commit()
        assert [e["command"] for e in _ledger(tmp_path)] == ["ok"]


class TestBenchTrajectory:
    def test_write_bench_dedupes_by_sha_and_size(self, tmp_path,
                                                 monkeypatch):
        from repro.telemetry import bench

        monkeypatch.setattr(bench, "git_sha", lambda: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda: False)
        out = tmp_path / "B.json"
        report = {"version": 6, "size": "tiny", "summary": {"opt": {
            "translate_seconds_total": 1.0}}}
        bench.write_bench(report, str(out))
        report2 = dict(report)
        report2["summary"] = {"opt": {"translate_seconds_total": 2.0}}
        bench.write_bench(report2, str(out))
        doc = json.loads(out.read_text())
        assert len(doc["trajectory"]) == 1  # newest kept
        entry = doc["trajectory"][0]
        assert entry["summary"]["opt"]["translate_seconds_total"] == 2.0
        assert entry["dirty"] is False

    def test_dirty_entries_do_not_collapse_clean_ones(self, tmp_path,
                                                      monkeypatch):
        from repro.telemetry import bench

        monkeypatch.setattr(bench, "git_sha", lambda: "abc123")
        out = tmp_path / "B.json"
        report = {"version": 6, "size": "tiny", "summary": {}}
        monkeypatch.setattr(bench, "git_dirty", lambda: False)
        bench.write_bench(report, str(out))
        monkeypatch.setattr(bench, "git_dirty", lambda: True)
        bench.write_bench(report, str(out))
        doc = json.loads(out.read_text())
        assert [e["dirty"] for e in doc["trajectory"]] == [False, True]

    def test_different_sizes_kept(self, tmp_path, monkeypatch):
        from repro.telemetry import bench

        monkeypatch.setattr(bench, "git_sha", lambda: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda: False)
        out = tmp_path / "B.json"
        bench.write_bench({"version": 6, "size": "tiny", "summary": {}},
                          str(out))
        bench.write_bench({"version": 6, "size": "small", "summary": {}},
                          str(out))
        doc = json.loads(out.read_text())
        assert [e["size"] for e in doc["trajectory"]] == ["tiny", "small"]


class TestProfileCli:
    def test_profile_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.c"
        src.write_text(DEMO)
        flame = tmp_path / "flame.txt"
        out_json = tmp_path / "profile.json"
        rc = main(["profile", str(src), "--min-seconds", "0.3",
                   "--sample-hz", "499",
                   "--flamegraph", str(flame),
                   "--json", str(out_json)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "stage attribution" in captured.out
        assert "deterministic work counters" in captured.out
        # Non-empty collapsed stacks, >= 95% attributed to known stages.
        collapsed = flame.read_text()
        assert collapsed.strip()
        doc = json.loads(out_json.read_text())
        assert doc["profile"]["known_stage_pct"] >= 95.0
        assert doc["work"]

    def test_profile_writes_ledger(self, tmp_path, monkeypatch):
        """The run and its ledger entry land in the warehouse directly:
        no ``--json`` artifact is written, and nothing is ingested from
        one."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "p.c"
        src.write_text(DEMO)
        rc = main(["profile", str(src), "--min-seconds", "0.2",
                   "--sample-hz", "499", "--config", "opt"])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [".repro",
                                                              "p.c"]
        entries = _ledger(tmp_path)
        assert [e["command"] for e in entries] == ["profile"]
        assert entries[0]["work_digest"]
        with Warehouse(tmp_path / DEFAULT_DB) as store:
            run, = store.runs("profile")
            assert run.source == str(src) and run.timestamp
            cells = store.work_cells(run.id)
            stacks = store.stacks(run.id)
            summary = store.summary(run.id)["opt"]
            digest = store.digests(run.id)["opt"]
        assert cells and all(key[:2] == ("opt", str(src)) for key in cells)
        assert stacks and summary["profile.total"] == sum(stacks.values())
        assert summary["builds"] >= 1
        assert summary["work.opt.visits"] == sum(
            n for key, n in cells.items() if key[3] == "opt.visits")
        assert digest == entries[0]["work_digest"]


class TestBenchCompareCli:
    def _fake_summary(self, scale=1.0):
        return {"opt": {
            "translate_seconds_total": 1.0 * scale,
            "arm_instructions_total": 1000,
            "fences_total": 50,
            "fences_elided_total": 10,
            "fences_elided_beyond_walk_total": 1,
            "fencecheck_violations_total": 0,
            "work": {"opt.visits": int(1000 * scale)},
            "work_digest": "d",
            "peak_rss_bytes": 1,
        }}

    def _fake_report(self, scale=1.0):
        return {"version": 6, "size": "tiny", "repeats": 1,
                "configs": ["opt"], "programs": {}, "loader": {},
                "summary": self._fake_summary(scale),
                "profile_top": {}}

    def _seed_trajectory(self, out, summary):
        out.write_text(json.dumps({"trajectory": [
            {"sha": "base", "size": "tiny", "dirty": False,
             "summary": summary}]}))

    def test_synthetic_slowdown_exits_3(self, tmp_path, monkeypatch):
        import repro.cli as cli
        from repro.telemetry import bench

        out = tmp_path / "B.json"
        self._seed_trajectory(out, self._fake_summary(1.0))
        # A 3x slowdown (and 3x work blowup) over the baseline.
        monkeypatch.setattr(bench, "run_bench",
                            lambda **kw: self._fake_report(3.0))
        rc = cli.main(["bench", "--compare", "--out", str(out)])
        assert rc == EXIT_REGRESSION

    def test_identical_run_passes_with_zero_deltas(self, tmp_path,
                                                   monkeypatch, capsys):
        import repro.cli as cli
        from repro.telemetry import bench

        out = tmp_path / "B.json"
        self._seed_trajectory(out, self._fake_summary(1.0))
        monkeypatch.setattr(bench, "run_bench",
                            lambda **kw: self._fake_report(1.0))
        rc = cli.main(["bench", "--compare", "--out", str(out)])
        assert rc == 0
        assert "zero deltas" in capsys.readouterr().out

    def test_compare_without_baseline_passes(self, tmp_path, monkeypatch):
        import repro.cli as cli
        from repro.telemetry import bench

        out = tmp_path / "B.json"
        monkeypatch.setattr(bench, "run_bench",
                            lambda **kw: self._fake_report(1.0))
        rc = cli.main(["bench", "--compare", "--out", str(out)])
        assert rc == 0
        # The run was still appended to the trajectory.
        doc = json.loads(out.read_text())
        assert len(doc["trajectory"]) == 1


class TestLedgerHardening:
    """Schema v2 hardening: version and config-digest stamps."""

    @pytest.fixture(autouse=True)
    def _ledger_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)

    def test_entries_carry_schema_and_config_digest(self, tmp_path):
        from repro.profiler.ledger import LEDGER_SCHEMA, config_digest

        append_entry("translate", {"rc": 0}, root=tmp_path,
                     config={"source": "a.c", "config": "ppopt"})
        entry, = _ledger(tmp_path)
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["config_digest"] == config_digest(
            {"source": "a.c", "config": "ppopt"})

    def test_config_digest_is_canonical(self):
        from repro.profiler.ledger import config_digest

        assert config_digest({"a": 1, "b": 2}) == \
            config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest(None)) == 16


class TestWorkCounterCells:
    def test_cells_expose_the_full_matrix_sorted(self):
        with workcounters.collect() as wc:
            with workcounters.scope(stage="gvn", function="@main"):
                workcounters.work("opt.visits", 3)
            with workcounters.scope(stage="dce"):
                workcounters.work("opt.visits", 2)
        assert wc.cells() == [("dce", "opt.visits", "", 2),
                              ("gvn", "opt.visits", "@main", 3)]
        assert wc.to_dict()["cells"] == [["dce", "opt.visits", "", 2],
                                         ["gvn", "opt.visits", "@main", 3]]

    def test_profile_artifact_is_self_describing(self):
        from repro.profiler.attribution import (AttributionReport,
                                                report_to_dict)

        profile = Profile(hz=97.0)
        profile.samples[("f", "g")] += 1
        profile.total += 1
        with workcounters.collect() as wc:
            workcounters.work("opt.visits", 1)
        report = AttributionReport(source="a.c", config="ppopt",
                                   builds=1, profile=profile, counters=wc)
        artifact = report_to_dict(report)
        # the warehouse needs these to key and join the run
        assert isinstance(artifact["sha"], str) and artifact["sha"]
        assert isinstance(artifact["dirty"], bool)
        assert artifact["collapsed"] == profile.collapsed()
        assert artifact["work"]["cells"] == [["", "opt.visits", "", 1]]
