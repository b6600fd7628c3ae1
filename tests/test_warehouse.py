"""Tests for repro.warehouse: schema migration, idempotent ingest,
ranked diffs with the digest noise oracle, and the deterministic
dashboard renderer."""

import json
import sqlite3

import pytest

from repro.warehouse import (
    SCHEMA_VERSION,
    Warehouse,
    anomalies,
    build_dashboard,
    diff_runs,
    ingest_bench,
    migrate,
    record_bench,
    record_profile,
    render_markdown,
    render_text,
    to_dict,
    to_json,
)
from repro.warehouse.schema import MIGRATIONS, SchemaTooNew, schema_version


# ---- fixtures ---------------------------------------------------------------

def _summary(scale=1.0, digest="d0"):
    return {
        "ppopt": {
            "translate_seconds_total": 0.5 * scale,
            "arm_instructions_total": 100,
            "fences_total": 10,
            "fences_elided_total": 40,
            "fences_elided_beyond_walk_total": 8,
            "fences_elided_interproc_total": 6,
            "fences_elided_delayset_total": 4,
            "fences_elided_sync_total": 2,
            "fencecheck_violations_total": 0,
            "tv_proved_total": int(80 * scale),
            "tv_unknown_total": 5,
            "tv_refuted_total": 0,
            "work": {"opt.visits": int(1000 * scale),
                     "pointsto.transfers": int(500 * scale)},
            "work_digest": digest,
            "peak_rss_bytes": 1000,
        },
    }


def _bench_file(tmp_path, name="BENCH_translate.json"):
    """Two-entry trajectory (older clean, newer clean) plus a programs
    snapshot for the newest run, its row still carrying v8-v9
    ``work_cells`` (which ingest ignores)."""
    data = {
        "version": 8,
        "size": "tiny",
        "trajectory": [
            {"sha": "aaa1111", "timestamp": "2026-08-01T00:00:00+00:00",
             "size": "tiny", "dirty": False, "version": 8,
             "summary": _summary(1.0, "d0")},
            {"sha": "bbb2222", "timestamp": "2026-08-02T00:00:00+00:00",
             "size": "tiny", "dirty": False, "version": 8,
             "summary": _summary(2.0, "d1")},
        ],
        "programs": {
            "demo": {
                "ppopt": {
                    "translate_seconds": 0.25,
                    "arm_instructions": 50,
                    "fences": 5,
                    "racecheck": {"racy": 3, "lock_protected": 1},
                    "provenance": {"instruction_pct": 100.0},
                    "work": {"opt.visits": 2000},
                    "work_cells": [
                        ["gvn", "opt.visits", "@main", 1200],
                        ["dce", "opt.visits", "@main", 800],
                    ],
                    "work_digest": "pd",
                },
            },
        },
        "loader": {
            "sum": {"ingest_seconds": 0.01, "functions_discovered": 2,
                    "ok": True, "work": {"triage.bytes": 100}},
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _profile_report(visits, stacks):
    """An AttributionReport as ``repro profile`` builds it."""
    from repro.profiler import AttributionReport, Profile, WorkCounters

    profile = Profile(hz=100.0)
    for stack, n in stacks.items():
        profile.samples[tuple(stack.split(";"))] = n
    profile.total = sum(stacks.values())
    profile.duration = 1.0
    counters = WorkCounters()
    counters.add("gvn", "opt.visits", "@main", visits)
    return AttributionReport(source="demo.c", config="ppopt", builds=2,
                             profile=profile, counters=counters)


# ---- schema -----------------------------------------------------------------

class TestSchema:
    def test_fresh_database_migrates_to_current(self):
        with Warehouse() as store:
            assert store.schema_version == SCHEMA_VERSION
            assert store.migrations_applied == SCHEMA_VERSION

    def test_migrate_is_idempotent(self):
        with Warehouse() as store:
            assert migrate(store.conn) == 0

    def test_v1_database_upgrades_in_place(self):
        conn = sqlite3.connect(":memory:")
        conn.executescript(MIGRATIONS[0])
        conn.execute("PRAGMA user_version = 1")
        assert schema_version(conn) == 1
        assert migrate(conn) == SCHEMA_VERSION - 1
        assert schema_version(conn) == SCHEMA_VERSION
        # the v2 table exists and is usable
        conn.execute("INSERT INTO stacks VALUES (1, 'a;b', 3)")

    def test_newer_database_is_refused(self):
        conn = sqlite3.connect(":memory:")
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        with pytest.raises(SchemaTooNew, match="newer"):
            migrate(conn)

    def test_on_disk_database_reopens(self, tmp_path):
        db = tmp_path / "w.sqlite"
        with Warehouse(db) as store:
            run = store.upsert_run("bench", "abc", False, "t1")
            store.put_summary_metric(run, "ppopt", "m", 1.0)
            store.commit()
        with Warehouse(db) as store:
            assert store.migrations_applied == 0
            assert store.summary(1) == {"ppopt": {"m": 1.0}}


# ---- store ------------------------------------------------------------------

class TestStore:
    def test_upsert_run_is_idempotent(self):
        with Warehouse() as store:
            a = store.upsert_run("bench", "abc", False, "t1", "tiny")
            b = store.upsert_run("bench", "abc", False, "t1", "tiny")
            assert a == b
            assert len(store.runs()) == 1

    def test_resolve_selectors(self):
        with Warehouse() as store:
            store.upsert_run("bench", "aaa", False, "t1")
            store.upsert_run("bench", "bbb", True, "t2")
            store.upsert_run("bench", "ccc", False, "t3")
            assert store.resolve("latest").sha == "ccc"
            assert store.resolve("prev").sha == "bbb"
            assert store.resolve("latest-clean").sha == "ccc"
            assert store.resolve("prev-clean").sha == "aaa"
            assert store.resolve("@2").sha == "aaa"
            assert store.resolve("bb").sha == "bbb"
            assert store.resolve("zzz") is None
            assert store.resolve("@9") is None
            assert store.resolve("@x") is None

    def test_resolve_empty_store(self):
        with Warehouse() as store:
            assert store.resolve("latest") is None


# ---- ingest -----------------------------------------------------------------

class TestIngest:
    def test_bench_ingest_maps_trajectory_to_runs(self, tmp_path):
        path = _bench_file(tmp_path)
        with Warehouse() as store:
            ingest_bench(store, path)
            runs = store.runs("bench")
            assert [r.sha for r in runs] == ["aaa1111", "bbb2222"]
            assert store.digests(runs[0].id) == {"ppopt": "d0"}
            summary = store.summary(runs[1].id)
            assert summary["ppopt"]["work.opt.visits"] == 2000.0

    def test_snapshot_attaches_to_newest_run(self, tmp_path):
        path = _bench_file(tmp_path)
        with Warehouse() as store:
            ingest_bench(store, path)
            older, newest = store.runs("bench")
            assert store.program_metrics(older.id) == {}
            metrics = store.program_metrics(newest.id)
            row = metrics[("ppopt", "demo")]
            assert row["racecheck.racy"] == 3.0
            assert row["provenance.instruction_pct"] == 100.0
            assert metrics[("loader", "sum")]["functions_discovered"] == 2.0

    def test_double_ingest_is_idempotent(self, tmp_path):
        path = _bench_file(tmp_path)
        with Warehouse() as store:
            ingest_bench(store, path)
            first = store.counts()
            ingest_bench(store, path)
            assert store.counts() == first

    def test_file_cells_are_not_ingested(self, tmp_path):
        """Cells come only from a recorded run: the file's rows (v10
        slim ones, or v8-v9 rows still carrying ``work_cells``) add no
        cells, real or fabricated from the ``work`` totals."""
        path = _bench_file(tmp_path)
        data = json.loads(path.read_text())
        del data["programs"]["demo"]["ppopt"]["work_cells"]
        slim = tmp_path / "slim.json"
        slim.write_text(json.dumps(data))
        for bench in (path, slim):
            with Warehouse() as store:
                ingest_bench(store, bench)
                assert store.counts()["work_cells"] == 0

    def test_record_bench_attaches_cells_to_the_ingested_run(self,
                                                             tmp_path):
        path = _bench_file(tmp_path)
        report = {"programs": {"demo": {"ppopt": {"work_cells": [
            ["gvn", "opt.visits", "@main", 1200]]}}},
                  "loader": {"sum": {"work_cells": [
                      ["triage", "triage.bytes", "", 100]]}}}
        with Warehouse() as store:
            record_bench(store, report, path)
            first = store.counts()
            newest = store.runs("bench")[-1]
            cells = store.work_cells(newest.id)
            assert cells == {
                ("ppopt", "demo", "gvn", "opt.visits", "@main"): 1200,
                ("loader", "sum", "triage", "triage.bytes", ""): 100}
            # re-ingesting the file finds the same run, cells intact
            assert ingest_bench(store, path) == newest.id
            assert store.counts() == first

    def test_profile_ingest(self):
        report = _profile_report(100, {"main;gvn": 10, "main;dce": 5})
        with Warehouse() as store:
            run_id = record_profile(store, report)
            run, = store.runs("profile")
            assert run.id == run_id and run.source == "demo.c"
            assert store.stacks(run.id) == {"main;gvn": 10, "main;dce": 5}
            assert store.digests(run.id) == {
                "ppopt": report.counters.digest()}
            assert store.work_cells(run.id) == {
                ("ppopt", "demo.c", "gvn", "opt.visits", "@main"): 100}
            summary = store.summary(run.id)["ppopt"]
            assert summary["work.opt.visits"] == 100.0
            assert summary["builds"] == 2.0
            assert summary["profile.total"] == 15.0

    def test_ledger_ingest_is_idempotent(self):
        entries = [{"command": "translate", "rc": 0, "timestamp": "t1"},
                   {"command": "bench", "rc": 3, "timestamp": "t2"}]
        with Warehouse() as store:
            for entry in entries:
                store.put_ledger_entry(entry)
            first = store.counts()
            assert first["ledger_entries"] == 2
            for entry in entries:
                store.put_ledger_entry(entry)
            assert store.counts() == first
            assert store.ledger_entries() == entries
            assert store.ledger_summary() == (
                2, 1, {"bench": 1, "translate": 1})


# ---- diff -------------------------------------------------------------------

class TestDiff:
    def _two_runs(self, store, digest_b="d1"):
        a = store.upsert_run("bench", "aaa", False, "t1")
        b = store.upsert_run("bench", "bbb", False, "t2")
        for run, scale, digest in ((a, 1.0, "d0"), (b, 2.0, digest_b)):
            row = _summary(scale, digest)["ppopt"]
            for key, value in row.items():
                if key == "work":
                    for counter, n in value.items():
                        store.put_summary_metric(
                            run, "ppopt", f"work.{counter}", n)
                elif key == "work_digest":
                    store.put_digest(run, "ppopt", value)
                else:
                    store.put_summary_metric(run, "ppopt", key, value)
        return store.run(a), store.run(b)

    def test_digest_verdict_separates_noise_from_work(self):
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store, digest_b="d1")
            report = diff_runs(store, run_a, run_b)
            assert report.times["ppopt"]["verdict"] == "work-change"
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store, digest_b="d0")
            report = diff_runs(store, run_a, run_b)
            assert report.times["ppopt"]["verdict"] == "noise"

    def test_counter_deltas_are_ranked(self):
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store)
            report = diff_runs(store, run_a, run_b)
            deltas = [(c, d) for _, c, _, _, d in report.counters]
            assert deltas == [("opt.visits", 1000.0),
                              ("pointsto.transfers", 500.0)]

    def test_fence_tiers_include_derived_walk(self):
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store)
            tiers = diff_runs(store, run_a, run_b).fences["ppopt"]
            # walk = total(40) - escape(8) - interproc(6)
            #        - delayset(4) - sync(2) = 20, unchanged here
            assert tiers["walk"] == {"a": 20.0, "b": 20.0, "delta": 0.0}
            assert tiers["escape"]["a"] == 8.0
            assert tiers["total"]["a"] == 40.0

    def test_cell_deltas_rank_stage_by_function(self):
        with Warehouse() as store:
            a = store.upsert_run("profile", "aaa", False, "t1")
            b = store.upsert_run("profile", "bbb", False, "t2")
            store.put_work_cell(a, "ppopt", "demo", "gvn", "opt.visits",
                                "@main", 100)
            store.put_work_cell(b, "ppopt", "demo", "gvn", "opt.visits",
                                "@main", 700)
            store.put_work_cell(a, "ppopt", "demo", "dce", "opt.visits",
                                "@f", 50)
            store.put_work_cell(b, "ppopt", "demo", "dce", "opt.visits",
                                "@f", 60)
            report = diff_runs(store, store.run(a), store.run(b))
            assert report.cells[0][:5] == ("ppopt", "demo", "gvn",
                                           "opt.visits", "@main")
            assert report.cells[0][7] == 600
            # pass effectiveness groups opt.* work by stage
            assert ("gvn", 100, 700, 600) in report.passes

    def test_cell_deltas_suppressed_when_one_side_empty(self):
        with Warehouse() as store:
            a = store.upsert_run("bench", "aaa", False, "t1")
            b = store.upsert_run("bench", "bbb", False, "t2")
            store.put_work_cell(b, "ppopt", "demo", "gvn", "opt.visits",
                                "@main", 700)
            report = diff_runs(store, store.run(a), store.run(b))
            assert report.cells == []

    def test_flamegraph_frame_share_deltas(self):
        with Warehouse() as store:
            a = store.upsert_run("profile", "aaa", False, "t1")
            b = store.upsert_run("profile", "bbb", False, "t2")
            store.put_stack(a, "main;gvn", 50)
            store.put_stack(a, "main;dce", 50)
            store.put_stack(b, "main;gvn", 90)
            store.put_stack(b, "main;dce", 10)
            report = diff_runs(store, store.run(a), store.run(b))
            frames = dict((f, share) for f, _, _, share in report.frames)
            assert frames["gvn"] == pytest.approx(0.4)
            assert frames["dce"] == pytest.approx(-0.4)

    def test_renderers_cover_every_section(self):
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store)
            report = diff_runs(store, run_a, run_b)
            text = render_text(report)
            assert "wall time" in text and "fence elisions" in text
            assert "translation-validation" in text
            markdown = render_markdown(report)
            assert "### Wall time" in markdown
            assert "### Translation-validation verdicts" in markdown
            assert "| ppopt |" in markdown
            data = to_dict(report)
            assert set(data) == {"run_a", "run_b", "times", "counters",
                                 "cells", "fences", "tv", "passes",
                                 "frames"}

    def test_tv_verdict_section(self):
        with Warehouse() as store:
            run_a, run_b = self._two_runs(store)
            report = diff_runs(store, run_a, run_b)
            verdicts = report.tv["ppopt"]
            assert verdicts["proved"] == {"a": 80.0, "b": 160.0,
                                          "delta": 80.0}
            assert verdicts["refuted"]["delta"] == 0.0
            assert "REFUTED" not in render_text(report)

    def test_tv_refutation_is_flagged_loudly(self):
        with Warehouse() as store:
            a = store.upsert_run("bench", "aaa", False, "t1")
            b = store.upsert_run("bench", "bbb", False, "t2")
            store.put_summary_metric(a, "ppopt", "tv_refuted_total", 0)
            store.put_summary_metric(b, "ppopt", "tv_refuted_total", 2)
            report = diff_runs(store, store.run(a), store.run(b))
            assert report.tv["ppopt"]["refuted"]["b"] == 2.0
            assert "!! REFUTED" in render_text(report)

    def test_diff_json_is_deterministic(self, tmp_path):
        path = _bench_file(tmp_path)
        outputs = []
        for _ in range(2):
            with Warehouse() as store:
                ingest_bench(store, path)
                run_a = store.resolve("prev")
                run_b = store.resolve("latest")
                outputs.append(to_json(diff_runs(store, run_a, run_b)))
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # and it is valid JSON


# ---- dashboard --------------------------------------------------------------

class TestDashboard:
    def test_html_is_byte_identical_for_equal_inputs(self, tmp_path):
        path = _bench_file(tmp_path)
        pages = []
        for _ in range(2):
            with Warehouse() as store:
                ingest_bench(store, path)
                pages.append(build_dashboard(store))
        assert pages[0] == pages[1]

    def test_html_is_self_contained(self, tmp_path):
        path = _bench_file(tmp_path)
        with Warehouse() as store:
            ingest_bench(store, path)
            html = build_dashboard(store)
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "<style>" in html
        for external in ("http://", "https://", "<script", "<link",
                         "@import"):
            assert external not in html
        # drill-down table for the newest snapshot
        assert "Per-program drill-down" in html
        assert "demo" in html

    def test_empty_warehouse_renders_placeholder(self):
        with Warehouse() as store:
            html = build_dashboard(store)
        assert "No bench runs ingested yet" in html

    def test_anomaly_flags_use_icon_and_label(self, tmp_path):
        data = json.loads(_bench_file(tmp_path).read_text())
        entries = []
        for i in range(6):
            spike = 100.0 if i == 5 else 1.0
            entry = {"sha": f"sha{i}", "size": "tiny", "dirty": False,
                     "timestamp": f"2026-08-0{i + 1}T00:00:00+00:00",
                     "version": 8, "summary": _summary(spike, f"d{i}")}
            entries.append(entry)
        data["trajectory"] = entries
        path = tmp_path / "spiky.json"
        path.write_text(json.dumps(data))
        with Warehouse() as store:
            ingest_bench(store, path)
            html = build_dashboard(store)
        # never color alone: the flag is the icon + the word
        assert "&#9650; anomaly" in html

    def test_anomalies_flags_outliers_not_baseline(self):
        values = [1.0, 1.01, 0.99, 1.0, 8.0]
        flags = anomalies(values, [True] * 5)
        assert flags == [False, False, False, False, True]

    def test_anomalies_needs_history(self):
        assert anomalies([1.0, 99.0], [True, True]) == [False, False]

    def test_dirty_runs_excluded_from_baseline(self):
        # the dirty spike is charted but does not poison the median
        values = [1.0, 1.0, 1.0, 50.0, 1.02]
        clean = [True, True, True, False, True]
        flags = anomalies(values, clean)
        assert flags[3] is True and flags[4] is False
