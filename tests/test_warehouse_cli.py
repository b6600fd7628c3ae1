"""CLI tests for the warehouse surface: `repro warehouse`, `repro
diff`, `repro dash`, `repro ledger` — including the exit-code contract
CI relies on and byte-determinism of the emitted artifacts."""

import json

import pytest

import repro.cli as cli
from repro.warehouse import DEFAULT_DB, Warehouse


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
            "work": {"opt.visits": int(1000 * scale)},
            "work_digest": digest,
            "peak_rss_bytes": 1000,
        },
    }


@pytest.fixture
def artifact_root(tmp_path):
    """A directory with a two-run bench trajectory and a run store
    holding a small ledger."""
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
            "demo": {"ppopt": {
                "translate_seconds": 0.25,
                "work": {"opt.visits": 2000},
                "work_cells": [["gvn", "opt.visits", "@main", 2000]],
            }},
        },
        "loader": {},
    }
    (tmp_path / "BENCH_translate.json").write_text(json.dumps(data))
    entries = [
        {"timestamp": "2026-08-01T00:00:00+00:00", "sha": "aaa1111",
         "dirty": False, "command": "translate", "schema": 2,
         "config_digest": "c1", "rc": 0},
        {"timestamp": "2026-08-02T00:00:00+00:00", "sha": "bbb2222",
         "dirty": False, "command": "bench", "schema": 2,
         "config_digest": "c2", "rc": 3},
    ]
    with Warehouse(tmp_path / DEFAULT_DB) as store:
        for entry in entries:
            store.put_ledger_entry(entry)
        store.commit()
    return tmp_path


def _base_args(root, db=":memory:"):
    return ["--db", db, "--bench", str(root / "BENCH_translate.json")]


def _ledger_args(root):
    return ["ledger", "--db", str(root / DEFAULT_DB)]


class TestWarehouseCommand:
    def test_ingest_reports_row_counts(self, artifact_root, capsys):
        rc = cli.main(["warehouse", "ingest"]
                      + _base_args(artifact_root,
                                   str(artifact_root / DEFAULT_DB)))
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 runs" in out and "2 ledger_entries" in out
        assert "0 work_cells" in out
        assert "schema v" in out

    def test_runs_lists_newest_first_with_selectors(self, artifact_root,
                                                    capsys):
        rc = cli.main(["warehouse", "runs"] + _base_args(artifact_root))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("@0") and "bbb2222" in lines[1]
        assert lines[2].startswith("@1") and "aaa1111" in lines[2]

    def test_on_disk_db_persists_between_invocations(self, artifact_root,
                                                     capsys):
        db = str(artifact_root / "w.sqlite")
        assert cli.main(["warehouse", "ingest"]
                        + _base_args(artifact_root, db)) == 0
        capsys.readouterr()
        # the rows persist: a query without the trajectory still has them
        (artifact_root / "BENCH_translate.json").unlink()
        assert cli.main(["warehouse", "runs"]
                        + _base_args(artifact_root, db)) == 0
        assert "bbb2222" in capsys.readouterr().out


class TestDiffCommand:
    def test_text_report_ranks_and_labels(self, artifact_root, capsys):
        rc = cli.main(["diff", "prev", "latest"]
                      + _base_args(artifact_root))
        assert rc == 0
        out = capsys.readouterr().out
        assert "aaa1111" in out and "bbb2222" in out
        assert "[work-change]" in out
        assert "opt.visits" in out
        assert "fence elisions per tier" in out

    def test_unresolvable_selector_exits_2(self, artifact_root, capsys):
        rc = cli.main(["diff", "nosuchsha", "latest"]
                      + _base_args(artifact_root))
        assert rc == 2
        assert "cannot resolve" in capsys.readouterr().err

    def test_empty_warehouse_exits_2(self, tmp_path, capsys):
        rc = cli.main(["diff", "prev", "latest"] + _base_args(tmp_path))
        assert rc == 2

    def test_json_output_is_valid_and_deterministic(self, artifact_root,
                                                    capsys):
        outputs = []
        for _ in range(2):
            rc = cli.main(["diff", "@1", "@0", "--json"]
                          + _base_args(artifact_root))
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["run_a"]["sha"] == "aaa1111"
        assert report["times"]["ppopt"]["verdict"] == "work-change"

    def test_markdown_output(self, artifact_root, capsys):
        rc = cli.main(["diff", "prev", "latest", "--markdown"]
                      + _base_args(artifact_root))
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("## Diff:")
        assert "| ppopt |" in out


class TestDashCommand:
    def test_writes_self_contained_file(self, artifact_root, tmp_path,
                                        capsys):
        out_file = tmp_path / "dash.html"
        rc = cli.main(["dash", "--html", str(out_file)]
                      + _base_args(artifact_root))
        assert rc == 0
        html = out_file.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html
        assert "<script" not in html and "https://" not in html

    def test_stdout_mode_and_byte_determinism(self, artifact_root,
                                              capsys):
        pages = []
        for _ in range(2):
            rc = cli.main(["dash"] + _base_args(artifact_root))
            assert rc == 0
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1]
        assert "Per-program drill-down" in pages[0]

    def test_unwritable_target_exits_2(self, artifact_root, tmp_path,
                                       capsys):
        rc = cli.main(["dash", "--html",
                       str(tmp_path / "no-such-dir" / "dash.html")]
                      + _base_args(artifact_root))
        assert rc == 2


class TestLedgerCommand:
    def test_summary_counts_commands_and_failures(self, artifact_root,
                                                  capsys):
        rc = cli.main(_ledger_args(artifact_root))
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "1 non-zero exit(s)" in out
        assert "translate" in out and "bench" in out

    def test_tail_prints_json_lines(self, artifact_root, capsys):
        rc = cli.main(_ledger_args(artifact_root) + ["--tail", "1"])
        assert rc == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(last)["command"] == "bench"

    def test_gc_truncates(self, artifact_root, capsys):
        rc = cli.main(_ledger_args(artifact_root) + ["--gc", "--keep", "1"])
        assert rc == 0
        assert "2 -> 1 entries" in capsys.readouterr().out
        with Warehouse(artifact_root / DEFAULT_DB) as store:
            entries = store.ledger_entries()
        assert len(entries) == 1 and entries[0]["command"] == "bench"

    def test_empty_ledger(self, tmp_path, capsys):
        rc = cli.main(_ledger_args(tmp_path))
        assert rc == 0
        assert "no entries" in capsys.readouterr().out
        assert not (tmp_path / ".repro").exists()
