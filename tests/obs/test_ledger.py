"""The run ledger: recording, addressing, diffing, concurrency, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import ledger, trace
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import Collector


@pytest.fixture
def runs_dir(tmp_path, monkeypatch):
    directory = tmp_path / "runs"
    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(directory))
    return directory


def _record_with_obs(entry, span_ms, counter_n=5, **kwargs):
    """A ledger record whose obs summary has one span at ``span_ms``."""
    collector = trace.activate(Collector())
    collector.record(
        trace.SpanRecord(
            path="cwt.batch",
            name="cwt.batch",
            start=0.0,
            wall_ms=span_ms,
            cpu_ms=span_ms,
            self_ms=span_ms,
        )
    )
    collector.metrics.counter("parallel.items").inc(counter_n)
    record = ledger.record_run(entry, **kwargs)
    trace.deactivate()
    return record


class TestRecordRun:
    def test_round_trip(self, runs_dir):
        record = ledger.record_run(
            "campaign",
            status="ok",
            duration_s=12.5,
            extra={"scale": "smoke"},
        )
        assert record is not None
        assert len(record["run_id"]) == 12
        (read,) = ledger.read_ledger()
        assert read == record
        assert read["entry"] == "campaign"
        assert read["duration_s"] == 12.5
        assert read["extra"] == {"scale": "smoke"}
        assert read["pid"] == os.getpid()
        assert read["git_rev"]  # "unknown" at worst, never empty

    def test_disabled_by_knob(self, runs_dir, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert ledger.record_run("campaign") is None
        assert not ledger.ledger_path().exists()

    def test_knob_snapshot_captured(self, runs_dir, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RETRIES", "7")
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        record = ledger.record_run("campaign")
        assert record["knobs"]["REPRO_FAULT_RETRIES"] == "7"
        # Unset knobs don't appear: the snapshot is what *this* run set.
        assert "REPRO_FAULT_RATE" not in record["knobs"]

    def test_obs_summary_attached_when_enabled(self, runs_dir):
        record = _record_with_obs("experiment.endtoend", span_ms=40.0)
        assert record["obs"]["n_spans"] == 1
        (row,) = record["obs"]["top_self_ms"]
        assert row["path"] == "cwt.batch"
        assert row["self_ms"] == 40.0

    def test_no_obs_key_when_disabled(self, runs_dir):
        record = ledger.record_run("campaign")
        assert "obs" not in record

    def test_run_ids_unique_within_process(self, runs_dir):
        ids = {ledger.record_run("campaign")["run_id"] for _ in range(20)}
        assert len(ids) == 20

    def test_unwritable_dir_degrades_to_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv(
            "REPRO_LEDGER_DIR", str(blocked / "sub")
        )
        assert ledger.record_run("campaign") is None


class TestReadLedger:
    def test_missing_file_is_empty(self, runs_dir):
        assert ledger.read_ledger() == []

    def test_torn_final_line_skipped(self, runs_dir):
        ledger.record_run("campaign")
        ledger.record_run("campaign")
        path = ledger.ledger_path()
        path.write_bytes(path.read_bytes() + b'{"run_id": "abc')
        assert len(ledger.read_ledger()) == 2

    def test_concurrent_appends_stay_line_atomic(self, runs_dir):
        """4 processes x 50 appends: every line parses, none splice."""
        script = (
            "import sys\n"
            "from repro.obs import ledger\n"
            "for i in range(50):\n"
            "    ledger.record_run('campaign', extra={'proc': sys.argv[1],"
            " 'i': i, 'pad': 'x' * 400})\n"
        )
        env = dict(os.environ)  # replint: disable=REP001 -- passed through to a subprocess verbatim, no knob is read
        env.update(
            PYTHONPATH="src",
            REPRO_LEDGER="1",
            REPRO_LEDGER_DIR=str(runs_dir),
        )
        repo_root = Path(__file__).resolve().parents[2]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(n)],
                cwd=repo_root,
                env=env,
            )
            for n in range(4)
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0, 0, 0]
        records = ledger.read_ledger()
        assert len(records) == 200
        raw_lines = ledger.ledger_path().read_text().splitlines()
        assert len(raw_lines) == 200  # no spliced/torn lines at all
        seen = {
            (record["extra"]["proc"], record["extra"]["i"])
            for record in records
        }
        assert len(seen) == 200


class TestResolveRun:
    def _three(self):
        return [
            {"run_id": "aaa111111111", "entry": "campaign"},
            {"run_id": "aab222222222", "entry": "campaign"},
            {"run_id": "ccc333333333", "entry": "experiment.table3"},
        ]

    def test_last_and_relative(self):
        records = self._three()
        assert ledger.resolve_run(records, "last")["run_id"] == "ccc333333333"
        assert (
            ledger.resolve_run(records, "last~1")["run_id"] == "aab222222222"
        )
        assert (
            ledger.resolve_run(records, "last~2")["run_id"] == "aaa111111111"
        )

    def test_unique_prefix(self):
        assert (
            ledger.resolve_run(self._three(), "ccc")["run_id"]
            == "ccc333333333"
        )

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.resolve_run(self._three(), "aa")

    def test_unknown_ref_rejected(self):
        with pytest.raises(ValueError, match="no run matches"):
            ledger.resolve_run(self._three(), "zzzz")
        with pytest.raises(ValueError, match="out of range"):
            ledger.resolve_run(self._three(), "last~9")
        with pytest.raises(ValueError, match="empty"):
            ledger.resolve_run([], "last")


class TestDiffRuns:
    def _pair(self, old_ms, new_ms):
        old = {
            "run_id": "a" * 12,
            "obs": {
                "top_self_ms": [
                    {"path": "cwt.batch", "self_ms": old_ms, "calls": 3}
                ],
                "counters": {"parallel.items": 10},
            },
        }
        new = {
            "run_id": "b" * 12,
            "obs": {
                "top_self_ms": [
                    {"path": "cwt.batch", "self_ms": new_ms, "calls": 3}
                ],
                "counters": {"parallel.items": 14},
            },
        }
        return old, new

    def test_span_regression_beyond_threshold_flagged(self):
        old, new = self._pair(100.0, 125.0)
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        (regression,) = result["regressions"]
        assert regression["name"] == "cwt.batch"
        assert regression["pct"] == 25.0
        assert result["improvements"] == []

    def test_below_threshold_not_flagged(self):
        old, new = self._pair(100.0, 115.0)
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        assert result["regressions"] == []
        # ... but the row is still reported for inspection.
        assert any(row["name"] == "cwt.batch" for row in result["rows"])

    def test_improvement_is_not_a_regression(self):
        old, new = self._pair(100.0, 50.0)
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        assert result["regressions"] == []
        (improvement,) = result["improvements"]
        assert improvement["pct"] == -50.0

    def test_submillisecond_spans_skipped(self):
        old, new = self._pair(0.2, 0.9)  # +350 %, but noise territory
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        assert not any(row["kind"] == "span" for row in result["rows"])

    def test_counters_reported_never_gated(self):
        old, new = self._pair(100.0, 100.0)
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        (counter_row,) = [
            row for row in result["rows"] if row["kind"] == "counter"
        ]
        assert counter_row["name"] == "parallel.items"
        assert counter_row["pct"] == 40.0
        assert counter_row["flagged"] is False

    def test_old_bench_field_ignored(self):
        # Ledgers written by older revisions carry a "bench" field of
        # microbenchmark means; the diff reads spans and counters only.
        old = {"run_id": "a" * 12, "bench": {"test_cwt": 10.0}}
        new = {"run_id": "b" * 12, "bench": {"test_cwt": 13.0}}
        result = ledger.diff_runs(old, new, threshold_pct=20.0)
        assert result["rows"] == []
        assert result["regressions"] == []

    def test_threshold_defaults_to_20_pct(self):
        old, new = self._pair(100.0, 140.0)
        result = ledger.diff_runs(old, new)
        assert result["threshold_pct"] == 20.0
        (regression,) = result["regressions"]
        assert regression["pct"] == 40.0


class TestLedgerCli:
    def test_runs_lists_and_filters(self, runs_dir, capsys):
        ledger.record_run("campaign", duration_s=1.0)
        ledger.record_run("experiment.table3", duration_s=2.0)
        assert obs_main(["runs", "--dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "experiment.table3" in out
        assert (
            obs_main(
                ["runs", "--dir", str(runs_dir), "--entry", "campaign"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign" in out and "experiment.table3" not in out

    def test_runs_json_emits_records(self, runs_dir, capsys):
        ledger.record_run("campaign")
        assert obs_main(["runs", "--dir", str(runs_dir), "--json"]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["entry"] == "campaign"

    def test_diff_exit_1_on_regression(self, runs_dir, capsys):
        _record_with_obs("experiment.endtoend", span_ms=100.0)
        _record_with_obs("experiment.endtoend", span_ms=125.0)
        code = obs_main(
            [
                "diff", "last~1", "last",
                "--dir", str(runs_dir),
                "--threshold-pct", "20",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.out
        assert "regression(s)" in captured.err

    def test_diff_exit_0_below_threshold(self, runs_dir, capsys):
        _record_with_obs("experiment.endtoend", span_ms=100.0)
        _record_with_obs("experiment.endtoend", span_ms=110.0)
        code = obs_main(
            [
                "diff", "last~1", "last",
                "--dir", str(runs_dir),
                "--threshold-pct", "20",
            ]
        )
        assert code == 0

    def test_diff_bad_ref_exit_2(self, runs_dir, capsys):
        ledger.record_run("campaign")
        code = obs_main(
            ["diff", "zzzz", "last", "--dir", str(runs_dir)]
        )
        assert code == 2
        assert "no run matches" in capsys.readouterr().err

    def test_diff_json_document(self, runs_dir, capsys):
        _record_with_obs("experiment.endtoend", span_ms=100.0)
        _record_with_obs("experiment.endtoend", span_ms=300.0)
        code = obs_main(
            [
                "diff", "last~1", "last",
                "--dir", str(runs_dir),
                "--json",
            ]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["threshold_pct"] == 20.0
        assert document["regressions"][0]["name"] == "cwt.batch"
