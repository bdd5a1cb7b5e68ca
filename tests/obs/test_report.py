"""JSONL sinks and the report tool: write → load → validate → render."""

import json

import pytest

from repro.obs import __main__ as obs_cli
from repro.obs.report import (
    load,
    load_many,
    render_json,
    render_text,
    validate,
)
from repro.obs.sinks import derive_rates, maybe_export, summarize, write_jsonl
from repro.obs.trace import Collector, activate, span


def _traced_collector():
    """A collector with a small span tree and a few metrics."""
    collector = activate(Collector())
    with span("experiment.demo"):
        with span("cwt.batch", n=64):
            pass
        with span("cwt.batch", n=64):
            pass
        with span("train.level"):
            pass
    collector.metrics.counter("trace_cache.hits").inc(3)
    collector.metrics.counter("trace_cache.misses").inc(1)
    collector.metrics.gauge("parallel.worker_utilization").set(0.75)
    collector.metrics.histogram("parallel.task_ms").observe(2.0)
    return collector


class TestJsonlRoundtrip:
    def test_write_load_validate(self, tmp_path):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        n_lines = write_jsonl(collector, path)
        # meta + 4 spans + 4 metrics
        assert n_lines == 9
        assert validate(path) == []
        report = load(path)
        assert report.n_spans == 4
        assert report.paths["experiment.demo/cwt.batch"].calls == 2
        assert report.metrics["trace_cache.hits"]["value"] == 3
        assert report.rates()["trace_cache.hit_rate"] == 0.75

    def test_torn_final_line_tolerated(self, tmp_path):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "path": "torn')  # crashed writer
        report = load(path)
        assert report.n_spans == 4  # the torn line is dropped, not fatal
        # validate still flags the meta/span count mismatch? No: the torn
        # line never counted, so the file stays consistent.
        assert validate(path) == []

    def test_torn_middle_line_is_corruption(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "span", "broken\n')
            handle.write(
                json.dumps(
                    {
                        "type": "span",
                        "path": "a",
                        "name": "a",
                        "start": 0.0,
                        "wall_ms": 1.0,
                        "self_ms": 1.0,
                        "cpu_ms": 0.5,
                        "pid": 1,
                    }
                )
                + "\n"
            )
        with pytest.raises(ValueError, match="invalid JSON"):
            load(path)

    def test_validate_reports_problems_without_raising(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"type": "meta", "format": 1, "n_spans": 5}) + "\n"
            )
        problems = validate(path)
        assert any("no spans" in p for p in problems)

    def test_span_missing_key_raises(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "span", "path": "x"}) + "\n")
        with pytest.raises(ValueError, match="missing"):
            load(path)


class TestRendering:
    def test_text_report_shows_tree_and_metrics(self, tmp_path):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        text = render_text(load(path))
        assert "experiment.demo" in text
        assert "  cwt.batch" in text  # indented child
        assert "trace_cache.hits" in text
        assert "trace_cache.hit_rate" in text
        assert "75.00%" in text

    def test_error_spans_are_marked(self, tmp_path):
        collector = activate(Collector())
        with pytest.raises(RuntimeError):
            with span("broken"):
                raise RuntimeError("x")
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        assert "[!1]" in render_text(load(path))

    def test_json_report_is_machine_readable(self, tmp_path):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        payload = json.loads(render_json(load(path)))
        assert payload["meta"]["n_spans"] == 4
        paths = [s["path"] for s in payload["spans"]]
        assert paths[0] == "experiment.demo"  # root first, depth-first
        assert payload["rates"]["parallel.worker_utilization"] == 0.75


class TestSummaries:
    def test_summarize_top_paths_and_rates(self):
        collector = _traced_collector()
        summary = summarize(collector, top=2)
        assert summary["n_spans"] == 4
        assert len(summary["top_self_ms"]) == 2
        assert summary["counters"]["trace_cache.hits"] == 3
        assert summary["rates"]["trace_cache.hit_rate"] == 0.75

    def test_derive_rates_skips_degenerate_pairs(self):
        rates = derive_rates(
            {
                "a.hits": {"kind": "counter", "value": 0},
                "a.misses": {"kind": "counter", "value": 0},
            }
        )
        assert rates == {}

    def test_maybe_export_none_when_disabled(self, tmp_path):
        assert maybe_export(str(tmp_path / "x.jsonl")) is None
        assert not (tmp_path / "x.jsonl").exists()

    def test_maybe_export_writes_and_summarizes(self, tmp_path):
        _traced_collector()
        path = tmp_path / "run.jsonl"
        summary = maybe_export(str(path))
        assert path.exists()
        assert summary["n_spans"] == 4


class TestCli:
    def test_report_text(self, tmp_path, capsys):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        assert obs_cli.main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "experiment.demo" in out

    def test_report_json(self, tmp_path, capsys):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        assert obs_cli.main(["report", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["n_spans"] == 4

    def test_check_valid_trace(self, tmp_path, capsys):
        collector = _traced_collector()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(collector, path)
        assert obs_cli.main(["report", path, "--check"]) == 0
        assert "OK" in capsys.readouterr().err

    def test_old_trace_with_mem_peak_kb_still_reads(self, tmp_path, capsys):
        # Traces written while spans could record ``mem_peak_kb`` stay
        # readable; the field is ignored.
        path = str(tmp_path / "old.jsonl")
        lines = [
            {"type": "meta", "format": 1, "n_spans": 1},
            {"type": "span", "path": "cwt.batch", "name": "cwt.batch",
             "start": 0.0, "wall_ms": 2.0, "cpu_ms": 1.5, "self_ms": 2.0,
             "pid": 1, "mem_peak_kb": 48827.8},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        assert obs_cli.main(["report", path, "--check"]) == 0
        assert obs_cli.main(["report", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert "mem_peak_kb" not in out
        assert json.loads(out)["spans"][0]["cum_ms"] == 2.0

    def test_check_invalid_trace(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "meta", "n_spans": 0}) + "\n")
        assert obs_cli.main(["report", path, "--check"]) == 1
        assert "ERROR" in capsys.readouterr().err


class TestLoadMany:
    def _write_two(self, tmp_path):
        from repro.obs.trace import deactivate

        paths = []
        for index in range(2):
            collector = _traced_collector()
            path = str(tmp_path / f"shard-{index}.jsonl")
            write_jsonl(collector, path)
            deactivate()
            paths.append(path)
        return paths

    def test_merge_sums_paths_and_counters(self, tmp_path):
        paths = self._write_two(tmp_path)
        merged = load_many(paths)
        assert merged.n_spans == 8
        assert merged.paths["experiment.demo/cwt.batch"].calls == 4
        assert merged.metrics["trace_cache.hits"]["value"] == 6
        assert merged.metrics["parallel.task_ms"]["count"] == 2
        assert merged.meta["merged"] == 2
        assert merged.meta["n_spans"] == 8

    def test_gauge_takes_last_file(self, tmp_path):
        paths = self._write_two(tmp_path)
        second = json.loads(
            open(paths[1]).readlines()[-2]
        )  # gauge line of file 2
        merged = load_many(paths)
        util = merged.metrics["parallel.worker_utilization"]["value"]
        assert util == 0.75
        assert second is not None  # sanity: file 2 parsed

    def test_duration_is_max_not_sum(self, tmp_path):
        paths = self._write_two(tmp_path)
        for index, path in enumerate(paths):
            lines = open(path).read().splitlines()
            meta = json.loads(lines[0])
            meta["duration_s"] = 10.0 * (index + 1)
            lines[0] = json.dumps(meta)
            open(path, "w").write("\n".join(lines) + "\n")
        merged = load_many(paths)
        assert merged.meta["duration_s"] == 20.0

    def test_single_path_is_plain_load(self, tmp_path):
        (path,) = [self._write_two(tmp_path)[0]]
        merged = load_many([path])
        assert merged.meta.get("merged") is None
        assert merged.n_spans == 4

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            load_many([])


class TestCliMultiTrace:
    def test_report_merges_multiple_files(self, tmp_path, capsys):
        from repro.obs.trace import deactivate

        for index in range(2):
            write_jsonl(
                _traced_collector(), str(tmp_path / f"s{index}.jsonl")
            )
            deactivate()
        code = obs_cli.main(
            [
                "report",
                str(tmp_path / "s0.jsonl"),
                str(tmp_path / "s1.jsonl"),
            ]
        )
        assert code == 0
        assert "8 spans" in capsys.readouterr().out

    def test_report_expands_globs(self, tmp_path, capsys):
        from repro.obs.trace import deactivate

        for index in range(3):
            write_jsonl(
                _traced_collector(), str(tmp_path / f"s{index}.jsonl")
            )
            deactivate()
        code = obs_cli.main(["report", str(tmp_path / "s*.jsonl")])
        assert code == 0
        assert "12 spans" in capsys.readouterr().out

    def test_check_validates_every_file(self, tmp_path, capsys):
        from repro.obs.trace import deactivate

        good = str(tmp_path / "good.jsonl")
        write_jsonl(_traced_collector(), good)
        deactivate()
        bad = str(tmp_path / "bad.jsonl")
        open(bad, "w").write("not json at all\n{}\n")
        code = obs_cli.main(["report", good, bad, "--check"])
        err = capsys.readouterr().err
        assert code == 1
        assert "OK: " + good in err
        assert "ERROR" in err
