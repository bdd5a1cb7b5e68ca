"""Obs wired into the pipeline: pools, caches, and the --trace CLI flag."""

import numpy as np

from repro.dsp.cwt import clear_cwt_cache, get_cwt
from repro.experiments.__main__ import main as experiments_main
from repro.obs.report import load, validate
from repro.obs.sinks import write_jsonl
from repro.obs.trace import Collector, activate, span
from repro.power import Acquisition
from repro.power.cache import TraceCache
from repro.util.parallel import parallel_map


def _traced_square(x):
    """Module-level (picklable) work fn that opens a span per item."""
    with span("item.work", x=x):
        return x * x


class TestParallelMerge:
    def test_worker_spans_merge_under_parallel_map(self):
        collector = activate(Collector())
        with span("capture.class"):
            result = parallel_map(_traced_square, range(8), n_jobs=2)
        assert result == [x * x for x in range(8)]
        paths = {s.path for s in collector.spans}
        assert "capture.class" in paths
        assert "capture.class/parallel.map" in paths
        # Worker-side spans re-root under the launching span's path.
        assert "capture.class/parallel.map/item.work" in paths
        worker_pids = {
            s.pid
            for s in collector.spans
            if s.path.endswith("item.work")
        }
        parent_pid = next(
            s.pid for s in collector.spans if s.path == "capture.class"
        )
        assert worker_pids and parent_pid not in worker_pids

    def test_pool_metrics_published(self):
        collector = activate(Collector())
        parallel_map(_traced_square, range(8), n_jobs=2)
        snap = collector.metrics.snapshot()
        assert snap["parallel.items"]["value"] == 8
        assert snap["parallel.task_ms"]["count"] == 8
        assert 0.0 <= snap["parallel.worker_utilization"]["value"] <= 1.0

    def test_results_identical_to_disabled_path(self):
        disabled = parallel_map(_traced_square, range(8), n_jobs=2)
        activate(Collector())
        enabled_run = parallel_map(_traced_square, range(8), n_jobs=2)
        assert enabled_run == disabled

    def test_serial_path_untouched_by_obs(self):
        collector = activate(Collector())
        result = parallel_map(_traced_square, range(4), n_jobs=1)
        assert result == [x * x for x in range(4)]
        # Serial path: the item spans record directly, no parallel.map.
        assert all("parallel.map" not in s.path for s in collector.spans)


class TestCacheCounters:
    def test_trace_cache_stats_and_meta(self, tmp_path):
        collector = activate(Collector())
        cache = TraceCache(tmp_path)
        key = {"classes": ["NOP"], "n": 4, "seed": 3}

        def capture():
            return Acquisition(seed=3).capture_instruction_set(["NOP"], 4, 2)

        first = cache.get_or_capture(key, capture)
        second = cache.get_or_capture(key, capture)
        assert first.meta["trace_cache"] == {"hit": False}
        assert second.meta["trace_cache"] == {"hit": True}
        assert cache.stats == {"hits": 1, "misses": 1, "evictions": 0}
        assert cache.clear() == 1
        assert cache.stats["evictions"] == 1
        snap = collector.metrics.snapshot()
        assert snap["trace_cache.hits"]["value"] == 1
        assert snap["trace_cache.misses"]["value"] == 1
        assert snap["trace_cache.evictions"]["value"] == 1

    def test_trace_cache_stats_track_without_obs(self, tmp_path):
        # The dict on the instance counts even when tracing is disabled.
        cache = TraceCache(tmp_path)
        cache.get_or_capture(
            {"n": 4},
            lambda: Acquisition(seed=1).capture_instruction_set(["NOP"], 4, 2),
        )
        assert cache.stats["misses"] == 1

    def test_cwt_op_cache_counters(self):
        collector = activate(Collector())
        clear_cwt_cache()
        get_cwt(64)
        get_cwt(64)
        get_cwt(96)
        snap = collector.metrics.snapshot()
        assert snap["cwt.op_cache.misses"]["value"] == 2
        assert snap["cwt.op_cache.hits"]["value"] == 1


class TestCliTrace:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert experiments_main(["table2", "--trace", trace_path]) == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "trace written to" in captured.err
        assert validate(trace_path) == []
        report = load(trace_path)
        assert "experiment.table2" in report.paths

    def test_cwt_spans_reach_the_trace(self, tmp_path):
        collector = activate(Collector())
        traces = np.random.default_rng(0).normal(size=(4, 64)).astype(np.float32)
        get_cwt(64).transform(traces)
        assert any(s.name == "cwt.batch" for s in collector.spans)


class TestCaptureSpans:
    def test_capture_file_splits_into_sim_render_scope(self, tmp_path):
        collector = activate(Collector())
        Acquisition(seed=3).capture_class("ADD", 8, n_programs=2)
        path = str(tmp_path / "capture.jsonl")
        write_jsonl(collector, path)
        assert validate(path) == []
        paths = load(path).paths
        file_path = next(p for p in paths if p.endswith("capture.file"))
        for child in ("capture.sim", "capture.render", "capture.scope"):
            stats = paths[f"{file_path}/{child}"]
            assert stats.calls == 2
            assert stats.cum_ms > 0.0

    def test_capture_program_records_its_stages(self):
        collector = activate(Collector())
        acquisition = Acquisition(seed=3)
        acquisition.reference_window()  # captured once, with its own spans
        before = len(collector.spans)
        acquisition.capture_program("nop\nadd r1, r2\nnop")
        names = [s.name for s in collector.spans[before:]]
        assert names == ["capture.sim", "capture.render", "capture.scope"]
