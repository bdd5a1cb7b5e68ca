"""parallel_map under worker failure: crash, hang, error propagation.

The contract under test: results are bit-identical to the serial map for
any worker count *and any failure pattern*, workers are never leaked,
and a deterministic error still surfaces (from the serial salvage pass).
"""

import os
import time

import numpy as np
import pytest

from repro.util.parallel import (
    parallel_map,
    resolve_task_retries,
    resolve_task_timeout,
)


def _double(x):
    return 2 * x


def _crash_once(arg):
    """Kill the worker process hard the first time item 3 is attempted."""
    index, marker_dir = arg
    if index == 3:
        marker = os.path.join(marker_dir, "crashed")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    return index * 2


def _hang_once(arg):
    """Stall the pool the first time item 2 is attempted."""
    index, marker_dir = arg
    if index == 2:
        marker = os.path.join(marker_dir, "hung")
        if not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(60.0)
    return index * 2


def _fail_on_three(x):
    if x == 3:
        raise ValueError("item three is broken")
    return 2 * x


class TestResolvers:
    def test_timeout_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert resolve_task_timeout(None) is None  # default: unbounded
        assert resolve_task_timeout(0) is None
        assert resolve_task_timeout(2.5) == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7")
        assert resolve_task_timeout(None) == 7.0

    def test_retries_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert resolve_task_retries(None) >= 0
        assert resolve_task_retries(3) == 3
        assert resolve_task_retries(-2) == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
        assert resolve_task_retries(None) == 4


class TestWorkerCrash:
    def test_killed_worker_items_are_salvaged(self, tmp_path):
        # os._exit(1) breaks the whole pool; the retry round (the marker
        # file makes the crash transient) must recover every item and
        # the result must match the serial map exactly.
        items = [(i, str(tmp_path)) for i in range(8)]
        result = parallel_map(
            _crash_once, items, n_jobs=2, timeout=0, retries=2
        )
        assert result == [2 * i for i in range(8)]
        assert (tmp_path / "crashed").exists()  # the crash really happened

    def test_persistent_crash_falls_back_to_serial(self, tmp_path):
        # With zero retries the broken pool's items go straight to the
        # serial salvage pass, where the (now-marked) item succeeds.
        items = [(i, str(tmp_path)) for i in range(8)]
        result = parallel_map(
            _crash_once, items, n_jobs=2, timeout=0, retries=0
        )
        assert result == [2 * i for i in range(8)]

    def test_deterministic_error_propagates(self):
        # A genuine error in fn must raise, not vanish into a retry loop.
        with pytest.raises(ValueError, match="item three"):
            parallel_map(
                _fail_on_three, range(8), n_jobs=2, timeout=0, retries=1
            )


class TestWorkerHang:
    def test_stalled_pool_is_torn_down_and_items_retried(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(8)]
        started = time.monotonic()
        result = parallel_map(
            _hang_once, items, n_jobs=2, timeout=2.0, retries=1
        )
        elapsed = time.monotonic() - started
        assert result == [2 * i for i in range(8)]
        assert (tmp_path / "hung").exists()
        # Far below the 60 s sleep: the hung worker was terminated, not
        # joined, and the retry round ran the fast path.
        assert elapsed < 30.0


class TestDeterminism:
    def test_failure_path_matches_serial(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(8)]
        crashed = parallel_map(
            _crash_once, items, n_jobs=2, timeout=0, retries=1
        )
        serial = [_crash_once(item) for item in items]  # marker now set
        assert crashed == serial

    def test_numpy_payloads_bit_identical(self):
        def reference(i):
            return np.random.default_rng(i).normal(size=16)

        pooled = parallel_map(_rng_payload, range(12), n_jobs=3)
        for i, row in enumerate(pooled):
            np.testing.assert_array_equal(row, reference(i))


def _rng_payload(i):
    return np.random.default_rng(i).normal(size=16)


class TestFailureContext:
    """Per-item salvage context surfaced via last_map_failures() + obs."""

    def test_serial_map_reports_no_failures(self):
        from repro.util.parallel import last_map_failures

        assert parallel_map(_double, [1, 2, 3], n_jobs=1) == [2, 4, 6]
        assert last_map_failures() == []

    def test_clean_pooled_map_reports_no_failures(self):
        from repro.util.parallel import last_map_failures

        parallel_map(_double, list(range(6)), n_jobs=2)
        assert last_map_failures() == []

    def test_crash_records_item_attempts_and_error(self, tmp_path):
        from repro.util.parallel import last_map_failures

        items = [(i, str(tmp_path)) for i in range(8)]
        parallel_map(_crash_once, items, n_jobs=2, timeout=0, retries=1)
        failures = last_map_failures()
        assert failures, "worker death must surface failure context"
        assert any(f.index == 3 for f in failures)
        for record in failures:
            assert record.attempts >= 1
            assert record.error  # last failure cause, as text

    def test_context_resets_on_next_map(self, tmp_path):
        from repro.util.parallel import last_map_failures

        items = [(i, str(tmp_path)) for i in range(6)]
        parallel_map(_crash_once, items, n_jobs=2, timeout=0, retries=1)
        assert last_map_failures()
        parallel_map(_double, [1, 2], n_jobs=1)
        assert last_map_failures() == []

    def test_failures_feed_obs_span_and_counter(self, tmp_path):
        from repro import obs

        items = [(i, str(tmp_path)) for i in range(6)]
        collector = obs.activate()
        try:
            parallel_map(_crash_once, items, n_jobs=2, timeout=0, retries=1)
        finally:
            obs.deactivate()
        snapshot = collector.metrics.snapshot()
        assert snapshot.get("parallel.item_retries", {}).get("value", 0) >= 1
        spans = [s for s in collector.spans if s.name == "parallel.map"]
        assert spans
        attrs = spans[-1].attrs
        assert attrs.get("n_item_failures", 0) >= 1
        assert any("#3" in line for line in attrs.get("item_failures", []))


class _CountedTask:
    """Work function that counts, in the parent, how often it is pickled."""

    pickled = 0

    def __getstate__(self):
        type(self).pickled += 1
        return {}

    def __setstate__(self, state):
        pass

    def __call__(self, x):
        return 3 * x


def _spawn_pool(monkeypatch):
    """Make the pool start its workers with ``spawn`` (pickles the task)."""
    import concurrent.futures
    import multiprocessing

    original = concurrent.futures.ProcessPoolExecutor

    def spawning(*args, **kwargs):
        kwargs["mp_context"] = multiprocessing.get_context("spawn")
        return original(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)


class TestTaskShipping:
    """``fn`` reaches each worker once per pool, never once per item."""

    @pytest.mark.parametrize("start", ["default", "spawn"])
    def test_task_pickled_at_most_once_per_worker(self, monkeypatch, start):
        if start == "spawn":
            _spawn_pool(monkeypatch)
        _CountedTask.pickled = 0
        result = parallel_map(_CountedTask(), range(32), n_jobs=2, timeout=0)
        assert result == [3 * i for i in range(32)]
        assert _CountedTask.pickled <= 2
        if start == "spawn":  # the count is live: spawned workers unpickle
            assert _CountedTask.pickled >= 1

    def test_closure_runs_on_forked_pool(self):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("closures reach workers unpickled only under fork")
        offset = 5
        pids = parallel_map(
            lambda x: (x + offset, os.getpid()), range(8), n_jobs=2,
            timeout=0,
        )
        assert [value for value, _ in pids] == [x + 5 for x in range(8)]
        assert os.getpid() not in {pid for _, pid in pids}
