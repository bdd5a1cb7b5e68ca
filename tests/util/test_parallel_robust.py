"""parallel_map under worker failure: crash salvage, error propagation.

The contract under test: results are bit-identical to the serial map for
any worker count *and any worker death*, workers are never leaked, and
an error raised by ``fn`` propagates as raised.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.util.parallel import parallel_map


def _crash_once(arg):
    """Kill the worker process hard the first time item 3 is attempted."""
    index, marker_dir = arg
    if index == 3:
        marker = os.path.join(marker_dir, "crashed")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    return index * 2


def _crash_in_workers(arg):
    """Kill any pool worker that runs item 3 once the marker exists."""
    index, marker_dir = arg
    if (
        index == 3
        and multiprocessing.parent_process() is not None
        and os.path.exists(os.path.join(marker_dir, "crashed"))
    ):
        os._exit(1)
    return index * 2, os.getpid()


def _fail_on_three(x):
    if x == 3:
        raise ValueError("item three is broken")
    return 2 * x


class TestWorkerCrash:
    def test_killed_worker_items_are_salvaged(self, tmp_path):
        # os._exit(1) breaks the whole pool; the items without a result
        # run serially in the parent (the marker file makes the crash
        # transient), and the result must match the serial map exactly.
        items = [(i, str(tmp_path)) for i in range(8)]
        result = parallel_map(_crash_once, items, n_jobs=2)
        assert result == [2 * i for i in range(8)]
        assert (tmp_path / "crashed").exists()  # the crash really happened
        assert multiprocessing.active_children() == []

    def test_persistent_crash_falls_back_to_serial(self, tmp_path):
        # A crash on every pool attempt: the marker is already set, so
        # only the serial pass in the parent can finish item 3.
        (tmp_path / "crashed").touch()
        items = [(i, str(tmp_path)) for i in range(8)]
        pids = parallel_map(_crash_in_workers, items, n_jobs=2)
        assert [value for value, _ in pids] == [2 * i for i in range(8)]
        assert pids[3][1] == os.getpid()

    def test_deterministic_error_propagates(self):
        # A genuine error in fn must raise, not vanish into a salvage pass.
        with pytest.raises(ValueError, match="item three"):
            parallel_map(_fail_on_three, range(8), n_jobs=2)

    def test_error_path_leaves_no_worker_running(self):
        # The pool is shut down before the error reaches the caller.
        with pytest.raises(ValueError, match="item three"):
            parallel_map(_fail_on_three, range(8), n_jobs=2)
        assert multiprocessing.active_children() == []


class TestDeterminism:
    def test_failure_path_matches_serial(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(8)]
        crashed = parallel_map(_crash_once, items, n_jobs=2)
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
        result = parallel_map(_CountedTask(), range(32), n_jobs=2)
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
            lambda x: (x + offset, os.getpid()), range(8), n_jobs=2
        )
        assert [value for value, _ in pids] == [x + 5 for x in range(8)]
        assert os.getpid() not in {pid for _, pid in pids}
