"""Threaded fit leaves: bit-identical for any worker count, fork-safe.

``CWT.transform`` runs its trace chunks on threads and the class
statistics run their column tiles on threads.  Neither may change a
bit of the output, leave a thread behind, or oversubscribe a process
pool that forks afterwards.
"""

import faulthandler
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.dsp.cwt import get_cwt
from repro.features import FeatureConfig, FeaturePipeline
from repro.features.pipeline import compute_class_stats
from repro.obs.trace import Collector, activate, deactivate
from repro.util import parallel
from repro.util.parallel import parallel_map, run_threads, usable_cores

N_SAMPLES = 315


def _traces(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (n, N_SAMPLES)).astype(np.float32)


def _labelled(seed=1):
    """Two classes of 90 traces over 3 programs: several chunks and tiles."""
    traces = _traces(180, seed)
    labels = np.repeat([0, 1], 90)
    traces[labels == 1, 100:140] += 1.5
    program_ids = np.tile(np.repeat([0, 1, 2], 30), 2)
    traces += 0.3 * program_ids[:, None]
    return traces, labels, program_ids, ("A", "B")


@pytest.fixture
def cores(monkeypatch):
    """Pin the automatic worker count (the usable-core probe).

    BLAS is pinned to one thread as well, so the transform's chunks may
    run threaded whatever BLAS this host links.
    """

    def pin(count):
        monkeypatch.setattr(parallel, "usable_cores", lambda: count)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)

    return pin


class TestTransform:
    @pytest.mark.parametrize("max_mem_mb", [1, 4096])
    def test_bit_identical_for_any_worker_count(self, cores, max_mem_mb):
        cwt = get_cwt(N_SAMPLES)
        traces = _traces(70)
        cores(1)
        serial = cwt.transform(traces, max_mem_mb=max_mem_mb)
        for count in (2, 3):
            cores(count)
            np.testing.assert_array_equal(
                cwt.transform(traces, max_mem_mb=max_mem_mb),
                serial,
                err_msg=f"workers={count}",
            )
        # Across budgets only the chunk's row count changes, and with it
        # the float32 BLAS blocking of the GEMM stages.
        cores(1)
        np.testing.assert_allclose(
            serial, cwt.transform(traces), rtol=1e-5, atol=1e-6
        )

    def test_more_workers_than_chunks(self, cores):
        cwt = get_cwt(N_SAMPLES)
        traces = _traces(3, seed=5)
        cores(1)
        serial = cwt.transform(traces)
        cores(8)
        np.testing.assert_array_equal(cwt.transform(traces), serial)

    def test_threads_are_joined_before_return(self, cores):
        cwt = get_cwt(N_SAMPLES)
        cores(3)
        before = threading.active_count()
        cwt.transform(_traces(64))
        assert threading.active_count() == before

    def test_span_records_resolved_workers(self, cores):
        cwt = get_cwt(N_SAMPLES)
        cores(2)
        collector = activate(Collector())
        try:
            cwt.transform(_traces(64))
            cwt.transform(_traces(64), max_mem_mb=1)
        finally:
            deactivate()
        workers = [
            s.attrs["workers"] for s in collector.spans if s.name == "cwt.batch"
        ]
        # A 1 MiB budget holds one chunk at a time, so it runs serially.
        assert workers == [2, 1]

    @pytest.mark.parametrize("blas", [2, None])
    def test_threaded_or_unknown_blas_runs_serially(
        self, cores, monkeypatch, blas
    ):
        """Only one layer of threads: BLAS's own, or the chunks'."""
        cores(2)
        monkeypatch.setattr(parallel, "blas_threads", lambda: blas)
        collector = activate(Collector())
        try:
            get_cwt(N_SAMPLES).transform(_traces(64))
        finally:
            deactivate()
        (batch,) = [s for s in collector.spans if s.name == "cwt.batch"]
        assert batch.attrs["workers"] == 1

    def test_one_usable_core_runs_serially(self, monkeypatch):
        """The affinity probe alone decides the automatic count."""
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        assert usable_cores() == 1
        collector = activate(Collector())
        try:
            get_cwt(N_SAMPLES).transform(_traces(64))
        finally:
            deactivate()
        (batch,) = [s for s in collector.spans if s.name == "cwt.batch"]
        assert batch.attrs["workers"] == 1


class TestClassStatistics:
    def test_stats_bit_identical_for_workers(self, cores):
        traces, labels, pids, names = _labelled()
        cwt = get_cwt(N_SAMPLES)
        results = []
        for count in (1, 2):
            cores(count)
            results.append(
                compute_class_stats(traces, labels, pids, names, cwt)
            )
        serial, threaded = results
        for name in names:
            for field in ("mean", "var", "program_means", "program_vars"):
                np.testing.assert_array_equal(
                    getattr(threaded[name], field),
                    getattr(serial[name], field),
                    err_msg=f"{name}.{field}",
                )

    @pytest.mark.parametrize("max_mem_mb", ["1", "256"])
    def test_fitted_pipeline_bit_identical_for_workers(
        self, cores, monkeypatch, max_mem_mb
    ):
        monkeypatch.setenv("REPRO_CWT_MEM_MB", max_mem_mb)
        traces, labels, pids, names = _labelled(seed=2)
        fitted = []
        for count in (1, 2):
            cores(count)
            pipeline = FeaturePipeline(
                FeatureConfig(kl_threshold="auto:0.9", n_components=6)
            ).fit(traces, labels, pids, names)
            fitted.append(pipeline)
        serial, threaded = fitted
        assert threaded.points == serial.points
        np.testing.assert_array_equal(
            threaded.pca.components_, serial.pca.components_
        )

    @pytest.mark.parametrize("count", [1, 2])
    def test_span_records_workers(self, cores, count):
        traces, labels, pids, names = _labelled()
        cores(count)
        collector = activate(Collector())
        try:
            compute_class_stats(
                traces, labels, pids, names, get_cwt(N_SAMPLES)
            )
        finally:
            deactivate()
        (stats_span,) = [s for s in collector.spans if s.name == "kl.stats"]
        assert stats_span.attrs["workers"] == count

    def test_span_records_resolved_not_usable_cores(self, cores):
        """One column tile per block: two cores, but the reduction is serial."""
        cores(2)
        collector = activate(Collector())
        try:
            compute_class_stats(
                _traces(6), np.repeat([0, 1], 3), np.zeros(6, dtype=int),
                ("A", "B"), None,
            )
        finally:
            deactivate()
        (stats_span,) = [s for s in collector.spans if s.name == "kl.stats"]
        assert stats_span.attrs["workers"] == 1


def _child_transform(seed):
    """Pool work item: transform in the (forked) child, report its context."""
    images = get_cwt(N_SAMPLES).transform(_traces(48, seed))
    in_worker = multiprocessing.parent_process() is not None
    return os.getpid(), in_worker, usable_cores(), images


class TestForkSafety:
    def test_forked_child_after_threaded_transform(self, cores):
        cwt = get_cwt(N_SAMPLES)
        cores(2)
        expected = [cwt.transform(_traces(48, seed)) for seed in (7, 8)]
        # A child that deadlocks on a lock held by a parent thread would
        # hang the map; bound it so a deadlock fails the run instead.
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            results = parallel_map(_child_transform, [7, 8], n_jobs=2)
        finally:
            faulthandler.cancel_dump_traceback_later()
        for (pid, in_worker, cores, images), reference in zip(
            results, expected
        ):
            assert pid != os.getpid(), "work item did not run on the pool"
            assert in_worker
            assert cores == 1
            np.testing.assert_array_equal(images, reference)

    def test_blas_threads_probe(self):
        threads = parallel.blas_threads()
        assert threads is None or threads >= 1

    def test_usable_cores_outside_a_pool(self):
        assert usable_cores() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))


class TestRunThreads:
    def test_every_item_runs_once(self):
        seen = np.zeros(200, dtype=int)

        def task(i):
            seen[i] += 1

        run_threads(task, range(len(seen)), 3)
        assert (seen == 1).all()

    def test_first_error_is_raised_after_join(self):
        before = threading.active_count()

        def task(i):
            if i == 3:
                raise ValueError("tile 3")

        with pytest.raises(ValueError, match="tile 3"):
            run_threads(task, range(20), 3)
        assert threading.active_count() == before

    def test_calling_thread_runs_an_item(self):
        # Each item waits for the other, so two threads run one each.
        barrier = threading.Barrier(2, timeout=10)
        runners = set()

        def task(i):
            barrier.wait()
            runners.add(threading.get_ident())

        run_threads(task, range(2), 2)
        assert threading.get_ident() in runners
        assert len(runners) == 2

    def test_helpers_are_bounded_and_joined(self):
        workers = 3
        before = threading.active_count()
        barrier = threading.Barrier(workers, timeout=10)
        caller = threading.get_ident()
        alive = []
        finished = []

        def task(i):
            barrier.wait()
            alive.append(threading.active_count())
            if threading.get_ident() != caller:
                time.sleep(0.05)  # helpers outlast the caller's share
            finished.append(i)

        run_threads(task, range(workers), workers)
        assert max(alive) - before == workers - 1
        assert sorted(finished) == list(range(workers))
        assert threading.active_count() == before

    def test_no_item_starts_after_a_failure(self):
        barrier = threading.Barrier(2, timeout=10)
        started = []

        def task(i):
            started.append(i)
            if i < 2:
                barrier.wait()
            if i == 1:
                raise ValueError("item 1")
            if i == 0:
                time.sleep(0.05)  # item 1 has failed when this returns

        with pytest.raises(ValueError, match="item 1"):
            run_threads(task, range(20), 2)
        assert sorted(started) == [0, 1]

    def test_lowest_index_error_wins(self):
        barrier = threading.Barrier(2, timeout=10)

        def task(i):
            barrier.wait()
            if i == 0:
                time.sleep(0.05)  # item 1 fails first
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            run_threads(task, range(2), 2)
