"""Determinism of parallel acquisition; the batched renderer vs its oracle.

The parallelization contract is strict: captures are partitioned by
per-file sub-seeds that are derived *before* any work is dispatched, so
the output must be bit-for-bit identical for any worker count.
"""

import numpy as np
import pytest

from repro.power.acquisition import Acquisition, RegisterSampler
from repro.power.faults import FaultInjector
from repro.sim.cpu import AvrCpu
from repro.util.parallel import parallel_map, resolve_n_jobs
from tests.oracles import render_events


def _module_double(x):
    return 2 * x


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(_module_double, range(7), n_jobs=1) == [
            0, 2, 4, 6, 8, 10, 12,
        ]

    def test_pool_matches_serial(self):
        items = list(range(8))
        serial = parallel_map(_module_double, items, n_jobs=1)
        pooled = parallel_map(_module_double, items, n_jobs=3)
        assert pooled == serial

    def test_unpicklable_fn_falls_back_to_serial(self):
        state = {"offset": 5}
        result = parallel_map(lambda x: x + state["offset"], [1, 2], n_jobs=4)
        assert result == [6, 7]

    def test_resolve_n_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(0) >= 1
        monkeypatch.setenv("REPRO_N_JOBS", "4")
        assert resolve_n_jobs(None) == 4
        monkeypatch.setenv("REPRO_N_JOBS", "junk")
        assert resolve_n_jobs(None) == 1


class TestEffectiveWorkers:
    """Workload-size heuristic: small captures must not pay pool overhead."""

    def test_small_workload_degrades_to_serial(self):
        from repro.util.parallel import effective_workers

        assert effective_workers(4, 2, min_items_per_worker=4) == 1
        assert effective_workers(3, 8, min_items_per_worker=4) == 1

    def test_large_workload_keeps_requested_workers(self):
        from repro.util.parallel import effective_workers

        assert effective_workers(32, 4, min_items_per_worker=4) == 4
        assert effective_workers(9, 4, min_items_per_worker=4) == 2

    def test_min_one_disables_heuristic(self):
        from repro.util.parallel import effective_workers

        assert effective_workers(2, 8, min_items_per_worker=1) == 8

    def test_serial_requests_stay_serial(self):
        from repro.util.parallel import effective_workers

        assert effective_workers(100, 1, min_items_per_worker=4) == 1
        assert effective_workers(0, 8, min_items_per_worker=4) == 1

    def test_parallel_map_threshold_still_matches_serial(self):
        items = list(range(6))
        serial = parallel_map(_module_double, items, n_jobs=1)
        capped = parallel_map(
            _module_double, items, n_jobs=4, min_items_per_worker=4
        )
        assert capped == serial

    def test_capture_class_env_knob_bit_exact(self, monkeypatch):
        """REPRO_PARALLEL_MIN_FILES moves the cutover, never the data."""
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FILES", "1")
        eager_w, eager_p = Acquisition(seed=44).capture_class(
            "ADC", 16, n_programs=4, n_jobs=4
        )
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FILES", "100")
        capped_w, capped_p = Acquisition(seed=44).capture_class(
            "ADC", 16, n_programs=4, n_jobs=4
        )
        np.testing.assert_array_equal(eager_w, capped_w)
        np.testing.assert_array_equal(eager_p, capped_p)


class TestEnvKnobs:
    def test_env_flag_falsy_spellings(self, monkeypatch):
        from repro.util.env import env_flag

        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_flag("REPRO_TEST_KNOB", True) is True
        assert env_flag("REPRO_TEST_KNOB", False) is False
        for falsy in ("0", "false", "OFF", " Off "):
            monkeypatch.setenv("REPRO_TEST_KNOB", falsy)
            assert env_flag("REPRO_TEST_KNOB", True) is False
        monkeypatch.setenv("REPRO_TEST_KNOB", "1")
        assert env_flag("REPRO_TEST_KNOB", False) is True

    def test_env_int_fallbacks(self, monkeypatch):
        from repro.util.env import env_int

        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert env_int("REPRO_TEST_KNOB", 7) == 12
        monkeypatch.setenv("REPRO_TEST_KNOB", "junk")
        assert env_int("REPRO_TEST_KNOB", 7) == 7


class TestParallelCaptureDeterminism:
    def test_capture_class_bit_exact_across_worker_counts(self):
        serial_acq = Acquisition(seed=123)
        windows_1, pids_1 = serial_acq.capture_class(
            "ADC", 24, n_programs=4, n_jobs=1
        )
        pooled_acq = Acquisition(seed=123)
        windows_4, pids_4 = pooled_acq.capture_class(
            "ADC", 24, n_programs=4, n_jobs=4
        )
        np.testing.assert_array_equal(windows_1, windows_4)
        np.testing.assert_array_equal(pids_1, pids_4)

    def test_register_capture_bit_exact_across_worker_counts(self):
        serial = Acquisition(seed=7).capture_register_set(
            "Rd", [0, 16], 12, n_programs=2, n_jobs=1
        )
        pooled = Acquisition(seed=7).capture_register_set(
            "Rd", [0, 16], 12, n_programs=2, n_jobs=4
        )
        np.testing.assert_array_equal(serial.traces, pooled.traces)
        np.testing.assert_array_equal(serial.labels, pooled.labels)
        np.testing.assert_array_equal(serial.program_ids, pooled.program_ids)

    def test_instance_default_n_jobs_matches_serial(self):
        default = Acquisition(seed=31)
        pooled = Acquisition(seed=31, n_jobs=2)
        w_default, _ = default.capture_class("EOR", 16, n_programs=4)
        w_pooled, _ = pooled.capture_class("EOR", 16, n_programs=4)
        np.testing.assert_array_equal(w_default, w_pooled)

    def test_register_sampler_is_picklable(self):
        import pickle

        sampler = RegisterSampler(0, 5, ("ADD", "SUB"))
        clone = pickle.loads(pickle.dumps(sampler))
        rng_a, rng_b = (np.random.default_rng(2) for _ in range(2))
        assert clone(rng_a, 0).encode() == sampler(rng_b, 0).encode()


class TestOnePoolPerSet:
    """A set capture maps every (class, file) on one pool."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        import concurrent.futures

        monkeypatch.delenv("REPRO_PARALLEL_MIN_FILES", raising=False)
        original = concurrent.futures.ProcessPoolExecutor
        made = []

        def counting(*args, **kwargs):
            made.append(kwargs.get("max_workers"))
            return original(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", counting
        )
        return made

    def test_instruction_set_builds_one_pool(self, pools):
        # 8 files per class: each class alone would fill a 2-worker pool.
        Acquisition(seed=5).capture_instruction_set(
            ["ADD", "EOR", "LDS"], 16, n_programs=8, n_jobs=2
        )
        assert pools == [2]

    def test_register_set_builds_one_pool(self, pools):
        Acquisition(seed=5).capture_register_set(
            "Rd", [0, 16, 31], 16, n_programs=8, n_jobs=2
        )
        assert pools == [2]

    def test_faulty_screened_sets_match_serial(self):
        def capture(n_jobs):
            acq = Acquisition(
                seed=3,
                n_jobs=n_jobs,
                faults=FaultInjector(rate=0.15),
                screener=True,
            )
            keys = ["ADD", "EOR", "LDS", "RJMP"]
            sets = [
                acq.capture_instruction_set(keys, 48, 8),
                acq.capture_register_set("Rd", [1, 17], 32, 8),
            ]
            return sets, acq.screening_report()

        (serial, serial_report), (pooled, pooled_report) = (
            capture(1), capture(2)
        )
        assert pooled_report == serial_report
        # The case covers quarantine: some rows were dropped.
        assert sum(s["n_quarantined"] for s in serial_report.values()) > 0
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.traces, b.traces)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.program_ids, b.program_ids)
            assert a.label_names == b.label_names
            assert a.meta == b.meta

    def test_capture_class_matches_its_row_of_the_set(self):
        ts = Acquisition(seed=9).capture_instruction_set(
            ["ADD", "LDS"], 20, n_programs=4, n_jobs=2
        )
        windows, pids = Acquisition(seed=9).capture_class(
            "LDS", 20, n_programs=4, n_jobs=2
        )
        np.testing.assert_array_equal(ts.traces[ts.labels == 1], windows)
        np.testing.assert_array_equal(ts.program_ids[ts.labels == 1], pids)


class TestBatchedRenderer:
    @pytest.fixture()
    def bench(self):
        return Acquisition(seed=55)

    def _events(self, bench, target_key, n_segments=32):
        rng = bench._rng("render-test", target_key)
        instructions, _ = bench._build_segments(
            rng, n_segments=n_segments, target_key=target_key
        )
        cpu = AvrCpu(instructions)
        bench._randomize_state(cpu, rng)
        return cpu.run(max_steps=len(instructions))

    @pytest.mark.parametrize("target_key", ["ADC", "LDS", "RJMP", "SBI"])
    def test_batched_matches_serial(self, bench, target_key):
        events = self._events(bench, target_key)
        serial = render_events(bench.model, events)
        batched = bench.model.render_events(events)
        np.testing.assert_allclose(batched, serial, rtol=1e-9, atol=1e-12)

    def test_empty_stream(self, bench):
        np.testing.assert_array_equal(
            bench.model.render_events([]),
            render_events(bench.model, []),
        )

    def test_skipped_and_two_word_events(self, bench):
        """Skip bubbles and 32-bit second words render like the oracle."""
        program = "\n".join(
            [
                "ldi r16, 5",
                "cpse r16, r16",
                "lds r1, 0x0100",
                "sbrs r16, 0",
                "sts 0x0102, r3",
                "call 0x0000",
            ]
        )
        events = AvrCpu(program).run(max_steps=6)
        assert any(event.skipped for event in events)
        assert any(len(event.opcode_words) == 2 for event in events)
        np.testing.assert_allclose(
            bench.model.render_events(events),
            render_events(bench.model, events),
            rtol=1e-9,
            atol=1e-12,
        )
