"""Parity tests: batched training-side KL/selection paths vs loop oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.features import (
    DnvpSelector,
    WaveletStats,
    between_class_kl,
    select_all_pairs,
    within_class_kl,
)
from repro.features.kl import PooledGaussian, between_class_field
from tests.oracles import (
    StackedWaveletStats,
    between_class_kl_matrix,
    dnvp_fit,
    dnvp_pair_selections,
)
from tests.oracles import within_class_kl as within_class_kl_oracle


def _random_stats(rng, n_programs=4, shape=(6, 17), n_per_program=30):
    images = rng.normal(0, 1, (n_programs * n_per_program,) + shape)
    pids = np.repeat(np.arange(n_programs), n_per_program)
    # Inject per-program drift so the within field is non-trivial.
    for pid in range(n_programs):
        images[pids == pid] += 0.3 * pid * rng.normal(0, 1, shape)
    return WaveletStats.from_images(images, pids)


def _random_class_stats(rng, n_classes=5, shape=(6, 17)):
    stats = {}
    for code in range(n_classes):
        images = rng.normal(code * 0.2, 1.0 + 0.1 * code, (40,) + shape)
        pids = np.repeat([0, 1], 20)
        stats[f"C{code}"] = WaveletStats.from_images(images, pids)
    return stats


#: Parity budget for the fused symmetric (Jeffreys) kernel: the log-free
#: factorization is algebraically identical to the two-``gaussian_kl``
#: composition but rounds differently, ~1e-15 absolute on O(1) fields —
#: three orders of magnitude inside the 1e-9 acceptance budget.
FUSED_ATOL = 1e-12
FUSED_RTOL = 1e-10


def assert_fused_parity(fast, reference):
    np.testing.assert_allclose(
        fast, reference, rtol=FUSED_RTOL, atol=FUSED_ATOL
    )


class TestWithinClassBatched:
    @pytest.mark.parametrize("n_programs", [2, 3, 5, 9])
    def test_matches_reference(self, n_programs):
        rng = np.random.default_rng(n_programs)
        stats = _random_stats(rng, n_programs=n_programs)
        reference = within_class_kl_oracle(stats)
        batched = within_class_kl(stats)
        assert_fused_parity(batched, reference)

    def test_single_program_zero(self):
        rng = np.random.default_rng(8)
        stats = _random_stats(rng, n_programs=1)
        field = within_class_kl(stats)
        np.testing.assert_array_equal(field, np.zeros_like(stats.mean))
        np.testing.assert_array_equal(field, within_class_kl_oracle(stats))

    def test_zero_variance_floor(self):
        """Degenerate (zero-variance) program stats stay finite."""
        rng = np.random.default_rng(14)
        stats = _random_stats(rng, n_programs=3)
        stats.program_vars[1] = 0.0
        batched = within_class_kl(stats)
        assert np.isfinite(batched).all()
        assert_fused_parity(batched, within_class_kl_oracle(stats))


class TestGroupedFromImages:
    """Streamed per-program statistics vs the masked-slice loop."""

    def test_balanced_matches_masked_loop(self):
        rng = np.random.default_rng(16)
        images = rng.normal(1.5, 0.8, (24, 5, 9)).astype(np.float32)
        pids = np.repeat(np.arange(8), 3)
        stats = WaveletStats.from_images(images, pids)
        images64 = images.astype(np.float64)
        for row, pid in enumerate(np.unique(pids)):
            block = images64[pids == pid]
            np.testing.assert_array_equal(
                stats.program_means[row], block.mean(axis=0)
            )
            np.testing.assert_array_equal(
                stats.program_vars[row], block.var(axis=0)
            )
        # Pooled moments come from the per-program moments (balanced
        # mean of means / law of total variance) — equal to the direct
        # reductions up to float64 summation order.
        np.testing.assert_allclose(
            stats.mean, images64.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            stats.var, images64.var(axis=0), rtol=1e-12
        )

    def test_unsorted_program_ids(self):
        rng = np.random.default_rng(17)
        images = rng.normal(0, 1, (12, 3, 4))
        pids = np.array([2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1])
        stats = WaveletStats.from_images(images, pids)
        for row, pid in enumerate([0, 1, 2]):
            np.testing.assert_array_equal(
                stats.program_means[row], images[pids == pid].mean(axis=0)
            )

    def test_unbalanced_falls_back(self):
        rng = np.random.default_rng(18)
        images = rng.normal(0, 1, (11, 3, 4))
        pids = np.array([0] * 5 + [1] * 6)
        stats = WaveletStats.from_images(images, pids)
        np.testing.assert_array_equal(
            stats.program_means[1], images[5:].mean(axis=0)
        )
        # Pooled by the law of total variance over the two programs.
        np.testing.assert_allclose(stats.var, images.var(axis=0), rtol=1e-12)


class TestBetweenClassMatrix:
    def test_rows_match_per_pair_calls(self):
        rng = np.random.default_rng(11)
        stats = _random_class_stats(rng, n_classes=5)
        names = list(stats)
        stacked = StackedWaveletStats.from_stats(stats, names)
        matrix = between_class_kl_matrix(stacked)
        pairs = list(itertools.combinations(names, 2))
        assert matrix.shape[0] == len(pairs)
        for row, (name_a, name_b) in enumerate(pairs):
            assert_fused_parity(
                matrix[row], between_class_kl(stats[name_a], stats[name_b])
            )

    def test_pair_fields_are_the_stack_rows_bit_for_bit(self):
        """Per-pair fields from per-class Gaussians equal the old stack."""
        rng = np.random.default_rng(12)
        stats = _random_class_stats(rng, n_classes=5)
        names = list(stats)
        stats[names[2]].var[0, :3] = 0.0  # exercise the variance floor
        matrix = between_class_kl_matrix(StackedWaveletStats.from_stats(stats))
        gaussians = [PooledGaussian.of(stats[name]) for name in names]
        pairs = itertools.combinations(range(len(names)), 2)
        for row, (a, b) in enumerate(pairs):
            np.testing.assert_array_equal(
                between_class_field(gaussians[a], gaussians[b]), matrix[row]
            )

    def test_pair_indices_are_combinations_order(self):
        stacked = StackedWaveletStats(
            names=("a", "b", "c", "d"),
            means=np.zeros((4, 2, 3)),
            vars=np.ones((4, 2, 3)),
        )
        rows_i, rows_j = stacked.pair_indices()
        assert list(zip(rows_i.tolist(), rows_j.tolist())) == list(
            itertools.combinations(range(4), 2)
        )

class TestDnvpSelectorParity:
    @pytest.fixture(scope="class")
    def stats(self):
        return _random_class_stats(np.random.default_rng(13), n_classes=5)

    def test_fit_matches_fit_reference(self, stats):
        fast = DnvpSelector(kl_threshold="auto:0.6", top_k=4).fit(stats)
        slow = dnvp_fit(DnvpSelector(kl_threshold="auto:0.6", top_k=4), stats)
        assert fast.points == slow.points
        assert fast.pair_points == slow.pair_points
        fast_pairs = select_all_pairs(stats, kl_threshold="auto:0.6", top_k=4)
        slow_pairs = dnvp_pair_selections(slow, stats)
        assert len(fast_pairs) == len(slow_pairs) == 10
        for sel_fast, sel_slow in zip(fast_pairs, slow_pairs):
            assert (sel_fast.class_a, sel_fast.class_b) == (
                sel_slow.class_a,
                sel_slow.class_b,
            )
            assert sel_fast.points == sel_slow.points
            # The field the pair's task ranked, against the oracle's.
            field = between_class_field(
                PooledGaussian.of(stats[sel_fast.class_a]),
                PooledGaussian.of(stats[sel_fast.class_b]),
            )
            assert_fused_parity(field, sel_slow.between_field)
            assert sel_fast.relaxed == sel_slow.relaxed
            # Lean records: no plane outlives the pair's task.
            assert sel_fast.between_field is None
            assert sel_fast.peaks_mask is None

    def test_select_all_pairs_parallel_matches_serial(self, stats):
        serial = select_all_pairs(stats, kl_threshold="auto:0.6", n_jobs=1)
        pooled = select_all_pairs(stats, kl_threshold="auto:0.6", n_jobs=2)
        assert [s.points for s in serial] == [s.points for s in pooled]
        assert [(s.class_a, s.class_b) for s in serial] == [
            (s.class_a, s.class_b) for s in pooled
        ]


class TestSelectionMemory:
    """``select_all_pairs`` holds O(classes) planes, not O(pairs)."""

    N_CLASSES = 16
    SHAPE = (24, 80)

    def test_traced_peak_is_linear_in_class_count(self):
        rng = np.random.default_rng(21)
        stats = _random_class_stats(
            rng, n_classes=self.N_CLASSES, shape=self.SHAPE
        )
        plane = np.prod(self.SHAPE) * np.dtype(np.float64).itemsize
        # A first call may import lazily (``np.quantile`` pulls in
        # ``numpy.ma``); keep that out of the measured call.
        select_all_pairs(
            _random_class_stats(rng, n_classes=3, shape=self.SHAPE),
            kl_threshold="auto:0.6", n_jobs=1,
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            selections = select_all_pairs(
                stats, kl_threshold="auto:0.6", top_k=4, n_jobs=1
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(selections) == self.N_CLASSES * (self.N_CLASSES - 1) // 2
        # Per class: a within field, a floored variance and its
        # reciprocal, and a mask; per call: a few scratch planes.  The
        # K(K-1)/2 = 120 stacked fields alone would be 120 planes.
        assert peak < (4 * self.N_CLASSES + 16) * plane, peak / plane
