"""Parity tests: batched training-side KL/selection paths vs loop oracles."""

import itertools

import numpy as np
import pytest

from repro.features import (
    DnvpSelector,
    StackedClassStats,
    WaveletStats,
    between_class_kl,
    between_class_kl_matrix,
    select_all_pairs,
    within_class_kl,
)
from tests.oracles import dnvp_fit
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
        stacked = StackedClassStats.from_stats(stats, names)
        matrix = between_class_kl_matrix(stacked)
        pairs = list(itertools.combinations(names, 2))
        assert matrix.shape[0] == len(pairs)
        for row, (name_a, name_b) in enumerate(pairs):
            assert_fused_parity(
                matrix[row], between_class_kl(stats[name_a], stats[name_b])
            )

    def test_pair_indices_are_combinations_order(self):
        stacked = StackedClassStats(
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
        for sel_fast, sel_slow in zip(fast.pair_selections, slow.pair_selections):
            assert (sel_fast.class_a, sel_fast.class_b) == (
                sel_slow.class_a,
                sel_slow.class_b,
            )
            assert_fused_parity(sel_fast.between_field, sel_slow.between_field)
            assert sel_fast.relaxed == sel_slow.relaxed

    def test_select_all_pairs_parallel_matches_serial(self, stats):
        serial = select_all_pairs(stats, kl_threshold="auto:0.6", n_jobs=1)
        pooled = select_all_pairs(stats, kl_threshold="auto:0.6", n_jobs=2)
        assert [s.points for s in serial] == [s.points for s in pooled]
        assert [(s.class_a, s.class_b) for s in serial] == [
            (s.class_a, s.class_b) for s in pooled
        ]
