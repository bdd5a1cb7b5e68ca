"""DNVP selection tests."""

import numpy as np
import pytest

from repro.features import (
    DnvpSelector,
    WaveletStats,
    extract_points,
    local_maxima_2d,
    select_pair_points,
    unify_points,
)
from repro.features.selection import resolve_threshold


class TestLocalMaxima:
    def test_single_peak(self):
        field = np.zeros((5, 5))
        field[2, 3] = 1.0
        mask = local_maxima_2d(field)
        assert mask[2, 3]
        assert mask.sum() == 1

    def test_plateau_not_maxima_by_default(self):
        field = np.zeros((3, 5))
        field[1, 2] = field[1, 3] = 1.0
        assert local_maxima_2d(field).sum() == 0
        assert local_maxima_2d(field, include_plateau=True).sum() >= 2

    def test_edges_can_be_maxima(self):
        field = np.zeros((3, 4))
        field[0, 0] = 2.0
        assert local_maxima_2d(field)[0, 0]

    def test_one_row_field(self):
        field = np.array([[0.0, 1.0, 0.5, 2.0, 0.1]])
        mask = local_maxima_2d(field)
        assert mask[0, 1] and mask[0, 3]
        assert mask.sum() == 2


class TestThreshold:
    def test_numeric_passthrough(self):
        assert resolve_threshold(0.005, np.ones((2, 2))) == 0.005

    def test_auto_quantile(self):
        field = np.arange(100, dtype=float).reshape(10, 10)
        assert resolve_threshold("auto", field) == pytest.approx(
            np.quantile(field, 0.25)
        )
        assert resolve_threshold("auto:0.5", field) == pytest.approx(
            np.quantile(field, 0.5)
        )

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_threshold("bogus", np.ones((2, 2)))


def _stats_pair(rng, distinct_points, drift_points=(), n=300, n_programs=3):
    """Two classes differing at ``distinct_points``; class A drifts across
    programs at ``drift_points``."""
    shape = (6, 20)
    a = rng.normal(0, 1, (n,) + shape)
    b = rng.normal(0, 1, (n,) + shape)
    for (j, k) in distinct_points:
        b[:, j, k] += 5.0
    pids = np.repeat(np.arange(n_programs), n // n_programs)
    for (j, k) in drift_points:
        a[:, j, k] += pids * 3.0
        b[:, j, k] += pids * 3.0
    return (
        WaveletStats.from_images(a, pids),
        WaveletStats.from_images(b, pids),
    )


class TestPairSelection:
    def test_finds_planted_points(self):
        rng = np.random.default_rng(0)
        planted = [(2, 5), (4, 12)]
        stats_a, stats_b = _stats_pair(rng, planted)
        selection = select_pair_points(
            stats_a, stats_b, kl_threshold="auto:0.9", top_k=2
        )
        assert set(selection.points) == set(planted)
        assert not selection.relaxed

    def test_rejects_drifting_point(self):
        rng = np.random.default_rng(1)
        # (2,5) is distinct AND drifts; (4,12) is distinct and stable.
        stats_a, stats_b = _stats_pair(
            rng, [(2, 5), (4, 12)], drift_points=[(2, 5)]
        )
        selection = select_pair_points(
            stats_a, stats_b, kl_threshold="auto:0.9", top_k=1
        )
        assert selection.points == [(4, 12)]

    def test_relaxation_never_empty(self):
        rng = np.random.default_rng(2)
        stats_a, stats_b = _stats_pair(rng, [(1, 1)])
        selection = select_pair_points(
            stats_a, stats_b, kl_threshold=0.0, top_k=3
        )
        assert len(selection.points) == 3
        assert selection.relaxed

    def test_top_k_respected(self):
        rng = np.random.default_rng(3)
        planted = [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9)]
        stats_a, stats_b = _stats_pair(rng, planted)
        selection = select_pair_points(
            stats_a, stats_b, kl_threshold="auto:0.9", top_k=3
        )
        assert len(selection.points) == 3
        assert set(selection.points) <= set(planted)


class TestStableTieBreak:
    """Regression tests: tie order of equal-valued points is the flat
    (row-major) point order, not whatever ``argsort(...)[::-1]`` produced."""

    def test_descending_order_ties_by_lowest_flat_index(self):
        from repro.features.selection import _descending_order

        values = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 2.0]])
        order = _descending_order(values)
        # The three tied maxima come first, in flat order 1 < 3 < 5.
        assert order[:3].tolist() == [1, 3, 5]

    def test_neg_inf_sentinels_sort_last(self):
        from repro.features.selection import _descending_order

        values = np.array([[-np.inf, 1.0], [1.0, -np.inf]])
        order = _descending_order(values)
        assert order[:2].tolist() == [1, 2]
        assert set(order[2:].tolist()) == {0, 3}

    def test_tied_field_selects_lowest_flat_indices_first(self):
        """Equal-height isolated peaks must be picked in flat point order."""
        rng = np.random.default_rng(5)
        stats_a, stats_b = _stats_pair(rng, [])
        between = np.zeros((6, 20))
        # Four isolated peaks of identical height, flat order:
        # (0, 2) < (0, 17) < (3, 9) < (5, 4).
        peaks = [(0, 2), (0, 17), (3, 9), (5, 4)]
        for (j, k) in peaks:
            between[j, k] = 7.0
        zeros = np.zeros_like(between)
        selection = select_pair_points(
            stats_a,
            stats_b,
            kl_threshold=1.0,
            top_k=3,
            within_a=zeros,
            within_b=zeros,
            between=between,
        )
        assert selection.points == [(0, 2), (0, 17), (3, 9)]

    def test_relaxed_tier_also_stable(self):
        rng = np.random.default_rng(6)
        stats_a, stats_b = _stats_pair(rng, [])
        between = np.zeros((4, 10))
        peaks = [(0, 1), (1, 4), (2, 7), (3, 2)]
        for (j, k) in peaks:
            between[j, k] = 3.0
        # Nothing passes the strict threshold -> relaxation tier ranks
        # all peaks; ties must still come back in flat order.
        ones = np.ones_like(between)
        selection = select_pair_points(
            stats_a,
            stats_b,
            kl_threshold=0.5,
            top_k=4,
            within_a=ones,
            within_b=ones,
            between=between,
        )
        assert selection.relaxed
        assert selection.points == sorted(peaks)


class TestSelectorAndExtract:
    def test_multiclass_union(self):
        rng = np.random.default_rng(4)
        shape = (6, 20)
        n = 240
        pids = np.repeat([0, 1, 2], n // 3)
        images = {
            "A": rng.normal(0, 1, (n,) + shape),
            "B": rng.normal(0, 1, (n,) + shape),
            "C": rng.normal(0, 1, (n,) + shape),
        }
        images["B"][:, 1, 2] += 5.0
        images["C"][:, 3, 8] += 5.0
        stats = {
            k: WaveletStats.from_images(v, pids) for k, v in images.items()
        }
        selector = DnvpSelector(kl_threshold="auto:0.9", top_k=2).fit(stats)
        assert (1, 2) in selector.points
        assert (3, 8) in selector.points
        pairs = [("A", "B"), ("A", "C"), ("B", "C")]
        assert list(selector.pair_points) == pairs
        assert all(len(pts) == 2 for pts in selector.pair_points.values())
        assert selector.n_points == len(selector.points)

    def test_extract_points(self):
        images = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        values = extract_points(images, [(0, 0), (2, 3)])
        np.testing.assert_array_equal(values, [[0, 11], [12, 23]])

    def test_extract_single_image(self):
        image = np.arange(12).reshape(3, 4)
        np.testing.assert_array_equal(
            extract_points(image, [(1, 1)]), [5]
        )

    def test_extract_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_points(np.zeros((1, 2, 2)), [])

    def test_unify_deterministic_order(self):
        from repro.features.selection import PairSelection

        def sel(points):
            return PairSelection(
                "a", "b", points, np.zeros((1, 1)),
                np.zeros((1, 1), bool), np.zeros((1, 1), bool),
                np.zeros((1, 1), bool), False,
            )

        unified = unify_points([sel([(2, 1), (0, 5)]), sel([(0, 5), (1, 9)])])
        assert unified == [(0, 5), (1, 9), (2, 1)]
