"""Equivalence and caching tests for the vectorized CWT fast path.

The fast path routes scales through three kernels (full-grid inverse FFT,
short-grid inverse FFT, narrowband GEMM); every test here pins it against
the ``cwt_transform`` oracle — the seed's per-scale full-grid loop — at
the acceptance tolerance (atol 1e-5).
"""

import numpy as np
import pickle
import pytest

from repro.dsp import backend
from repro.dsp.cwt import CWT, CwtConfig, clear_cwt_cache, get_cwt
from tests.oracles import cwt_transform, point_operator

ATOL = 1e-5


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cwt_cache()
    yield
    clear_cwt_cache()


def _traces(n, length, seed=0):
    return np.random.default_rng(seed).normal(size=(n, length))


@pytest.mark.parametrize("magnitude", [True, False])
def test_batch_matches_reference(magnitude):
    config = CwtConfig(magnitude=magnitude)
    operator = CWT(315, config)
    traces = _traces(24, 315)
    fast = operator.transform(traces)
    reference = cwt_transform(operator, traces)
    assert fast.shape == reference.shape == (24, 50, 315)
    np.testing.assert_allclose(fast, reference, atol=ATOL, rtol=0)


@pytest.mark.parametrize("magnitude", [True, False])
def test_single_trace_matches_reference(magnitude):
    operator = CWT(315, CwtConfig(magnitude=magnitude))
    trace = _traces(1, 315)[0]
    fast = operator.transform(trace)
    assert fast.shape == (50, 315)
    np.testing.assert_allclose(
        fast, cwt_transform(operator, trace), atol=ATOL, rtol=0
    )


@pytest.mark.parametrize(
    "n_samples,config",
    [
        (128, CwtConfig(n_scales=8, scale_max=32.0)),
        (64, CwtConfig(n_scales=5, scale_max=16.0)),
        (100, CwtConfig()),
        (315, CwtConfig(n_scales=13, scale_min=2.0, scale_max=64.0)),
    ],
)
def test_nondefault_geometries_match_reference(n_samples, config):
    operator = CWT(n_samples, config)
    traces = _traces(9, n_samples, seed=3)
    np.testing.assert_allclose(
        operator.transform(traces),
        cwt_transform(operator, traces),
        atol=ATOL,
        rtol=0,
    )


def test_chunking_does_not_change_results():
    operator = CWT(315)
    traces = _traces(33, 315, seed=5)
    full = operator.transform(traces, max_mem_mb=4096)
    tiny = operator.transform(traces, max_mem_mb=1)
    np.testing.assert_array_equal(full, tiny)


def test_double_precision_matches_reference():
    operator = CWT(315, CwtConfig(precision="double"))
    traces = _traces(8, 315, seed=7)
    np.testing.assert_allclose(
        operator.transform(traces),
        cwt_transform(operator, traces),
        atol=1e-6,
        rtol=0,
    )


def test_double_precision_real_part_matches_reference():
    operator = CWT(315, CwtConfig(magnitude=False, precision="double"))
    traces = _traces(8, 315, seed=9)
    np.testing.assert_allclose(
        operator.transform(traces),
        cwt_transform(operator, traces),
        atol=1e-6,
        rtol=0,
    )


def test_numpy_backend_matches_scipy():
    operator = CWT(315)
    traces = _traces(6, 315, seed=11)
    default = operator.transform(traces)
    backend.set_backend("numpy")
    try:
        fallback = operator.transform(traces)
    finally:
        backend.set_backend(None)
    np.testing.assert_allclose(fallback, default, atol=1e-6, rtol=0)


def test_transform_points_matches_full_plane():
    operator = CWT(315)
    traces = _traces(12, 315, seed=13)
    # Cover every kernel: small-scale (full FFT), mid (short FFT), large
    # (GEMM), plus a repeated scale.
    points = [(0, 10), (2, 300), (10, 57), (30, 200), (49, 0), (30, 311)]
    values = operator.transform_points(traces, points)
    full = operator.transform(traces)
    for column, (j, k) in enumerate(points):
        np.testing.assert_allclose(
            values[:, column], full[:, j, k], rtol=1e-5, atol=1e-6
        )


class TestPointOperator:
    """``point_operator``: selected points as one complex linear map."""

    POINTS = [(0, 10), (2, 300), (10, 57), (30, 200), (49, 0), (30, 311)]

    def test_matches_staged_points_double(self):
        operator = CWT(315, CwtConfig(precision="double"))
        traces = _traces(12, 315, seed=13)
        matrix = operator.point_operator(self.POINTS)
        assert matrix.shape == (315, len(self.POINTS))
        assert matrix.dtype == np.complex128
        folded = np.abs(traces @ matrix)
        staged = operator.transform_points(traces, self.POINTS)
        np.testing.assert_allclose(folded, staged, rtol=1e-10, atol=1e-12)

    def test_matches_staged_points_single(self):
        operator = CWT(315)
        traces = _traces(12, 315, seed=17).astype(np.float32)
        folded = np.abs(traces @ operator.point_operator(self.POINTS))
        staged = operator.transform_points(traces, self.POINTS)
        np.testing.assert_allclose(folded, staged, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("magnitude", [True, False])
    def test_lag_kernels_match_per_point_twiddles(self, magnitude):
        """Every scale, both stage kinds: ≤1e-12 of the exp-per-point fold."""
        operator = CWT(315, CwtConfig(magnitude=magnitude))
        rng = np.random.default_rng(23)
        points = [(j, int(k)) for j in range(50) for k in rng.integers(0, 315, 3)]
        fast = operator.point_operator(points)
        reference = point_operator(operator, points)
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(
            reference
        )
        scale = np.abs(reference).max(axis=0)
        assert (np.abs(fast - reference).max(axis=0) <= 1e-12 * scale).all()

    def test_real_part_matches_raw_coefficients(self):
        operator = CWT(315, CwtConfig(magnitude=False, precision="double"))
        traces = _traces(8, 315, seed=19)
        folded = (traces @ operator.point_operator(self.POINTS)).real
        staged = operator.transform_points(traces, self.POINTS)
        np.testing.assert_allclose(folded, staged, rtol=1e-10, atol=1e-12)


def test_operator_cache_identity():
    assert get_cwt(315) is get_cwt(315)
    assert get_cwt(315) is not get_cwt(128)
    assert get_cwt(315, CwtConfig(magnitude=False)) is not get_cwt(315)
    clear_cwt_cache()
    # Fresh operator after an explicit clear.
    assert isinstance(get_cwt(315), CWT)


def test_config_scales_computed_once():
    config = CwtConfig()
    ladder = config.scales
    assert config.scales is ladder  # cached, not recomputed per access
    assert not ladder.flags.writeable
    np.testing.assert_allclose(ladder, np.geomspace(3.0, 256.0, 50))


def test_pickle_reattaches_to_cache():
    operator = get_cwt(315)
    assert pickle.loads(pickle.dumps(operator)) is operator
    # Pickling stores a cache key, not the precomputed matrices.
    assert len(pickle.dumps(operator)) < 4096
