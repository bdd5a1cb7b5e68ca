"""Each CWT kernel on its own: Toeplitz GEMM, short-grid FFT, GEMM blocks.

``test_cwt_fastpath.py`` holds the whole transform to the
``cwt_transform`` oracle.  Here every stage kernel runs alone on the
scales the plan gives it, so a fault in one kernel cannot hide behind
the others, and the plan and the fixed GEMM blocks are pinned.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dsp.cwt import _GEMM_BLOCK_ROWS, CWT, CwtConfig
from repro.util import parallel
from tests.oracles import cwt_transform

# The paper geometry and every geometry of
# test_cwt_fastpath.py::test_nondefault_geometries_match_reference.
GEOMETRIES = [
    (315, CwtConfig()),
    (128, CwtConfig(n_scales=8, scale_max=32.0)),
    (64, CwtConfig(n_scales=5, scale_max=16.0)),
    (100, CwtConfig()),
    (315, CwtConfig(n_scales=13, scale_min=2.0, scale_max=64.0)),
]


def _traces(n, length, seed=0):
    return np.random.default_rng(seed).normal(size=(n, length))


def _kernel_outputs(operator, traces):
    """``{kernel: (scale indices, values)}`` with each kernel run alone."""
    batch = traces.astype(operator._real_dtype)
    n, length = batch.shape
    outputs = {}
    toeplitz = [j for s in operator._toeplitz_stages for j in range(s.lo, s.hi)]
    if toeplitz:
        values = np.concatenate([
            _run(operator._run_toeplitz_stage, stage, batch, n, length)
            for stage in operator._toeplitz_stages
        ], axis=1)
        outputs["toeplitz"] = (toeplitz, values)
    scales = [j for s in operator._fft_stages for j in range(s.lo, s.hi)]
    # From the longest short grid's spectrum, and from the full grid's,
    # which every stage must decimate.
    grids = {"fft": operator._forward_grid, "fft_full": operator.n_fft}
    for kernel, grid in grids.items() if scales else ():
        spectrum = operator._forward(batch, grid)
        values = np.concatenate([
            _run(operator._run_fft_stage, stage, spectrum, n, length)
            for stage in operator._fft_stages
        ], axis=1)
        outputs[kernel] = (scales, values)
    if operator._gemm_stages:
        plane = np.full(
            (n, operator.config.n_scales, length), np.nan, dtype=np.float32
        )
        operator._run_gemm_block(batch, plane)
        scales = [stage.index for stage in operator._gemm_stages]
        outputs["gemm_block"] = (scales + toeplitz, plane[:, scales + toeplitz])
    return outputs


def _run(kernel, stage, source, n, length):
    target = np.empty((n, stage.hi - stage.lo, length), dtype=np.float32)
    kernel(stage, source, target)
    return target


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("magnitude", [True, False])
@pytest.mark.parametrize("n_samples,base", GEOMETRIES)
def test_each_kernel_matches_oracle(n_samples, base, magnitude, precision):
    operator = CWT(
        n_samples, replace(base, magnitude=magnitude, precision=precision)
    )
    traces = _traces(9, n_samples, seed=n_samples)
    reference = cwt_transform(operator, traces)
    atol = 1e-5 if precision == "single" else 1e-6
    outputs = _kernel_outputs(operator, traces)
    assert outputs
    for kernel, (scales, values) in outputs.items():
        np.testing.assert_allclose(
            values, reference[:, scales], atol=atol, rtol=0, err_msg=kernel
        )


def test_paper_geometry_runs_every_kernel():
    outputs = _kernel_outputs(CWT(315), _traces(2, 315))
    assert set(outputs) == {"toeplitz", "fft", "fft_full", "gemm_block"}


@pytest.mark.parametrize("n_samples,config", GEOMETRIES)
def test_plan_covers_each_scale_once(n_samples, config):
    operator = CWT(n_samples, config)
    ranges = [
        (stage.lo, stage.hi)
        for stage in operator._fft_stages + operator._toeplitz_stages
    ]
    covered = [j for lo, hi in ranges for j in range(lo, hi)]
    covered += [stage.index for stage in operator._gemm_stages]
    assert sorted(covered) == list(range(config.n_scales))


def test_no_scale_on_a_full_grid_inverse_fft():
    """The Nyquist-tail scales are a Toeplitz GEMM, not 2048-point FFTs."""
    operator = CWT(315)
    assert operator.n_fft == 2048
    assert all(stage.n_fft < 2048 for stage in operator._fft_stages)
    tail = [
        j for j, scale in enumerate(operator.scales)
        if operator._nyquist_response(scale) > 1e-5
    ]
    assert tail == [0, 1, 2, 3]
    assert [(s.lo, s.hi) for s in operator._toeplitz_stages] == [(0, 4)]


@pytest.fixture
def cores(monkeypatch):
    def pin(count):
        monkeypatch.setattr(parallel, "usable_cores", lambda: count)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)

    return pin


@pytest.mark.parametrize("magnitude", [True, False])
def test_blocks_bit_identical_for_any_worker_count(cores, magnitude):
    operator = CWT(315, CwtConfig(magnitude=magnitude))
    n = 2 * _GEMM_BLOCK_ROWS + 22  # a short last block
    traces = _traces(n, 315, seed=31).astype(np.float32)
    cores(1)
    serial = operator.transform(traces)
    for count in (2, 3):
        cores(count)
        np.testing.assert_array_equal(
            operator.transform(traces), serial, err_msg=f"workers={count}"
        )
    # Calls split on block boundaries run the very same GEMMs.
    split = np.concatenate([
        operator.transform(traces[:_GEMM_BLOCK_ROWS]),
        operator.transform(traces[_GEMM_BLOCK_ROWS:]),
    ])
    np.testing.assert_array_equal(split, serial)
    np.testing.assert_array_equal(operator.transform(traces, 1), serial)
