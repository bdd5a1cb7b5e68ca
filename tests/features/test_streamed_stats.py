"""Streamed class statistics vs the full-plane two-pass oracle."""

import numpy as np
import pytest

from repro.dsp import CwtConfig
from repro.dsp.cwt import get_cwt
from repro.features.kl import STATS_BLOCK_ROWS, WaveletStats
from repro.features.pipeline import compute_class_stats
from tests.oracles import wavelet_stats

SMALL_CWT = CwtConfig(n_scales=8, scale_min=2.0, scale_max=24.0)


def assert_stats_match(stats, reference):
    """Every moment within 1e-12 relative of the oracle's."""
    assert stats.n == reference.n
    np.testing.assert_array_equal(stats.program_ids, reference.program_ids)
    for name in ("mean", "var", "program_means", "program_vars"):
        np.testing.assert_allclose(
            getattr(stats, name), getattr(reference, name),
            rtol=1e-12, atol=0, err_msg=name,
        )


def _images(rng, n, shape=(4, 7)):
    # A DC offset keeps every moment away from zero, so the bound is
    # relative element by element.
    return rng.normal(1.5, 0.8, (n,) + shape).astype(np.float32)


@pytest.mark.parametrize(
    "pids",
    [
        pytest.param(np.repeat(np.arange(6), 10), id="balanced"),
        pytest.param(np.repeat([0, 1, 2], [7, 19, 4]), id="unbalanced"),
        pytest.param(np.zeros(25, dtype=np.int64), id="one-program"),
        pytest.param(np.tile([3, 1, 2], 9), id="interleaved"),
    ],
)
def test_from_images_matches_oracle(pids):
    images = _images(np.random.default_rng(len(pids)), len(pids))
    assert_stats_match(
        WaveletStats.from_images(images, pids), wavelet_stats(images, pids)
    )


@pytest.mark.parametrize("balanced", [True, False])
def test_blocks_that_split_a_program(balanced):
    """Programs straddling block boundaries merge by Chan's update."""
    n = 2 * STATS_BLOCK_ROWS + 37
    if balanced:
        pids = np.repeat(np.arange(3), n // 3)
    else:
        sizes = [STATS_BLOCK_ROWS + 5, 11, n - STATS_BLOCK_ROWS - 16]
        pids = np.repeat([0, 1, 2], sizes)
    images = _images(np.random.default_rng(7), len(pids), shape=(3, 5))
    assert_stats_match(
        WaveletStats.from_images(images, pids), wavelet_stats(images, pids)
    )


class _CountingCwt:
    """Wraps a CWT; records every transform call's batch size and buffer."""

    def __init__(self, cwt):
        self.cwt = cwt
        self.config = cwt.config
        self.batches = []
        self.buffers = []

    def transform(self, traces, out=None):
        self.batches.append(len(traces))
        self.buffers.append(out)
        images = self.cwt.transform(traces, out=out)
        assert images is out
        return images


def _trace_set(rng, n_per_class, n_samples=48):
    labels = np.repeat([0, 1], n_per_class)
    pids = np.tile(np.repeat([0, 1, 2], n_per_class // 3 + 1)[:n_per_class], 2)
    traces = rng.normal(0, 1, (len(labels), n_samples)) + 5.0
    traces[labels == 1, 20:30] += 2.0
    return traces.astype(np.float32), labels, pids, ("A", "B")


def test_class_stats_with_cwt_match_full_plane_oracle():
    traces, labels, pids, names = _trace_set(
        np.random.default_rng(3), STATS_BLOCK_ROWS + 40
    )
    cwt = get_cwt(traces.shape[1], SMALL_CWT)
    spy = _CountingCwt(cwt)
    stats = compute_class_stats(traces, labels, pids, names, spy)
    # Never more than one block of a class is transformed at once, and
    # every block is written into the same buffer.
    assert max(spy.batches) == STATS_BLOCK_ROWS
    assert len(spy.batches) == 4
    bases = {id(out.base) for out in spy.buffers}
    assert len(bases) == 1 and spy.buffers[0].base is not None
    plane = stats["A"].mean.shape
    assert spy.buffers[0].base.shape == (STATS_BLOCK_ROWS,) + plane
    for code, name in enumerate(names):
        rows = np.flatnonzero(labels == code)
        assert_stats_match(
            stats[name], wavelet_stats(cwt.transform(traces[rows]), pids[rows])
        )


def test_class_stats_on_pseudo_images_match_oracle():
    """Without a CWT the statistics run on ``(n, 1, n_samples)`` samples."""
    traces, labels, pids, names = _trace_set(np.random.default_rng(4), 60)
    stats = compute_class_stats(traces, labels, pids, names, None)
    for code, name in enumerate(names):
        rows = np.flatnonzero(labels == code)
        pseudo = np.asarray(traces[rows], dtype=np.float32)[:, None, :]
        assert stats[name].mean.shape == (1, traces.shape[1])
        assert_stats_match(stats[name], wavelet_stats(pseudo, pids[rows]))
