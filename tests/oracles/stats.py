"""Per-class wavelet statistics oracle: two passes over the full plane."""

import numpy as np

from repro.features.kl import WaveletStats


def wavelet_stats(images, program_ids=None) -> WaveletStats:
    """Per-program and pooled moments of a class's whole image stack.

    Reference for :meth:`repro.features.kl.WaveletStats.stream` (and so
    ``from_images`` and ``compute_class_stats``), which never holds the
    full stack and merges float64 per-program moments block by block
    instead.  Balanced programs take one grouped reduction and pool by
    the law of total variance; unbalanced ones take masked slices and
    direct pooled reductions.
    """
    images = np.asarray(images)
    if program_ids is None:
        program_ids = np.zeros(len(images), dtype=np.int64)
    program_ids = np.asarray(program_ids)
    unique, counts = np.unique(program_ids, return_counts=True)
    if len(unique) > 1 and np.all(counts == counts[0]):
        order = np.argsort(program_ids, kind="stable")
        grouped = images[order].reshape(
            (len(unique), int(counts[0])) + images.shape[1:]
        )
        p_means = grouped.mean(axis=1, dtype=np.float64)
        p_vars = grouped.var(axis=1, dtype=np.float64)
        mean = p_means.mean(axis=0, dtype=np.float64)
        var = p_vars.mean(axis=0, dtype=np.float64)
        var += np.square(p_means - mean).mean(axis=0, dtype=np.float64)
    else:
        images64 = np.asarray(images, dtype=np.float64)
        p_means = np.empty((len(unique),) + images.shape[1:])
        p_vars = np.empty_like(p_means)
        for row, pid in enumerate(unique):
            block = images64[program_ids == pid]
            p_means[row] = block.mean(axis=0, dtype=np.float64)
            p_vars[row] = block.var(axis=0, dtype=np.float64)
        mean = images64.mean(axis=0, dtype=np.float64)
        var = images64.var(axis=0, dtype=np.float64)
    return WaveletStats(
        mean=mean,
        var=var,
        program_means=p_means,
        program_vars=p_vars,
        program_ids=unique,
        n=len(images),
    )
