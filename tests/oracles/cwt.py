"""CWT oracle: one full-grid complex inverse FFT per scale."""

import numpy as np


def cwt_transform(cwt, traces: np.ndarray) -> np.ndarray:
    """The formulation :meth:`repro.dsp.cwt.CWT.transform` is validated against.

    The analytic Morlet response of every scale multiplies the float64
    spectrum on the operator's full ``n_fft`` grid, and each scale is
    inverted on its own — no kernel planning, no short grids, no GEMM
    bands.  Output is cast to float32 like the fast path's.
    """
    single = traces.ndim == 1
    batch = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    if batch.shape[1] != cwt.n_samples:
        raise ValueError(
            f"expected {cwt.n_samples}-sample traces, got {batch.shape[1]}"
        )
    config = cwt.config
    omega = 2.0 * np.pi * np.fft.fftfreq(cwt.n_fft)
    scales = config.scales
    arg = scales[:, None] * omega[None, :]
    response = np.exp(-0.5 * (arg - config.omega0) ** 2)
    response *= omega[None, :] > 0
    response *= np.sqrt(scales)[:, None]
    spectrum = np.fft.fft(batch, n=cwt.n_fft, axis=1)
    out = np.empty(
        (len(batch), config.n_scales, cwt.n_samples), dtype=np.float32
    )
    for j in range(config.n_scales):
        coeff = np.fft.ifft(spectrum * response[j], axis=1)[:, : cwt.n_samples]
        if config.magnitude:
            out[:, j, :] = np.abs(coeff)
        else:
            out[:, j, :] = coeff.real
    return out[0] if single else out


def point_operator(cwt, points) -> np.ndarray:
    """The formulation :meth:`repro.dsp.cwt.CWT.point_operator` is held to.

    Column by column, in float64, straight from each scale's planned
    grid and inverse weights (``cwt._weights``): the trace-to-spectrum
    factor ``e^{-2πi b m/n}`` as an explicit matrix, times each point's
    inverse weights ``w[b]·e^{2πi b k/n}`` — every twiddle evaluated by
    ``exp``, no lag kernel.
    """
    points = [(int(j), int(k)) for j, k in points]
    operator = np.zeros((cwt.n_samples, len(points)), dtype=np.complex128)
    m = np.arange(cwt.n_samples)
    for j in sorted({scale for scale, _ in points}):
        n_fft, k_lo, weights = cwt._weights(j)
        bins = np.arange(k_lo, k_lo + len(weights))
        forward = np.exp((-2j * np.pi / n_fft) * np.outer(m, bins))
        for column, (scale, k) in enumerate(points):
            if scale == j:
                inverse = weights * np.exp((2j * np.pi / n_fft) * bins * k)
                operator[:, column] = forward @ inverse
    return operator
