"""Batched continuous wavelet transform (CWT).

The paper maps each 315-sample trace into a 50-scale time-frequency image
(15,750 points) with a continuous wavelet transform before feature
selection (§3).  We implement an FFT-based analytic Morlet CWT:

* complex Morlet mother wavelet, centre frequency ``omega0`` (default 6);
* geometric scale ladder covering sub-bump detail up to cycle-level
  baseline content;
* batched over traces *and* scales, chunked so peak memory stays under a
  configurable budget (``REPRO_CWT_MEM_MB``, default 256).

Magnitude (not the raw complex coefficient) is returned by default: it is
insensitive to small trigger jitter, which is precisely why the paper uses
the time-frequency domain for alignment-robust features.

Fast-path design
----------------

The reference formulation (the ``cwt_transform`` test oracle) does one
full-length complex ``ifft`` per scale against the spectrum on an
``n_fft = nextpow2(n_samples + 6*scale_max)`` grid.  The fast path
reproduces those numbers to ≤1e-5 while doing far less work, by routing
every scale through the cheapest of three kernels:

1. **Narrowband GEMM** — a Morlet at scale ``s`` occupies a frequency
   band of width ``~15/s`` rad.  Once the band covers at most about half
   the output length in bins, evaluating the inverse transform directly
   (a ``(traces, bins) @ (bins, n_samples)`` complex matmul against the
   *same* ``n_fft`` bin grid as the reference) is cheaper than any FFT,
   and has no circular wrap-around at all.
2. **Short batched inverse FFT** — broadband scales whose Gaussian time
   support ``6s`` fits a smaller power of two run on that smaller grid:
   wrap-around differs from the reference only below ``exp(-18)``.
   The forward spectrum is *never* recomputed: zero-padding means the
   full-grid ``rfft`` oversamples one continuous spectrum, so the
   small-grid spectrum is exactly its bin decimation.
3. **Full-length inverse FFT** — the smallest scales are truncated by
   the Nyquist cutoff, which rings as a slowly-decaying ``1/t`` tail;
   matching the reference's aliasing of that tail requires its exact
   grid.  Only scales whose Nyquist response exceeds ``1e-5`` pay this.

All inverse FFTs use the analytic/rfft half-spectrum trick (the response
is zero for non-positive frequencies): ``Re W = irfft(R·X/2)`` and
``Im W = irfft(-i·R·X/2)``, stacked into one batched call.  FFTs go
through :mod:`repro.dsp.backend` (SciPy pocketfft when available,
``numpy.fft`` otherwise), always single-threaded.  Arithmetic runs in
single precision by default (``CwtConfig.precision``); against the
float64 reference this is within ~1e-6 of the float32 output rounding.

:meth:`CWT.transform` cuts a batch into cache-sized chunks of traces and
runs the chunks on threads (usable cores; 1 inside a process-pool
worker or when BLAS runs threads of its own).  A chunk's forward FFT,
FFT stages and GEMM stages touch only its own rows, so the output is
bit-identical for any thread count; the threads are joined before the
call returns.

Because operators precompute response matrices and GEMM bases,
module-level :func:`get_cwt` caches them keyed on ``(n_samples,
config)``; everything in the package that needs a CWT goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import backend
from ..obs import trace as _obs
from ..util.knobs import get_float
from ..util.parallel import run_threads, thread_workers

__all__ = [
    "CWT",
    "CwtConfig",
    "clear_cwt_cache",
    "cwt_magnitude",
    "get_cwt",
]

#: Working-set target for the per-chunk FFT-stage buffers, in bytes.
#: Keeping the stacked product + inverse output around L2 size wins
#: ~30% over letting one huge batch stream through main memory.
_CACHE_TARGET_BYTES = 4 << 20
#: Half-width of the retained frequency band, in units of the Gaussian's
#: standard deviation argument: exp(-0.5 * 7.4^2) ~ 1.3e-12.
_BAND_SIGMA = 7.4
#: Nyquist response above which a scale must use the reference grid.
_TAIL_THRESHOLD = 1e-5
#: Nyquist response below which the band truncation itself is negligible.
_NEGLIGIBLE_TAIL = 1e-12


@dataclass(frozen=True)
class CwtConfig:
    """Scale ladder and wavelet parameters.

    Attributes:
        n_scales: number of scales (paper: 50).
        scale_min / scale_max: geometric ladder endpoints, in samples.
        omega0: Morlet centre frequency (time-frequency trade-off).
        magnitude: return ``|W|`` (True) or the real part (False).
        precision: ``"single"`` (default fast path) or ``"double"``;
            either way results match the float64 reference within ~1e-6
            (the output itself is float32).
    """

    n_scales: int = 50
    scale_min: float = 3.0
    scale_max: float = 256.0
    omega0: float = 8.0
    magnitude: bool = True
    precision: str = "single"

    @cached_property
    def scales(self) -> np.ndarray:
        """The geometric scale ladder (computed once per config)."""
        ladder = np.geomspace(self.scale_min, self.scale_max, self.n_scales)
        ladder.setflags(write=False)
        return ladder


class _FftStage:
    """A batch of scales sharing one inverse-FFT grid."""

    __slots__ = ("n_fft", "indices", "response")

    def __init__(self, n_fft: int, indices: np.ndarray, response: np.ndarray):
        self.n_fft = n_fft
        self.indices = indices  # scale indices, ascending
        self.response = response  # (len(indices), n_fft//2+1), real, /2


class _GemmStage:
    """One narrowband scale evaluated by direct matrix product."""

    __slots__ = ("index", "k_lo", "k_hi", "basis")

    def __init__(self, index: int, k_lo: int, k_hi: int, basis: np.ndarray):
        self.index = index
        self.k_lo = k_lo  # band bin range on the full grid
        self.k_hi = k_hi
        self.basis = basis  # (k_hi-k_lo, n_samples) complex


class CWT:
    """Reusable CWT operator for fixed-length traces.

    Prefer :func:`get_cwt` over constructing directly: building the
    per-scale response matrices and GEMM bases dominates small
    transforms, and the cache makes repeat construction free.

    Args:
        n_samples: trace length (315 with default geometry).
        config: wavelet parameters.
    """

    def __init__(self, n_samples: int, config: Optional[CwtConfig] = None):
        self.config = config if config is not None else CwtConfig()
        if self.config.precision not in ("single", "double"):
            raise ValueError(
                f"unknown precision {self.config.precision!r}"
            )
        self.n_samples = int(n_samples)
        # Pad enough that the largest wavelet's wrap-around is negligible.
        pad_target = self.n_samples + int(6 * self.config.scale_max)
        self.n_fft = 1 << int(np.ceil(np.log2(pad_target)))
        single = self.config.precision == "single"
        self._real_dtype = np.float32 if single else np.float64
        self._cplx_dtype = np.complex64 if single else np.complex128
        self._fft_stages: List[_FftStage] = []
        self._gemm_stages: List[_GemmStage] = []
        self._plan()

    # -- planning ------------------------------------------------------------
    def _nyquist_response(self, scale: float) -> float:
        """Unit-peak response amplitude at the Nyquist frequency."""
        return float(np.exp(-0.5 * (scale * np.pi - self.config.omega0) ** 2))

    def _band_bins(self, scale: float) -> Tuple[int, int]:
        """Full-grid bin range where the response exceeds ~1e-12."""
        bin_width = 2.0 * np.pi / self.n_fft
        lo = (self.config.omega0 - _BAND_SIGMA) / scale
        hi = (self.config.omega0 + _BAND_SIGMA) / scale
        k_lo = max(1, int(np.floor(lo / bin_width)))
        k_hi = min(self.n_fft // 2, int(np.ceil(hi / bin_width)) + 1)
        return k_lo, max(k_hi, k_lo + 1)

    def _plan(self) -> None:
        """Assign each scale to its cheapest equivalent kernel."""
        cfg = self.config
        by_nfft: dict = {}
        for j, scale in enumerate(cfg.scales):
            tail = self._nyquist_response(scale)
            k_lo, k_hi = self._band_bins(scale)
            narrow = (k_hi - k_lo) <= max(48, self.n_samples // 2)
            if tail < _NEGLIGIBLE_TAIL and narrow:
                self._gemm_stages.append(self._make_gemm(j, k_lo, k_hi))
                continue
            if tail > _TAIL_THRESHOLD:
                n_fft = self.n_fft  # 1/t Nyquist tail: reference grid
            else:
                need = self.n_samples + int(np.ceil(6 * scale))
                n_fft = min(self.n_fft, 1 << int(np.ceil(np.log2(need))))
            by_nfft.setdefault(n_fft, []).append(j)
        for n_fft, indices in sorted(by_nfft.items()):
            self._fft_stages.append(self._make_fft(n_fft, np.array(indices)))

    def _fft_response(self, n_fft: int, indices: np.ndarray) -> np.ndarray:
        """Float64 half-spectrum response rows for scales on one grid."""
        half = n_fft // 2 + 1
        omega = 2.0 * np.pi * np.arange(half) / n_fft
        scales = self.config.scales[indices]
        arg = scales[:, None] * omega[None, :]
        response = np.exp(-0.5 * (arg - self.config.omega0) ** 2)
        # Strictly-positive frequencies: zero DC, zero Nyquist (a negative
        # frequency in the full-spectrum convention) — this also licenses
        # the irfft half-spectrum identities.
        response[:, 0] = 0.0
        response[:, -1] = 0.0
        # L2 normalization per scale; fold the 1/2 of Re W = irfft(R·X/2).
        response *= 0.5 * np.sqrt(scales)[:, None]
        return response

    def _make_fft(self, n_fft: int, indices: np.ndarray) -> _FftStage:
        response = self._fft_response(n_fft, indices)
        return _FftStage(n_fft, indices, response.astype(self._real_dtype))

    def _gemm_response(self, j: int, k_lo: int, k_hi: int) -> np.ndarray:
        """Float64 narrowband response of one scale's bin range, scaled."""
        scale = float(self.config.scales[j])
        omega = 2.0 * np.pi * np.arange(k_lo, k_hi) / self.n_fft
        response = np.exp(-0.5 * (scale * omega - self.config.omega0) ** 2)
        return response * (np.sqrt(scale) / self.n_fft)

    def _make_gemm(self, j: int, k_lo: int, k_hi: int) -> _GemmStage:
        # Narrowband inverse basis: response[k] * e^{2πi k m / n_fft}.
        k = np.arange(k_lo, k_hi)
        m = np.arange(self.n_samples)
        basis = self._gemm_response(j, k_lo, k_hi)[:, None] * np.exp(
            (2j * np.pi / self.n_fft) * k[:, None] * m[None, :]
        )
        return _GemmStage(j, k_lo, k_hi, basis.astype(self._cplx_dtype))

    def __reduce__(self):
        # Pickle as a cache reference: saved models (e.g. a pickled
        # disassembler hierarchy) don't serialize response matrices and
        # GEMM bases, and loading re-attaches to the shared operator.
        return (get_cwt, (self.n_samples, self.config))

    # -- properties ----------------------------------------------------------
    @property
    def scales(self) -> np.ndarray:
        """Scale ladder, in samples."""
        return self.config.scales

    @property
    def frequencies(self) -> np.ndarray:
        """Pseudo-frequency of each scale, in cycles/sample."""
        return self.config.omega0 / (2.0 * np.pi * self.config.scales)

    # -- chunk sizing --------------------------------------------------------
    def _schedule(self, max_mem_mb: Optional[float]) -> Tuple[int, int]:
        """``(traces per chunk, chunks in flight)`` under the memory budget."""
        if max_mem_mb is None:
            max_mem_mb = get_float("REPRO_CWT_MEM_MB")
        itemsize = np.dtype(self._real_dtype).itemsize
        pair = 2 if self.config.magnitude else 1
        # Per trace: worst FFT stage's stacked product + inverse output.
        stage_bytes = max(
            (
                pair * len(stage.indices) * stage.n_fft * 3 * itemsize
                for stage in self._fft_stages
            ),
            default=0,
        )
        per_trace = max(
            1, stage_bytes + 4 * self.config.n_scales * self.n_samples
        )
        budget = max(1.0, max_mem_mb) * (1 << 20)
        ceiling = max(1, int(budget / per_trace))
        # Independently of the budget, keep the stage working set near
        # cache size — chunking changes locality, not the model.
        sweet_spot = max(8, int(_CACHE_TARGET_BYTES / max(stage_bytes, 1)))
        chunk = max(1, min(ceiling, sweet_spot))
        return chunk, max(1, int(budget / (chunk * per_trace)))

    # -- kernels -------------------------------------------------------------
    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """Full-grid half spectrum of a (n, n_samples) batch."""
        return backend.rfft(batch, n=self.n_fft, axis=-1)

    def _run_fft_stage(
        self, stage: _FftStage, full_spectrum: np.ndarray, out: np.ndarray
    ) -> None:
        """Inverse-transform one scale batch into ``out[:, indices, :]``."""
        step = self.n_fft // stage.n_fft
        # Bin decimation of the zero-padded forward spectrum IS the
        # small-grid spectrum, exactly.
        spectrum = full_spectrum[:, :: step] if step > 1 else full_spectrum
        n, g = out.shape[0], len(stage.indices)
        if self.config.magnitude:
            product = np.empty(
                (n, 2 * g, stage.response.shape[1]), self._cplx_dtype
            )
            np.multiply(
                spectrum[:, None, :], stage.response[None, :, :],
                out=product[:, :g],
            )
            # -i·P: imaginary part comes from the same batched irfft.
            np.multiply(
                product[:, :g], self._cplx_dtype(-1j), out=product[:, g:]
            )
            coeff = backend.irfft(product, n=stage.n_fft, axis=-1)
            re = coeff[:, :g, : self.n_samples]
            im = coeff[:, g:, : self.n_samples]
            out[:, stage.indices, :] = np.sqrt(re * re + im * im)
        else:
            product = spectrum[:, None, :] * stage.response[None, :, :]
            coeff = backend.irfft(product, n=stage.n_fft, axis=-1)
            out[:, stage.indices, :] = coeff[:, :, : self.n_samples]

    def _run_gemm_stage(
        self, stage: _GemmStage, full_spectrum: np.ndarray, out: np.ndarray
    ) -> None:
        coeff = full_spectrum[:, stage.k_lo : stage.k_hi] @ stage.basis
        if self.config.magnitude:
            out[:, stage.index, :] = np.abs(coeff)
        else:
            out[:, stage.index, :] = coeff.real

    # -- public API ----------------------------------------------------------
    def transform(
        self,
        traces: np.ndarray,
        max_mem_mb: Optional[float] = None,
    ) -> np.ndarray:
        """Transform traces to time-frequency magnitude images.

        The traces are cut into cache-sized chunks, and the chunks run
        on threads: one per usable core, capped at the number of chunks
        and at the chunks the budget holds at once.  They run serially
        inside a process-pool worker, and also when BLAS runs threads of
        its own: the GEMM stages call BLAS, and two layers of threads
        would oversubscribe the cores.  Each chunk's forward FFT, FFT
        stages and GEMM stages write only its own rows of the output, so
        the result is bit-identical for any thread count.  The threads
        are joined before this returns.

        Args:
            traces: ``(n, n_samples)`` or ``(n_samples,)`` array.
            max_mem_mb: peak-memory budget for intermediate buffers of
                all chunks in flight; defaults to ``REPRO_CWT_MEM_MB``
                (256 MiB).  Only chunking changes: the GEMM stages' float32
                BLAS rounding follows a chunk's row count, so results agree
                to ~1e-7 across budgets (and bit for bit across thread
                counts at one budget).

        Returns:
            ``(n, n_scales, n_samples)`` float32 array (or 2-D for a
            single trace).
        """
        single = traces.ndim == 1
        batch = np.atleast_2d(np.asarray(traces, dtype=self._real_dtype))
        if batch.shape[1] != self.n_samples:
            raise ValueError(
                f"expected {self.n_samples}-sample traces, got {batch.shape[1]}"
            )
        n = batch.shape[0]
        out = np.empty(
            (n, self.config.n_scales, self.n_samples), dtype=np.float32
        )
        chunk, in_flight = self._schedule(max_mem_mb)
        starts = range(0, n, chunk)
        workers = min(thread_workers(len(starts), calls_blas=True), in_flight)

        def run_chunk(start: int) -> None:
            rows = slice(start, start + chunk)
            spectrum = self._forward(batch[rows])
            view = out[rows]
            for stage in self._fft_stages:
                self._run_fft_stage(stage, spectrum, view)
            for stage in self._gemm_stages:
                self._run_gemm_stage(stage, spectrum, view)

        with _obs.span(
            "cwt.batch", n=n, n_scales=self.config.n_scales, workers=workers
        ):
            run_threads(run_chunk, starts, workers)
        return out[0] if single else out

    def transform_points(self, traces: np.ndarray, points) -> np.ndarray:
        """Evaluate the CWT only at selected (scale, time) points.

        The staged evaluation: the forward FFT runs once on the shared
        full grid; only the scales that actually appear in ``points``
        are inverted (and GEMM scales evaluate just the requested time
        columns).  Fitting and inference read selected points through
        the folded :meth:`point_operator` GEMM instead; this method is
        the per-stage reference that GEMM is held to.

        Args:
            traces: ``(n, n_samples)`` array.
            points: iterable of ``(scale_index, time_index)`` pairs.

        Returns:
            ``(n, n_points)`` float64 feature matrix, column order
            matching ``points``.
        """
        points = list(points)
        batch = np.atleast_2d(np.asarray(traces, dtype=self._real_dtype))
        if batch.shape[1] != self.n_samples:
            raise ValueError(
                f"expected {self.n_samples}-sample traces, got {batch.shape[1]}"
            )
        n = batch.shape[0]
        out = np.empty((n, len(points)), dtype=np.float64)
        if not points:
            return out
        with _obs.span("cwt.points", n=n, n_points=len(points)):
            columns_by_scale: dict = {}
            for column, (j, k) in enumerate(points):
                columns_by_scale.setdefault(int(j), []).append((column, int(k)))
            spectrum = self._forward(batch)
            gemm_by_index = {s.index: s for s in self._gemm_stages}
            for stage in self._fft_stages:
                wanted = [
                    (pos, j)
                    for pos, j in enumerate(stage.indices)
                    if j in columns_by_scale
                ]
                if not wanted:
                    continue
                sub = _FftStage(
                    stage.n_fft,
                    np.arange(len(wanted)),
                    stage.response[[pos for pos, _ in wanted]],
                )
                # Working precision follows the operator so the double
                # config really is a float64 reference end to end.
                values = np.empty(
                    (n, len(wanted), self.n_samples), dtype=self._real_dtype
                )
                self._run_fft_stage(sub, spectrum, values)
                for row, (_, j) in enumerate(wanted):
                    for column, k in columns_by_scale[j]:
                        out[:, column] = values[:, row, k]
            for j, wanted in columns_by_scale.items():
                stage = gemm_by_index.get(j)
                if stage is None:
                    continue
                times = [k for (_, k) in wanted]
                coeff = (
                    spectrum[:, stage.k_lo : stage.k_hi] @ stage.basis[:, times]
                )
                values = (
                    np.abs(coeff) if self.config.magnitude else coeff.real
                )
                for slot, (column, _) in enumerate(wanted):
                    out[:, column] = values[:, slot]
        return out

    def point_operator(self, points) -> np.ndarray:
        """Exact complex linear functionals of selected (scale, time) points.

        The CWT coefficient at a fixed ``(scale_index, time_index)``
        point is a *linear* functional of the trace, so a whole batch
        evaluates as one complex GEMM:
        ``transform_points(X, points)`` equals ``|X @ K|``
        (``magnitude=True``) or ``(X @ K).real`` with
        ``K = point_operator(points)``, up to the working precision of
        the staged kernels.  This is what lets the feature pipeline fold
        selected-point extraction, normalization and PCA into a single
        precomputed matrix (see :mod:`repro.features.compiled`).

        The columns are derived analytically, in float64, from the same
        stage plan the staged kernels execute.  On its grid ``n`` every
        scale is a weighted sum of roots of unity: the forward factor
        ``e^{-2πi b m/n}`` of the trace's spectrum times the inverse
        factor ``e^{2πi b k/n}`` of output time ``k``.  So column
        ``(j, k)`` at trace sample ``m`` depends on the lag ``k - m``
        only: ``K[m] = h_j[(k - m) mod n]`` with the lag kernel
        ``h_j[d] = Σ_b w_j[b] e^{2πi b d/n}``.  The weights ``w_j`` are
        ``(2/n) R_j`` on an FFT stage's decimated half spectrum, or the
        narrowband response on a GEMM stage's bin range.  Each lag kernel
        is one inverse FFT of its weights; no twiddle is evaluated per
        point.

        Args:
            points: iterable of ``(scale_index, time_index)`` pairs.

        Returns:
            ``(n_samples, n_points)`` complex128 operator, column order
            matching ``points``.
        """
        points = [(int(j), int(k)) for j, k in points]
        operator = np.zeros(
            (self.n_samples, len(points)), dtype=np.complex128
        )
        if not points:
            return operator
        columns_by_scale: dict = {}
        for column, (j, k) in enumerate(points):
            columns_by_scale.setdefault(j, []).append((column, k))
        spectra_by_grid: dict = {}

        def add(n_fft: int, j: int, k_lo: int, weights: np.ndarray) -> None:
            spectrum = np.zeros(n_fft, dtype=np.complex128)
            spectrum[k_lo:k_lo + len(weights)] = weights
            spectra_by_grid.setdefault(n_fft, []).append((j, spectrum))

        for stage in self._fft_stages:
            wanted = [
                int(j) for j in stage.indices if int(j) in columns_by_scale
            ]
            if wanted:
                response = self._fft_response(stage.n_fft, np.array(wanted))
                for j, row in zip(wanted, response):
                    add(stage.n_fft, j, 0, (2.0 / stage.n_fft) * row)
        for stage in self._gemm_stages:
            if stage.index in columns_by_scale:
                add(
                    self.n_fft, stage.index, stage.k_lo,
                    self._gemm_response(stage.index, stage.k_lo, stage.k_hi),
                )
        m = np.arange(self.n_samples)
        for n_fft, entries in spectra_by_grid.items():
            spectra = np.stack([spectrum for _, spectrum in entries])
            kernels = backend.ifft(spectra, axis=-1) * n_fft
            for (j, _), kernel in zip(entries, kernels):
                for column, k in columns_by_scale[j]:
                    operator[:, column] = kernel[(k - m) % n_fft]
        return operator

    def flatten(self, images: np.ndarray) -> np.ndarray:
        """Flatten (n, scales, time) images to (n, scales*time) features."""
        return images.reshape(images.shape[0], -1)


@lru_cache(maxsize=16)
def _cached_operator(n_samples: int, config: CwtConfig) -> CWT:
    return CWT(n_samples, config)


def get_cwt(n_samples: int, config: Optional[CwtConfig] = None) -> CWT:
    """Shared CWT operator for ``(n_samples, config)``.

    Building an operator means materializing per-scale response matrices
    and GEMM bases; the feature pipeline, :func:`cwt_magnitude` and the
    experiment runners all transform same-geometry traces over and over,
    so operators are cached (LRU, 16 entries).  Treat the returned
    operator as read-only — it is shared.
    """
    if config is None:
        config = CwtConfig()
    if not _obs.enabled():
        return _cached_operator(int(n_samples), config)
    before = _cached_operator.cache_info()
    operator = _cached_operator(int(n_samples), config)
    after = _cached_operator.cache_info()
    if after.hits > before.hits:
        _obs.counter("cwt.op_cache.hits").inc()
    elif after.misses > before.misses:
        _obs.counter("cwt.op_cache.misses").inc()
        if before.currsize == before.maxsize:
            _obs.counter("cwt.op_cache.evictions").inc()
    return operator


def clear_cwt_cache() -> None:
    """Drop all cached operators (frees their precomputed matrices)."""
    _cached_operator.cache_clear()


def cwt_magnitude(
    traces: np.ndarray, config: Optional[CwtConfig] = None
) -> np.ndarray:
    """One-shot CWT magnitude for convenience (cached operator)."""
    batch = np.atleast_2d(traces)
    operator = get_cwt(batch.shape[-1], config)
    return operator.transform(traces)
