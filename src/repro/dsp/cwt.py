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
through :mod:`repro.dsp.backend` (SciPy pocketfft with ``workers=``
when available, ``numpy.fft`` otherwise).  Arithmetic runs in single
precision by default (``CwtConfig.precision``); against the float64
reference this is within ~1e-6 of the float32 output rounding.

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

    def _gemm_basis(self, j: int, k_lo: int, k_hi: int) -> np.ndarray:
        """Float64 narrowband inverse basis for one scale's bin range."""
        scale = float(self.config.scales[j])
        k = np.arange(k_lo, k_hi)
        omega = 2.0 * np.pi * k / self.n_fft
        response = np.exp(-0.5 * (scale * omega - self.config.omega0) ** 2)
        response *= np.sqrt(scale) / self.n_fft
        m = np.arange(self.n_samples)
        return response[:, None] * np.exp(
            (2j * np.pi / self.n_fft) * k[:, None] * m[None, :]
        )

    def _make_gemm(self, j: int, k_lo: int, k_hi: int) -> _GemmStage:
        basis = self._gemm_basis(j, k_lo, k_hi)
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
    def _chunk_traces(self, max_mem_mb: Optional[float]) -> int:
        """Traces per chunk under the peak-memory budget."""
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
        per_trace = stage_bytes + 4 * self.config.n_scales * self.n_samples
        budget = max(1.0, max_mem_mb) * (1 << 20)
        ceiling = max(1, int(budget / max(per_trace, 1)))
        # Independently of the budget, keep the stage working set near
        # cache size — chunking never changes results, only locality.
        sweet_spot = max(8, int(_CACHE_TARGET_BYTES / max(stage_bytes, 1)))
        return max(1, min(ceiling, sweet_spot))

    # -- kernels -------------------------------------------------------------
    def _forward(self, batch: np.ndarray, workers=None) -> np.ndarray:
        """Full-grid half spectrum of a (n, n_samples) batch."""
        return backend.rfft(batch, n=self.n_fft, axis=-1, workers=workers)

    def _run_fft_stage(
        self,
        stage: _FftStage,
        full_spectrum: np.ndarray,
        out: np.ndarray,
        workers=None,
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
            coeff = backend.irfft(
                product, n=stage.n_fft, axis=-1, workers=workers
            )
            re = coeff[:, :g, : self.n_samples]
            im = coeff[:, g:, : self.n_samples]
            out[:, stage.indices, :] = np.sqrt(re * re + im * im)
        else:
            product = spectrum[:, None, :] * stage.response[None, :, :]
            coeff = backend.irfft(
                product, n=stage.n_fft, axis=-1, workers=workers
            )
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
        workers: Optional[int] = None,
    ) -> np.ndarray:
        """Transform traces to time-frequency magnitude images.

        Args:
            traces: ``(n, n_samples)`` or ``(n_samples,)`` array.
            max_mem_mb: peak-memory budget for intermediate buffers;
                defaults to ``REPRO_CWT_MEM_MB`` (256 MiB).  Only chunking
                changes — results are identical for any budget.
            workers: FFT worker threads (SciPy backend only); defaults to
                ``REPRO_FFT_WORKERS``.

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
        chunk = self._chunk_traces(max_mem_mb)
        with _obs.span("cwt.batch", n=n, n_scales=self.config.n_scales):
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                spectrum = self._forward(batch[start:stop], workers=workers)
                view = out[start:stop]
                for stage in self._fft_stages:
                    self._run_fft_stage(stage, spectrum, view, workers=workers)
                for stage in self._gemm_stages:
                    self._run_gemm_stage(stage, spectrum, view)
        return out[0] if single else out

    def transform_points(
        self, traces: np.ndarray, points, workers: Optional[int] = None
    ) -> np.ndarray:
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
            spectrum = self._forward(batch, workers=workers)
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
                self._run_fft_stage(sub, spectrum, values, workers=workers)
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
        stage plan the staged kernels execute:

        * FFT-stage scale on grid ``n``: ``W[k] = (2/n) Σ_b R[b] X̂[b]
          e^{2πi b k / n}`` with ``X̂`` the decimated forward spectrum,
          itself linear in the trace (``X̂[b] = Σ_m x[m] e^{-2πi b m/n}``);
        * GEMM-stage scale: the forward bin restriction composed with the
          narrowband inverse basis.

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
        m = np.arange(self.n_samples)
        gemm_by_index = {s.index: s for s in self._gemm_stages}
        for stage in self._fft_stages:
            wanted = [
                (pos, int(j))
                for pos, j in enumerate(stage.indices)
                if int(j) in columns_by_scale
            ]
            if not wanted:
                continue
            n_fft = stage.n_fft
            bins = np.arange(n_fft // 2 + 1)
            response = self._fft_response(
                n_fft, np.array([j for _, j in wanted])
            )
            # Trace -> decimated-spectrum factor e^{-2πi b m / n}.
            forward = np.exp((-2j * np.pi / n_fft) * np.outer(m, bins))
            for row, (_, j) in enumerate(wanted):
                for column, k in columns_by_scale[j]:
                    weights = (
                        (2.0 / n_fft)
                        * response[row]
                        * np.exp((2j * np.pi / n_fft) * bins * k)
                    )
                    operator[:, column] = forward @ weights
        for j, wanted in columns_by_scale.items():
            stage = gemm_by_index.get(j)
            if stage is None:
                continue
            basis = self._gemm_basis(j, stage.k_lo, stage.k_hi)
            bins = np.arange(stage.k_lo, stage.k_hi)
            forward = np.exp((-2j * np.pi / self.n_fft) * np.outer(m, bins))
            for column, k in wanted:
                operator[:, column] = forward @ basis[:, k]
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
