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
reproduces those numbers to ≤1e-5 while doing far less work.  Each
scale is a linear map of the trace, and the plan routes it through the
cheapest of three exact kernels:

1. **Narrowband GEMM** — a Morlet at scale ``s`` occupies a frequency
   band of width ``~15/s`` rad.  Once the band covers at most about half
   the output length in bins, evaluating the inverse transform directly
   (a ``(traces, bins) @ (bins, n_samples)`` complex matmul against the
   *same* ``n_fft`` bin grid as the reference) is cheaper than any FFT,
   and has no circular wrap-around at all.  The band's spectrum bins
   come from one shared DFT GEMM of the traces.
2. **Short inverse FFT** — broadband scales whose Gaussian time support
   ``6s`` fits a smaller power of two run on that smaller grid:
   wrap-around differs from the reference only below ``exp(-18)``.
   Zero-padding means a longer grid's ``rfft`` oversamples one
   continuous spectrum, so every short grid's spectrum is an exact bin
   decimation of the longest short grid's.  The response is zero for
   non-positive frequencies, so the coefficient is one complex ``ifft``
   of the one-sided product (``magnitude=False`` needs only its real
   part: one real ``irfft`` of half the product).
3. **Toeplitz GEMM** — the smallest scales are truncated by the Nyquist
   cutoff, which rings as a slowly-decaying ``1/t`` tail; matching the
   reference's aliasing of that tail requires its exact full grid.
   Only scales whose Nyquist response exceeds ``1e-5`` need it.  On
   that grid output ``t`` depends on trace sample ``m`` through the lag
   ``t - m`` only, so the scale is the ``(n_samples, n_samples)``
   Toeplitz matrix of its lag kernel (see :meth:`CWT.point_operator`):
   ``X @ [Re K | Im K]``, one real GEMM, costs less than two inverse
   FFTs of the long grid.  Exactly the tail scales take this kernel.

FFTs are ``numpy.fft``'s (single-threaded pocketfft).  Each thread
inverts its chunks in place in one reused zero-padded workspace, so no
chunk allocates its inverse grid.  Arithmetic runs in single precision
by default (``CwtConfig.precision``); against the float64 reference
this is within ~1e-6 of the float32 output rounding.

:meth:`CWT.transform` splits a batch two ways.  The FFT stages run on
cache-sized chunks of traces; the GEMM stages run on fixed
:data:`_GEMM_BLOCK_ROWS`-row blocks, where BLAS is efficient.  Chunks
and blocks run on threads (usable cores; 1 inside a process-pool worker
or when BLAS runs threads of its own).  Every task writes only its own
rows and scales of the output, and no task's shape depends on the
thread count, so the output is bit-identical for any count; the threads
are joined before the call returns.

Because operators precompute response matrices and GEMM bases,
module-level :func:`get_cwt` caches them keyed on ``(n_samples,
config)``; everything in the package that needs a CWT goes through it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import trace as _obs
from ..util.knobs import get_float
from ..util.parallel import run_threads, thread_workers

__all__ = [
    "CWT",
    "CwtConfig",
    "clear_cwt_cache",
    "get_cwt",
]

#: Working-set target for the per-chunk FFT-stage buffers, in bytes.
#: Keeping the product + inverse output around L2 size wins ~30% over
#: letting one huge batch stream through main memory.
_CACHE_TARGET_BYTES = 4 << 20
#: Trace rows per GEMM-stage block.  With one BLAS thread the GEMM
#: stages take ~111 ms per 1,024 traces in 64-row blocks against ~199 ms
#: in 16-row ones (2-vCPU host).  A fixed constant, so a block's
#: rounding never follows the thread count.
_GEMM_BLOCK_ROWS = 64
#: Half-width of the retained frequency band, in units of the Gaussian's
#: standard deviation argument: exp(-0.5 * 7.4^2) ~ 1.3e-12.
_BAND_SIGMA = 7.4
#: Nyquist response above which a scale must use the reference grid.
_TAIL_THRESHOLD = 1e-5
#: Nyquist response below which the band truncation itself is negligible.
_NEGLIGIBLE_TAIL = 1e-12

#: Per-thread inverse-FFT grids; see :func:`_inverse_grid`.
_WORKSPACE = threading.local()
#: Largest grid a thread keeps between calls.  A chunk's grid is about
#: two thirds of :data:`_CACHE_TARGET_BYTES`; an unchunked
#: ``transform_points`` batch may need more, and gets a grid of its own.
_KEEP_GRID_BYTES = 2 * _CACHE_TARGET_BYTES


def _inverse_grid(shape: Tuple[int, int, int], half: int, dtype) -> np.ndarray:
    """This thread's ``shape`` complex grid, zero from bin ``half`` on.

    One flat buffer per thread and dtype, reused across chunks, stages
    and calls and grown to a power of two, so a chunk neither allocates
    nor faults in its inverse grid.  Only the bins from ``half`` on are
    zeroed: the caller writes the bins below.
    """
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        buffers = _WORKSPACE.buffers = {}
    size = shape[0] * shape[1] * shape[2]
    flat = buffers.get(dtype)
    if flat is None or len(flat) < size:
        flat = np.empty(1 << (size - 1).bit_length(), dtype)
        if flat.nbytes <= _KEEP_GRID_BYTES:
            buffers[dtype] = flat
    grid = flat[:size].reshape(shape)
    grid[:, :, half:] = 0.0
    return grid


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
    """Consecutive scales ``lo:hi`` inverted on one short grid."""

    __slots__ = ("n_fft", "lo", "hi", "response")

    def __init__(self, n_fft: int, lo: int, hi: int, response: np.ndarray):
        self.n_fft = n_fft
        self.lo = lo
        self.hi = hi
        self.response = response  # (hi-lo, n_fft//2+1), real, scaled


class _ToeplitzStage:
    """Consecutive scales ``lo:hi`` evaluated as one real Toeplitz GEMM."""

    __slots__ = ("lo", "hi", "matrix")

    def __init__(self, lo: int, hi: int, matrix: np.ndarray):
        self.lo = lo
        self.hi = hi
        # (n_samples, (hi-lo)*n_samples) complex columns viewed as
        # interleaved (Re, Im) reals; only Re K when magnitude=False.
        self.matrix = matrix


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
        self._grids = [0] * self.config.n_scales  # each scale's grid
        self._bands: Dict[int, Tuple[int, int]] = {}
        self._fft_stages: List[_FftStage] = []
        self._toeplitz_stages: List[_ToeplitzStage] = []
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
        """Assign each scale to its cheapest exact kernel.

        Consecutive Toeplitz scales, and consecutive FFT scales on one
        grid, share a stage, so every stage writes a contiguous scale
        slice.
        """
        cfg = self.config
        runs: List[list] = []  # [FFT grid, or 0 for Toeplitz, lo, hi]
        for j, scale in enumerate(cfg.scales):
            tail = self._nyquist_response(scale)
            k_lo, k_hi = self._band_bins(scale)
            narrow = (k_hi - k_lo) <= max(48, self.n_samples // 2)
            if tail < _NEGLIGIBLE_TAIL and narrow:
                self._grids[j] = self.n_fft
                self._bands[j] = (k_lo, k_hi)
                continue
            if tail > _TAIL_THRESHOLD:
                # 1/t Nyquist tail: the reference grid, as a Toeplitz GEMM
                self._grids[j] = self.n_fft
                grid = 0
            else:
                need = self.n_samples + int(np.ceil(6 * scale))
                grid = min(self.n_fft, 1 << int(np.ceil(np.log2(need))))
                self._grids[j] = grid
            if runs and runs[-1][0] == grid and runs[-1][2] == j:
                runs[-1][2] = j + 1
            else:
                runs.append([grid, j, j + 1])
        for grid, lo, hi in runs:
            if grid:
                self._fft_stages.append(self._make_fft(grid, lo, hi))
            else:
                self._toeplitz_stages.append(self._make_toeplitz(lo, hi))
        for j, (k_lo, k_hi) in sorted(self._bands.items()):
            self._gemm_stages.append(self._make_gemm(j, k_lo, k_hi))
        # Shared forward transforms: the longest short grid's rfft (all
        # shorter grids decimate it) and the narrowband bins' DFT matrix.
        self._forward_grid = max(
            (stage.n_fft for stage in self._fft_stages), default=0
        )
        self._band_lo = min((s.k_lo for s in self._gemm_stages), default=0)
        band_hi = max((s.k_hi for s in self._gemm_stages), default=0)
        bins = np.arange(self._band_lo, band_hi)
        dft = np.exp(
            (-2j * np.pi / self.n_fft)
            * np.outer(np.arange(self.n_samples), bins)
        )
        self._band_dft = self._as_real_columns(dft)

    def _as_real_columns(self, matrix: np.ndarray) -> np.ndarray:
        """Complex columns as interleaved (Re, Im) real columns.

        ``x @ result`` viewed as complex is ``x @ matrix`` for real ``x``:
        one real GEMM instead of a complex one.
        """
        return np.ascontiguousarray(matrix, dtype=self._cplx_dtype).view(
            self._real_dtype
        )

    def _fft_response(self, n_fft: int, indices: np.ndarray) -> np.ndarray:
        """Float64 unit half-spectrum response rows for scales on a grid."""
        half = n_fft // 2 + 1
        omega = 2.0 * np.pi * np.arange(half) / n_fft
        scales = self.config.scales[indices]
        arg = scales[:, None] * omega[None, :]
        response = np.exp(-0.5 * (arg - self.config.omega0) ** 2)
        # Strictly-positive frequencies: zero DC, zero Nyquist (a negative
        # frequency in the full-spectrum convention).
        response[:, 0] = 0.0
        response[:, -1] = 0.0
        response *= np.sqrt(scales)[:, None]  # L2 normalization per scale
        return response

    def _make_fft(self, n_fft: int, lo: int, hi: int) -> _FftStage:
        response = self._fft_response(n_fft, np.arange(lo, hi))
        if not self.config.magnitude:
            # Re W = irfft(R·X/2): the half spectrum counts twice.
            response *= 0.5
        return _FftStage(n_fft, lo, hi, response.astype(self._real_dtype))

    def _make_toeplitz(self, lo: int, hi: int) -> _ToeplitzStage:
        # Column (j, t) of the point operator is row m -> h_j[(t-m) mod n]:
        # the whole scale's Toeplitz matrix, exact on the scale's grid.
        kernel = self.point_operator(
            [(j, t) for j in range(lo, hi) for t in range(self.n_samples)]
        )
        if self.config.magnitude:
            matrix = self._as_real_columns(kernel)
        else:
            matrix = np.ascontiguousarray(kernel.real, dtype=self._real_dtype)
        return _ToeplitzStage(lo, hi, matrix)

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

    def _weights(self, j: int) -> Tuple[int, int, np.ndarray]:
        """``(grid, first bin, float64 inverse weights)`` of scale ``j``.

        On its planned grid ``n`` scale ``j``'s coefficient at time ``t``
        is ``Σ_b w[b] X[b] e^{2πi b t/n}``: ``w = R/n`` on the half
        spectrum for a broadband scale, the narrowband response on a
        GEMM scale's bin range.
        """
        n_fft = self._grids[j]
        band = self._bands.get(j)
        if band is not None:
            return n_fft, band[0], self._gemm_response(j, *band)
        return n_fft, 0, self._fft_response(n_fft, np.array([j]))[0] / n_fft

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
        """``(FFT chunk rows, tasks in flight)`` under the memory budget.

        Neither depends on the thread count.  A GEMM block always holds
        :data:`_GEMM_BLOCK_ROWS` rows: one block is the budget's floor.
        """
        if max_mem_mb is None:
            max_mem_mb = get_float("REPRO_CWT_MEM_MB")
        budget = max(1.0, max_mem_mb) * (1 << 20)
        itemsize = np.dtype(self._real_dtype).itemsize
        # Per trace: worst FFT stage's product + inverse output.
        stage_bytes = max(
            (
                3 * (stage.hi - stage.lo) * stage.n_fft * itemsize
                for stage in self._fft_stages
            ),
            default=0,
        )
        per_trace = max(
            1, stage_bytes + 4 * self.config.n_scales * self.n_samples
        )
        # Independently of the budget, keep the stage working set near
        # cache size — chunking changes locality, not the model.
        sweet_spot = max(8, int(_CACHE_TARGET_BYTES / max(stage_bytes, 1)))
        chunk = max(1, min(int(budget / per_trace), sweet_spot))
        # Per block row: the input row, the Toeplitz products, the band
        # bins and one narrowband coefficient row.
        block_bytes = _GEMM_BLOCK_ROWS * itemsize * (
            self.n_samples
            + sum(stage.matrix.shape[1] for stage in self._toeplitz_stages)
            + self._band_dft.shape[1]
            + 2 * self.n_samples
        )
        task_bytes = max(chunk * per_trace, block_bytes)
        return chunk, max(1, int(budget / task_bytes))

    # -- kernels -------------------------------------------------------------
    def _forward(self, batch: np.ndarray, n_fft: int) -> np.ndarray:
        """Half spectrum of a (n, n_samples) batch on an ``n_fft`` grid."""
        return np.fft.rfft(batch, n=n_fft, axis=-1)

    def _run_fft_stage(
        self, stage: _FftStage, spectrum: np.ndarray, target: np.ndarray
    ) -> None:
        """Inverse-transform one scale run into its ``(n, hi-lo, t)`` slice."""
        # Bin decimation of a zero-padded longer grid's spectrum IS the
        # short-grid spectrum, exactly.
        step = 2 * (spectrum.shape[1] - 1) // stage.n_fft
        if step > 1:
            spectrum = spectrum[:, ::step]
        rows, half = spectrum.shape
        shape = (rows, stage.hi - stage.lo, stage.n_fft)
        grid = _inverse_grid(shape, half, spectrum.dtype)
        product = grid[:, :, :half]
        np.multiply(spectrum[:, None, :], stage.response, out=product)
        if self.config.magnitude:
            # One-sided product, zero-padded to the grid: W itself.
            np.fft.ifft(grid, axis=-1, out=grid)
            np.abs(grid[:, :, : self.n_samples], out=target)
        else:
            coeff = np.fft.irfft(product, n=stage.n_fft, axis=-1)
            target[...] = coeff[:, :, : self.n_samples]

    def _run_toeplitz_stage(
        self, stage: _ToeplitzStage, batch: np.ndarray, target: np.ndarray
    ) -> None:
        """Evaluate one Toeplitz scale run into its ``(n, hi-lo, t)`` slice.

        ``batch`` may hold padding rows past ``len(target)``.
        """
        coeff = (batch @ stage.matrix)[: len(target)]
        if self.config.magnitude:
            coeff = coeff.view(self._cplx_dtype).reshape(target.shape)
            np.abs(coeff, out=target)
        else:
            target[...] = coeff.reshape(target.shape)

    def _run_gemm_block(self, batch: np.ndarray, out: np.ndarray) -> None:
        """All Toeplitz and narrowband stages of one block of rows.

        A short block is zero-padded to :data:`_GEMM_BLOCK_ROWS` rows, so
        every BLAS call has one shape: a trace's float32 rounding then
        never depends on how many traces share its call.
        """
        rows = len(batch)
        if rows < _GEMM_BLOCK_ROWS:
            padded = np.zeros(
                (_GEMM_BLOCK_ROWS, self.n_samples), dtype=self._real_dtype
            )
            padded[:rows] = batch
            batch = padded
        for stage in self._toeplitz_stages:
            self._run_toeplitz_stage(
                stage, batch, out[:, stage.lo : stage.hi]
            )
        if not self._gemm_stages:
            return
        band = (batch @ self._band_dft).view(self._cplx_dtype)
        for stage in self._gemm_stages:
            lo = stage.k_lo - self._band_lo
            coeff = band[:, lo : lo + len(stage.basis)] @ stage.basis
            if self.config.magnitude:
                np.abs(coeff[:rows], out=out[:, stage.index])
            else:
                out[:, stage.index] = coeff[:rows].real

    def _run_fft_chunk(self, batch: np.ndarray, out: np.ndarray) -> None:
        """All short-grid FFT stages of one chunk of rows."""
        spectrum = self._forward(batch, self._forward_grid)
        for stage in self._fft_stages:
            self._run_fft_stage(stage, spectrum, out[:, stage.lo : stage.hi])

    # -- public API ----------------------------------------------------------
    def transform(
        self,
        traces: np.ndarray,
        max_mem_mb: Optional[float] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Transform traces to time-frequency magnitude images.

        The FFT stages run on cache-sized chunks of traces and the GEMM
        stages on fixed blocks of :data:`_GEMM_BLOCK_ROWS` traces.
        Chunks and blocks run on threads: one per usable core, capped
        at the number of tasks and at the tasks the budget holds at
        once.  They run serially inside a process-pool worker, and also
        when BLAS runs threads of its own: the GEMM stages call BLAS,
        and two layers of threads would oversubscribe the cores.  Each
        task writes only its own rows and scales of the output, so the
        result is bit-identical for any thread count.  The threads are
        joined before this returns.

        Args:
            traces: ``(n, n_samples)`` or ``(n_samples,)`` array.
            max_mem_mb: peak-memory budget for intermediate buffers of
                all tasks in flight; defaults to ``REPRO_CWT_MEM_MB``
                (256 MiB).  Only the FFT chunking and the tasks in
                flight change; the output is the same bit for bit.
            out: float32 array of the result's shape to write into (a
                reused buffer); the values are those of the allocating
                call, bit for bit.

        Returns:
            ``(n, n_scales, n_samples)`` float32 array (or 2-D for a
            single trace); ``out`` itself when given.

        Raises:
            ValueError: wrong trace length, or ``out`` of the wrong
                shape or dtype.
        """
        traces = np.asarray(traces, dtype=self._real_dtype)
        single = traces.ndim == 1
        batch = np.atleast_2d(traces)
        if batch.shape[1] != self.n_samples:
            raise ValueError(
                f"expected {self.n_samples}-sample traces, got {batch.shape[1]}"
            )
        n = batch.shape[0]
        plane = (self.config.n_scales, self.n_samples)
        shape = plane if single else (n,) + plane
        if out is None:
            out = np.empty(shape, dtype=np.float32)
        elif out.shape != shape or out.dtype != np.float32:
            raise ValueError(
                f"out must be a float32 array of shape {shape}, "
                f"got {out.dtype} {out.shape}"
            )
        images = out[None] if single else out
        chunk, in_flight = self._schedule(max_mem_mb)
        # Blocks first: the longer tasks start early, chunks fill in.
        tasks = []
        if self._toeplitz_stages or self._gemm_stages:
            block = _GEMM_BLOCK_ROWS
            tasks += [(self._run_gemm_block, s, block) for s in range(0, n, block)]
        if self._fft_stages:
            tasks += [(self._run_fft_chunk, s, chunk) for s in range(0, n, chunk)]
        workers = min(thread_workers(len(tasks), calls_blas=True), in_flight)

        def run_task(task) -> None:
            kernel, start, rows = task
            kernel(batch[start : start + rows], images[start : start + rows])

        with _obs.span(
            "cwt.batch", n=n, n_scales=self.config.n_scales, workers=workers
        ):
            run_threads(run_task, tasks, workers)
        return out

    def transform_points(self, traces: np.ndarray, points) -> np.ndarray:
        """Evaluate the CWT only at selected (scale, time) points.

        The staged evaluation: only the stages holding a scale that
        appears in ``points`` run, FFT stages invert only those scales,
        and GEMM scales evaluate just the requested time columns.
        Fitting and inference read selected points through the folded
        :meth:`point_operator` GEMM instead; this method is the
        per-stage reference that GEMM is held to.

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

            def scatter(values: np.ndarray, scales) -> None:
                for row, j in enumerate(scales):
                    for column, k in columns_by_scale.get(j, ()):
                        out[:, column] = values[:, row, k]

            spectrum = self._forward(batch, self.n_fft)
            for stage in self._fft_stages:
                wanted = [
                    j for j in range(stage.lo, stage.hi) if j in columns_by_scale
                ]
                if not wanted:
                    continue
                sub = _FftStage(
                    stage.n_fft,
                    0,
                    len(wanted),
                    stage.response[[j - stage.lo for j in wanted]],
                )
                # Working precision follows the operator so the double
                # config really is a float64 reference end to end.
                values = np.empty(
                    (n, len(wanted), self.n_samples), dtype=self._real_dtype
                )
                self._run_fft_stage(sub, spectrum, values)
                scatter(values, wanted)
            for stage in self._toeplitz_stages:
                scales = range(stage.lo, stage.hi)
                if not any(j in columns_by_scale for j in scales):
                    continue
                values = np.empty(
                    (n, len(scales), self.n_samples), dtype=self._real_dtype
                )
                self._run_toeplitz_stage(stage, batch, values)
                scatter(values, scales)
            for stage in self._gemm_stages:
                wanted = columns_by_scale.get(stage.index)
                if wanted is None:
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
        ``h_j[d] = Σ_b w_j[b] e^{2πi b d/n}`` (weights from
        :meth:`_weights`).  Each lag kernel is one inverse FFT of its
        weights; no twiddle is evaluated per point.  The Toeplitz stages
        are built from these columns.

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
        for j in sorted(columns_by_scale):
            n_fft, k_lo, weights = self._weights(j)
            spectrum = np.zeros(n_fft, dtype=np.complex128)
            spectrum[k_lo:k_lo + len(weights)] = weights
            spectra_by_grid.setdefault(n_fft, []).append((j, spectrum))
        m = np.arange(self.n_samples)
        for n_fft, entries in spectra_by_grid.items():
            spectra = np.stack([spectrum for _, spectrum in entries])
            kernels = np.fft.ifft(spectra, axis=-1) * n_fft
            for (j, _), kernel in zip(entries, kernels):
                columns, times = zip(*columns_by_scale[j])
                lags = (np.array(times)[None, :] - m[:, None]) % n_fft
                operator[:, list(columns)] = kernel[lags]
        return operator


@lru_cache(maxsize=16)
def _cached_operator(n_samples: int, config: CwtConfig) -> CWT:
    return CWT(n_samples, config)


def get_cwt(n_samples: int, config: Optional[CwtConfig] = None) -> CWT:
    """Shared CWT operator for ``(n_samples, config)``.

    Building an operator means materializing per-scale response matrices
    and GEMM bases; the feature pipeline and the experiment runners
    all transform same-geometry traces over and over,
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
