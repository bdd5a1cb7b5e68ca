"""Oscilloscope measurement-chain model.

Mirrors the paper's §5.1 setup — Tektronix MDO3102, 2.5 GS/s, 250 MHz
bandwidth, shunt-resistor voltage, sample mode — as a bandwidth-limited,
noisy, quantizing capture stage applied to the model's "analog" trace.

The front end's 4th-order Butterworth low-pass is designed and run with
numpy alone (:func:`butterworth_modes`, :class:`ZeroPhaseButterworth`):
``scipy.signal.filtfilt`` semantics, checked against scipy in the tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_GEOMETRY, TraceGeometry

__all__ = ["Oscilloscope"]

#: Order of the front end's Butterworth low-pass.
_ORDER = 4
#: Odd-extension length at each edge, ``3 * max(len(a), len(b))`` as in
#: ``scipy.signal.filtfilt``.
_PADLEN = 3 * (_ORDER + 1)
#: Samples per block of the blocked recursion.
_BLOCK = 32
#: Leading fill before the odd extension, so the trace itself starts a
#: block row and its rows can be read in place.
_LEAD = _BLOCK - _PADLEN
#: Block rows per GEMM of the response stage, so a stage's output rows
#: stay in cache between its two GEMMs.
_CHUNK = 512
#: A power of the block transition whose norm is below this carries
#: nothing a float64 sum would keep.
_NEGLIGIBLE = 1e-20
#: Doubling steps past which no trace reaches (``2**48`` blocks).
_MAX_JUMPS = 48

#: Per-thread scratch blocks; see :func:`_workspace`.
_WORKSPACE = threading.local()


def butterworth_modes(wn: float) -> tuple:
    """Modes of ``scipy.signal.butter(4, wn)``, the order-4 low-pass.

    scipy's design: the analog prototype's poles ``s_j`` scaled to the
    prewarped cutoff (``wn`` normalized to Nyquist) and mapped by the
    bilinear transform, ``p_j = (4 + s_j) / (4 - s_j)``, with the
    four-fold zero at Nyquist.  The transfer function is
    ``h0 + sum_j rho_j z**-1 / (1 - p_j z**-1)`` over the four poles.
    Every term is written in the ``s_j`` and their differences, so it
    keeps full relative precision however near 1 the poles are.

    Returns:
        ``(log_poles, residues, h0)``: ``log(p_j)`` and ``rho_j`` for one
        pole of each conjugate pair, and the impulse response's first
        tap.
    """
    if not 0.0 < wn < 1.0:
        raise ValueError(f"normalized cutoff must lie in (0, 1), got {wn}")
    m = np.arange(-_ORDER + 1, _ORDER, 2, dtype=np.float64)
    prototype = -np.exp(1j * np.pi * m / (2 * _ORDER))
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    s = warped * prototype
    h0 = float(np.prod(warped / (4.0 - s)).real)
    spread = np.array([
        np.prod(np.delete(prototype[j] - prototype, j))
        for j in range(_ORDER)
    ])
    residues = 8.0 * warped / ((4.0 - s) ** 2 * spread)
    # log(p) = log|p| + i arg(p), from |4 + s|**2 - |4 - s|**2 = 16 Re s.
    log_poles = 0.5 * np.log1p(16.0 * s.real / np.abs(4.0 - s) ** 2) + 1j * (
        np.arctan2(s.imag, 4.0 + s.real) + np.arctan2(s.imag, 4.0 - s.real)
    )
    upper = s.imag > 0
    return log_poles[upper], residues[upper], h0


def _interleave(z: np.ndarray) -> np.ndarray:
    """Complex ``(..., k)`` as real ``(..., 2k)``: real, imaginary, ..."""
    return np.stack([z.real, z.imag], axis=-1).reshape(*z.shape[:-1], -1)


def _workspace(rows: int) -> tuple:
    """This thread's scratch: output and state rows, one chunk's sum.

    Reused across calls and grown to a power of two of rows, so a long
    trace neither allocates nor faults in fresh pages per call.
    """
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None or len(buffers[0]) < rows:
        capacity = 1 << (rows - 1).bit_length()
        buffers = (
            np.empty((capacity, _BLOCK)),
            np.empty((capacity, _ORDER)),
            np.empty((min(capacity, _CHUNK), _BLOCK)),
        )
        _WORKSPACE.buffers = buffers
    Y, S, chunk = buffers
    return Y[:rows], S[:rows], chunk


class ZeroPhaseButterworth:
    """``scipy.signal.filtfilt(*scipy.signal.butter(4, wn), x)`` in numpy.

    Same semantics: odd extension by ``_PADLEN`` samples at each end,
    each pass started in the steady state of its first input sample
    (``lfilter_zi(b, a) * x[0]``), ``ValueError`` for ``len(x) <=
    _PADLEN``.

    A pass is a linear recursion over the four modes of
    :func:`butterworth_modes`: one complex state per conjugate pair,
    ``v[t + 1] = p v[t] + |1 - p| u[t]``, scaled so a state is the size
    of the signal, stored as its real and imaginary parts.  Powers of
    ``p`` shrink without transient growth, so the recursion keeps its
    precision at any cutoff.  It runs over rows of ``_BLOCK`` samples:

    - a ``_BLOCK x 4`` GEMM gives the state each row leaves;
    - the state entering each row, the steady state at the start plus
      the states left earlier times powers of ``P = p**_BLOCK``, is a
      prefix scan by doubling: step ``j`` adds the rows ``2**j`` back
      times ``P**(2**j)``, until that power's norm is below
      ``_NEGLIGIBLE`` or the scan is complete;
    - a GEMM against the row's impulse-response Toeplitz matrix gives
      each row's zero-state response, and a ``4 x _BLOCK`` GEMM adds the
      response to its entering state.

    The trace's rows feed the forward pass in place; only the edge rows
    holding the odd extension are built.  The backward pass runs
    anti-causally on the forward output, with the matrices reversed,
    and writes straight into ``out``; nothing is flipped or copied.

    Accuracy, as a share of the output's peak
    (``tests/power/test_scope_filter.py``): within ``2e-15`` of the same
    filter run in 40-digit arithmetic for cutoffs from ``1e-5`` to
    0.99; within ``1e-12`` of ``scipy.signal.filtfilt`` at the front ends
    the library builds (``wn`` 0.2 and 0.08); and within ``1e-12 *
    max(1, (0.01 / wn)**2)`` of ``scipy.signal.sosfiltfilt`` from ``1e-4``
    to 0.99, where below 0.01 the gap is scipy's own rounding, which
    grows as its poles near 1.
    """

    def __init__(self, wn: float) -> None:
        log_poles, residues, h0 = butterworth_modes(wn)
        scale = np.abs(np.expm1(log_poles))
        powers = np.exp(np.arange(_BLOCK)[:, None] * log_poles)
        impulse = np.empty(_BLOCK)
        impulse[0] = h0
        impulse[1:] = 2.0 * (powers[:-1] @ residues).real
        response = np.zeros((_BLOCK, _BLOCK))
        for j in range(_BLOCK):
            response[j, j:] = impulse[: _BLOCK - j]
        state_left = _interleave(scale * powers[::-1])
        state_response = _interleave(
            2.0 * np.conj(residues / scale * powers)
        ).T.copy()
        #: Row blocks times these: zero-state response, state left, and
        #: (for the entering state's rows) that state's response.  The
        #: backward pass reads each row, and so each matrix, reversed.
        self._forward = (response, state_left, state_response)
        self._backward = (
            response[::-1, ::-1].copy(),
            state_left[::-1].copy(),
            state_response[:, ::-1].copy(),
        )
        #: Scaled state after a unit input held forever.
        self._steady = _interleave(-scale / np.expm1(log_poles))
        #: ``P**(2**j)`` acting on state rows, while its norm counts.
        self._jumps = []
        for j in range(_MAX_JUMPS):
            jump = np.exp(_BLOCK * 2**j * log_poles)
            if np.abs(jump).max() < _NEGLIGIBLE:
                break
            matrix = np.zeros((_ORDER, _ORDER))
            for k, z in enumerate(jump):
                matrix[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [
                    [z.real, z.imag], [-z.imag, z.real]
                ]
            self._jumps.append(matrix)

    def _scan(self, S: np.ndarray, backward: bool) -> None:
        """Turn the states rows leave into the states entering rows."""
        back = 1
        for jump in self._jumps:
            if back >= len(S):
                break
            if backward:
                S[:-back] += S[back:] @ jump
            else:
                S[back:] += S[:-back] @ jump
            back *= 2

    @staticmethod
    def _respond(rows, S, into, chunk, matrices) -> None:
        """``into = rows @ response + S @ state_response``, by chunks."""
        response, _, state_response = matrices
        for start in range(0, len(rows), _CHUNK):
            part = slice(start, start + _CHUNK)
            out = into[part]
            np.matmul(rows[part], response, out=out)
            added = chunk[: len(out)]
            np.matmul(S[part], state_response, out=added)
            out += added

    def filtfilt(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Zero-phase filter the 1-D ``x`` into ``out`` (may be ``x``).

        ``out``, when given, is a C-contiguous float64 array of ``x``'s
        length: the backward pass writes its rows through a reshape.
        """
        if x.ndim != 1:
            raise ValueError("the zero-phase filter takes one 1-D trace")
        if out is not None and not (
            out.shape == x.shape and out.dtype == np.float64
            and out.flags.c_contiguous
        ):
            raise ValueError("out must be a contiguous float64 array like x")
        n = len(x)
        if n <= _PADLEN:
            raise ValueError(
                "The length of the input vector x must be greater than "
                f"padlen, which is {_PADLEN}."
            )
        # Rows: the head (lead fill, front extension), the trace's whole
        # rows, and the tail (its rest, back extension, fill).
        body, rest = divmod(n, _BLOCK)
        tail_rows = -(-(rest + _PADLEN) // _BLOCK)
        Y, S, chunk = _workspace(1 + body + tail_rows)
        x0 = 2.0 * x[0] - x[_PADLEN]
        head = np.empty((1, _BLOCK))
        head[0, :_LEAD] = x0
        head[0, _LEAD:] = 2.0 * x[0] - x[_PADLEN:0:-1]
        tail = np.zeros((tail_rows, _BLOCK))
        tail.reshape(-1)[:rest] = x[n - rest:]
        tail.reshape(-1)[rest:rest + _PADLEN] = (
            2.0 * x[-1] - x[-2:-_PADLEN - 2:-1]
        )
        trace = x[: n - rest].reshape(body, _BLOCK)
        # Forward, from the steady state of the fill x0.
        state_left = self._forward[1]
        S[0] = x0 * self._steady
        np.matmul(head, state_left, out=S[1:2])
        np.matmul(trace, state_left, out=S[2:2 + body])
        np.matmul(tail[:-1], state_left, out=S[2 + body:])
        self._scan(S, backward=False)
        for rows, at in (
            (head, slice(0, 1)),
            (trace, slice(1, 1 + body)),
            (tail, slice(1 + body, None)),
        ):
            self._respond(rows, S[at], Y[at], chunk, self._forward)
        # Backward from the forward output's last sample y0, held past
        # the end as the fill; the output rows are the trace's own.
        ys = Y.reshape(-1)
        end = _LEAD + n + 2 * _PADLEN
        y0 = ys[end - 1]
        ys[end:] = y0
        S[-1] = y0 * self._steady
        np.matmul(Y[1:], self._backward[1], out=S[:-1])
        self._scan(S, backward=True)
        if out is None:
            out = np.empty(n)
        self._respond(
            Y[1:1 + body], S[1:1 + body],
            out[: n - rest].reshape(body, _BLOCK), chunk, self._backward,
        )
        if rest:
            last = np.empty((1, _BLOCK))
            self._respond(Y[1 + body:2 + body], S[1 + body:2 + body], last,
                          chunk, self._backward)
            out[n - rest:] = last[0, :rest]
        return out


@dataclass
class Oscilloscope:
    """Bandwidth-limited digitizer.

    Attributes:
        bandwidth_hz: analog front-end -3 dB bandwidth.
        noise_sigma: vertical noise added before filtering (amplifier and
            probe noise), in trace units.
        adc_bits: quantizer resolution; the MDO3102 is an 8-bit scope but
            effective resolution in averaged sample mode is higher, so the
            default models a 10-bit effective chain.
        full_scale: (low, high) of the vertical window.  Samples clip.
        geometry: sampling geometry (shared with the power model).
        trigger_jitter_std: RMS trigger jitter in samples; the capture
            window start shifts by an integer offset per acquisition.
    """

    bandwidth_hz: float = 250e6
    noise_sigma: float = 0.040
    adc_bits: int = 10
    full_scale: tuple = (-6.0, 30.0)
    geometry: TraceGeometry = DEFAULT_GEOMETRY
    trigger_jitter_std: float = 0.5

    def __post_init__(self) -> None:
        nyquist = self.geometry.sample_rate_hz / 2.0
        normalized = min(self.bandwidth_hz / nyquist, 0.99)
        self._lowpass = ZeroPhaseButterworth(normalized)

    def digitize(
        self,
        analog: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        noise_scale: float = 1.0,
    ) -> np.ndarray:
        """Capture an analog trace: noise, bandwidth filter, quantize.

        Args:
            analog: analog power waveform.
            rng: noise generator; omit for a noise-free capture.
            noise_scale: factor on ``noise_sigma`` for this trace (a
                session's drift); the noise drawn has standard
                deviation ``noise_sigma * noise_scale``.

        Returns:
            float32 digitized trace, same length as ``analog``.  ``analog``
            itself is left as it was: the noise is added into the freshly
            drawn noise array, the filter writes back over that array, and
            every later step works in place on the filter's output.
        """
        trace = np.asarray(analog, dtype=np.float64)
        noisy = None
        sigma = self.noise_sigma * noise_scale
        if rng is not None and sigma > 0.0:
            noisy = rng.normal(0.0, sigma, trace.shape)
            noisy += trace
            trace = noisy
        trace = self._lowpass.filtfilt(trace, out=noisy)
        low, high = self.full_scale
        levels = (1 << self.adc_bits) - 1
        step = (high - low) / levels
        np.clip(trace, low, high, out=trace)
        trace -= low
        trace /= step
        np.round(trace, out=trace)
        trace *= step
        trace += low
        return trace.astype(np.float32)

    def trigger_offsets(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Integer sample jitter of ``n`` trigger events, in one draw.

        One ``normal(size=n)`` draw yields the same values, and leaves
        ``rng`` in the same state, as ``n`` scalar draws; ``rint`` rounds
        half to even like Python's ``round``.  Without jitter no number
        is drawn.
        """
        if self.trigger_jitter_std <= 0.0:
            return np.zeros(n, dtype=np.int64)
        jitter = rng.normal(0.0, self.trigger_jitter_std, n)
        return np.rint(jitter).astype(np.int64)
