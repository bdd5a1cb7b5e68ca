"""Byte-level pins of the capture path.

Each capture case runs at a fixed seed and hashes the windows together
with their labels and program ids.  Every stage between the program and
the float32 window — simulate, render, program/session shift, noise,
filter, quantize, trigger alignment, reference subtraction — feeds the
hash, so a speed-up anywhere on that path must leave every byte as it
was.  The 10-bit quantizer absorbs last-bit differences in the float64
stages before it, so those stages (render, shifts, baseline) are pinned
on their own as well.  The digests were recorded before the capture fast
path existed; a change that moves one of them changes what the library
captures and must not simply re-record it.

The render stage is a float64 ``matmul`` whose rounding depends on how
many threads OpenBLAS splits it over, so its pin is computed with
NumPy's BLAS on one thread, the setting the end-to-end harness runs.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from repro.experiments.workloads import MASKED_AES_SNIPPET, capture_group_set
from repro.power import (
    Acquisition,
    ProgramShift,
    SessionShift,
    make_devices,
    random_instance,
)
from repro.sim import AvrCpu
from repro.util import parallel

#: Classes of the words program: two-word loads/stores/jumps, aliases,
#: skips (over one- and two-word neighbours), branches and the ALU.
_PROGRAM_KEYS = (
    "ADD", "ADC", "EOR", "TST", "SBR", "CBR", "LDS", "STS", "JMP", "CALL",
    "CPSE", "SBRC", "SBRS", "BREQ", "BRNE", "MUL", "ADIW", "LD_X+", "ST_-Y",
    "PUSH", "POP", "SWAP", "ROR", "SUBI", "IN", "OUT", "SBI", "BST", "BLD",
    "MOVW", "LPM_Z+", "NOP",
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _words_program():
    rng = np.random.default_rng(22)
    body = []
    for _ in range(144):
        key = _PROGRAM_KEYS[int(rng.integers(len(_PROGRAM_KEYS)))]
        body.extend(random_instance(key, rng, len(body)).encode())
    return tuple(body)


def capture_program_words() -> str:
    capture = Acquisition(seed=2018).capture_program(_words_program())
    keys = np.array([e.instruction.key for e in capture.events])
    return _digest(capture.windows, keys)


def capture_program_text() -> str:
    train, (target,) = make_devices(1, seed=3)
    acq = Acquisition(
        seed=77,
        device=target,
        session=SessionShift.sample(np.random.default_rng(9)),
    )
    capture = acq.capture_program(MASKED_AES_SNIPPET * 4)
    keys = np.array([e.instruction.key for e in capture.events])
    return _digest(capture.windows, keys)


def capture_class() -> str:
    acq = Acquisition(seed=2019)
    windows, pids = acq.capture_class("LDS", 24, 3)
    return _digest(windows, pids.astype(np.int64))


def capture_register_set() -> str:
    acq = Acquisition(
        seed=2020, session=SessionShift.sample(np.random.default_rng(4))
    )
    ts = acq.capture_register_set("Rr", [3, 17], 12, 2)
    return _digest(
        ts.traces, ts.labels.astype(np.int64), ts.program_ids.astype(np.int64)
    )


def capture_group_set_windows() -> str:
    ts = capture_group_set(Acquisition(seed=2021), 6, 2)
    return _digest(
        ts.traces, ts.labels.astype(np.int64), ts.program_ids.astype(np.int64)
    )


#: The thread-count setter beside each getter in
#: ``parallel._BLAS_THREAD_PROBES``.
_BLAS_THREAD_SETTERS = {
    "scipy_openblas_get_num_threads64_": "scipy_openblas_set_num_threads64_",
    "scipy_openblas_get_num_threads": "scipy_openblas_set_num_threads",
    "openblas_get_num_threads64_": "openblas_set_num_threads64_",
    "openblas_get_num_threads": "openblas_set_num_threads",
    "MKL_Get_Max_Threads": "MKL_Set_Num_Threads",
}


@contextlib.contextmanager
def _one_blas_thread():
    """Run NumPy's BLAS on one thread, then restore its thread count."""
    probe = parallel._blas_thread_probe()
    if probe is None:
        pytest.skip("NumPy's BLAS exposes no thread-count probe")
    setter = getattr(
        parallel._blas_library(), _BLAS_THREAD_SETTERS[probe.__name__]
    )
    threads = probe()
    setter(1)
    try:
        yield
    finally:
        setter(threads)


def analog_stages() -> str:
    """The float64 stages before the quantizer, which would hide ULPs."""
    acq = Acquisition(seed=2018)
    cpu = AvrCpu(_words_program())
    acq._randomize_state(cpu, np.random.default_rng(5))
    with _one_blas_thread():
        analog = acq.model.render_events(cpu.run())
    rng = np.random.default_rng(6)
    program = ProgramShift.sample(rng)
    session = SessionShift.sample(rng)
    shifted = program.apply(analog, acq.geometry.samples_per_cycle)
    return _digest(
        analog, shifted, session.apply(shifted), program.baseline(999, 157)
    )


CASES = {
    capture_program_words: (
        "0916cbe497d69fc6db34d1f3fb794449f7ff8be93fe7344799c3966107259ee4"
    ),
    # Re-recorded when ``capture_program`` began scaling the scope noise
    # by the session's ``noise_scale``, as profiling captures always did.
    capture_program_text: (
        "4527a6b766adfc848dada46eedc3c43085062fd57f0b4a2819ccbb12bf9ca763"
    ),
    capture_class: (
        "bff5937c752a163f8b616b62fa4263e71e5202168da6cea3c743091687959271"
    ),
    capture_register_set: (
        "09599b019771b25d94c8a8eb56d7cf2b32ad388a1f14292c54e41c3b569c73c7"
    ),
    capture_group_set_windows: (
        "ad70c9e7a0d9f8b13ecee1b5de5b46de421b72417da73186d13410349b553f85"
    ),
    analog_stages: (
        "2aca0c71314862af0a1af931a85f72db1d9c94304972c568ed166e13f6ff873a"
    ),
}


@pytest.mark.parametrize("case", list(CASES), ids=lambda case: case.__name__)
def test_capture_bytes_are_pinned(case):
    assert case() == CASES[case]
