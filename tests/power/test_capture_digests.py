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
"""

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


def analog_stages() -> str:
    """The float64 stages before the quantizer, which would hide ULPs."""
    acq = Acquisition(seed=2018)
    cpu = AvrCpu(_words_program())
    acq._randomize_state(cpu, np.random.default_rng(5))
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
    capture_program_text: (
        "d2a8147d3f55c8881bd5ea9168c9ce4d0fa84c1cb4c73e0441f1c8a36fccd908"
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
        "8d463afb561f18b44662ea99442c0074104540d628f3c59b97e412dba97417d1"
    ),
}


@pytest.mark.parametrize("case", list(CASES), ids=lambda case: case.__name__)
def test_capture_bytes_are_pinned(case):
    assert case() == CASES[case]
