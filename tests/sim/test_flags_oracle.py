"""Packed SREG writes against the flag-at-a-time oracles.

``_add8``, ``_sub8`` and ``_logic_flags`` compute the whole SREG update
in one write, and ``CpuState.set_flags`` builds its byte in one pass.
Both must leave exactly the SREG byte the one-``set_flag``-per-flag
formulation leaves: for every (rd, rr, carry) and for prior SREG bytes
that set, clear and mix the untouched I/T bits and the Z that SBC/CPC
can only clear (every other flag these helpers write ignores its prior
value, so three prior bytes cover them).
"""

import itertools

import numpy as np

from repro.sim import cpu
from repro.sim.state import SREG_BITS, CpuState
from tests.oracles import add8, logic_flags, set_flags, sub8

#: Prior SREG bytes: all clear, all set, and T + Z with I clear.
PRIOR_SREG = (0x00, 0xFF, 0x42)


def _pair():
    return CpuState(), CpuState()


def test_add_sub_match_oracle_exhaustively():
    fast, slow = _pair()
    cases = (
        (cpu._add8, add8, ()),
        (cpu._sub8, sub8, (False,)),
        (cpu._sub8, sub8, (True,)),
    )
    for prior in PRIOR_SREG:
        for packed, oracle, extra in cases:
            for rd, rr, carry in itertools.product(
                range(256), range(256), (0, 1)
            ):
                fast.sreg = slow.sreg = prior
                res = packed(fast, rd, rr, carry, *extra)
                assert res == oracle(slow, rd, rr, carry, *extra)
                if fast.sreg != slow.sreg:
                    raise AssertionError(
                        f"{packed.__name__}{(rd, rr, carry, *extra)} from "
                        f"SREG {prior:#04x}: {fast.sreg:#04x} != "
                        f"{slow.sreg:#04x}"
                    )


def test_logic_flags_match_oracle():
    fast, slow = _pair()
    for prior in range(256):
        for res in range(256):
            fast.sreg = slow.sreg = prior
            cpu._logic_flags(fast, res)
            logic_flags(slow, res)
            assert fast.sreg == slow.sreg, (prior, res)


def test_set_flags_matches_per_flag_writes():
    rng = np.random.default_rng(18)
    names = list(SREG_BITS)
    fast, slow = _pair()
    for _ in range(5000):
        prior = int(rng.integers(256))
        picked = rng.permutation(names)[: int(rng.integers(1, len(names) + 1))]
        flags = {str(name): int(rng.integers(0, 3)) for name in picked}
        fast.sreg = slow.sreg = prior
        fast.set_flags(**flags)
        set_flags(slow, **flags)
        assert fast.sreg == slow.sreg, (prior, flags)
