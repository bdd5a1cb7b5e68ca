"""SREG oracles: the flag-at-a-time formulations of the ALU flag helpers.

Each flag is written by its own ``set_flag`` call, straight from the AVR
instruction set manual's formulas, then S is derived from the stored N
and V.  :mod:`repro.sim.cpu` packs the same flags into one SREG write;
the two must agree for every operand pair, carry and prior SREG byte.
"""

from repro.sim.state import CpuState

__all__ = ["add8", "logic_flags", "set_flags", "sub8"]


def set_flags(state: CpuState, **flags: int) -> None:
    """``CpuState.set_flags`` as one ``set_flag`` call per flag."""
    for name, value in flags.items():
        state.set_flag(name, value)


def add8(state: CpuState, rd: int, rr: int, carry: int) -> int:
    total = rd + rr + carry
    res = total & 0xFF
    set_flags(
        state,
        H=((rd & 0xF) + (rr & 0xF) + carry) >> 4 & 1,
        C=total >> 8 & 1,
        N=res >> 7,
        V=(~(rd ^ rr) & (rd ^ res) & 0x80) >> 7,
        Z=1 if res == 0 else 0,
    )
    state.set_flag("S", state.flag("N") ^ state.flag("V"))
    return res


def sub8(state: CpuState, rd: int, rr: int, carry: int, keep_z: bool) -> int:
    total = rd - rr - carry
    res = total & 0xFF
    z = 1 if res == 0 else 0
    if keep_z:  # SBC/CPC: Z can be cleared but never set
        z = z & state.flag("Z")
    set_flags(
        state,
        H=1 if (rd & 0xF) < (rr & 0xF) + carry else 0,
        C=1 if rd < rr + carry else 0,
        N=res >> 7,
        V=((rd ^ rr) & (rd ^ res) & 0x80) >> 7,
        Z=z,
    )
    state.set_flag("S", state.flag("N") ^ state.flag("V"))
    return res


def logic_flags(state: CpuState, res: int) -> None:
    set_flags(state, N=res >> 7, V=0, Z=1 if res == 0 else 0)
    state.set_flag("S", state.flag("N"))
