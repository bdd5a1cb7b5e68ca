"""Microarchitectural event records emitted by the simulated AVR core.

The power substrate consumes these events: every term of the synthetic
power model (bus Hamming weights/distances, register-file address decode,
ALU, memory, SREG and branch activity) is computed from an
:class:`ExecEvent`, so the power trace depends on *what the core actually
did* — operand values, old register contents, taken branches — exactly as
the physical side channel does.

The core emits one :class:`ExecEvent` per executed instruction, so the
records are immutable named tuples: building one costs a fraction of a
frozen dataclass, and the power model reads their fields at slot speed.
Equality is by record type *and* fields, as for a dataclass: an event
never equals a plain tuple or a record of another type with the same
values.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..isa.assembler import Instruction

__all__ = ["ExecEvent", "MemAccess", "RegRead", "RegWrite"]


def _record_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return not _record_eq(self, other)


class RegRead(NamedTuple):
    """One register-file read port activation."""

    reg: int
    value: int

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class RegWrite(NamedTuple):
    """One register-file write; ``old`` enables Hamming-distance terms."""

    reg: int
    old: int
    new: int

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class MemAccess(NamedTuple):
    """A data-space / program-space access performed in the execute stage."""

    kind: str  #: ``"load"``, ``"store"``, ``"flash"`` or ``"io"``
    address: int
    value: int

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class ExecEvent(NamedTuple):
    """Everything the power model needs about one executed instruction.

    Attributes:
        instruction: the architectural instruction executed.
        pc: word address it was fetched from.
        opcode_words: its encoding (drives instruction-bus Hamming weight).
        cycles: cycles actually consumed (includes taken-branch extras).
        reads: register-file read port activity.
        writes: register-file write port activity.
        alu_operands: values fed to the ALU, if it was used.
        alu_result: ALU output value.
        mem: data-space / flash accesses.
        sreg_before: SREG packed byte prior to execution.
        sreg_after: SREG packed byte after execution.
        branch_taken: ``True``/``False`` for branches & skips, else ``None``.
        skipped: True when this instruction was skipped by a preceding
            skip instruction (it still passes through the pipeline and
            consumes a cycle, but performs no architectural work).
        canonical: ``instruction`` with any alias rewritten to the
            canonical form the core executes (``TST r5`` -> ``AND r5, r5``);
            the simulator computes it once and the power model reuses it.
    """

    instruction: Instruction
    pc: int
    opcode_words: Tuple[int, ...]
    cycles: int
    reads: Tuple[RegRead, ...] = ()
    writes: Tuple[RegWrite, ...] = ()
    alu_operands: Tuple[int, ...] = ()
    alu_result: Optional[int] = None
    mem: Tuple[MemAccess, ...] = ()
    sreg_before: int = 0
    sreg_after: int = 0
    branch_taken: Optional[bool] = None
    skipped: bool = False
    canonical: Optional[Instruction] = None

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__

    @property
    def key(self) -> str:
        """Instruction class key."""
        return self.instruction.spec.key

    @property
    def sreg_toggled(self) -> int:
        """Bitmask of SREG flags that changed."""
        return self.sreg_before ^ self.sreg_after
