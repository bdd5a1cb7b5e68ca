"""Encode oracle: operand fields through the generic pattern encoder.

Maps every operand value to its raw field with
:func:`repro.isa.operands.to_field`, expands fixed, derived and
complemented fields with :meth:`InstructionSpec.encode_fields`, and sets
the pattern's bits one at a time with :func:`pattern_encode`.
:meth:`repro.isa.assembler.Instruction.encode` reaches the same words
through per-spec tables built from the pattern at import.
"""

from typing import Tuple

from repro.isa import operands as op

from .pattern import pattern_encode


def encode(instruction) -> Tuple[int, ...]:
    """Reference for :meth:`repro.isa.assembler.Instruction.encode`."""
    spec = instruction.spec
    fields = {
        spec_op.field: op.to_field(spec_op.kind, value)
        for spec_op, value in zip(spec.operands, instruction.values)
    }
    return pattern_encode(spec.compiled, spec.encode_fields(fields))
