"""Operand kinds of the AVR instruction set.

Every instruction operand belongs to one :class:`OperandKind`.  A kind knows

* which *logical* values are legal (e.g. ``r16``..``r31`` for the high
  register file half used by immediate instructions),
* how a logical value maps onto the raw *field* bits of the opcode word
  (e.g. ``ADIW`` stores the register pair ``r24/26/28/30`` in two bits), and
* how the operand is rendered in assembly text.

Keeping the value<->field codecs here lets :mod:`repro.isa.encoding` treat
all operands uniformly: the encoder only ever sees small non-negative field
integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "OperandError",
    "OperandKind",
    "OperandSpec",
    "field_table",
    "format_operand",
    "parse_operand",
]


class OperandError(ValueError):
    """Raised when an operand value is outside its legal range."""


class OperandKind(enum.Enum):
    """All operand categories appearing in the AVR instruction set."""

    #: Any general purpose register ``r0``..``r31`` (5-bit field).
    REG = "Rd"
    #: High half ``r16``..``r31`` (4-bit field), used by immediate ops.
    REG_HIGH = "Rd(16-31)"
    #: ``r16``..``r23`` (3-bit field), used by MULSU/FMUL*.
    REG_MUL = "Rd(16-23)"
    #: Even register opening a pair ``r0``..``r30`` (4-bit field), MOVW.
    REG_PAIR = "Rd(pair)"
    #: One of ``r24/r26/r28/r30`` (2-bit field), ADIW/SBIW.
    REG_PAIR_HIGH = "Rd(24-30)"
    #: 8-bit immediate constant.
    IMM8 = "K8"
    #: 6-bit immediate constant (ADIW/SBIW).
    IMM6 = "K6"
    #: 5-bit I/O address (SBI/CBI/SBIC/SBIS).
    IO5 = "A5"
    #: 6-bit I/O address (IN/OUT).
    IO6 = "A6"
    #: Bit index 0..7 within a register or I/O location.
    BIT = "b"
    #: SREG flag index 0..7 (BSET/BCLR).
    SREG_BIT = "s"
    #: 7-bit signed word displacement for conditional branches.
    REL7 = "k7"
    #: 12-bit signed word displacement for RJMP/RCALL.
    REL12 = "k12"
    #: 16-bit data-space address (LDS/STS, second opcode word).
    ABS16 = "k16"
    #: 22-bit program word address (JMP/CALL).
    ABS22 = "k22"
    #: 6-bit displacement ``q`` for LDD/STD.
    DISP6 = "q"


@dataclass(frozen=True)
class OperandSpec:
    """One operand slot of an instruction.

    Attributes:
        kind: the operand category.
        field: single-letter field name in the encoding pattern
            (``d``, ``r``, ``K``, ``k``, ``b``, ``s``, ``A``, ``q``).
    """

    kind: OperandKind
    field: str


# (min, max) of the *logical* value for simple range-checked kinds.
_RANGES = {
    OperandKind.REG: (0, 31),
    OperandKind.REG_HIGH: (16, 31),
    OperandKind.REG_MUL: (16, 23),
    OperandKind.IMM8: (0, 255),
    OperandKind.IMM6: (0, 63),
    OperandKind.IO5: (0, 31),
    OperandKind.IO6: (0, 63),
    OperandKind.BIT: (0, 7),
    OperandKind.SREG_BIT: (0, 7),
    OperandKind.REL7: (-64, 63),
    OperandKind.REL12: (-2048, 2047),
    OperandKind.ABS16: (0, 0xFFFF),
    OperandKind.ABS22: (0, 0x3FFFFF),
    OperandKind.DISP6: (0, 63),
}

_REGISTER_KINDS = frozenset(
    {
        OperandKind.REG,
        OperandKind.REG_HIGH,
        OperandKind.REG_MUL,
        OperandKind.REG_PAIR,
        OperandKind.REG_PAIR_HIGH,
    }
)

_SIGNED_KINDS = frozenset({OperandKind.REL7, OperandKind.REL12})


def _check_range(kind: OperandKind, value: int) -> None:
    lo, hi = _RANGES[kind]
    if not lo <= value <= hi:
        raise OperandError(f"{kind.name} operand {value} outside [{lo}, {hi}]")


def validate(kind: OperandKind, value: int) -> None:
    """Raise :class:`OperandError` unless ``value`` is legal for ``kind``."""
    if kind is OperandKind.REG_PAIR:
        if not (0 <= value <= 30 and value % 2 == 0):
            raise OperandError(f"register pair must open on an even register, got r{value}")
        return
    if kind is OperandKind.REG_PAIR_HIGH:
        if value not in (24, 26, 28, 30):
            raise OperandError(f"ADIW/SBIW pair must be r24/r26/r28/r30, got r{value}")
        return
    _check_range(kind, value)


def to_field(kind: OperandKind, value: int) -> int:
    """Map a logical operand value to its raw field bits."""
    validate(kind, value)
    if kind is OperandKind.REG_HIGH or kind is OperandKind.REG_MUL:
        return value - 16
    if kind is OperandKind.REG_PAIR:
        return value // 2
    if kind is OperandKind.REG_PAIR_HIGH:
        return (value - 24) // 2
    if kind in _SIGNED_KINDS:
        width = 7 if kind is OperandKind.REL7 else 12
        return value & ((1 << width) - 1)
    return value


def from_field(kind: OperandKind, field: int) -> int:
    """Inverse of :func:`to_field`."""
    if kind is OperandKind.REG_HIGH or kind is OperandKind.REG_MUL:
        return field + 16
    if kind is OperandKind.REG_PAIR:
        return field * 2
    if kind is OperandKind.REG_PAIR_HIGH:
        return 24 + field * 2
    if kind in _SIGNED_KINDS:
        width = 7 if kind is OperandKind.REL7 else 12
        sign = 1 << (width - 1)
        return (field ^ sign) - sign
    return field


#: Legal-value span of the register-pair kinds (odd values are illegal).
_PAIR_SPANS = {OperandKind.REG_PAIR: (0, 30), OperandKind.REG_PAIR_HIGH: (24, 30)}
#: Kinds with at most this many candidate values are tabulated up front.
_MAX_TABLE_VALUES = 256


class _FieldTable(dict):
    """Logical value -> raw field bits of one kind, XOR ``complement``.

    Filled up front for kinds with few legal values; wider kinds (jump
    offsets, absolute addresses) and illegal values fall through to
    :func:`to_field` on every lookup, so an illegal value raises
    :class:`OperandError` exactly as :func:`to_field` does.
    """

    def __init__(self, kind: OperandKind, complement: int) -> None:
        super().__init__()
        self.kind = kind
        self.complement = complement
        lo, hi = _PAIR_SPANS.get(kind) or _RANGES[kind]
        if hi - lo < _MAX_TABLE_VALUES:
            for value in range(lo, hi + 1):
                try:
                    self[value] = to_field(kind, value) ^ complement
                except OperandError:
                    continue

    def __missing__(self, value: int) -> int:
        return int(to_field(self.kind, value)) ^ self.complement


_FIELD_TABLES: dict = {}


def field_table(kind: OperandKind, complement: int = 0) -> "dict":
    """Shared value -> raw field map of ``kind`` (raw XOR ``complement``)."""
    key = (kind, complement)
    table = _FIELD_TABLES.get(key)
    if table is None:
        table = _FIELD_TABLES[key] = _FieldTable(kind, complement)
    return table


def is_register(kind: OperandKind) -> bool:
    """True for operand kinds naming a general-purpose register."""
    return kind in _REGISTER_KINDS


def format_operand(kind: OperandKind, value: int) -> str:
    """Render an operand value as assembly text."""
    if is_register(kind):
        return f"r{value}"
    if kind in _SIGNED_KINDS:
        # Branch targets are word-relative; ``.+2`` style like avr-gcc.
        offset = value * 2
        return f".{offset:+d}"
    if kind in (OperandKind.ABS16, OperandKind.ABS22):
        return f"0x{value:04X}"
    return str(value)


def parse_operand(kind: OperandKind, text: str) -> int:
    """Parse assembly text for one operand into its logical value."""
    text = text.strip()
    if is_register(kind):
        if not text.lower().startswith("r"):
            raise OperandError(f"expected register, got {text!r}")
        try:
            value = int(text[1:], 0)
        except ValueError as exc:
            raise OperandError(f"bad register {text!r}") from exc
        validate(kind, value)
        return value
    if kind in _SIGNED_KINDS:
        body = text[1:] if text.startswith(".") else text
        try:
            offset = int(body, 0)
        except ValueError as exc:
            raise OperandError(f"bad relative offset {text!r}") from exc
        if text.startswith("."):
            if offset % 2:
                raise OperandError(f"relative byte offset must be even, got {text!r}")
            offset //= 2
        validate(kind, offset)
        return offset
    try:
        value = int(text, 0)
    except ValueError as exc:
        raise OperandError(f"bad operand {text!r}") from exc
    validate(kind, value)
    return value
