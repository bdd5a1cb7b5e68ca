"""A small two-pass assembler for the AVR instruction set.

The assembler understands the subset of syntax needed by the acquisition
framework and the examples:

* one instruction per line, ``;`` comments,
* labels (``loop:``) and label operands for branches/jumps/calls,
* ``.+N`` / ``.-N`` relative byte offsets,
* numeric immediates in decimal, hex (``0x``) or binary (``0b``).

Encoding goes through :mod:`repro.isa.specs`; the assembler's job is only
to pick the right spec for a mnemonic + operand shape and resolve labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import operands as op
from .specs import MNEMONIC_INDEX, REGISTRY, InstructionSpec

__all__ = ["AssemblyError", "Instruction", "assemble", "assemble_line", "encode"]


class AssemblyError(ValueError):
    """Raised on any syntax or range error, with the offending line."""


@dataclass(frozen=True)
class Instruction:
    """A concrete instruction instance: a spec plus operand values."""

    spec: InstructionSpec
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.spec.operands):
            raise AssemblyError(
                f"{self.spec.key} expects {len(self.spec.operands)} operands, "
                f"got {len(self.values)}"
            )
        for spec_op, value in zip(self.spec.operands, self.values):
            op.validate(spec_op.kind, value)

    @property
    def key(self) -> str:
        """Instruction class key (the classifier's label space)."""
        return self.spec.key

    def encode(self) -> Tuple[int, ...]:
        """Encode into one or two 16-bit opcode words.

        Table-driven from the spec's pattern (:attr:`InstructionSpec.encoder`):
        start from the fixed bits, then OR in each operand's raw field
        bits, run by run.
        """
        words, operands = self.spec.encoder
        words = list(words)
        for (table, runs), value in zip(operands, self.values):
            raw = table[value]
            for index, shift, mask, place in runs:
                words[index] |= ((raw >> place) & mask) << shift
        return tuple(words)

    def text(self) -> str:
        """Render back to assembly text."""
        rendered = []
        for slot in self.spec.syntax:
            rendered.append(_render_slot(self.spec, slot, self.values))
        body = ", ".join(rendered)
        return self.spec.mnemonic if not body else f"{self.spec.mnemonic} {body}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def _render_slot(spec: InstructionSpec, slot: str, values: Sequence[int]) -> str:
    if slot.startswith("%"):
        index = int(slot[1:])
        return op.format_operand(spec.operands[index].kind, values[index])
    if "%" in slot:  # embedded operand, e.g. "Y+%1"
        prefix, _, idx = slot.partition("%")
        index = int(idx)
        return prefix + str(values[index])
    return slot


def encode(key: str, *values: int) -> Tuple[int, ...]:
    """Encode an instruction by class key, e.g. ``encode("ADD", 1, 2)``."""
    return Instruction(REGISTRY[key], tuple(values)).encode()


def _split_operands(text: str) -> List[str]:
    return [part.strip() for part in text.split(",")] if text.strip() else []


def _try_spec(
    spec: InstructionSpec, parts: Sequence[str]
) -> Optional[Tuple[int, ...]]:
    """Match operand text against a spec's syntax template."""
    if len(parts) != len(spec.syntax):
        return None
    values: Dict[int, int] = {}
    for slot, part in zip(spec.syntax, parts):
        if slot.startswith("%"):
            index = int(slot[1:])
            try:
                values[index] = op.parse_operand(spec.operands[index].kind, part)
            except op.OperandError:
                return None
        elif "%" in slot:
            prefix, _, idx = slot.partition("%")
            if not part.upper().startswith(prefix.upper()):
                return None
            index = int(idx)
            try:
                values[index] = op.parse_operand(
                    spec.operands[index].kind, part[len(prefix):]
                )
            except op.OperandError:
                return None
        else:
            if part.upper() != slot.upper():
                return None
    if len(values) != len(spec.operands):
        return None
    return tuple(values[i] for i in range(len(spec.operands)))


def assemble_line(line: str) -> Instruction:
    """Assemble a single instruction line (no labels)."""
    code = line.split(";", 1)[0].strip()
    if not code:
        raise AssemblyError(f"empty line {line!r}")
    mnemonic, _, rest = code.partition(" ")
    mnemonic = mnemonic.lower()
    specs = MNEMONIC_INDEX.get(mnemonic)
    if not specs:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r} in {line!r}")
    parts = _split_operands(rest)
    for spec in specs:
        values = _try_spec(spec, parts)
        if values is not None:
            return Instruction(spec, values)
    raise AssemblyError(f"no {mnemonic!r} form matches operands in {line!r}")


_BRANCH_KINDS = (op.OperandKind.REL7, op.OperandKind.REL12, op.OperandKind.ABS22)


def _is_label(token: str) -> bool:
    stripped = token.strip()
    if not stripped or stripped[0].isdigit():
        return False
    if stripped.startswith((".", "-", "+")):
        return False
    if stripped[0] in "rR" and stripped[1:].isdigit():
        return False  # register, not a label
    return stripped.replace("_", "").isalnum()


def assemble(source: str, origin: int = 0) -> List[Instruction]:
    """Assemble a multi-line program, resolving labels.

    Args:
        source: assembly text; supports labels and ``;`` comments.
        origin: word address of the first instruction (for label math).

    Returns:
        List of :class:`Instruction` in program order.
    """
    # Pass 1: strip comments/labels, record label word addresses.
    lines: List[Tuple[str, int]] = []  # (code, word address)
    labels: Dict[str, int] = {}
    address = origin
    for raw in source.splitlines():
        code = raw.split(";", 1)[0].strip()
        if not code:
            continue
        while ":" in code:
            label, _, code = code.partition(":")
            label = label.strip()
            if not label:
                raise AssemblyError(f"bad label in {raw!r}")
            if label in labels:
                raise AssemblyError(f"duplicate label {label!r}")
            labels[label] = address
            code = code.strip()
        if not code:
            continue
        mnemonic = code.split(" ", 1)[0].lower()
        specs = MNEMONIC_INDEX.get(mnemonic)
        if not specs:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r} in {raw!r}")
        lines.append((code, address))
        address += specs[0].n_words

    # Pass 2: substitute labels with relative/absolute operands and encode.
    program: List[Instruction] = []
    for code, addr in lines:
        mnemonic, _, rest = code.partition(" ")
        parts = _split_operands(rest)
        resolved = []
        for part in parts:
            if _is_label(part) and part in labels:
                spec0 = MNEMONIC_INDEX[mnemonic.lower()][0]
                kinds = [o.kind for o in spec0.operands]
                if any(k in _BRANCH_KINDS for k in kinds):
                    if op.OperandKind.ABS22 in kinds:
                        resolved.append(str(labels[part]))
                    else:
                        # Relative to the *next* instruction's address.
                        delta = labels[part] - (addr + spec0.n_words)
                        resolved.append(f".{delta * 2:+d}")
                    continue
            resolved.append(part)
        line = mnemonic if not resolved else f"{mnemonic} {', '.join(resolved)}"
        try:
            program.append(assemble_line(line))
        except AssemblyError as exc:
            raise AssemblyError(f"{exc} (while assembling {code!r})") from None
    return program


def assemble_words(source: str, origin: int = 0) -> List[int]:
    """Assemble straight to a flat list of opcode words."""
    words: List[int] = []
    for instruction in assemble(source, origin=origin):
        words.extend(instruction.encode())
    return words
