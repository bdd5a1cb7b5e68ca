"""Bit-level encoding patterns for AVR opcodes.

AVR opcodes are one or two 16-bit words.  We describe each encoding with a
pattern string per word, written MSB first, where ``0``/``1`` are fixed bits
and any other letter names a field, e.g. ``ADC``::

    "0001 11rd dddd rrrr"

Field bits are collected MSB-first in pattern order (left to right, first
word then second word), which matches the AVR instruction set manual's
convention — e.g. ``JMP``'s 22-bit ``k`` spreads over both words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

__all__ = ["CompiledPattern", "EncodingError", "compile_pattern"]


class EncodingError(ValueError):
    """Raised for malformed patterns or out-of-range field values."""


@dataclass(frozen=True)
class CompiledPattern:
    """A ready-to-use opcode pattern.

    Attributes:
        n_words: 1 or 2 sixteen-bit opcode words.
        fixed_value: per word, the value of the fixed bits.
        fixed_mask: per word, which bits are fixed.
        fields: field letter -> tuple of (word index, bit index) positions,
            MSB of the field first; bit index 15 is the leftmost bit.
    """

    n_words: int
    fixed_value: Tuple[int, ...]
    fixed_mask: Tuple[int, ...]
    fields: Mapping[str, Tuple[Tuple[int, int], ...]]

    @property
    def fixed_bit_count(self) -> int:
        """Total number of fixed bits — used to order decode attempts."""
        return sum(bin(mask).count("1") for mask in self.fixed_mask)

    def field_width(self, name: str) -> int:
        """Number of bits of field ``name``."""
        return len(self.fields[name])

    def field_runs(self, name: str) -> Tuple[Tuple[int, int, int, int], ...]:
        """Split field ``name``'s MSB-first bit positions into contiguous runs.

        Each run is ``(word index, shift, mask, place)``: the field's bits
        ``place..`` are ``(words[word index] >> shift) & mask``.  Decoding
        gathers a field run by run; encoding scatters it the same way.
        """
        positions = self.fields[name]
        runs = []
        width = len(positions)
        start = 0
        while start < width:
            word, top = positions[start]
            end = start
            while end + 1 < width and positions[end + 1] == (
                word, top - (end + 1 - start)
            ):
                end += 1
            length = end - start + 1
            runs.append(
                (word, top - length + 1, (1 << length) - 1, width - 1 - end)
            )
            start = end + 1
        return tuple(runs)


def compile_pattern(pattern_words: Iterable[str]) -> CompiledPattern:
    """Compile pattern strings into a :class:`CompiledPattern`.

    Whitespace in patterns is ignored; each word must contain exactly 16
    significant characters.
    """
    fixed_value = []
    fixed_mask = []
    fields: Dict[str, list] = {}
    pattern_list = list(pattern_words)
    for word_idx, text in enumerate(pattern_list):
        bits = text.replace(" ", "").replace("_", "")
        if len(bits) != 16:
            raise EncodingError(f"pattern word {text!r} is not 16 bits")
        value = 0
        mask = 0
        for pos, ch in enumerate(bits):
            bit = 15 - pos
            if ch == "0":
                mask |= 1 << bit
            elif ch == "1":
                mask |= 1 << bit
                value |= 1 << bit
            else:
                fields.setdefault(ch, []).append((word_idx, bit))
        fixed_value.append(value)
        fixed_mask.append(mask)
    return CompiledPattern(
        n_words=len(pattern_list),
        fixed_value=tuple(fixed_value),
        fixed_mask=tuple(fixed_mask),
        fields={k: tuple(v) for k, v in fields.items()},
    )
