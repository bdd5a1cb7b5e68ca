"""The AVR (ATmega328P-class) instruction specification table.

Each entry is an :class:`InstructionSpec` describing one *instruction class*
in the sense of the DAC'18 disassembler paper: addressing-mode variants of
``LD``/``ST``/``LDD``/``STD``/``LPM``/``ELPM`` and all the classic AVR
aliases (``TST``, ``CLR``, ``SEC``, ``BREQ``, ...) are distinct classes with
their own key, exactly as Table 2 of the paper counts them (112 grouped
instructions in 8 groups, plus residual control/multiply instructions).

Specs are *declarative*: the bit pattern, operand kinds, textual syntax and
alias relationship are data; :mod:`repro.isa.encoding` does the bit work and
:mod:`repro.sim.cpu` implements behaviour keyed by :attr:`InstructionSpec.semantics`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .encoding import CompiledPattern, compile_pattern
from .operands import OperandKind, OperandSpec, field_table

__all__ = [
    "DECODE_ORDER",
    "InstructionSpec",
    "MNEMONIC_INDEX",
    "REGISTRY",
    "spec_for",
]

_EMPTY: Mapping[str, int] = MappingProxyType({})
_EMPTY_STR: Mapping[str, str] = MappingProxyType({})


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one instruction class.

    Attributes:
        key: unique class identifier, e.g. ``"ADD"`` or ``"LD_X+"``.
        mnemonic: lower-case assembly mnemonic (shared by variants).
        operands: operand slots in *textual* order.
        syntax: textual operand template; ``"%0"``/``"%1"`` refer to
            ``operands`` entries, anything else is a literal token such as
            ``"X+"``; ``"Y+%1"`` embeds operand 1 as LDD's displacement.
        pattern: encoding pattern (compiled lazily into ``compiled``).
        group: paper Table 2 group 1..8, or ``None`` for residual
            instructions the disassembler does not profile.
        cycles: base cycle count; ``extra_cycles`` is added when a branch
            is taken or a skip instruction skips.
        extra_cycles: additional cycles for taken branches / skips.
        semantics: key into the simulator's behaviour dispatch table;
            aliases reuse their canonical instruction's behaviour.
        fixed_fields: pattern fields pinned to constants (e.g. ``SEC``
            pins ``s = 0`` in the ``BSET`` pattern).
        derived_fields: pattern field copied from another field at encode
            time (e.g. ``TST`` sets ``r = d``).
        complement_field: field stored one's-complemented (``CBR``'s mask).
        alias_of: key of the canonical spec owning the encoding, if any.
        flags: SREG flags the instruction may update (documentation).
        description: one-line human description.
    """

    key: str
    mnemonic: str
    operands: Tuple[OperandSpec, ...]
    syntax: Tuple[str, ...]
    pattern: Tuple[str, ...]
    group: Optional[int]
    cycles: int
    semantics: str
    description: str
    extra_cycles: int = 0
    fixed_fields: Mapping[str, int] = field(default_factory=lambda: _EMPTY)
    derived_fields: Mapping[str, str] = field(default_factory=lambda: _EMPTY_STR)
    complement_field: Optional[str] = None
    alias_of: Optional[str] = None
    flags: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "compiled", compile_pattern(self.pattern))
        object.__setattr__(self, "encoder", self._build_encoder())

    # ``compiled`` and ``encoder`` are assigned in __post_init__; declare
    # them for type checkers.
    compiled: CompiledPattern = field(init=False, repr=False, compare=False)
    encoder: Tuple[Tuple[int, ...], Tuple[tuple, ...]] = field(
        init=False, repr=False, compare=False
    )

    def _build_encoder(self) -> Tuple[Tuple[int, ...], Tuple[tuple, ...]]:
        """Encoding tables: ``(fixed words, per-operand (table, runs))``.

        The fixed words carry the pattern's fixed bits and every
        ``fixed_fields`` constant.  Each operand maps its value to raw
        field bits through a shared table (complemented for
        ``complement_field``) and scatters them over the bit runs of its
        own field and of every field ``derived_fields`` copies from it —
        the rules :meth:`encode_fields` applies field by field.
        """
        compiled = self.compiled
        words = list(compiled.fixed_value)
        for name, const in self.fixed_fields.items():
            for index, shift, mask, place in compiled.field_runs(name):
                words[index] |= ((const >> place) & mask) << shift
        operands = []
        for spec_op in self.operands:
            name = spec_op.field
            complement = 0
            if name == self.complement_field:
                complement = (1 << compiled.field_width(name)) - 1
            targets = [name] + [
                derived
                for derived, source in self.derived_fields.items()
                if source == name
            ]
            runs = tuple(
                run for target in targets for run in compiled.field_runs(target)
            )
            operands.append((field_table(spec_op.kind, complement), runs))
        return tuple(words), tuple(operands)

    def __reduce__(self):
        # Pickle as a registry reference: the spec's mapping fields
        # (read-only proxies) cannot be pickled, and loading re-attaches
        # to the shared registry entry.
        if REGISTRY.get(self.key) is not self:
            raise pickle.PicklingError(
                f"instruction spec {self.key!r} is not the registry's"
            )
        return (spec_for, (self.key,))

    @property
    def n_words(self) -> int:
        """Opcode size in 16-bit words."""
        return self.compiled.n_words

    @property
    def is_alias(self) -> bool:
        """True when this class shares another class's encoding."""
        return self.alias_of is not None

    def encode_fields(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Expand operand field values with fixed/derived/complement rules."""
        fields: Dict[str, int] = dict(values)
        for name, const in self.fixed_fields.items():
            fields[name] = const
        for name, source in self.derived_fields.items():
            fields[name] = fields[source]
        if self.complement_field is not None:
            width = self.compiled.field_width(self.complement_field)
            fields[self.complement_field] ^= (1 << width) - 1
        return fields


def _ops(*pairs: Tuple[OperandKind, str]) -> Tuple[OperandSpec, ...]:
    return tuple(OperandSpec(kind, name) for kind, name in pairs)


# Shorthand operand constructors keep the table readable.
def _R(name: str = "d") -> Tuple[OperandKind, str]:
    return (OperandKind.REG, name)


def _RH(name: str = "d") -> Tuple[OperandKind, str]:
    return (OperandKind.REG_HIGH, name)


_SPECS: List[InstructionSpec] = []


def _spec(
    key: str,
    description: str,
    pattern,
    operands=(),
    syntax=None,
    group=None,
    cycles=1,
    extra_cycles=0,
    semantics=None,
    mnemonic=None,
    fixed_fields=None,
    derived_fields=None,
    complement_field=None,
    alias_of=None,
    flags="",
) -> None:
    if isinstance(pattern, str):
        pattern = (pattern,)
    operands = _ops(*operands)
    if syntax is None:
        syntax = tuple(f"%{i}" for i in range(len(operands)))
    if mnemonic is None:
        mnemonic = key.split("_")[0].lower()
    if semantics is None:
        semantics = alias_of if alias_of is not None else key
    _SPECS.append(
        InstructionSpec(
            key=key,
            mnemonic=mnemonic,
            operands=operands,
            syntax=tuple(syntax),
            pattern=tuple(pattern),
            group=group,
            cycles=cycles,
            extra_cycles=extra_cycles,
            semantics=semantics,
            description=description,
            fixed_fields=MappingProxyType(dict(fixed_fields or {})),
            derived_fields=MappingProxyType(dict(derived_fields or {})),
            complement_field=complement_field,
            alias_of=alias_of,
            flags=flags,
        )
    )


# --------------------------------------------------------------------------
# Group 1: two-register arithmetic/logic (12 classes).
# --------------------------------------------------------------------------
_spec("ADD", "add without carry", "0000 11rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("ADC", "add with carry", "0001 11rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("SUB", "subtract without carry", "0001 10rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("SBC", "subtract with carry", "0000 10rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("AND", "logical AND", "0010 00rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="SVNZ")
_spec("OR", "logical OR", "0010 10rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="SVNZ")
_spec("EOR", "exclusive OR", "0010 01rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="SVNZ")
_spec("CPSE", "compare, skip if equal", "0001 00rd dddd rrrr", [_R(), _R("r")],
      group=1, extra_cycles=1)
_spec("CP", "compare", "0001 01rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("CPC", "compare with carry", "0000 01rd dddd rrrr", [_R(), _R("r")],
      group=1, flags="HSVNZC")
_spec("MOV", "copy register", "0010 11rd dddd rrrr", [_R(), _R("r")], group=1)
_spec("MOVW", "copy register word", "0000 0001 dddd rrrr",
      [(OperandKind.REG_PAIR, "d"), (OperandKind.REG_PAIR, "r")], group=1)

# --------------------------------------------------------------------------
# Group 2: register-immediate (10 classes).
# --------------------------------------------------------------------------
_spec("ADIW", "add immediate to word", "1001 0110 KKdd KKKK",
      [(OperandKind.REG_PAIR_HIGH, "d"), (OperandKind.IMM6, "K")],
      group=2, cycles=2, flags="SVNZC")
_spec("SBIW", "subtract immediate from word", "1001 0111 KKdd KKKK",
      [(OperandKind.REG_PAIR_HIGH, "d"), (OperandKind.IMM6, "K")],
      group=2, cycles=2, flags="SVNZC")
_spec("SUBI", "subtract immediate", "0101 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, flags="HSVNZC")
_spec("SBCI", "subtract immediate with carry", "0100 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, flags="HSVNZC")
_spec("ANDI", "logical AND with immediate", "0111 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, flags="SVNZ")
_spec("ORI", "logical OR with immediate", "0110 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, flags="SVNZ")
_spec("SBR", "set bits in register (ORI synonym)", "0110 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, alias_of="ORI", flags="SVNZ")
_spec("CBR", "clear bits in register (ANDI with ~K)", "0111 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, alias_of="ANDI",
      complement_field="K", flags="SVNZ")
_spec("CPI", "compare with immediate", "0011 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2, flags="HSVNZC")
_spec("LDI", "load immediate", "1110 KKKK dddd KKKK",
      [_RH(), (OperandKind.IMM8, "K")], group=2)

# --------------------------------------------------------------------------
# Group 3: single-register arithmetic/bit (13 classes).
# --------------------------------------------------------------------------
_spec("COM", "one's complement", "1001 010d dddd 0000", [_R()],
      group=3, flags="SVNZC")
_spec("NEG", "two's complement", "1001 010d dddd 0001", [_R()],
      group=3, flags="HSVNZC")
_spec("INC", "increment", "1001 010d dddd 0011", [_R()], group=3, flags="SVNZ")
_spec("DEC", "decrement", "1001 010d dddd 1010", [_R()], group=3, flags="SVNZ")
_spec("TST", "test for zero or minus (AND Rd,Rd)", "0010 00rd dddd rrrr",
      [_R()], group=3, alias_of="AND", derived_fields={"r": "d"}, flags="SVNZ")
_spec("CLR", "clear register (EOR Rd,Rd)", "0010 01rd dddd rrrr",
      [_R()], group=3, alias_of="EOR", derived_fields={"r": "d"}, flags="SVNZ")
_spec("SER", "set register (LDI Rd,0xFF)", "1110 KKKK dddd KKKK",
      [_RH()], group=3, alias_of="LDI", fixed_fields={"K": 0xFF})
_spec("LSL", "logical shift left (ADD Rd,Rd)", "0000 11rd dddd rrrr",
      [_R()], group=3, alias_of="ADD", derived_fields={"r": "d"},
      flags="HSVNZC")
_spec("LSR", "logical shift right", "1001 010d dddd 0110", [_R()],
      group=3, flags="SVNZC")
_spec("ROL", "rotate left through carry (ADC Rd,Rd)", "0001 11rd dddd rrrr",
      [_R()], group=3, alias_of="ADC", derived_fields={"r": "d"},
      flags="HSVNZC")
_spec("ROR", "rotate right through carry", "1001 010d dddd 0111", [_R()],
      group=3, flags="SVNZC")
_spec("ASR", "arithmetic shift right", "1001 010d dddd 0101", [_R()],
      group=3, flags="SVNZC")
_spec("SWAP", "swap nibbles", "1001 010d dddd 0010", [_R()], group=3)

# --------------------------------------------------------------------------
# Group 4: jumps and conditional branches (20 classes).
# --------------------------------------------------------------------------
_spec("RJMP", "relative jump", "1100 kkkk kkkk kkkk",
      [(OperandKind.REL12, "k")], group=4, cycles=2)
_spec("JMP", "absolute jump", ("1001 010k kkkk 110k", "kkkk kkkk kkkk kkkk"),
      [(OperandKind.ABS22, "k")], group=4, cycles=3)

_BRBS_ALIASES = {  # mnemonic -> SREG flag index (branch if flag set)
    "BRCS": 0, "BRLO": 0, "BREQ": 1, "BRMI": 2, "BRVS": 3,
    "BRLT": 4, "BRHS": 5, "BRTS": 6, "BRIE": 7,
}
_BRBC_ALIASES = {  # mnemonic -> SREG flag index (branch if flag cleared)
    "BRCC": 0, "BRSH": 0, "BRNE": 1, "BRPL": 2, "BRVC": 3,
    "BRGE": 4, "BRHC": 5, "BRTC": 6, "BRID": 7,
}
for _name, _s in _BRBS_ALIASES.items():
    _spec(_name, f"branch if SREG[{_s}] set", "1111 00kk kkkk ksss",
          [(OperandKind.REL7, "k")], group=4, extra_cycles=1,
          alias_of="BRBS", fixed_fields={"s": _s})
for _name, _s in _BRBC_ALIASES.items():
    _spec(_name, f"branch if SREG[{_s}] cleared", "1111 01kk kkkk ksss",
          [(OperandKind.REL7, "k")], group=4, extra_cycles=1,
          alias_of="BRBC", fixed_fields={"s": _s})

# --------------------------------------------------------------------------
# Group 5: data transfer, 24 classes (12 loads + 12 stores).
# --------------------------------------------------------------------------
_spec("LDS", "load direct from data space",
      ("1001 000d dddd 0000", "kkkk kkkk kkkk kkkk"),
      [_R(), (OperandKind.ABS16, "k")], group=5, cycles=2)
_LD_MODES = {
    # suffix -> (pattern, addressing token)
    "X": ("1001 000d dddd 1100", "X"),
    "X+": ("1001 000d dddd 1101", "X+"),
    "-X": ("1001 000d dddd 1110", "-X"),
    "Y": ("1000 000d dddd 1000", "Y"),
    "Y+": ("1001 000d dddd 1001", "Y+"),
    "-Y": ("1001 000d dddd 1010", "-Y"),
    "Z": ("1000 000d dddd 0000", "Z"),
    "Z+": ("1001 000d dddd 0001", "Z+"),
    "-Z": ("1001 000d dddd 0010", "-Z"),
}
for _suffix, (_pat, _tok) in _LD_MODES.items():
    _spec(f"LD_{_suffix}", f"load indirect via {_tok}", _pat, [_R()],
          syntax=("%0", _tok), group=5, cycles=2, mnemonic="ld",
          semantics=f"LD_{_suffix}")
_spec("LDD_Y", "load indirect with displacement (Y+q)",
      "10q0 qq0d dddd 1qqq", [_R(), (OperandKind.DISP6, "q")],
      syntax=("%0", "Y+%1"), group=5, cycles=2, mnemonic="ldd")
_spec("LDD_Z", "load indirect with displacement (Z+q)",
      "10q0 qq0d dddd 0qqq", [_R(), (OperandKind.DISP6, "q")],
      syntax=("%0", "Z+%1"), group=5, cycles=2, mnemonic="ldd")

_spec("STS", "store direct to data space",
      ("1001 001d dddd 0000", "kkkk kkkk kkkk kkkk"),
      [(OperandKind.ABS16, "k"), _R()], syntax=("%0", "%1"),
      group=5, cycles=2)
_ST_MODES = {
    "X": ("1001 001d dddd 1100", "X"),
    "X+": ("1001 001d dddd 1101", "X+"),
    "-X": ("1001 001d dddd 1110", "-X"),
    "Y": ("1000 001d dddd 1000", "Y"),
    "Y+": ("1001 001d dddd 1001", "Y+"),
    "-Y": ("1001 001d dddd 1010", "-Y"),
    "Z": ("1000 001d dddd 0000", "Z"),
    "Z+": ("1001 001d dddd 0001", "Z+"),
    "-Z": ("1001 001d dddd 0010", "-Z"),
}
for _suffix, (_pat, _tok) in _ST_MODES.items():
    _spec(f"ST_{_suffix}", f"store indirect via {_tok}", _pat, [_R()],
          syntax=(_tok, "%0"), group=5, cycles=2, mnemonic="st",
          semantics=f"ST_{_suffix}")
_spec("STD_Y", "store indirect with displacement (Y+q)",
      "10q0 qq1d dddd 1qqq", [(OperandKind.DISP6, "q"), _R()],
      syntax=("Y+%0", "%1"), group=5, cycles=2, mnemonic="std")
_spec("STD_Z", "store indirect with displacement (Z+q)",
      "10q0 qq1d dddd 0qqq", [(OperandKind.DISP6, "q"), _R()],
      syntax=("Z+%0", "%1"), group=5, cycles=2, mnemonic="std")

# --------------------------------------------------------------------------
# Group 6: SREG set/clear aliases of BSET/BCLR (15 classes, paper omits CLI).
# --------------------------------------------------------------------------
_SREG_NAMES = ["C", "Z", "N", "V", "S", "H", "T", "I"]
_G6_SET = {"SEC": 0, "SEZ": 1, "SEN": 2, "SEV": 3, "SES": 4, "SEH": 5,
           "SET": 6, "SEI": 7}
_G6_CLR = {"CLC": 0, "CLZ": 1, "CLN": 2, "CLV": 3, "CLS": 4, "CLH": 5,
           "CLT": 6}
for _name, _s in _G6_SET.items():
    _spec(_name, f"set SREG flag {_SREG_NAMES[_s]}", "1001 0100 0sss 1000",
          group=6, alias_of="BSET", fixed_fields={"s": _s},
          flags=_SREG_NAMES[_s])
for _name, _s in _G6_CLR.items():
    _spec(_name, f"clear SREG flag {_SREG_NAMES[_s]}", "1001 0100 1sss 1000",
          group=6, alias_of="BCLR", fixed_fields={"s": _s},
          flags=_SREG_NAMES[_s])
# CLI exists on silicon but Table 2 leaves it out of the 112; keep it
# available as a residual instruction.
_spec("CLI", "clear global interrupt flag", "1001 0100 1sss 1000",
      group=None, alias_of="BCLR", fixed_fields={"s": 7}, flags="I")

# --------------------------------------------------------------------------
# Group 7: bit tests, skips, I/O bit ops (12 classes).
# --------------------------------------------------------------------------
_spec("SBRC", "skip if bit in register cleared", "1111 110r rrrr 0bbb",
      [_R("r"), (OperandKind.BIT, "b")], group=7, extra_cycles=1)
_spec("SBRS", "skip if bit in register set", "1111 111r rrrr 0bbb",
      [_R("r"), (OperandKind.BIT, "b")], group=7, extra_cycles=1)
_spec("SBIC", "skip if bit in I/O cleared", "1001 1001 AAAA Abbb",
      [(OperandKind.IO5, "A"), (OperandKind.BIT, "b")],
      group=7, extra_cycles=1)
_spec("SBIS", "skip if bit in I/O set", "1001 1011 AAAA Abbb",
      [(OperandKind.IO5, "A"), (OperandKind.BIT, "b")],
      group=7, extra_cycles=1)
_spec("BRBS", "branch if SREG bit set", "1111 00kk kkkk ksss",
      [(OperandKind.SREG_BIT, "s"), (OperandKind.REL7, "k")],
      group=7, extra_cycles=1)
_spec("BRBC", "branch if SREG bit cleared", "1111 01kk kkkk ksss",
      [(OperandKind.SREG_BIT, "s"), (OperandKind.REL7, "k")],
      group=7, extra_cycles=1)
_spec("SBI", "set bit in I/O register", "1001 1010 AAAA Abbb",
      [(OperandKind.IO5, "A"), (OperandKind.BIT, "b")], group=7, cycles=2)
_spec("CBI", "clear bit in I/O register", "1001 1000 AAAA Abbb",
      [(OperandKind.IO5, "A"), (OperandKind.BIT, "b")], group=7, cycles=2)
_spec("BST", "bit store from register to T", "1111 101d dddd 0bbb",
      [_R(), (OperandKind.BIT, "b")], group=7, flags="T")
_spec("BLD", "bit load from T to register", "1111 100d dddd 0bbb",
      [_R(), (OperandKind.BIT, "b")], group=7)
_spec("BSET", "set SREG bit", "1001 0100 0sss 1000",
      [(OperandKind.SREG_BIT, "s")], group=7, flags="HSVNZCTI")
_spec("BCLR", "clear SREG bit", "1001 0100 1sss 1000",
      [(OperandKind.SREG_BIT, "s")], group=7, flags="HSVNZCTI")

# --------------------------------------------------------------------------
# Group 8: program-memory loads (6 classes).
# --------------------------------------------------------------------------
_spec("LPM_R0", "load program memory into r0", "1001 0101 1100 1000",
      syntax=(), group=8, cycles=3, mnemonic="lpm")
_spec("LPM_Z", "load program memory (Rd, Z)", "1001 000d dddd 0100",
      [_R()], syntax=("%0", "Z"), group=8, cycles=3, mnemonic="lpm")
_spec("LPM_Z+", "load program memory (Rd, Z+)", "1001 000d dddd 0101",
      [_R()], syntax=("%0", "Z+"), group=8, cycles=3, mnemonic="lpm")
_spec("ELPM_R0", "extended load program memory into r0",
      "1001 0101 1101 1000", syntax=(), group=8, cycles=3, mnemonic="elpm")
_spec("ELPM_Z", "extended load program memory (Rd, Z)",
      "1001 000d dddd 0110", [_R()], syntax=("%0", "Z"), group=8, cycles=3,
      mnemonic="elpm")
_spec("ELPM_Z+", "extended load program memory (Rd, Z+)",
      "1001 000d dddd 0111", [_R()], syntax=("%0", "Z+"), group=8, cycles=3,
      mnemonic="elpm")

# --------------------------------------------------------------------------
# Residual instructions (not profiled by the paper's disassembler).
# --------------------------------------------------------------------------
_spec("NOP", "no operation", "0000 0000 0000 0000")
_spec("MUL", "multiply unsigned", "1001 11rd dddd rrrr", [_R(), _R("r")],
      cycles=2, flags="ZC")
_spec("MULS", "multiply signed", "0000 0010 dddd rrrr",
      [_RH(), _RH("r")], cycles=2, flags="ZC")
_spec("MULSU", "multiply signed with unsigned", "0000 0011 0ddd 0rrr",
      [(OperandKind.REG_MUL, "d"), (OperandKind.REG_MUL, "r")],
      cycles=2, flags="ZC")
_spec("FMUL", "fractional multiply unsigned", "0000 0011 0ddd 1rrr",
      [(OperandKind.REG_MUL, "d"), (OperandKind.REG_MUL, "r")],
      cycles=2, flags="ZC")
_spec("FMULS", "fractional multiply signed", "0000 0011 1ddd 0rrr",
      [(OperandKind.REG_MUL, "d"), (OperandKind.REG_MUL, "r")],
      cycles=2, flags="ZC")
_spec("FMULSU", "fractional multiply signed/unsigned", "0000 0011 1ddd 1rrr",
      [(OperandKind.REG_MUL, "d"), (OperandKind.REG_MUL, "r")],
      cycles=2, flags="ZC")
_spec("RCALL", "relative call", "1101 kkkk kkkk kkkk",
      [(OperandKind.REL12, "k")], cycles=3)
_spec("CALL", "absolute call", ("1001 010k kkkk 111k", "kkkk kkkk kkkk kkkk"),
      [(OperandKind.ABS22, "k")], cycles=4)
_spec("ICALL", "indirect call via Z", "1001 0101 0000 1001", cycles=3)
_spec("EICALL", "extended indirect call", "1001 0101 0001 1001", cycles=4)
_spec("IJMP", "indirect jump via Z", "1001 0100 0000 1001", cycles=2)
_spec("EIJMP", "extended indirect jump", "1001 0100 0001 1001", cycles=2)
_spec("RET", "return from subroutine", "1001 0101 0000 1000", cycles=4)
_spec("RETI", "return from interrupt", "1001 0101 0001 1000", cycles=4,
      flags="I")
_spec("IN", "read from I/O space", "1011 0AAd dddd AAAA",
      [_R(), (OperandKind.IO6, "A")])
_spec("OUT", "write to I/O space", "1011 1AAr rrrr AAAA",
      [(OperandKind.IO6, "A"), _R("r")], syntax=("%0", "%1"))
_spec("PUSH", "push register on stack", "1001 001d dddd 1111", [_R()],
      cycles=2)
_spec("POP", "pop register from stack", "1001 000d dddd 1111", [_R()],
      cycles=2)
_spec("SLEEP", "enter sleep mode", "1001 0101 1000 1000")
_spec("WDR", "watchdog reset", "1001 0101 1010 1000")
_spec("BREAK", "on-chip debug break", "1001 0101 1001 1000")
_spec("SPM", "store program memory", "1001 0101 1110 1000", cycles=4)


#: key -> spec for every instruction class.
REGISTRY: Mapping[str, InstructionSpec] = MappingProxyType(
    {spec.key: spec for spec in _SPECS}
)
if len(REGISTRY) != len(_SPECS):  # pragma: no cover - table sanity
    raise RuntimeError("duplicate instruction keys in spec table")

#: mnemonic -> list of specs sharing it (e.g. the nine ``ld`` variants).
MNEMONIC_INDEX: Mapping[str, Tuple[InstructionSpec, ...]] = MappingProxyType(
    {
        mnemonic: tuple(s for s in _SPECS if s.mnemonic == mnemonic)
        for mnemonic in sorted({s.mnemonic for s in _SPECS})
    }
)

#: Canonical (non-alias) specs ordered most-specific-first for decoding.
DECODE_ORDER: Tuple[InstructionSpec, ...] = tuple(
    sorted(
        (s for s in _SPECS if not s.is_alias),
        key=lambda s: (-s.compiled.fixed_bit_count, s.key),
    )
)


def spec_for(key: str) -> InstructionSpec:
    """Look up a spec by class key, with a helpful error message."""
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown instruction class {key!r}; see repro.isa.REGISTRY"
        ) from None
