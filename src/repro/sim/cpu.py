"""Functional simulator for the ATmega328P-class AVR core.

The simulator executes real instruction semantics (flags included) so the
synthetic power traces inherit genuine data dependence: operand values,
old register contents, memory addresses and taken branches all come from
actual execution, not from random placeholders.

The core has the AVR's 2-stage pipeline.  :meth:`AvrCpu.step` returns one
:class:`~repro.sim.events.ExecEvent` per *architectural* instruction;
:class:`~repro.sim.pipeline.PipelineTrace` pairs each execute-stage event
with the following fetch for the power model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..isa import operands as op
from ..isa.assembler import Instruction, assemble
from ..isa.disasm import decode_one
from ..isa.specs import REGISTRY
from .events import ExecEvent, MemAccess, RegRead, RegWrite
from .state import CpuState

__all__ = ["AvrCpu", "ProgramEnd", "canonicalize"]


class ProgramEnd(Exception):
    """Raised when the PC runs past the end of flash (or hits BREAK)."""


def canonicalize(instruction: Instruction) -> Instruction:
    """Rewrite an alias instruction into its canonical form.

    ``TST r5`` becomes ``AND r5, r5``; ``BREQ .+4`` becomes ``BRBS 1, .+4``;
    ``CBR r17, K`` becomes ``ANDI r17, ~K`` — the canonical instruction the
    hardware actually executes.
    """
    spec = instruction.spec
    if not spec.is_alias:
        return instruction
    canon = REGISTRY[spec.alias_of]
    fields = {
        o.field: op.to_field(o.kind, v)
        for o, v in zip(spec.operands, instruction.values)
    }
    fields = spec.encode_fields(fields)
    values = tuple(
        op.from_field(o.kind, fields[o.field]) for o in canon.operands
    )
    return Instruction(canon, values)


# Handler registry: semantics key -> handler(cpu, values) -> event kwargs.
_EXEC: Dict[str, Callable] = {}


def _opcode(key: str):
    def register(fn):
        _EXEC[key] = fn
        return fn

    return register


# ---------------------------------------------------------------------------
# Flag helpers (formulas straight from the AVR instruction set manual).
# ---------------------------------------------------------------------------


def _bit(value: int, index: int) -> int:
    return (value >> index) & 1


#: SREG bits written by 8-bit add/subtract (H, S, V, N, Z, C) and by the
#: logic instructions (S, V, N, Z); I and T are never touched.
_ARITH_FLAGS = 0x3F
_LOGIC_FLAGS = 0x1E


def _add8(state: CpuState, rd: int, rr: int, carry: int) -> int:
    total = rd + rr + carry
    res = total & 0xFF
    n = res >> 7
    v = (~(rd ^ rr) & (rd ^ res) & 0x80) >> 7
    state.write_flags(
        _ARITH_FLAGS,
        (total >> 8 & 1)  # C
        | (1 if res == 0 else 0) << 1  # Z
        | n << 2
        | v << 3
        | (n ^ v) << 4  # S
        | (((rd & 0xF) + (rr & 0xF) + carry) >> 4 & 1) << 5,  # H
    )
    return res


def _sub8(state: CpuState, rd: int, rr: int, carry: int, keep_z: bool) -> int:
    total = rd - rr - carry
    res = total & 0xFF
    z = 1 if res == 0 else 0
    if keep_z:  # SBC/CPC: Z can be cleared but never set
        z &= state.sreg >> 1
    n = res >> 7
    v = ((rd ^ rr) & (rd ^ res) & 0x80) >> 7
    state.write_flags(
        _ARITH_FLAGS,
        (1 if rd < rr + carry else 0)  # C
        | z << 1
        | n << 2
        | v << 3
        | (n ^ v) << 4  # S
        | (1 if (rd & 0xF) < (rr & 0xF) + carry else 0) << 5,  # H
    )
    return res


def _logic_flags(state: CpuState, res: int) -> None:
    n = res >> 7
    # V cleared, S = N ^ V = N.
    state.write_flags(
        _LOGIC_FLAGS, (1 if res == 0 else 0) << 1 | n << 2 | n << 4
    )


# ---------------------------------------------------------------------------
# Two-register ALU instructions.
# ---------------------------------------------------------------------------


def _alu_rr(cpu: "AvrCpu", d: int, r: int, result: int, write: bool) -> dict:
    state = cpu.state
    rd, rr = cpu._rd_old, cpu._rr_old
    writes: Tuple[RegWrite, ...] = ()
    if write:
        writes = (RegWrite(d, rd, result),)
        state.set_reg(d, result)
    return {
        "reads": (RegRead(d, rd), RegRead(r, rr)),
        "writes": writes,
        "alu_operands": (rd, rr),
        "alu_result": result,
    }


def _prep_rr(cpu: "AvrCpu", d: int, r: int) -> Tuple[int, int]:
    cpu._rd_old = cpu.state.reg(d)
    cpu._rr_old = cpu.state.reg(r)
    return cpu._rd_old, cpu._rr_old


@_opcode("ADD")
def _exec_add(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _add8(cpu.state, rd, rr, 0), write=True)


@_opcode("ADC")
def _exec_adc(cpu, values):
    d, r = values
    carry = cpu.state.flag("C")
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _add8(cpu.state, rd, rr, carry), write=True)


@_opcode("SUB")
def _exec_sub(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _sub8(cpu.state, rd, rr, 0, False), write=True)


@_opcode("SBC")
def _exec_sbc(cpu, values):
    d, r = values
    carry = cpu.state.flag("C")
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _sub8(cpu.state, rd, rr, carry, True), write=True)


@_opcode("AND")
def _exec_and(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    res = rd & rr
    _logic_flags(cpu.state, res)
    return _alu_rr(cpu, d, r, res, write=True)


@_opcode("OR")
def _exec_or(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    res = rd | rr
    _logic_flags(cpu.state, res)
    return _alu_rr(cpu, d, r, res, write=True)


@_opcode("EOR")
def _exec_eor(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    res = rd ^ rr
    _logic_flags(cpu.state, res)
    return _alu_rr(cpu, d, r, res, write=True)


@_opcode("CP")
def _exec_cp(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _sub8(cpu.state, rd, rr, 0, False), write=False)


@_opcode("CPC")
def _exec_cpc(cpu, values):
    d, r = values
    carry = cpu.state.flag("C")
    rd, rr = _prep_rr(cpu, d, r)
    return _alu_rr(cpu, d, r, _sub8(cpu.state, rd, rr, carry, True), write=False)


@_opcode("CPSE")
def _exec_cpse(cpu, values):
    d, r = values
    rd, rr = _prep_rr(cpu, d, r)
    taken = rd == rr
    if taken:
        cpu._skip_next = True
    out = _alu_rr(cpu, d, r, (rd - rr) & 0xFF, write=False)
    out["branch_taken"] = taken
    return out


@_opcode("MOV")
def _exec_mov(cpu, values):
    d, r = values
    state = cpu.state
    old, value = state.reg(d), state.reg(r)
    state.set_reg(d, value)
    return {
        "reads": (RegRead(r, value),),
        "writes": (RegWrite(d, old, value),),
    }


@_opcode("MOVW")
def _exec_movw(cpu, values):
    d, r = values
    state = cpu.state
    reads = (RegRead(r, state.reg(r)), RegRead(r + 1, state.reg(r + 1)))
    writes = (
        RegWrite(d, state.reg(d), state.reg(r)),
        RegWrite(d + 1, state.reg(d + 1), state.reg(r + 1)),
    )
    state.set_reg(d, state.reg(r))
    state.set_reg(d + 1, state.reg(r + 1))
    return {"reads": reads, "writes": writes}


# ---------------------------------------------------------------------------
# Register-immediate instructions.
# ---------------------------------------------------------------------------


def _alu_imm(cpu, d: int, imm: int, result: int, write: bool = True) -> dict:
    rd = cpu._rd_old
    writes: Tuple[RegWrite, ...] = ()
    if write:
        writes = (RegWrite(d, rd, result),)
        cpu.state.set_reg(d, result)
    return {
        "reads": (RegRead(d, rd),),
        "writes": writes,
        "alu_operands": (rd, imm),
        "alu_result": result,
    }


@_opcode("SUBI")
def _exec_subi(cpu, values):
    d, k = values
    cpu._rd_old = cpu.state.reg(d)
    return _alu_imm(cpu, d, k, _sub8(cpu.state, cpu._rd_old, k, 0, False))


@_opcode("SBCI")
def _exec_sbci(cpu, values):
    d, k = values
    carry = cpu.state.flag("C")
    cpu._rd_old = cpu.state.reg(d)
    return _alu_imm(cpu, d, k, _sub8(cpu.state, cpu._rd_old, k, carry, True))


@_opcode("ANDI")
def _exec_andi(cpu, values):
    d, k = values
    cpu._rd_old = cpu.state.reg(d)
    res = cpu._rd_old & k
    _logic_flags(cpu.state, res)
    return _alu_imm(cpu, d, k, res)


@_opcode("ORI")
def _exec_ori(cpu, values):
    d, k = values
    cpu._rd_old = cpu.state.reg(d)
    res = cpu._rd_old | k
    _logic_flags(cpu.state, res)
    return _alu_imm(cpu, d, k, res)


@_opcode("CPI")
def _exec_cpi(cpu, values):
    d, k = values
    cpu._rd_old = cpu.state.reg(d)
    return _alu_imm(cpu, d, k, _sub8(cpu.state, cpu._rd_old, k, 0, False),
                    write=False)


@_opcode("LDI")
def _exec_ldi(cpu, values):
    d, k = values
    old = cpu.state.reg(d)
    cpu.state.set_reg(d, k)
    return {"writes": (RegWrite(d, old, k),), "alu_operands": (k,)}


def _word_flags(state: CpuState, rdh_old: int, res16: int, add: bool) -> None:
    r15 = res16 >> 15 & 1
    rdh7 = rdh_old >> 7 & 1
    if add:
        v = (~rdh7 & r15) & 1
        c = (~r15 & rdh7) & 1
    else:
        v = (rdh7 & ~r15) & 1
        c = (r15 & ~rdh7) & 1
    state.set_flags(N=r15, V=v, C=c, Z=1 if res16 == 0 else 0)
    state.set_flag("S", state.flag("N") ^ state.flag("V"))


@_opcode("ADIW")
def _exec_adiw(cpu, values):
    d, k = values
    state = cpu.state
    old = state.reg_pair(d)
    res = (old + k) & 0xFFFF
    _word_flags(state, old >> 8, res, add=True)
    reads = (RegRead(d, old & 0xFF), RegRead(d + 1, old >> 8))
    writes = (
        RegWrite(d, old & 0xFF, res & 0xFF),
        RegWrite(d + 1, old >> 8, res >> 8),
    )
    state.set_reg_pair(d, res)
    return {"reads": reads, "writes": writes, "alu_operands": (old, k),
            "alu_result": res}


@_opcode("SBIW")
def _exec_sbiw(cpu, values):
    d, k = values
    state = cpu.state
    old = state.reg_pair(d)
    res = (old - k) & 0xFFFF
    _word_flags(state, old >> 8, res, add=False)
    reads = (RegRead(d, old & 0xFF), RegRead(d + 1, old >> 8))
    writes = (
        RegWrite(d, old & 0xFF, res & 0xFF),
        RegWrite(d + 1, old >> 8, res >> 8),
    )
    state.set_reg_pair(d, res)
    return {"reads": reads, "writes": writes, "alu_operands": (old, k),
            "alu_result": res}


# ---------------------------------------------------------------------------
# Single-register instructions.
# ---------------------------------------------------------------------------


def _alu_single(cpu, d: int, result: int) -> dict:
    rd = cpu._rd_old
    cpu.state.set_reg(d, result)
    return {
        "reads": (RegRead(d, rd),),
        "writes": (RegWrite(d, rd, result),),
        "alu_operands": (rd,),
        "alu_result": result,
    }


@_opcode("COM")
def _exec_com(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (~cpu._rd_old) & 0xFF
    state.set_flags(C=1, V=0, N=res >> 7, Z=1 if res == 0 else 0)
    state.set_flag("S", state.flag("N"))
    return _alu_single(cpu, d, res)


@_opcode("NEG")
def _exec_neg(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (-cpu._rd_old) & 0xFF
    state.set_flags(
        H=_bit(res, 3) | _bit(cpu._rd_old, 3),
        C=1 if res != 0 else 0,
        V=1 if res == 0x80 else 0,
        N=res >> 7,
        Z=1 if res == 0 else 0,
    )
    state.set_flag("S", state.flag("N") ^ state.flag("V"))
    return _alu_single(cpu, d, res)


@_opcode("INC")
def _exec_inc(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (cpu._rd_old + 1) & 0xFF
    state.set_flags(V=1 if cpu._rd_old == 0x7F else 0, N=res >> 7,
                    Z=1 if res == 0 else 0)
    state.set_flag("S", state.flag("N") ^ state.flag("V"))
    return _alu_single(cpu, d, res)


@_opcode("DEC")
def _exec_dec(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (cpu._rd_old - 1) & 0xFF
    state.set_flags(V=1 if cpu._rd_old == 0x80 else 0, N=res >> 7,
                    Z=1 if res == 0 else 0)
    state.set_flag("S", state.flag("N") ^ state.flag("V"))
    return _alu_single(cpu, d, res)


@_opcode("LSR")
def _exec_lsr(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = cpu._rd_old >> 1
    c = cpu._rd_old & 1
    state.set_flags(C=c, N=0, V=c, S=c, Z=1 if res == 0 else 0)
    return _alu_single(cpu, d, res)


@_opcode("ROR")
def _exec_ror(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (state.flag("C") << 7) | (cpu._rd_old >> 1)
    c = cpu._rd_old & 1
    n = res >> 7
    state.set_flags(C=c, N=n, V=n ^ c, S=n ^ (n ^ c), Z=1 if res == 0 else 0)
    return _alu_single(cpu, d, res)


@_opcode("ASR")
def _exec_asr(cpu, values):
    (d,) = values
    state = cpu.state
    cpu._rd_old = state.reg(d)
    res = (cpu._rd_old >> 1) | (cpu._rd_old & 0x80)
    c = cpu._rd_old & 1
    n = res >> 7
    state.set_flags(C=c, N=n, V=n ^ c, S=n ^ (n ^ c), Z=1 if res == 0 else 0)
    return _alu_single(cpu, d, res)


@_opcode("SWAP")
def _exec_swap(cpu, values):
    (d,) = values
    cpu._rd_old = cpu.state.reg(d)
    res = ((cpu._rd_old << 4) | (cpu._rd_old >> 4)) & 0xFF
    return _alu_single(cpu, d, res)


# ---------------------------------------------------------------------------
# Multiplication.
# ---------------------------------------------------------------------------


def _mul_common(cpu, d, r, rd_signed, rr_signed, fractional=False):
    state = cpu.state
    rd, rr = state.reg(d), state.reg(r)
    a = rd - 256 if rd_signed and rd > 127 else rd
    b = rr - 256 if rr_signed and rr > 127 else rr
    product = (a * b) & 0xFFFF
    if fractional:
        carry = product >> 15 & 1
        product = (product << 1) & 0xFFFF
    else:
        carry = product >> 15 & 1
    state.set_flags(C=carry, Z=1 if product == 0 else 0)
    writes = (
        RegWrite(0, state.reg(0), product & 0xFF),
        RegWrite(1, state.reg(1), product >> 8),
    )
    state.set_reg(0, product & 0xFF)
    state.set_reg(1, product >> 8)
    return {
        "reads": (RegRead(d, rd), RegRead(r, rr)),
        "writes": writes,
        "alu_operands": (rd, rr),
        "alu_result": product,
    }


@_opcode("MUL")
def _exec_mul(cpu, values):
    return _mul_common(cpu, values[0], values[1], False, False)


@_opcode("MULS")
def _exec_muls(cpu, values):
    return _mul_common(cpu, values[0], values[1], True, True)


@_opcode("MULSU")
def _exec_mulsu(cpu, values):
    return _mul_common(cpu, values[0], values[1], True, False)


@_opcode("FMUL")
def _exec_fmul(cpu, values):
    return _mul_common(cpu, values[0], values[1], False, False, fractional=True)


@_opcode("FMULS")
def _exec_fmuls(cpu, values):
    return _mul_common(cpu, values[0], values[1], True, True, fractional=True)


@_opcode("FMULSU")
def _exec_fmulsu(cpu, values):
    return _mul_common(cpu, values[0], values[1], True, False, fractional=True)


# ---------------------------------------------------------------------------
# Jumps, calls, branches, skips.
# ---------------------------------------------------------------------------


@_opcode("RJMP")
def _exec_rjmp(cpu, values):
    (k,) = values
    return {"next_pc": cpu._next_pc + k, "branch_taken": True}


@_opcode("JMP")
def _exec_jmp(cpu, values):
    (k,) = values
    return {"next_pc": k, "branch_taken": True}


@_opcode("IJMP")
def _exec_ijmp(cpu, values):
    return {"next_pc": cpu.state.z, "branch_taken": True}


@_opcode("EIJMP")
def _exec_eijmp(cpu, values):
    return {"next_pc": cpu.state.z, "branch_taken": True}


def _push_return(cpu, return_pc: int):
    cpu.state.push_byte(return_pc & 0xFF)
    cpu.state.push_byte((return_pc >> 8) & 0xFF)


def _pop_return(cpu) -> int:
    high = cpu.state.pop_byte()
    low = cpu.state.pop_byte()
    return (high << 8) | low


@_opcode("RCALL")
def _exec_rcall(cpu, values):
    (k,) = values
    _push_return(cpu, cpu._next_pc)
    return {"next_pc": cpu._next_pc + k, "branch_taken": True,
            "mem": (MemAccess("store", cpu.state.sp + 2, cpu._next_pc & 0xFF),)}


@_opcode("CALL")
def _exec_call(cpu, values):
    (k,) = values
    _push_return(cpu, cpu._next_pc)
    return {"next_pc": k, "branch_taken": True,
            "mem": (MemAccess("store", cpu.state.sp + 2, cpu._next_pc & 0xFF),)}


@_opcode("ICALL")
def _exec_icall(cpu, values):
    _push_return(cpu, cpu._next_pc)
    return {"next_pc": cpu.state.z, "branch_taken": True}


@_opcode("EICALL")
def _exec_eicall(cpu, values):
    _push_return(cpu, cpu._next_pc)
    return {"next_pc": cpu.state.z, "branch_taken": True}


@_opcode("RET")
def _exec_ret(cpu, values):
    return {"next_pc": _pop_return(cpu), "branch_taken": True}


@_opcode("RETI")
def _exec_reti(cpu, values):
    cpu.state.set_flag("I", 1)
    return {"next_pc": _pop_return(cpu), "branch_taken": True}


@_opcode("BRBS")
def _exec_brbs(cpu, values):
    s, k = values
    taken = bool((cpu.state.sreg >> s) & 1)
    out = {"branch_taken": taken}
    if taken:
        out["next_pc"] = cpu._next_pc + k
        out["extra_cycles"] = 1
    return out


@_opcode("BRBC")
def _exec_brbc(cpu, values):
    s, k = values
    taken = not ((cpu.state.sreg >> s) & 1)
    out = {"branch_taken": taken}
    if taken:
        out["next_pc"] = cpu._next_pc + k
        out["extra_cycles"] = 1
    return out


@_opcode("SBRC")
def _exec_sbrc(cpu, values):
    r, b = values
    value = cpu.state.reg(r)
    taken = not _bit(value, b)
    if taken:
        cpu._skip_next = True
    return {"reads": (RegRead(r, value),), "branch_taken": taken}


@_opcode("SBRS")
def _exec_sbrs(cpu, values):
    r, b = values
    value = cpu.state.reg(r)
    taken = bool(_bit(value, b))
    if taken:
        cpu._skip_next = True
    return {"reads": (RegRead(r, value),), "branch_taken": taken}


@_opcode("SBIC")
def _exec_sbic(cpu, values):
    a, b = values
    value = cpu.state.io_read(a)
    taken = not _bit(value, b)
    if taken:
        cpu._skip_next = True
    return {"mem": (MemAccess("io", a, value),), "branch_taken": taken}


@_opcode("SBIS")
def _exec_sbis(cpu, values):
    a, b = values
    value = cpu.state.io_read(a)
    taken = bool(_bit(value, b))
    if taken:
        cpu._skip_next = True
    return {"mem": (MemAccess("io", a, value),), "branch_taken": taken}


# ---------------------------------------------------------------------------
# SREG / bit instructions.
# ---------------------------------------------------------------------------


@_opcode("BSET")
def _exec_bset(cpu, values):
    (s,) = values
    cpu.state.sreg |= 1 << s
    return {}


@_opcode("BCLR")
def _exec_bclr(cpu, values):
    (s,) = values
    cpu.state.sreg &= ~(1 << s) & 0xFF
    return {}


@_opcode("BST")
def _exec_bst(cpu, values):
    d, b = values
    value = cpu.state.reg(d)
    cpu.state.set_flag("T", _bit(value, b))
    return {"reads": (RegRead(d, value),)}


@_opcode("BLD")
def _exec_bld(cpu, values):
    d, b = values
    old = cpu.state.reg(d)
    if cpu.state.flag("T"):
        new = old | (1 << b)
    else:
        new = old & ~(1 << b) & 0xFF
    cpu.state.set_reg(d, new)
    return {"writes": (RegWrite(d, old, new),)}


@_opcode("SBI")
def _exec_sbi(cpu, values):
    a, b = values
    old = cpu.state.io_read(a)
    new = old | (1 << b)
    cpu.state.io_write(a, new)
    return {"mem": (MemAccess("io", a, new),)}


@_opcode("CBI")
def _exec_cbi(cpu, values):
    a, b = values
    old = cpu.state.io_read(a)
    new = old & ~(1 << b) & 0xFF
    cpu.state.io_write(a, new)
    return {"mem": (MemAccess("io", a, new),)}


@_opcode("IN")
def _exec_in(cpu, values):
    d, a = values
    value = cpu.state.io_read(a)
    old = cpu.state.reg(d)
    cpu.state.set_reg(d, value)
    return {"writes": (RegWrite(d, old, value),),
            "mem": (MemAccess("io", a, value),)}


@_opcode("OUT")
def _exec_out(cpu, values):
    a, r = values
    value = cpu.state.reg(r)
    cpu.state.io_write(a, value)
    return {"reads": (RegRead(r, value),),
            "mem": (MemAccess("io", a, value),)}


# ---------------------------------------------------------------------------
# Loads and stores.
# ---------------------------------------------------------------------------

_POINTERS = {"X": 26, "Y": 28, "Z": 30}


def _pointer_address(cpu, name: str, mode: str) -> int:
    low = _POINTERS[name]
    address = cpu.state.reg_pair(low)
    if mode == "-":
        address = (address - 1) & 0xFFFF
        cpu.state.set_reg_pair(low, address)
    return address


def _pointer_post(cpu, name: str, mode: str, address: int) -> None:
    if mode == "+":
        cpu.state.set_reg_pair(_POINTERS[name], (address + 1) & 0xFFFF)


def _do_load(cpu, d: int, address: int) -> dict:
    value = cpu.state.load(address)
    old = cpu.state.reg(d)
    cpu.state.set_reg(d, value)
    return {"writes": (RegWrite(d, old, value),),
            "mem": (MemAccess("load", address, value),)}


def _do_store(cpu, r: int, address: int) -> dict:
    value = cpu.state.reg(r)
    cpu.state.store(address, value)
    return {"reads": (RegRead(r, value),),
            "mem": (MemAccess("store", address, value),)}


def _make_ld(name: str, mode: str):
    def handler(cpu, values):
        (d,) = values
        address = _pointer_address(cpu, name, "-" if mode == "-" else "")
        out = _do_load(cpu, d, address)
        _pointer_post(cpu, name, "+" if mode == "+" else "", address)
        return out

    return handler


def _make_st(name: str, mode: str):
    def handler(cpu, values):
        (r,) = values
        address = _pointer_address(cpu, name, "-" if mode == "-" else "")
        out = _do_store(cpu, r, address)
        _pointer_post(cpu, name, "+" if mode == "+" else "", address)
        return out

    return handler


for _name in ("X", "Y", "Z"):
    _EXEC[f"LD_{_name}"] = _make_ld(_name, "")
    _EXEC[f"LD_{_name}+"] = _make_ld(_name, "+")
    _EXEC[f"LD_-{_name}"] = _make_ld(_name, "-")
    _EXEC[f"ST_{_name}"] = _make_st(_name, "")
    _EXEC[f"ST_{_name}+"] = _make_st(_name, "+")
    _EXEC[f"ST_-{_name}"] = _make_st(_name, "-")


@_opcode("LDD_Y")
def _exec_ldd_y(cpu, values):
    d, q = values
    return _do_load(cpu, d, (cpu.state.y + q) & 0xFFFF)


@_opcode("LDD_Z")
def _exec_ldd_z(cpu, values):
    d, q = values
    return _do_load(cpu, d, (cpu.state.z + q) & 0xFFFF)


@_opcode("STD_Y")
def _exec_std_y(cpu, values):
    q, r = values
    return _do_store(cpu, r, (cpu.state.y + q) & 0xFFFF)


@_opcode("STD_Z")
def _exec_std_z(cpu, values):
    q, r = values
    return _do_store(cpu, r, (cpu.state.z + q) & 0xFFFF)


@_opcode("LDS")
def _exec_lds(cpu, values):
    d, k = values
    return _do_load(cpu, d, k)


@_opcode("STS")
def _exec_sts(cpu, values):
    k, r = values
    return _do_store(cpu, r, k)


@_opcode("PUSH")
def _exec_push(cpu, values):
    (d,) = values
    value = cpu.state.reg(d)
    address = cpu.state.sp
    cpu.state.push_byte(value)
    return {"reads": (RegRead(d, value),),
            "mem": (MemAccess("store", address, value),)}


@_opcode("POP")
def _exec_pop(cpu, values):
    (d,) = values
    old = cpu.state.reg(d)
    value = cpu.state.pop_byte()
    cpu.state.set_reg(d, value)
    return {"writes": (RegWrite(d, old, value),),
            "mem": (MemAccess("load", cpu.state.sp, value),)}


def _flash_byte(cpu, byte_address: int) -> int:
    word = cpu.flash[(byte_address >> 1) % max(len(cpu.flash), 1)]
    return (word >> 8) if byte_address & 1 else (word & 0xFF)


def _make_lpm(dest_from_values: bool, post_increment: bool):
    def handler(cpu, values):
        d = values[0] if dest_from_values else 0
        z = cpu.state.z
        value = _flash_byte(cpu, z)
        old = cpu.state.reg(d)
        cpu.state.set_reg(d, value)
        if post_increment:
            cpu.state.z = (z + 1) & 0xFFFF
        return {"writes": (RegWrite(d, old, value),),
                "mem": (MemAccess("flash", z, value),)}

    return handler


_EXEC["LPM_R0"] = _make_lpm(False, False)
_EXEC["LPM_Z"] = _make_lpm(True, False)
_EXEC["LPM_Z+"] = _make_lpm(True, True)
_EXEC["ELPM_R0"] = _make_lpm(False, False)
_EXEC["ELPM_Z"] = _make_lpm(True, False)
_EXEC["ELPM_Z+"] = _make_lpm(True, True)


# ---------------------------------------------------------------------------
# Miscellaneous.
# ---------------------------------------------------------------------------


@_opcode("NOP")
def _exec_nop(cpu, values):
    return {}


@_opcode("SLEEP")
def _exec_sleep(cpu, values):
    return {}


@_opcode("WDR")
def _exec_wdr(cpu, values):
    return {}


@_opcode("SPM")
def _exec_spm(cpu, values):
    return {}


@_opcode("BREAK")
def _exec_break(cpu, values):
    cpu.halted = True
    return {}


# ---------------------------------------------------------------------------
# The CPU.
# ---------------------------------------------------------------------------


class AvrCpu:
    """Functional ATmega328P-class core.

    Args:
        program: flash contents — either assembly text, a list of opcode
            words, or a list of :class:`~repro.isa.assembler.Instruction`.
        state: optional pre-initialized architectural state.
    """

    def __init__(self, program, state: Optional[CpuState] = None) -> None:
        self.flash: List[int] = self._to_words(program)
        self.state = state if state is not None else CpuState()
        self.halted = False
        self.cycle_count = 0
        self._skip_next = False
        # Flash window (up to two words) -> (instruction, n_words,
        # canonical, opcode_words, handler).  Scoped to this core: it
        # dies with the capture that built it.
        self._decoded: Dict[Tuple[int, ...], tuple] = {}
        # Scratch used by ALU handlers within one step.
        self._rd_old = 0
        self._rr_old = 0
        self._next_pc = 0

    @staticmethod
    def _to_words(program) -> List[int]:
        if isinstance(program, str):
            words: List[int] = []
            for instruction in assemble(program):
                words.extend(instruction.encode())
            return words
        program = list(program)
        if program and isinstance(program[0], Instruction):
            words = []
            for instruction in program:
                words.extend(instruction.encode())
            return words
        return [int(w) & 0xFFFF for w in program]

    def decode_at(self, pc: int) -> Tuple[Instruction, int]:
        """Decode the instruction at word address ``pc``."""
        return decode_one(self.flash[pc:pc + 2])

    def step(self) -> ExecEvent:
        """Execute one instruction and return its event record.

        What the flash window at the PC decodes to — the instruction, its
        size, canonical form, opcode words and semantics handler — is
        memoized per window on this core, so a loop body or a repeated
        encoding is decoded once.  The memo keys on the words themselves,
        not the PC, and lives only as long as the core.

        Raises:
            ProgramEnd: when the PC has run past the end of flash or the
                core has executed ``BREAK``.
        """
        state = self.state
        pc = state.pc
        flash = self.flash
        if self.halted or pc >= len(flash):
            raise ProgramEnd(f"pc=0x{pc:04X}")
        window = tuple(flash[pc:pc + 2])
        decoded = self._decoded.get(window)
        if decoded is None:
            decoded = self._decoded[window] = self._decode_window(window)
        instruction, n_words, canonical, opcode_words, handler = decoded
        self._next_pc = pc + n_words
        sreg_before = state.sreg

        if self._skip_next:
            self._skip_next = False
            state.pc = self._next_pc
            cycles = n_words  # skipping a 2-word instruction costs 2 cycles
            self.cycle_count += cycles
            return ExecEvent(
                instruction=instruction,
                pc=pc,
                opcode_words=opcode_words,
                cycles=cycles,
                sreg_before=sreg_before,
                sreg_after=sreg_before,
                skipped=True,
                canonical=canonical,
            )

        out = handler(self, canonical.values)
        cycles = instruction.spec.cycles + out.pop("extra_cycles", 0)
        next_pc = out.pop("next_pc", self._next_pc)
        state.pc = next_pc & 0xFFFF
        self.cycle_count += cycles
        return ExecEvent(
            instruction=instruction,
            pc=pc,
            opcode_words=opcode_words,
            cycles=cycles,
            sreg_before=sreg_before,
            sreg_after=state.sreg,
            canonical=canonical,
            **out,
        )

    @staticmethod
    def _decode_window(window: Tuple[int, ...]) -> tuple:
        """Decode one flash window into the memo entry :meth:`step` uses."""
        instruction, n_words = decode_one(window)
        canonical = canonicalize(instruction)
        handler = _EXEC.get(canonical.spec.semantics)
        if handler is None:  # pragma: no cover - table completeness guard
            raise NotImplementedError(f"no semantics for {canonical.spec.key}")
        return instruction, n_words, canonical, window[:n_words], handler

    def run(self, max_steps: Optional[int] = None) -> List[ExecEvent]:
        """Run to the end of flash (or ``max_steps``), collecting events."""
        events: List[ExecEvent] = []
        while max_steps is None or len(events) < max_steps:
            try:
                events.append(self.step())
            except ProgramEnd:
                break
        return events
