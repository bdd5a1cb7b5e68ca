"""Simulator step oracle: decode the flash at the PC on every step.

:meth:`repro.sim.cpu.AvrCpu.step` memoizes, per core, what each flash
window decodes to (instruction, size, canonical form, opcode words and
semantics handler).  This oracle decodes, canonicalizes and dispatches
afresh on every step, then builds the same event; the two must emit
equal event lists and leave the core in the same state.
"""

from typing import List, Optional

from repro.isa.disasm import decode_one
from repro.sim.cpu import _EXEC, ProgramEnd, canonicalize
from repro.sim.events import ExecEvent


def cpu_step(cpu) -> ExecEvent:
    """Reference for :meth:`repro.sim.cpu.AvrCpu.step`."""
    if cpu.halted or cpu.state.pc >= len(cpu.flash):
        raise ProgramEnd(f"pc=0x{cpu.state.pc:04X}")
    pc = cpu.state.pc
    instruction, n_words = decode_one(cpu.flash[pc:pc + 2])
    canonical = canonicalize(instruction)
    opcode_words = tuple(cpu.flash[pc:pc + n_words])
    cpu._next_pc = pc + n_words
    sreg_before = cpu.state.sreg

    if cpu._skip_next:
        cpu._skip_next = False
        cpu.state.pc = cpu._next_pc
        cpu.cycle_count += n_words
        return ExecEvent(
            instruction=instruction,
            pc=pc,
            opcode_words=opcode_words,
            cycles=n_words,
            sreg_before=sreg_before,
            sreg_after=sreg_before,
            skipped=True,
            canonical=canonical,
        )

    out = _EXEC[canonical.spec.semantics](cpu, canonical.values)
    cycles = instruction.spec.cycles + out.pop("extra_cycles", 0)
    cpu.state.pc = out.pop("next_pc", cpu._next_pc) & 0xFFFF
    cpu.cycle_count += cycles
    return ExecEvent(
        instruction=instruction,
        pc=pc,
        opcode_words=opcode_words,
        cycles=cycles,
        sreg_before=sreg_before,
        sreg_after=cpu.state.sreg,
        canonical=canonical,
        **out,
    )


def cpu_run(cpu, max_steps: Optional[int] = None) -> List[ExecEvent]:
    """Reference for :meth:`repro.sim.cpu.AvrCpu.run`, one :func:`cpu_step` at a time."""
    events: List[ExecEvent] = []
    while max_steps is None or len(events) < max_steps:
        try:
            events.append(cpu_step(cpu))
        except ProgramEnd:
            break
    return events
