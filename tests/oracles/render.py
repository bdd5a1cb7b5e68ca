"""Power-model oracle: the event-at-a-time renderer.

Each cycle's waveform is accumulated term by term from the model's
envelope banks, exactly as the physical story reads (clock feedthrough,
fetch/decode of the next instruction, execute activity of this one).
:meth:`repro.power.model.PowerModel.render_events` sums the same terms
as one coefficient matmul against a basis; the two may differ only in
floating-point summation order.
"""

import numpy as np

from repro.power.model import _BIT_SEMANTICS, _PORT_KINDS, _SKIP_SEMANTICS
from repro.sim.cpu import canonicalize


def _register_operands(instruction) -> tuple:
    """Register addresses in operand order (port A first, port B second)."""
    return tuple(
        value
        for operand, value in zip(instruction.spec.operands, instruction.values)
        if operand.kind in _PORT_KINDS
    )


def _popcount(value: int) -> int:
    return bin(value & 0xFFFFFFFF).count("1")


def _fetch_activity(model, words, prev_words) -> np.ndarray:
    """Fetch + decode activity for the instruction entering the pipe."""
    out = np.zeros(model._spc)
    if not words:
        return out
    cfg = model.config
    word = words[0]
    out += cfg.flash_hw_scale * _popcount(word) * model._env_fetch_hw
    if prev_words:
        transitions = _popcount(word ^ prev_words[-1])
        out += cfg.flash_hd_scale * transitions * model._env_fetch_hd
    for b in range(16):
        if (word >> b) & 1:
            out += model._decode_bank[b]
    return out


def _port_activity(model, port: str, reg: int) -> np.ndarray:
    row, col = reg % 8, reg // 8
    out = model._port_row_banks[port][row] + model._port_col_banks[port][col]
    return out + _popcount(reg) * model._port_hw_env[port]


def _execute_activity(model, event) -> np.ndarray:
    cfg = model.config
    components = model._components
    out = np.zeros(model._spc)
    if event.skipped:
        # Pipeline bubble: flush residue only.
        return out + 0.30 * components["skip"]

    canonical = canonicalize(event.instruction)
    semantics = canonical.spec.semantics
    port_regs = _register_operands(canonical)
    if port_regs:
        out += _port_activity(model, "read_a", port_regs[0])
    if len(port_regs) > 1:
        out += _port_activity(model, "read_b", port_regs[1])
    if event.reads:
        out += components["regfile_read"]
        for read in event.reads[:2]:
            out += (
                cfg.data_hw_scale * _popcount(read.value) * model._env_op_a
            )
    if event.writes:
        out += components["regfile_write"]
        write = event.writes[0]
        out += _port_activity(model, "write", write.reg)
        toggles = _popcount(write.old ^ write.new)
        out += cfg.data_hd_scale * toggles * model._env_result
    if event.alu_result is not None or event.alu_operands:
        out += components["alu"]
        out += model._aluop_signature(semantics)
        envs = (model._env_op_a, model._env_op_b)
        for env, value in zip(envs, event.alu_operands):
            out += cfg.data_hw_scale * _popcount(value) * env
        if event.alu_result is not None:
            result_bits = _popcount(event.alu_result)
            out += cfg.data_hw_scale * result_bits * model._env_result
    for access in event.mem:
        kind_component = {
            "load": "mem_load",
            "store": "mem_store",
            "io": "io",
            "flash": "flash_data",
        }.get(access.kind)
        if kind_component is not None:
            out += components[kind_component]
        address_bits = _popcount(access.address & 0xFF)
        out += cfg.data_hw_scale * address_bits * model._env_mem_addr
        value_bits = _popcount(access.value)
        out += cfg.data_hw_scale * value_bits * model._env_mem_data
    if event.branch_taken is not None:
        if semantics in _SKIP_SEMANTICS:
            out += (1.0 if event.branch_taken else 0.55) * components["skip"]
        else:
            out += (1.0 if event.branch_taken else 0.45) * components["branch"]
    if semantics in _BIT_SEMANTICS:
        out += components["bit_unit"]
    for b in range(8):
        if (event.sreg_toggled >> b) & 1:
            out += model._sreg_bank[b]
    if len(event.opcode_words) > 1:
        # Second word of a 32-bit instruction is fetched while executing.
        word2_bits = _popcount(event.opcode_words[1])
        out += cfg.flash_hw_scale * word2_bits * model._env_word2
    out += model._class_bias(event.instruction.spec.key)
    group = event.instruction.spec.group
    if group is not None:
        out += model._group_bias(group)
    return out


def render_events(model, events) -> np.ndarray:
    """Reference for :meth:`repro.power.model.PowerModel.render_events`."""
    spc = model._spc
    n = len(events)
    trace = np.zeros((n + 2) * spc)
    # Pad cycles carry clock feedthrough only.
    trace[0:spc] += model._clock
    trace[(n + 1) * spc:] += model._clock
    for i, event in enumerate(events):
        cycle = model._clock.copy()
        cycle += _execute_activity(model, event)
        if i + 1 < n:
            cycle += _fetch_activity(
                model, events[i + 1].opcode_words, event.opcode_words
            )
        start = (i + 1) * spc
        trace[start:start + spc] += cycle
    # First pad cycle also fetches instruction 0.
    if n:
        trace[0:spc] += _fetch_activity(model, events[0].opcode_words, ())
    return model.device.gain * trace + model.device.offset
