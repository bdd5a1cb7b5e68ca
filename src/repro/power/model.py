"""Microarchitectural power model for the simulated AVR core.

The model converts the event stream of :class:`repro.sim.AvrCpu` into an
"analog" current waveform, one pipeline slot per clock cycle:

* cycle ``i`` contains the *execute-stage* activity of instruction ``i``
  plus the *fetch* activity of instruction ``i+1`` (2-stage pipeline);
* the profiling window of instruction ``i`` is its fetch/decode cycle
  followed by its execute cycle — 315 samples with default geometry,
  matching the paper's §3.

Every term is computed from what the core actually did.  Terms are keyed
on **canonical** instruction semantics and on real encodings, never on the
textual alias class — ``TST r5`` is electrically identical to
``AND r5, r5``, exactly as on silicon.

The model is deterministic given (config seed, device profile): per-bit
weight vectors, ALU sub-unit signatures and per-class control-path residues
are drawn from seeded RNGs, so a :class:`PowerModel` plays the role of one
physical chip design, and :class:`~repro.power.device.DeviceProfile` adds
per-chip process variation on top.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.specs import REGISTRY
from ..sim.events import ExecEvent
from .config import DEFAULT_GEOMETRY, PowerModelConfig, TraceGeometry
from .device import DeviceProfile

__all__ = ["PowerModel"]

# Canonical semantics treated as "skip unit" rather than branch unit.
_SKIP_SEMANTICS = frozenset({"CPSE", "SBRC", "SBRS", "SBIC", "SBIS"})
# Canonical semantics exercising the bit-manipulation unit.
_BIT_SEMANTICS = frozenset({"BSET", "BCLR", "BST", "BLD", "SBI", "CBI"})


#: Set bits of every 16-bit value.  Register values, ALU operands and
#: results, addresses and opcode words all fit in 16 bits.
_POPCOUNT16 = (
    np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1, dtype=np.uint8)
    .tobytes()
)


def _popcount(value: int) -> int:
    """Set bits of ``value``'s low 32 bits (two's complement)."""
    if 0 <= value < 0x10000:
        return _POPCOUNT16[value]
    return bin(value & 0xFFFFFFFF).count("1")


# Operand kinds that drive the register-file address decode ports.
from ..isa.operands import OperandKind as _OperandKind

_PORT_KINDS = (
    _OperandKind.REG,
    _OperandKind.REG_HIGH,
    _OperandKind.REG_MUL,
    _OperandKind.REG_PAIR,
    _OperandKind.REG_PAIR_HIGH,
)


#: Canonical class key -> (operand slots driving read ports A and B, skip
#: unit?, bit-manipulation unit?): the execute terms fixed by the ISA.
_CANONICAL_SHAPE: Dict[str, Tuple[Tuple[int, ...], bool, bool]] = {
    spec.key: (
        tuple(
            slot
            for slot, operand in enumerate(spec.operands)
            if operand.kind in _PORT_KINDS
        )[:2],
        spec.semantics in _SKIP_SEMANTICS,
        spec.semantics in _BIT_SEMANTICS,
    )
    for spec in REGISTRY.values()
    if not spec.is_alias
}

#: Memory access kind -> component basis row key.
_MEM_COMPONENTS = {
    "load": "comp|mem_load",
    "store": "comp|mem_store",
    "io": "comp|io",
    "flash": "comp|flash_data",
}


#: Basis-row keys of the fixed execute-stage terms, in the order
#: :meth:`PowerModel._execute_terms` unpacks their resolved rows.
_TERM_KEYS = (
    "comp|skip", "comp|branch", "comp|bit_unit", "comp|regfile_read",
    "comp|regfile_write", "comp|alu", "op_a", "op_b", "result",
    "mem_addr", "mem_data", "word2",
)


class PowerModel:
    """Renders instruction event streams into synthetic power traces.

    Args:
        config: term amplitudes; defaults are calibrated for the paper's
            separability ordering.
        device: per-chip process variation (defaults to a nominal chip).
        geometry: sampling geometry (clock, sample rate, window length).
    """

    def __init__(
        self,
        config: Optional[PowerModelConfig] = None,
        device: Optional[DeviceProfile] = None,
        geometry: TraceGeometry = DEFAULT_GEOMETRY,
    ) -> None:
        self.config = config if config is not None else PowerModelConfig()
        self.device = device if device is not None else DeviceProfile()
        self.geometry = geometry
        self._spc = geometry.samples_per_cycle
        self._aluop_cache: Dict[str, np.ndarray] = {}
        self._class_bias_cache: Dict[str, np.ndarray] = {}
        # Basis rows per ALU semantics / per textual class (+ its group);
        # keys are bounded by the instruction set.
        self._aluop_rows: Dict[str, int] = {}
        self._class_rows: Dict[str, Tuple[Tuple[int, ...], Tuple[float, ...]]] = {}
        self._build_envelopes()

    # -- deterministic weight construction ---------------------------------
    def _rng_for(self, *tokens) -> np.random.Generator:
        text = "|".join(str(t) for t in tokens)
        digest = zlib.crc32(text.encode("utf-8"))
        return np.random.default_rng((self.config.seed << 32) ^ digest)

    def _env(self, center: float, width: float) -> np.ndarray:
        """Gaussian activity envelope over one clock cycle (unit peak)."""
        t = (np.arange(self._spc) + 0.5) / self._spc
        return np.exp(-0.5 * ((t - center) / width) ** 2)

    def _jitter(self, rng_tokens: Tuple, size: int) -> np.ndarray:
        """Per-device multiplicative mismatch on a weight vector."""
        if self.device.weight_jitter <= 0.0:
            return np.ones(size)
        rng = np.random.default_rng(
            (self.device.weight_jitter_seed << 16)
            ^ zlib.crc32("|".join(str(t) for t in rng_tokens).encode())
        )
        return rng.normal(1.0, self.device.weight_jitter, size)

    def _bandpass_noise(self, token: str, sigma_fast: float,
                        sigma_slow: float) -> np.ndarray:
        """Unit-RMS band-limited noise (difference of Gaussian smoothings).

        The band sits *above* the environment-shift passband (supply
        tilt is a low-frequency phenomenon), which is what keeps these
        signatures usable across programs, sessions and devices.
        """
        rng = self._rng_for("bandnoise", token)
        raw = rng.normal(0.0, 1.0, self._spc)

        def smooth(sig):
            half = int(np.ceil(3 * sig))
            support = np.arange(-half, half + 1, dtype=np.float64)
            kernel = np.exp(-0.5 * (support / sig) ** 2)
            return np.convolve(raw, kernel / kernel.sum(), mode="same")

        band = smooth(sigma_fast) - smooth(sigma_slow)
        rms = float(np.sqrt(np.mean(band**2))) or 1.0
        return band / rms

    def _line_transient(self, token: str) -> np.ndarray:
        """Unit-RMS fine-structured switching transient of one wire."""
        return self._bandpass_noise(f"line|{token}", 0.8, 2.2)

    def _build_envelopes(self) -> None:
        cfg = self.config
        spc = self._spc

        # Clock feedthrough: sharp edge at cycle start + midpoint.
        t = (np.arange(spc) + 0.5) / spc
        clock = np.exp(-t / 0.045) + 0.55 * np.exp(-((t - 0.5) % 1.0) / 0.045)
        self._clock = cfg.clock_scale * clock

        # Fetch-stage envelopes.
        self._env_fetch_hw = self._env(0.10, 0.030)
        self._env_fetch_hd = self._env(0.15, 0.028)
        # Decode logic: one envelope per opcode bit, staggered in time with
        # a deterministic per-bit weight (then per-device jitter).
        weights = self._rng_for("decode").uniform(0.5, 1.5, 16)
        weights = weights * self._jitter(("decode",), 16)
        # Decode activity finishes early in the cycle, before the ALU's
        # sub-unit phases — so a *neighbour's* concurrent fetch/decode
        # does not sit on top of the target's execute signature.
        self._decode_bank = np.stack(
            [
                cfg.decode_scale * weights[b]
                * self._env(0.14 + 0.015 * b, 0.026)
                for b in range(16)
            ]
        )

        # Register-file ports: 5 address-decode lines each + HW term.
        self._port_banks: Dict[str, np.ndarray] = {}
        self._port_hw_env: Dict[str, np.ndarray] = {}
        # Register-file address lines: each of the five address bits per
        # port drives a different wire load, so its switching rings at a
        # distinct frequency.  The bits therefore separate along the CWT's
        # *scale* axis even though they coincide in time — the kind of
        # time-frequency structure the paper's feature selection exploits.
        # The register file is an 8-row x 4-column array; each port
        # one-hot activates one row word-line and one column select line.
        # Every line drives a distinct wire network, so its switching
        # transient is a unique fine-structured waveform confined to the
        # port's time slot — registers separate cleanly in the
        # time-frequency plane, and adjacent addresses (different rows)
        # are as distinguishable as distant ones.  The transients'
        # content sits above the environment-shift passband, which is
        # what keeps register recovery CSA-friendly.
        port_layout = {
            # port: (centre phase, region width, relative drive strength)
            "read_a": (0.10, 0.060, 1.0),
            "write": (0.60, 0.060, 1.0),
            # Port B drives the longer operand bus: stronger transients.
            "read_b": (0.83, 0.075, 1.6),
        }
        self._port_row_banks: Dict[str, np.ndarray] = {}
        self._port_col_banks: Dict[str, np.ndarray] = {}
        for port, (center, width, strength) in port_layout.items():
            amp = strength * cfg.regaddr_bit_scale
            mask = self._env(center, width)
            row_w = self._rng_for("regrow", port).uniform(0.7, 1.3, 8)
            row_w = row_w * self._jitter(("regrow", port), 8)
            rows = []
            for line in range(8):
                transient = self._line_transient(f"{port}|row{line}")
                rows.append(amp * row_w[line] * mask * transient)
            self._port_row_banks[port] = np.stack(rows)
            col_w = self._rng_for("regcol", port).uniform(0.7, 1.3, 4)
            col_w = col_w * self._jitter(("regcol", port), 4)
            cols = []
            for line in range(4):
                transient = self._line_transient(f"{port}|col{line}")
                cols.append(0.9 * amp * col_w[line] * mask * transient)
            self._port_col_banks[port] = np.stack(cols)
            self._port_hw_env[port] = strength * cfg.regaddr_hw_scale * self._env(
                center + 0.06, 0.035
            )

        # Microarchitectural component activations.
        shapes = {
            "regfile_read": [(0.15, 0.06, 1.0)],
            "regfile_write": [(0.63, 0.05, 1.0)],
            "alu": [(0.38, 0.055, 1.0), (0.50, 0.045, 0.6)],
            "sreg": [(0.72, 0.035, 1.0)],
            "mem_load": [(0.45, 0.05, 0.7), (0.58, 0.08, 1.0)],
            "mem_store": [(0.48, 0.05, 0.8), (0.66, 0.08, 1.0)],
            "io": [(0.55, 0.06, 1.0)],
            "branch": [(0.70, 0.05, 1.0), (0.82, 0.04, 0.5)],
            "skip": [(0.44, 0.05, 1.0)],
            "bit_unit": [(0.42, 0.04, 1.0)],
            "flash_data": [(0.52, 0.07, 1.0)],
        }
        self._components: Dict[str, np.ndarray] = {}
        for name, bumps in shapes.items():
            waveform = np.zeros(spc)
            for center, width, amp in bumps:
                waveform += amp * self._env(center, width)
            scale = cfg.component_scales[name] * self.device.component_scale(name)
            self._components[name] = scale * waveform

        # Value-dependent envelopes.
        self._env_op_a = self._env(0.33, 0.035)
        self._env_op_b = self._env(0.40, 0.035)
        self._env_result = self._env(0.52, 0.035)
        self._env_mem_addr = self._env(0.47, 0.035)
        self._env_mem_data = self._env(0.60, 0.040)
        self._env_word2 = self._env(0.08, 0.030)
        # SREG: one envelope per flag bit.
        sreg_w = self._rng_for("sreg").uniform(0.6, 1.4, 8)
        self._sreg_bank = np.stack(
            [
                cfg.sreg_scale * sreg_w[b] * self._env(0.70 + 0.012 * b, 0.020)
                for b in range(8)
            ]
        )
        self._build_basis()

    def _build_basis(self) -> None:
        """Register every fixed waveform as a basis row.

        :meth:`render_events` expresses each cycle as a coefficient row
        against this basis; each row is *exactly* one physical term's
        waveform (the ``render_events`` test oracle adds them one by one).
        """
        self._basis_rows: List[np.ndarray] = []
        self._basis_index: Dict[str, int] = {}
        self._basis_matrix: Optional[np.ndarray] = None

        def add(key: str, waveform: np.ndarray) -> None:
            self._basis_index[key] = len(self._basis_rows)
            self._basis_rows.append(np.asarray(waveform, dtype=np.float64))

        for b in range(16):
            add(f"decode{b}", self._decode_bank[b])
        add("fetch_hw", self._env_fetch_hw)
        add("fetch_hd", self._env_fetch_hd)
        for port in self._port_row_banks:
            for line in range(8):
                add(f"{port}|row{line}", self._port_row_banks[port][line])
            for line in range(4):
                add(f"{port}|col{line}", self._port_col_banks[port][line])
            add(f"{port}|hw", self._port_hw_env[port])
        for name, waveform in self._components.items():
            add(f"comp|{name}", waveform)
        add("op_a", self._env_op_a)
        add("op_b", self._env_op_b)
        add("result", self._env_result)
        add("mem_addr", self._env_mem_addr)
        add("mem_data", self._env_mem_data)
        add("word2", self._env_word2)
        for b in range(8):
            add(f"sreg{b}", self._sreg_bank[b])
        self._resolve_term_rows()

    def _resolve_term_rows(self) -> None:
        """Resolve every fixed term's basis row for :meth:`_execute_terms`.

        Per port and register: the (rows, weights) of its address decode.
        The rows of :data:`_TERM_KEYS` and of each memory-access kind.
        Per toggled-SREG mask: one row per set bit, lowest bit first.
        """
        index = self._basis_index
        self._port_terms: Dict[str, List[Tuple[tuple, tuple]]] = {
            port: [
                (
                    (
                        index[f"{port}|row{reg % 8}"],
                        index[f"{port}|col{reg // 8}"],
                        index[f"{port}|hw"],
                    ),
                    (1.0, 1.0, float(_popcount(reg))),
                )
                for reg in range(32)
            ]
            for port in self._port_row_banks
        }
        self._read_port_terms = (
            self._port_terms["read_a"], self._port_terms["read_b"]
        )
        self._term_rows = tuple(index[key] for key in _TERM_KEYS)
        self._mem_rows = {
            kind: index[component] for kind, component in _MEM_COMPONENTS.items()
        }
        sreg_rows = [index[f"sreg{b}"] for b in range(8)]
        self._sreg_terms = tuple(
            (
                tuple(sreg_rows[b] for b in range(8) if (mask >> b) & 1),
                (1.0,) * _popcount(mask),
            )
            for mask in range(256)
        )

    def _basis_row(self, key: str, factory: Callable[[], np.ndarray]) -> int:
        """Index of a (possibly dynamic) basis row, appending on first use."""
        index = self._basis_index.get(key)
        if index is None:
            index = len(self._basis_rows)
            self._basis_index[key] = index
            self._basis_rows.append(np.asarray(factory(), dtype=np.float64))
            self._basis_matrix = None
        return index

    def _aluop_signature(self, semantics: str) -> np.ndarray:
        """Per-operation ALU sub-unit signature (adder vs logic vs shifter)."""
        cached = self._aluop_cache.get(semantics)
        if cached is None:
            rng = self._rng_for("aluop", semantics)
            amplitudes = rng.normal(0.0, 1.0, 6)
            waveform = np.zeros(self._spc)
            for i, amp in enumerate(amplitudes):
                waveform += amp * self._env(0.38 + 0.048 * i, 0.028)
            cached = self.config.aluop_scale * waveform
            self._aluop_cache[semantics] = cached
        return cached

    def _smooth_residue(
        self, token: str, scale: float, kernel_sigma: float = 2.2
    ) -> np.ndarray:
        rng = self._rng_for("residue", token)
        raw = rng.normal(0.0, 1.0, self._spc)
        half = int(np.ceil(3 * kernel_sigma))
        support = np.arange(-half, half + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (support / kernel_sigma) ** 2)
        smooth = np.convolve(raw, kernel / kernel.sum(), mode="same")
        rms = float(np.sqrt(np.mean(smooth**2))) or 1.0
        # Control-path activity concentrates in the decode/ALU phases of
        # the cycle; the early port-A and late write-back/port-B phases
        # are dominated by the register-file address lines.  Confining the
        # residue there keeps register leakage instruction-independent —
        # which is what lets the paper profile registers under randomly
        # selected instructions (§5.3).
        window = self._env(0.48, 0.13)
        return scale * (smooth / rms) * window

    def _class_bias(self, class_key: str) -> np.ndarray:
        """Per-class control-path residue, in two frequency bands.

        The *coarse* band (large amplitude, low frequency) is the most
        discriminative content in a stationary environment — and exactly
        what program-level spectral tilt moves (Fig. 3's trap: the highest
        between-class KL peaks are the least shift-robust).  The *fine*
        band is weaker but lives above the tilt passband, so it is what
        survives the covariate-shift-adapted feature selection.
        """
        cached = self._class_bias_cache.get(class_key)
        if cached is None:
            window = self._env(0.48, 0.13)
            fine = (
                self.config.class_bias_scale
                * self._bandpass_noise(f"class|{class_key}", 0.8, 2.2)
                * window
            )
            coarse = self._smooth_residue(
                f"classlow|{class_key}", self.config.class_energy_scale,
                kernel_sigma=6.5,
            )
            cached = fine + coarse
            self._class_bias_cache[class_key] = cached
        return cached

    def _group_bias(self, group) -> np.ndarray:
        """Decoder/sequencer signature of one Table 2 instruction group."""
        key = f"group|{group}"
        cached = self._class_bias_cache.get(key)
        if cached is None:
            cached = self._smooth_residue(key, self.config.group_bias_scale)
            self._class_bias_cache[key] = cached
        return cached

    # -- per-cycle coefficients ----------------------------------------------
    def _add_fetch_terms(
        self, coeff: np.ndarray, events: Sequence[ExecEvent]
    ) -> None:
        """Fetch + decode terms, vectorised over the instruction stream.

        Cycle ``j`` fetches instruction ``j``: its first word's Hamming
        weight, one decode line per set bit, and (from cycle 1 on) the
        bus transitions from the previous instruction's last word.  No
        execute term touches these rows, so adding them after the
        execute terms leaves every cycle's sums unchanged.
        """
        n = len(events)
        if not n:
            return
        cfg = self.config
        index = self._basis_index
        first = np.array([event.opcode_words[0] for event in events])
        last = np.array([event.opcode_words[-1] for event in events])
        bits = (first[:, None] >> np.arange(16)) & 1
        toggles = ((first[1:] ^ last[:-1])[:, None] >> np.arange(16)) & 1
        coeff[:n, [index[f"decode{b}"] for b in range(16)]] += bits
        coeff[:n, index["fetch_hw"]] += cfg.flash_hw_scale * bits.sum(axis=1)
        coeff[1:n, index["fetch_hd"]] += cfg.flash_hd_scale * toggles.sum(axis=1)

    def _execute_terms(
        self, events: Sequence[ExecEvent]
    ) -> Tuple[List[int], List[float], List[int]]:
        """Every event's execute-stage terms, as ``(rows, weights, ends)``.

        Each ``(row, weight)`` pair is one physical term of a cycle's
        activity, in a fixed order; the ``render_events`` test oracle
        accumulates the same terms one waveform at a time.  ``ends[i]`` is
        the number of terms after event ``i``.  Everything that depends
        only on the instruction class (port basis rows, ALU/class/group
        rows, unit flags) comes from caches whose keys are bounded by the
        ISA; fixed term rows are ints resolved once per model
        (:meth:`_resolve_term_rows`) and bound to locals once per call.
        """
        rows: List[int] = []
        weights: List[float] = []
        ends: List[int] = []
        add_row, add_weight = rows.append, weights.append
        add_rows, add_weights = rows.extend, weights.extend
        cfg = self.config
        data_hw, data_hd, flash_hw = (
            cfg.data_hw_scale, cfg.data_hd_scale, cfg.flash_hw_scale
        )
        (
            skip_row, branch_row, bit_unit_row, regfile_read_row,
            regfile_write_row, alu_row, op_a_row, op_b_row, result_row,
            mem_addr_row, mem_data_row, word2_row,
        ) = self._term_rows
        read_port_terms = self._read_port_terms
        write_port_terms = self._port_terms["write"]
        operand_rows = (op_a_row, op_b_row)
        aluop_rows = self._aluop_rows
        mem_rows = self._mem_rows
        sreg_terms = self._sreg_terms
        class_terms_of = self._class_rows
        for event in events:
            if event.skipped:
                # Pipeline bubble: flush residue only.
                add_row(skip_row)
                add_weight(0.30)
                ends.append(len(rows))
                continue

            canonical = event.canonical
            port_slots, skip_unit, bit_unit = _CANONICAL_SHAPE[canonical.spec.key]
            # Register-file address decode: the AVR register file decodes
            # the opcode's d/r fields on both read ports every cycle,
            # regardless of whether the operation consumes the data — so
            # port activity is keyed on operand *addresses*, not on
            # semantic reads.
            values = canonical.values
            for port_terms, slot in zip(read_port_terms, port_slots):
                port_rows, port_weights = port_terms[values[slot]]
                add_rows(port_rows)
                add_weights(port_weights)
            reads = event.reads
            if reads:
                add_row(regfile_read_row)
                add_weight(1.0)
                for read in reads[:2]:
                    add_row(op_a_row)
                    add_weight(data_hw * _popcount(read.value))
            writes = event.writes
            if writes:
                add_row(regfile_write_row)
                add_weight(1.0)
                write = writes[0]
                port_rows, port_weights = write_port_terms[write.reg]
                add_rows(port_rows)
                add_weights(port_weights)
                add_row(result_row)
                add_weight(data_hd * _popcount(write.old ^ write.new))
            alu_result = event.alu_result
            alu_operands = event.alu_operands
            if alu_result is not None or alu_operands:
                semantics = canonical.spec.semantics
                row = aluop_rows.get(semantics)
                if row is None:
                    row = aluop_rows[semantics] = self._basis_row(
                        f"aluop|{semantics}",
                        lambda: self._aluop_signature(semantics),
                    )
                add_row(alu_row)
                add_weight(1.0)
                add_row(row)
                add_weight(1.0)
                for row, value in zip(operand_rows, alu_operands):
                    add_row(row)
                    add_weight(data_hw * _popcount(value))
                if alu_result is not None:
                    add_row(result_row)
                    add_weight(data_hw * _popcount(alu_result))
            for access in event.mem:
                row = mem_rows.get(access.kind)
                if row is not None:
                    add_row(row)
                    add_weight(1.0)
                add_row(mem_addr_row)
                add_weight(data_hw * _popcount(access.address & 0xFF))
                add_row(mem_data_row)
                add_weight(data_hw * _popcount(access.value))
            taken = event.branch_taken
            if taken is not None:
                if skip_unit:
                    add_row(skip_row)
                    add_weight(1.0 if taken else 0.55)
                else:
                    add_row(branch_row)
                    add_weight(1.0 if taken else 0.45)
            if bit_unit:
                add_row(bit_unit_row)
                add_weight(1.0)
            toggled = event.sreg_before ^ event.sreg_after
            if toggled:
                sreg_rows, sreg_weights = sreg_terms[toggled & 0xFF]
                add_rows(sreg_rows)
                add_weights(sreg_weights)
            opcode_words = event.opcode_words
            if len(opcode_words) > 1:
                # Second word of a 32-bit instruction, fetched while
                # executing.
                add_row(word2_row)
                add_weight(flash_hw * _popcount(opcode_words[1]))
            # Control-path residues keyed on the *textual* class and its
            # Table 2 group, not the canonical encoding.  Physically,
            # ``TST r5`` and ``AND r5, r5`` share one opcode, but the
            # paper's near-perfect separation of groups containing aliases
            # implies its templates treat every profiled class as having
            # a distinct signature; we model that explicitly (see
            # DESIGN.md §2).
            spec = event.instruction.spec
            class_terms = class_terms_of.get(spec.key)
            if class_terms is None:
                class_rows = self._new_class_rows(spec)
                class_terms = (class_rows, (1.0,) * len(class_rows))
                class_terms_of[spec.key] = class_terms
            add_rows(class_terms[0])
            add_weights(class_terms[1])
            ends.append(len(rows))
        return rows, weights, ends

    def _new_class_rows(self, spec) -> Tuple[int, ...]:
        """Basis rows of a class's residue and of its group's, in that order."""
        class_key = spec.key
        out = [
            self._basis_row(f"class|{class_key}", lambda: self._class_bias(class_key))
        ]
        group = spec.group
        if group is not None:
            out.append(
                self._basis_row(f"groupbias|{group}", lambda: self._group_bias(group))
            )
        return tuple(out)

    # -- public API ----------------------------------------------------------
    def render_events(self, events: Sequence[ExecEvent]) -> np.ndarray:
        """Render an executed instruction stream to an analog power trace.

        The returned trace has one clock cycle per instruction slot plus a
        leading and trailing pad cycle, so that
        ``trace[i * spc : i * spc + window]`` is the profiling window of
        instruction ``i`` (fetch/decode cycle + execute cycle).  Cycle
        ``i`` sums the execute terms of instruction ``i`` and the fetch
        terms of instruction ``i+1`` as one coefficient matmul against the
        envelope basis.
        """
        spc = self._spc
        n = len(events)
        # Execute pass (may append dynamic basis rows, so the dense
        # matrix is sized only after all events are visited).  Event i
        # executes in cycle i + 1; cycle 0 is the leading pad.
        rows, weights, ends = self._execute_terms(events)
        if self._basis_matrix is None:
            self._basis_matrix = np.stack(self._basis_rows)
        basis = self._basis_matrix
        n_basis = basis.shape[0]
        counts = np.diff(np.array([0] + ends))
        cycles = np.repeat(np.arange(1, n + 1), counts)
        # bincount adds each cell's weights in input order, as the
        # per-term loop it replaces did, so the sums are bit-identical.
        coeff = np.bincount(
            cycles * n_basis + np.fromiter(rows, dtype=np.intp, count=len(rows)),
            weights=np.fromiter(weights, dtype=np.float64, count=len(weights)),
            minlength=(n + 1) * n_basis,
        ).reshape(n + 1, n_basis)
        self._add_fetch_terms(coeff, events)
        # Every cycle is its terms plus the clock feedthrough; the
        # trailing pad cycle is the clock alone.
        cycles_out = np.empty((n + 2, spc))
        np.matmul(coeff, basis, out=cycles_out[: n + 1])
        cycles_out[n + 1] = 0.0
        cycles_out += self._clock
        trace = cycles_out.ravel()
        trace *= self.device.gain
        trace += self.device.offset
        return trace

    def window(self, trace: np.ndarray, index: int) -> np.ndarray:
        """Profiling window of instruction ``index`` within a rendered trace."""
        start = index * self._spc
        return trace[start:start + self.geometry.window_samples]

    def slot_starts(self, n_events: int) -> List[int]:
        """Sample index where each instruction's window begins."""
        return [i * self._spc for i in range(n_events)]
