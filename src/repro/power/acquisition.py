"""Trace acquisition framework (simulated equivalent of the paper's §5.1).

The paper captures each profiled instruction inside the program segment
template ``SBI, NOP, <random>, <target>, <random>, NOP, CBI``: SBI/CBI
drive the trigger pin, the NOPs isolate the segment, and random neighbours
exercise the 2-stage pipeline's prev/next dependence.  3000 traces per
class are split across 10 uploaded program files, and the averaged
reference trace of ``SBI, 5×NOP, CBI`` is subtracted from each capture.

This module reproduces the whole flow against the simulated core + power
model + oscilloscope: program files are generated (with per-file covariate
shift), executed, rendered, digitized, trigger-aligned, and reference-
subtracted into a :class:`~repro.power.dataset.TraceSet`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..isa import OperandKind, REGISTRY
from ..isa.assembler import Instruction
from ..isa.groups import classification_classes
from ..obs import trace as _obs
from ..sim.cpu import AvrCpu
from ..sim.state import SRAM_START
from ..util.knobs import get_int
from ..util.parallel import effective_workers, parallel_map, resolve_n_jobs
from .config import DEFAULT_GEOMETRY, PowerModelConfig, TraceGeometry
from .dataset import TraceSet
from .device import DeviceProfile, ProgramShift, SessionShift
from .faults import FaultContext, FaultInjector
from .model import PowerModel
from .quality import RetryPolicy, ScreeningStats, TraceScreener
from .scope import Oscilloscope

__all__ = [
    "Acquisition",
    "ProgramCapture",
    "RegisterSampler",
    "default_neighbor_pool",
    "make_devices",
    "random_instance",
]

#: Trigger instruction parameters (PORTB bit 5, the Arduino LED pin).
_TRIGGER_IO = 0x05
_TRIGGER_BIT = 5
#: Index of the target instruction within the 7-instruction template.
TARGET_SLOT = 3
TEMPLATE_LENGTH = 7

# Skip instructions must not occupy the slot right before the target:
# a taken skip would annihilate the profiled instruction.
_SKIP_KEYS = frozenset({"CPSE", "SBRC", "SBRS", "SBIC", "SBIS"})

# I/O addresses that IN/OUT/SBI/CBI randomization must avoid (SPL/SPH/SREG).
_RESERVED_IO = frozenset({0x3D, 0x3E, 0x3F})
_IO6_CHOICES = tuple(a for a in range(64) if a not in _RESERVED_IO)
_REG_PAIR_HIGH = (24, 26, 28, 30)

#: Default instruction pools for register profiling (§5.3: "the
#: instruction opcode and the other register are randomly selected").
#: The Rd pool spans every operand shape that names a destination
#: register — two-register ALU, single-register ALU and immediate forms —
#: so register templates generalize to arbitrary code.
DEFAULT_RD_POOL = (
    "ADD", "ADC", "SUB", "SBC", "AND", "OR", "EOR", "CP", "CPC", "MOV",
    "COM", "NEG", "INC", "DEC", "SWAP", "LSR", "ROR", "ASR",
    "LDI", "ANDI", "ORI", "SUBI", "CPI",
)
#: Only two-register instructions carry a source register Rr.
DEFAULT_RR_POOL = (
    "ADD", "ADC", "SUB", "SBC", "AND", "OR", "EOR", "CP", "CPC", "MOV",
)


def _min_files_per_worker() -> int:
    """Minimum program files per worker before capture goes parallel.

    One file costs ~10 ms to capture while a worker process costs tens
    of ms to start, so tiny captures are *slower* on the pool.  Below
    ``REPRO_PARALLEL_MIN_FILES`` files per worker (default 4) the pool
    shrinks, down to the serial path; results are identical either way.
    """
    return get_int("REPRO_PARALLEL_MIN_FILES")


def _register_compatible(key: str, operand_index: int, reg: int) -> bool:
    """Can ``key``'s operand ``operand_index`` hold register ``reg``?"""
    operands = REGISTRY[key].operands
    if operand_index >= len(operands):
        return False
    kind = operands[operand_index].kind
    if kind is OperandKind.REG:
        return 0 <= reg <= 31
    if kind is OperandKind.REG_HIGH:
        return 16 <= reg <= 31
    return False


def random_instance(
    class_key: str,
    rng: np.random.Generator,
    word_address: int = 0,
    fixed: Optional[Mapping[int, int]] = None,
) -> Instruction:
    """Draw a random concrete instance of an instruction class.

    Operand randomization follows the paper: register operands uniform over
    their file, immediates uniform, while control-flow offsets are pinned so
    the instruction stream stays linear (branches use offset 0; absolute
    jumps target the next address).  Draws from a list index it with
    ``rng.integers(len(pool))``: the same value and generator state as
    ``rng.choice(pool)``, without converting the list to an array.

    Args:
        class_key: instruction class (e.g. ``"ADC"``).
        rng: randomness source.
        word_address: flash word address where the instruction will sit
            (needed to pin ``JMP``/``CALL`` targets).
        fixed: operand index -> forced value (register profiling).
    """
    spec = REGISTRY[class_key]
    fixed = fixed or {}
    values: List[int] = []
    used_regs: List[int] = []
    for index, operand in enumerate(spec.operands):
        if index in fixed:
            value = int(fixed[index])
            values.append(value)
            if operand.kind in (OperandKind.REG, OperandKind.REG_HIGH):
                used_regs.append(value)
            continue
        kind = operand.kind
        if kind is OperandKind.REG:
            choices = [r for r in range(32) if r not in used_regs]
            value = choices[rng.integers(len(choices))]
            used_regs.append(value)
        elif kind is OperandKind.REG_HIGH:
            choices = [r for r in range(16, 32) if r not in used_regs]
            value = choices[rng.integers(len(choices))]
            used_regs.append(value)
        elif kind is OperandKind.REG_MUL:
            value = int(rng.integers(16, 24))
        elif kind is OperandKind.REG_PAIR:
            value = int(rng.integers(0, 16)) * 2
        elif kind is OperandKind.REG_PAIR_HIGH:
            value = _REG_PAIR_HIGH[rng.integers(len(_REG_PAIR_HIGH))]
        elif kind is OperandKind.IMM8:
            value = int(rng.integers(0, 256))
        elif kind is OperandKind.IMM6:
            value = int(rng.integers(0, 64))
        elif kind is OperandKind.DISP6:
            value = int(rng.integers(0, 64))
        elif kind is OperandKind.IO5:
            value = int(rng.integers(0, 32))
        elif kind is OperandKind.IO6:
            value = _IO6_CHOICES[rng.integers(len(_IO6_CHOICES))]
        elif kind in (OperandKind.BIT, OperandKind.SREG_BIT):
            value = int(rng.integers(0, 8))
        elif kind is OperandKind.REL7 or kind is OperandKind.REL12:
            value = 0  # fall through to the next instruction either way
        elif kind is OperandKind.ABS22:
            value = word_address + spec.n_words  # jump to next instruction
        elif kind is OperandKind.ABS16:
            value = int(rng.integers(SRAM_START, 0x0900))
        else:  # pragma: no cover - kinds are exhaustive
            raise NotImplementedError(kind)
        values.append(value)
    return Instruction(spec, tuple(values))


def default_neighbor_pool() -> List[str]:
    """Classes eligible as random template neighbours (canonical, grouped)."""
    pool: List[str] = []
    for group in range(1, 9):
        pool.extend(classification_classes(group))
    return pool


def make_devices(
    n_targets: int,
    seed: int = 7,
    component_names: Optional[Iterable[str]] = None,
) -> Tuple[DeviceProfile, List[DeviceProfile]]:
    """Sample a training device plus ``n_targets`` target devices."""
    if component_names is None:
        component_names = tuple(PowerModelConfig().component_scales)
    rng = np.random.default_rng(seed)
    train = DeviceProfile.sample("train", rng, component_names=component_names)
    targets = [
        DeviceProfile.sample(f"dev{i + 1}", rng, component_names=component_names)
        for i in range(n_targets)
    ]
    return train, targets


class RegisterSampler:
    """Picklable target sampler for register profiling (paper §5.3).

    Draws a random instruction from ``pool`` with operand
    ``operand_index`` pinned to ``reg``.  A module-level class (rather
    than a closure) so capture tasks can ship to worker processes.
    """

    def __init__(self, operand_index: int, reg: int, pool: Sequence[str]):
        self.operand_index = int(operand_index)
        self.reg = int(reg)
        self.pool = tuple(pool)

    def __call__(
        self, rng: np.random.Generator, word_address: int
    ) -> Instruction:
        key = self.pool[rng.integers(len(self.pool))]
        return random_instance(
            key,
            rng,
            word_address=word_address,
            fixed={self.operand_index: self.reg},
        )


class _FileCaptureTask:
    """Picklable per-program-file capture job for the worker pool.

    Holds only the acquisition bench; each item names the file to
    capture, ``(class_key, label, fixed, target_sampler, file_index,
    count)``, so one task serves every class of a set.  All randomness
    derives from ``Acquisition._rng("class", label, "file", file_index)``
    — already independent per file — so the result depends only on the
    item, never on the worker that ran it.
    """

    def __init__(self, acquisition: "Acquisition") -> None:
        self.acquisition = acquisition

    def __call__(
        self, item: tuple
    ) -> Tuple[np.ndarray, Optional["ScreeningStats"]]:
        return self.acquisition._capture_class_file(*item)


@dataclass
class ProgramCapture:
    """A captured full-program power trace, windowed per instruction."""

    windows: np.ndarray  #: (n_instructions, window_samples) float32
    instructions: List[Instruction]
    events: list

    def __len__(self) -> int:
        return len(self.instructions)


class Acquisition:
    """End-to-end simulated capture bench for one device.

    Args:
        config: power model term amplitudes.
        device: chip being measured.
        scope: measurement chain; defaults to the paper's scope settings.
        geometry: sampling geometry.
        seed: base seed controlling program generation and noise.
        neighbor_pool: classes used for random template neighbours.
        program_shift: sample per-program-file covariate shift (paper §4).
        session: measurement-session drift applied to every capture.
        reference_subtraction: subtract the averaged SBI/NOP/CBI reference.
        n_jobs: default worker count for capture methods (``None`` →
            ``REPRO_N_JOBS`` → serial).  Program files are partitioned by
            their already-derived per-file sub-seeds, so any worker count
            produces bit-for-bit identical traces.
        faults: capture-fault injector (``None``: no faults).  The
            averaged reference capture is never faulted — it models the
            one trace an operator inspects by hand before a campaign.
        screener: per-trace quality screening.  ``None`` → screen with
            default thresholds whenever ``faults`` is given;
            ``True``/``False`` force it on/off with default thresholds; a
            :class:`TraceScreener` instance is used as-is.
        retry_policy: re-capture policy for windows that fail screening
            (``None`` → :class:`RetryPolicy` defaults, two attempts).
            Re-captures redraw the fault dice per attempt; everything
            stays bit-for-bit reproducible for any worker count.
    """

    def __init__(
        self,
        config: Optional[PowerModelConfig] = None,
        device: Optional[DeviceProfile] = None,
        scope: Optional[Oscilloscope] = None,
        geometry: TraceGeometry = DEFAULT_GEOMETRY,
        seed: int = 2018,
        neighbor_pool: Optional[Sequence[str]] = None,
        program_shift: bool = True,
        session: Optional[SessionShift] = None,
        reference_subtraction: bool = True,
        n_jobs: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        screener=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.config = config if config is not None else PowerModelConfig()
        self.device = device if device is not None else DeviceProfile()
        self.geometry = geometry
        self.model = PowerModel(self.config, self.device, geometry)
        if scope is None:
            scope = Oscilloscope(
                noise_sigma=self.config.electronic_noise, geometry=geometry
            )
        self.scope = scope
        self.seed = seed
        self.neighbor_pool = (
            list(neighbor_pool) if neighbor_pool is not None
            else default_neighbor_pool()
        )
        self.program_shift = program_shift
        self.session = session if session is not None else SessionShift()
        self.reference_subtraction = reference_subtraction
        self.n_jobs = n_jobs
        self.faults = faults
        if screener is None:
            screener = TraceScreener() if faults is not None else None
        elif screener is True:
            screener = TraceScreener()
        elif screener is False:
            screener = None
        self.screener: Optional[TraceScreener] = screener
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: Per-class-label :class:`ScreeningStats`, refreshed by each
        #: capture method (empty while faults + screening are off).
        self.screening_stats: Dict[str, ScreeningStats] = {}
        self._reference: Optional[np.ndarray] = None

    # -- seeding -------------------------------------------------------------
    def _rng(self, *tokens) -> np.random.Generator:
        text = "|".join(str(t) for t in (self.device.name,) + tokens)
        return np.random.default_rng(
            (self.seed << 32) ^ zlib.crc32(text.encode("utf-8"))
        )

    # -- program generation ----------------------------------------------------
    def _random_neighbor(
        self, rng: np.random.Generator, word_address: int, before_target: bool
    ) -> Instruction:
        while True:
            key = self.neighbor_pool[rng.integers(len(self.neighbor_pool))]
            if before_target and REGISTRY[key].semantics in _SKIP_KEYS:
                continue
            return random_instance(key, rng, word_address=word_address)

    def _build_segments(
        self,
        rng: np.random.Generator,
        n_segments: int,
        target_key: Optional[str],
        fixed: Optional[Mapping[int, int]] = None,
        target_sampler=None,
    ) -> Tuple[List[Instruction], List[int]]:
        """Generate template segments; returns instructions + target indices."""
        sbi = Instruction(REGISTRY["SBI"], (_TRIGGER_IO, _TRIGGER_BIT))
        cbi = Instruction(REGISTRY["CBI"], (_TRIGGER_IO, _TRIGGER_BIT))
        nop = Instruction(REGISTRY["NOP"], ())
        instructions: List[Instruction] = []
        target_indices: List[int] = []
        address = 0
        for _ in range(n_segments):
            for slot in range(TEMPLATE_LENGTH):
                if slot == 0:
                    instr = sbi
                elif slot in (1, 5):
                    instr = nop
                elif slot == 6:
                    instr = cbi
                elif slot == TARGET_SLOT:
                    if target_sampler is not None:
                        instr = target_sampler(rng, address)
                    elif target_key is not None:
                        instr = random_instance(
                            target_key, rng, word_address=address, fixed=fixed
                        )
                    else:
                        instr = nop
                    target_indices.append(len(instructions))
                else:
                    instr = self._random_neighbor(
                        rng, address, before_target=(slot == TARGET_SLOT - 1)
                    )
                instructions.append(instr)
                address += instr.spec.n_words
        return instructions, target_indices

    def _randomize_state(self, cpu: AvrCpu, rng: np.random.Generator) -> None:
        for reg in range(32):
            cpu.state.set_reg(reg, int(rng.integers(0, 256)))
        # Point X/Y/Z into SRAM so indirect accesses start in a sane place.
        for low in (26, 28, 30):
            cpu.state.set_reg_pair(
                low, int(rng.integers(SRAM_START + 0x80, 0x0800))
            )
        sram = rng.integers(0, 256, 0x0900 - SRAM_START, dtype=np.uint8)
        cpu.state.data[SRAM_START:] = sram.tobytes()

    # -- capture -------------------------------------------------------------
    def _capture_program(
        self,
        instructions: List[Instruction],
        rng: np.random.Generator,
        shift: Optional[ProgramShift],
    ) -> np.ndarray:
        """Run + render + digitize one program file; returns the raw trace."""
        with _obs.span("capture.sim", n=len(instructions)):
            cpu = AvrCpu(instructions)
            self._randomize_state(cpu, rng)
            events = cpu.run(max_steps=len(instructions))
        with _obs.span("capture.render", n=len(events)):
            analog = self.model.render_events(events)
        with _obs.span("capture.scope", n=len(events)):
            return self._scope(analog, rng, shift)

    def _scope(
        self,
        analog: np.ndarray,
        rng: np.random.Generator,
        shift: Optional[ProgramShift],
    ) -> np.ndarray:
        """Shift, apply the session and digitize one rendered program.

        The scope's noise is scaled by the session's ``noise_scale``; the
        noise generator is the next draw of ``rng``.
        """
        if shift is not None:
            analog = shift.apply(analog, self.geometry.samples_per_cycle)
        analog = self.session.apply(analog)
        noise_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        return self.scope.digitize(
            analog, noise_rng, noise_scale=self.session.noise_scale
        )

    def _windows(
        self,
        trace: np.ndarray,
        target_indices: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        spc = self.geometry.samples_per_cycle
        length = self.geometry.window_samples
        starts = np.asarray(target_indices, dtype=np.int64) * spc
        starts += self.scope.trigger_offsets(rng, len(starts))
        np.clip(starts, 0, len(trace) - length, out=starts)
        windows = np.lib.stride_tricks.sliding_window_view(trace, length)
        return windows[starts].astype(np.float32, copy=False)

    def reference_window(self) -> np.ndarray:
        """Averaged ``SBI, 5×NOP, CBI`` reference window (cached)."""
        if self._reference is None:
            rng = self._rng("reference")
            shift = ProgramShift.sample(rng) if self.program_shift else None
            instructions, targets = self._build_segments(
                rng, n_segments=64, target_key=None
            )
            trace = self._capture_program(instructions, rng, shift)
            windows = self._windows(trace, targets, rng)
            self._reference = windows.mean(axis=0)
        return self._reference

    # -- fault injection + screening -----------------------------------------
    def _fault_context(self) -> FaultContext:
        return FaultContext.from_scope(self.scope, self.geometry)

    def _quality_cycle(
        self, windows: np.ndarray, label: str, file_token
    ) -> Tuple[np.ndarray, np.ndarray, Optional[ScreeningStats]]:
        """Fault-inject, screen, and re-capture one file's raw windows.

        Models the physical loop: capture → integrity screen → re-arm
        and re-capture flagged windows (fault dice redrawn per attempt,
        the underlying signal deterministic) → quarantine whatever still
        fails after :class:`RetryPolicy.max_attempts`.  Runs entirely
        inside the per-file work item, so the result is independent of
        worker count.  Returns ``(surviving windows, keep mask, stats)``
        — the mask lets callers subset per-window labels consistently;
        stats is ``None`` when both faults and screening are off.
        """
        with _obs.span("capture.screen", label=label, n=len(windows)):
            all_kept = np.ones(len(windows), dtype=bool)
            injector, screener = self.faults, self.screener
            if injector is None and screener is None:
                return windows, all_kept, None
            ctx = self._fault_context()
            clean = windows
            stats = ScreeningStats(n_captured=len(windows))
            if injector is not None:
                rng = self._rng(
                    "faults", label, "file", file_token, "attempt", 0
                )
                current, applied = injector.corrupt(clean, rng, ctx)
                stats.n_faulted = sum(1 for name in applied if name)
            else:
                current = clean.copy()
            if screener is None:
                stats.n_kept = len(current)
                return current, all_kept, stats
            report = screener.screen(current, ctx)
            bad = ~report.passed
            stats.n_flagged = int(bad.sum())
            for code, count in report.counts().items():
                stats.reasons[code] = stats.reasons.get(code, 0) + count
            attempt = 0
            while bad.any() and attempt < self.retry_policy.max_attempts:
                attempt += 1
                rows = np.flatnonzero(bad)
                stats.n_retried += len(rows)
                recapture = clean[rows]
                if injector is not None:
                    rng = self._rng(
                        "faults", label, "file", file_token, "attempt", attempt
                    )
                    recapture, _ = injector.corrupt(recapture, rng, ctx)
                current[rows] = recapture
                # Re-screen the whole batch: the desync detector's median
                # template sharpens as corrupt rows are replaced.
                report = screener.screen(current, ctx)
                bad = ~report.passed
            stats.n_quarantined = int(bad.sum())
            keep = ~bad
            stats.n_kept = int(keep.sum())
            return current[keep], keep, stats

    def _record_stats(
        self, label: str, stats_list: Iterable[Optional[ScreeningStats]]
    ) -> Optional[ScreeningStats]:
        """Merge per-file stats under one class label (None when off)."""
        merged: Optional[ScreeningStats] = None
        for stats in stats_list:
            if stats is None:
                continue
            if merged is None:
                merged = ScreeningStats()
            merged.merge(stats)
        if merged is not None:
            self.screening_stats[label] = merged
            if _obs.enabled():
                _obs.counter("screen.captured").inc(merged.n_captured)
                _obs.counter("screen.faulted").inc(merged.n_faulted)
                _obs.counter("screen.flagged").inc(merged.n_flagged)
                _obs.counter("screen.retried").inc(merged.n_retried)
                _obs.counter("screen.quarantined").inc(merged.n_quarantined)
                _obs.counter("screen.kept").inc(merged.n_kept)
        return merged

    def screening_report(self) -> Dict[str, Dict[str, object]]:
        """Per-class quality report of the captures run so far."""
        return {
            label: stats.as_dict()
            for label, stats in self.screening_stats.items()
        }

    def _capture_class_file(
        self,
        class_key: str,
        label: str,
        fixed: Optional[Mapping[int, int]],
        target_sampler,
        file_index: int,
        count: int,
    ) -> Tuple[np.ndarray, Optional[ScreeningStats]]:
        """Capture one program file's windows (the per-file unit of work)."""
        with _obs.span("capture.file", label=label, file=file_index, n=count):
            return self._capture_class_file_inner(
                class_key, label, fixed, target_sampler, file_index, count
            )

    def _capture_class_file_inner(
        self,
        class_key: str,
        label: str,
        fixed: Optional[Mapping[int, int]],
        target_sampler,
        file_index: int,
        count: int,
    ) -> Tuple[np.ndarray, Optional[ScreeningStats]]:
        rng = self._rng("class", label, "file", file_index)
        shift = ProgramShift.sample(rng) if self.program_shift else None
        instructions, targets = self._build_segments(
            rng,
            n_segments=count,
            target_key=class_key,
            fixed=fixed,
            target_sampler=target_sampler,
        )
        trace = self._capture_program(instructions, rng, shift)
        windows = self._windows(trace, targets, rng)
        windows, _, stats = self._quality_cycle(windows, label, file_index)
        if self.reference_subtraction:
            windows -= self.reference_window()
        return windows, stats

    def _capture_classes(
        self,
        classes: Sequence[tuple],
        n_traces: int,
        n_programs: int,
        n_jobs: Optional[int],
        program_id_offset: int = 0,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Capture every ``(class_key, label, fixed, sampler)`` of a set.

        All (class, file) items go through ONE :func:`parallel_map`, so a
        set pays for one pool, not one per class.  Files are independent
        work items (each owns a derived sub-seed), so the result is
        bit-for-bit identical for any worker count.  A workload-size
        heuristic keeps small captures serial: the pool is only engaged
        when every worker gets at least ``REPRO_PARALLEL_MIN_FILES``
        files (default 4).

        Returns:
            one ``(windows, program_ids)`` pair per class, in order.
        """
        per_file = [n_traces // n_programs] * n_programs
        for i in range(n_traces - sum(per_file)):
            per_file[i] += 1
        files = [(i, count) for i, count in enumerate(per_file) if count]
        items = [
            (key, label, dict(fixed) if fixed else None, sampler, index, count)
            for key, label, fixed, sampler in classes
            for index, count in files
        ]
        n_jobs = n_jobs if n_jobs is not None else self.n_jobs
        min_files = _min_files_per_worker()
        workers = effective_workers(
            len(items), resolve_n_jobs(n_jobs), min_files
        )
        with _obs.span("capture.set", n_items=len(items), workers=workers):
            if self.reference_subtraction:
                # Materialize the cached reference BEFORE the pool starts,
                # so workers reuse it instead of each re-deriving it.
                self.reference_window()
            results = parallel_map(
                _FileCaptureTask(self),
                items,
                n_jobs=n_jobs,
                min_items_per_worker=min_files,
            )
            out = []
            for c, (_, label, _, _) in enumerate(classes):
                chunk = results[c * len(files):(c + 1) * len(files)]
                self._record_stats(label, (stats for _, stats in chunk))
                # Quarantine may have dropped rows; count what survived.
                program_ids = np.concatenate([
                    np.full(len(windows), program_id_offset + index)
                    for (index, _), (windows, _) in zip(files, chunk)
                ])
                out.append(
                    (np.concatenate([w for w, _ in chunk]), program_ids)
                )
            return out

    def capture_class(
        self,
        class_key: str,
        n_traces: int,
        n_programs: int = 10,
        fixed: Optional[Mapping[int, int]] = None,
        label_override: Optional[str] = None,
        target_sampler=None,
        program_id_offset: int = 0,
        n_jobs: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Capture ``n_traces`` of one class across ``n_programs`` files.

        Files are captured serially or on a process pool (``n_jobs``);
        the result is bit-for-bit identical either way (see
        :meth:`capture_instruction_set` for a whole set on one pool).

        Returns:
            ``(windows, program_ids)`` arrays.
        """
        label = label_override if label_override is not None else class_key
        [(windows, program_ids)] = self._capture_classes(
            [(class_key, label, fixed, target_sampler)],
            n_traces, n_programs, n_jobs, program_id_offset,
        )
        return windows, program_ids

    def _trace_set(
        self,
        captured: Sequence[Tuple[np.ndarray, np.ndarray]],
        label_names: Tuple[str, ...],
        meta: Dict[str, object],
    ) -> TraceSet:
        """Assemble per-class captures into a labelled :class:`TraceSet`."""
        screening = {
            name: self.screening_stats[name].as_dict()
            for name in label_names
            if name in self.screening_stats
        }
        if screening:
            meta["screening"] = screening
        return TraceSet(
            traces=np.concatenate([windows for windows, _ in captured]),
            labels=np.concatenate([
                np.full(len(windows), code)
                for code, (windows, _) in enumerate(captured)
            ]),
            label_names=label_names,
            program_ids=np.concatenate([pids for _, pids in captured]),
            device=self.device.name,
            meta=meta,
        )

    def capture_instruction_set(
        self,
        class_keys: Sequence[str],
        n_per_class: int,
        n_programs: int = 10,
        n_jobs: Optional[int] = None,
    ) -> TraceSet:
        """Capture a labelled instruction-classification dataset.

        Every (class, file) of the set runs on one pool (``n_jobs``).
        """
        captured = self._capture_classes(
            [(key, key, None, None) for key in class_keys],
            n_per_class, n_programs, n_jobs,
        )
        return self._trace_set(
            captured,
            tuple(class_keys),
            {"kind": "instruction", "n_programs": n_programs},
        )

    def capture_register_set(
        self,
        role: str,
        registers: Sequence[int],
        n_per_class: int,
        n_programs: int = 10,
        instruction_pool: Optional[Sequence[str]] = None,
        n_jobs: Optional[int] = None,
    ) -> TraceSet:
        """Capture a register-identification dataset (paper §5.3).

        For each profiled register, the instruction and the *other*
        register are randomized per trace.  Every (register, file) of the
        set runs on one pool (``n_jobs``).

        Args:
            role: ``"Rd"`` (destination, operand 0) or ``"Rr"`` (source,
                operand 1).
            registers: register addresses to profile.
            instruction_pool: two-register classes to sample from; defaults
                to the canonical group-1 ALU instructions.
        """
        if role not in ("Rd", "Rr"):
            raise ValueError("role must be 'Rd' or 'Rr'")
        operand_index = 0 if role == "Rd" else 1
        if instruction_pool is None:
            instruction_pool = (
                DEFAULT_RD_POOL if role == "Rd" else DEFAULT_RR_POOL
            )
        pool = list(instruction_pool)
        label_names = tuple(f"{role}{reg}" for reg in registers)
        classes = []
        for name, reg in zip(label_names, registers):
            compatible = [
                key for key in pool
                if _register_compatible(key, operand_index, reg)
            ]
            if not compatible:
                raise ValueError(
                    f"no instruction in the pool accepts {role}=r{reg}"
                )
            sampler = RegisterSampler(operand_index, reg, compatible)
            classes.append((pool[0], name, None, sampler))
        captured = self._capture_classes(
            classes, n_per_class, n_programs, n_jobs
        )
        return self._trace_set(
            captured,
            label_names,
            {"kind": f"register-{role}", "n_programs": n_programs},
        )

    def capture_mixed_program(
        self,
        class_keys: Sequence[str],
        n_per_class: int,
        program_id: int = 0,
        fixed_by_class: Optional[Mapping[str, Mapping[int, int]]] = None,
        target_sampler_by_class: Optional[Mapping[str, object]] = None,
    ) -> TraceSet:
        """Capture all classes interleaved inside ONE program file.

        This models the *deployment* scenario (§4's "real program"): every
        class experiences the same program-level covariate shift, exactly
        as when disassembling genuine firmware.  Profiling captures, by
        contrast, place each class in its own files
        (:meth:`capture_instruction_set`), as the paper's flash-limited
        upload flow does.

        Args:
            class_keys: classes to interleave.
            n_per_class: traces per class.
            program_id: program id recorded for all traces (also varies
                the generated program and its covariate shift).
            fixed_by_class: per-class fixed operand maps.
            target_sampler_by_class: per-class instruction samplers
                (overrides ``fixed_by_class`` for that class).

        Returns:
            A labelled :class:`TraceSet` with a single program id.
        """
        rng = self._rng("mixed", ",".join(class_keys), program_id)
        shift = ProgramShift.sample(rng) if self.program_shift else None
        order = np.repeat(np.arange(len(class_keys)), n_per_class)
        rng.shuffle(order)

        def sampler(segment_rng, address, _state={"i": 0}):
            code = order[_state["i"]]
            _state["i"] += 1
            key = class_keys[code]
            if target_sampler_by_class and key in target_sampler_by_class:
                return target_sampler_by_class[key](segment_rng, address)
            fixed = (fixed_by_class or {}).get(key)
            return random_instance(
                key, segment_rng, word_address=address, fixed=fixed
            )

        instructions, targets = self._build_segments(
            rng, n_segments=len(order), target_key=None, target_sampler=sampler
        )
        trace = self._capture_program(instructions, rng, shift)
        windows = self._windows(trace, targets, rng)
        label = "mixed:" + ",".join(class_keys)
        windows, keep, stats = self._quality_cycle(
            windows, label, f"mixed-{program_id}"
        )
        # Quarantined windows drop out of the labelled stream the same
        # way an operator would discard an unusable capture.
        order = order[keep]
        meta: Dict[str, object] = {
            "kind": "mixed-program", "program_id": program_id,
        }
        if stats is not None:
            self._record_stats(label, [stats])
            meta["screening"] = {label: stats.as_dict()}
        if self.reference_subtraction:
            windows -= self.reference_window()
        return TraceSet(
            traces=windows,
            labels=order,
            label_names=tuple(class_keys),
            program_ids=np.full(len(order), program_id),
            device=self.device.name,
            meta=meta,
        )

    def capture_program(self, program) -> ProgramCapture:
        """Capture a *real program* end to end (the deployment scenario).

        Args:
            program: assembly text, opcode words, or instruction list.

        Returns:
            :class:`ProgramCapture` with one window per executed
            instruction, reference-subtracted like the profiling traces.
            Every form of the same program (text, words, instructions;
            list or tuple) captures identically, in any process: the
            capture is seeded from the assembled flash words.
        """
        with _obs.span("capture.sim"):
            cpu = AvrCpu(program)
            rng = self._rng("program", hash(tuple(cpu.flash)))
            self._randomize_state(cpu, rng)
            events = cpu.run(max_steps=200_000)
        with _obs.span("capture.render", n=len(events)):
            analog = self.model.render_events(events)
        with _obs.span("capture.scope", n=len(events)):
            shift = ProgramShift.sample(rng) if self.program_shift else None
            trace = self._scope(analog, rng, shift)
        windows = self._windows(trace, list(range(len(events))), rng)
        if self.reference_subtraction:
            windows -= self.reference_window()
        return ProgramCapture(
            windows=windows,
            instructions=[e.instruction for e in events],
            events=events,
        )
