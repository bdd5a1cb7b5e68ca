"""Acquisition framework tests."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.isa import OperandKind, REGISTRY, assemble
from repro.power import (
    Acquisition,
    Oscilloscope,
    SessionShift,
    TraceSet,
    make_devices,
    random_instance,
)
from repro.power.acquisition import (
    DEFAULT_RD_POOL,
    DEFAULT_RR_POOL,
    TARGET_SLOT,
    TEMPLATE_LENGTH,
    default_neighbor_pool,
)


class TestRandomInstance:
    def test_respects_fixed(self):
        rng = np.random.default_rng(0)
        instance = random_instance("ADD", rng, fixed={0: 7})
        assert instance.values[0] == 7

    def test_two_reg_operands_distinct(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            instance = random_instance("EOR", rng)
            assert instance.values[0] != instance.values[1]

    def test_branch_offset_pinned_to_zero(self):
        rng = np.random.default_rng(2)
        assert random_instance("BREQ", rng).values == (0,)
        assert random_instance("RJMP", rng).values == (0,)

    def test_jmp_targets_next_instruction(self):
        rng = np.random.default_rng(3)
        instance = random_instance("JMP", rng, word_address=10)
        assert instance.values == (12,)

    def test_lds_address_in_sram(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            address = random_instance("LDS", rng).values[1]
            assert 0x0100 <= address < 0x0900

    def test_io_avoids_reserved(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = random_instance("OUT", rng).values[0]
            assert a not in (0x3D, 0x3E, 0x3F)

    def test_every_class_instantiable(self):
        rng = np.random.default_rng(6)
        for key in REGISTRY:
            instance = random_instance(key, rng, word_address=4)
            instance.encode()  # must be a legal instruction

    def test_every_class_pickles(self):
        """An instance pickles its spec as a registry key."""
        rng = np.random.default_rng(7)
        for key, spec in REGISTRY.items():
            instance = random_instance(key, rng, word_address=4)
            loaded = pickle.loads(pickle.dumps(instance))
            assert loaded.spec is spec
            assert loaded == instance
            assert loaded.encode() == instance.encode()

    def test_unregistered_spec_refuses_to_pickle(self):
        stray = dataclasses.replace(REGISTRY["ADD"], description="stray")
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(stray)


class TestCaptureShapes:
    def test_instruction_set_shapes(self):
        acq = Acquisition(seed=1)
        ts = acq.capture_instruction_set(["ADC", "AND"], 30, 3)
        assert ts.traces.shape == (60, 315)
        assert ts.label_names == ("ADC", "AND")
        assert set(ts.program_ids) == {0, 1, 2}
        assert ts.traces.dtype == np.float32

    def test_uneven_split_across_programs(self):
        acq = Acquisition(seed=1)
        windows, pids = acq.capture_class("NOP", 10, 3)
        assert len(windows) == 10
        counts = np.bincount(pids)
        assert counts.max() - counts.min() <= 1

    def test_register_set_rd(self):
        acq = Acquisition(seed=2)
        ts = acq.capture_register_set("Rd", (0, 16), 20, 2)
        assert ts.label_names == ("Rd0", "Rd16")
        assert len(ts) == 40

    def test_register_pool_compatibility(self):
        # r0 cannot be used with REG_HIGH instructions; pool must filter.
        acq = Acquisition(seed=3)
        ts = acq.capture_register_set("Rd", (0,), 10, 2)
        assert len(ts) == 10

    def test_register_role_validation(self):
        acq = Acquisition(seed=4)
        with pytest.raises(ValueError):
            acq.capture_register_set("Rx", (0,), 4, 2)

    def test_default_pools_cover_shapes(self):
        kinds = {
            REGISTRY[k].operands[0].kind for k in DEFAULT_RD_POOL
        }
        assert OperandKind.REG in kinds and OperandKind.REG_HIGH in kinds
        for key in DEFAULT_RR_POOL:
            assert REGISTRY[key].operands[1].kind is OperandKind.REG

    def test_reproducible(self):
        a = Acquisition(seed=7).capture_instruction_set(["NOP"], 12, 2)
        b = Acquisition(seed=7).capture_instruction_set(["NOP"], 12, 2)
        np.testing.assert_array_equal(a.traces, b.traces)

    def test_different_seeds_differ(self):
        a = Acquisition(seed=7).capture_instruction_set(["NOP"], 12, 2)
        b = Acquisition(seed=8).capture_instruction_set(["NOP"], 12, 2)
        assert not np.allclose(a.traces, b.traces)


class TestMixedAndProgramCapture:
    def test_mixed_program_single_shift(self):
        acq = Acquisition(seed=5)
        ts = acq.capture_mixed_program(["ADC", "AND"], 15, program_id=3)
        assert len(ts) == 30
        assert set(ts.program_ids) == {3}
        assert np.bincount(ts.labels).tolist() == [15, 15]

    def test_capture_program_windows(self):
        acq = Acquisition(seed=6)
        capture = acq.capture_program("ldi r16, 1\nadd r16, r17\nnop")
        assert capture.windows.shape == (3, 315)
        assert [i.spec.key for i in capture.instructions] == [
            "LDI", "ADD", "NOP",
        ]

    PROGRAM = "ldi r16, 3\nadd r16, r17\nlds r2, 0x0100\neor r2, r16"

    def test_program_capture_pickles(self):
        capture = Acquisition(seed=6).capture_program(self.PROGRAM)
        loaded = pickle.loads(pickle.dumps(capture))
        np.testing.assert_array_equal(loaded.windows, capture.windows)
        assert loaded.instructions == capture.instructions
        assert [i.encode() for i in loaded.instructions] == [
            i.encode() for i in capture.instructions
        ]
        assert loaded.events == capture.events

    def test_program_forms_capture_identically(self):
        """Text, word list/tuple and instruction list seed the same capture."""
        instructions = assemble(self.PROGRAM)
        words = [w for inst in instructions for w in inst.encode()]
        forms = [self.PROGRAM, words, tuple(words), instructions]
        captures = [Acquisition(seed=8).capture_program(f) for f in forms]
        for capture in captures[1:]:
            np.testing.assert_array_equal(capture.windows, captures[0].windows)

    def test_text_capture_is_identical_across_hash_seeds(self):
        """No per-process salted ``hash()`` leaks into the capture seed."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "from repro.power import Acquisition\n"
            "capture = Acquisition(seed=8).capture_program("
            f"{self.PROGRAM!r})\n"
            "sys.stdout.write(capture.windows.tobytes().hex())\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)  # replint: disable=REP001 -- passed through to a subprocess verbatim, no knob is read
            env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert outputs[0] and outputs[0] == outputs[1]

    def test_session_noise_scale_reaches_both_scope_paths(self, monkeypatch):
        """Profiling and deployment captures both scale the scope noise."""
        acq = Acquisition(seed=6, session=SessionShift(noise_scale=1.7))
        base = acq.scope.noise_sigma
        sigmas = []
        digitize = Oscilloscope.digitize

        class NoiseSpy:
            """Records the standard deviation each noise draw uses."""

            def __init__(self, rng):
                self.rng = rng

            def normal(self, loc, scale, size):
                sigmas.append(scale)
                return self.rng.normal(loc, scale, size)

        def spy(scope, analog, rng=None, **kwargs):
            return digitize(scope, analog, NoiseSpy(rng), **kwargs)

        monkeypatch.setattr(Oscilloscope, "digitize", spy)
        acq.reference_window()  # the path every profiling capture takes
        acq.capture_program(self.PROGRAM)  # the reference is cached now
        assert sigmas == [pytest.approx(base * 1.7)] * 2
        assert acq.scope.noise_sigma == base

    def test_reference_window_cached(self):
        acq = Acquisition(seed=7)
        a = acq.reference_window()
        b = acq.reference_window()
        assert a is b
        assert a.shape == (315,)


class TestDevices:
    def test_make_devices(self):
        train, targets = make_devices(3, seed=1)
        assert train.name == "train"
        assert [d.name for d in targets] == ["dev1", "dev2", "dev3"]
        assert len({d.gain for d in targets}) == 3

    def test_neighbor_pool_is_canonical_grouped(self):
        pool = default_neighbor_pool()
        assert "ADD" in pool and "SBR" not in pool
        assert all(REGISTRY[k].group is not None for k in pool)


class TestTemplateStructure:
    def test_template_constants(self):
        assert TEMPLATE_LENGTH == 7
        assert TARGET_SLOT == 3

    def test_segment_structure(self):
        acq = Acquisition(seed=8)
        rng = np.random.default_rng(0)
        instructions, targets = acq._build_segments(
            rng, n_segments=3, target_key="ADC"
        )
        assert len(instructions) == 21
        assert targets == [3, 10, 17]
        for start in (0, 7, 14):
            assert instructions[start].spec.key == "SBI"
            assert instructions[start + 1].spec.key == "NOP"
            assert instructions[start + 3].spec.key == "ADC"
            assert instructions[start + 5].spec.key == "NOP"
            assert instructions[start + 6].spec.key == "CBI"

    def test_no_skip_before_target(self):
        acq = Acquisition(seed=9)
        rng = np.random.default_rng(1)
        instructions, targets = acq._build_segments(
            rng, n_segments=200, target_key="ADC"
        )
        skips = {"CPSE", "SBRC", "SBRS", "SBIC", "SBIS"}
        for index in targets:
            assert instructions[index - 1].spec.semantics not in skips
