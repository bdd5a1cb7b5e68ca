"""Power model tests: determinism, event sensitivity, geometry."""

import numpy as np
import pytest

from repro.power import DEFAULT_GEOMETRY, DeviceProfile, PowerModel, PowerModelConfig
from repro.sim import AvrCpu


def events_of(asm, **regs):
    cpu = AvrCpu(asm)
    for name, value in regs.items():
        cpu.state.set_reg(int(name[1:]), value)
    return cpu.run()


class TestGeometry:
    def test_window_is_315_samples(self):
        assert DEFAULT_GEOMETRY.window_samples == 315

    def test_render_length(self):
        model = PowerModel()
        events = events_of("nop\nnop\nnop")
        trace = model.render_events(events)
        spc = DEFAULT_GEOMETRY.samples_per_cycle
        assert len(trace) == (len(events) + 2) * spc

    def test_window_extraction(self):
        model = PowerModel()
        events = events_of("nop\nadd r0, r1\nnop")
        trace = model.render_events(events)
        window = model.window(trace, 1)
        assert len(window) == 315


class TestDeterminismAndSensitivity:
    def test_deterministic(self):
        events = events_of("add r1, r2", r1=10, r2=20)
        a = PowerModel().render_events(events)
        b = PowerModel().render_events(events)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        events = events_of("add r1, r2")
        a = PowerModel(PowerModelConfig(seed=1)).render_events(events)
        b = PowerModel(PowerModelConfig(seed=2)).render_events(events)
        assert not np.allclose(a, b)

    def test_instruction_changes_trace(self):
        model = PowerModel()
        a = model.render_events(events_of("add r1, r2"))
        b = model.render_events(events_of("sub r1, r2"))
        assert not np.allclose(a, b)

    def test_register_changes_trace(self):
        model = PowerModel()
        a = model.render_events(events_of("add r1, r2"))
        b = model.render_events(events_of("add r3, r2"))
        assert not np.allclose(a, b)

    def test_data_changes_trace(self):
        model = PowerModel()
        a = model.render_events(events_of("add r1, r2", r1=0x00, r2=0x00))
        b = model.render_events(events_of("add r1, r2", r1=0xFF, r2=0xFF))
        assert not np.allclose(a, b)

    def test_alias_is_electrically_identical(self):
        """TST r5 and AND r5,r5 share silicon except the class residue."""
        model = PowerModel(PowerModelConfig(class_bias_scale=0.0,
                                            class_energy_scale=0.0))
        a = model.render_events(events_of("tst r5", r5=0x3C))
        b = model.render_events(events_of("and r5, r5", r5=0x3C))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_same_encoding_is_same_trace(self):
        """``and r5, r5`` assembles to TST's bits and decodes back as TST,
        so the rendered traces are bit-identical — the alias ambiguity is
        a *label* question, never an electrical one."""
        model = PowerModel()
        a = model.render_events(events_of("tst r5", r5=0x3C))
        b = model.render_events(events_of("and r5, r5", r5=0x3C))
        np.testing.assert_array_equal(a, b)

    def test_class_residues_distinct_per_key(self):
        model = PowerModel()
        assert not np.allclose(model._class_bias("TST"), model._class_bias("AND"))
        assert not np.allclose(model._class_bias("SEC"), model._class_bias("BSET"))

    def test_memory_instruction_draws_more(self):
        model = PowerModel()
        nop = model.render_events(events_of("nop\nnop\nnop"))
        lds = model.render_events(events_of("nop\nlds r0, 0x0100\nnop"))
        spc = DEFAULT_GEOMETRY.samples_per_cycle
        exec_slice = slice(2 * spc, 3 * spc)
        assert lds[exec_slice].sum() > nop[exec_slice].sum() + 10

    def test_group_bias_constant_within_group(self):
        """Two G1 instructions share the same group signature term."""
        model = PowerModel()
        g1 = model._group_bias(1)
        g2 = model._group_bias(2)
        assert not np.allclose(g1, g2)
        np.testing.assert_array_equal(g1, model._group_bias(1))


class TestDeviceVariation:
    def test_gain_and_offset(self):
        events = events_of("add r1, r2")
        nominal = PowerModel().render_events(events)
        device = DeviceProfile(name="d", gain=1.1, offset=0.7)
        shifted = PowerModel(device=device).render_events(events)
        np.testing.assert_allclose(shifted, 1.1 * nominal + 0.7, rtol=1e-10)

    def test_component_mismatch_changes_trace(self):
        events = events_of("lds r0, 0x0100")
        nominal = PowerModel().render_events(events)
        device = DeviceProfile(
            name="d", component_mismatch={"mem_load": 1.3}
        )
        assert not np.allclose(
            PowerModel(device=device).render_events(events), nominal
        )

    def test_weight_jitter_changes_trace(self):
        events = events_of("add r1, r2")
        nominal = PowerModel().render_events(events)
        device = DeviceProfile(
            name="d", weight_jitter=0.2, weight_jitter_seed=99
        )
        assert not np.allclose(
            PowerModel(device=device).render_events(events), nominal
        )

    def test_sampled_devices_differ(self):
        rng = np.random.default_rng(0)
        d1 = DeviceProfile.sample("a", rng, component_names=("alu",))
        d2 = DeviceProfile.sample("b", rng, component_names=("alu",))
        assert d1.gain != d2.gain
        assert d1.weight_jitter_seed != d2.weight_jitter_seed


def test_popcount_table_matches_bin_on_any_int():
    from repro.power.model import _popcount

    values = list(range(-300, 300)) + [
        0xFFFF, 0x10000, 0x1FFFF, 0xFFFFFFFF, 0x1_0000_0001, -(1 << 40) - 7,
    ]
    for value in values:
        assert _popcount(value) == bin(value & 0xFFFFFFFF).count("1")
