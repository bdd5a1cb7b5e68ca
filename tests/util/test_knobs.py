"""Knob-registry coverage: declarations, typed getters, clamps, docs table."""

import warnings
from pathlib import Path

import pytest

from repro.util.env import reset_env_warnings
from repro.util.knobs import (
    KNOBS,
    Knob,
    get_flag,
    get_float,
    get_int,
    get_str,
    knob_table_markdown,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    reset_env_warnings()
    yield
    reset_env_warnings()


class TestDeclarations:
    def test_all_names_are_repro_prefixed(self):
        assert all(name.startswith("REPRO_") for name in KNOBS)

    def test_kinds_are_known(self):
        assert set(k.kind for k in KNOBS.values()) <= {
            "flag",
            "int",
            "float",
            "choice",
            "path",
        }

    def test_choice_knobs_default_to_a_choice_or_auto(self):
        for knob in KNOBS.values():
            if knob.kind == "choice":
                assert knob.default in knob.choices

    def test_every_knob_has_a_doc(self):
        assert all(k.doc for k in KNOBS.values())

    def test_pr12_knob_surface_is_declared(self):
        expected = {
            "REPRO_CWT_MEM_MB",
            "REPRO_N_JOBS",
            "REPRO_PARALLEL_MIN_FILES",
        }
        assert expected <= set(KNOBS)


class TestGetters:
    def test_get_int_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FILES", "64")
        assert get_int("REPRO_PARALLEL_MIN_FILES") == 64

    def test_get_int_clamps_to_declared_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FILES", "-5")
        with pytest.warns(
            RuntimeWarning, match="clamping REPRO_PARALLEL_MIN_FILES"
        ):
            assert get_int("REPRO_PARALLEL_MIN_FILES") == 1

    def test_n_jobs_keeps_all_cores_convention(self, monkeypatch):
        # <= 0 means "all cores" downstream, so the registry must NOT
        # clamp REPRO_N_JOBS.
        monkeypatch.setenv("REPRO_N_JOBS", "-1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_int("REPRO_N_JOBS") == -1

    def test_cwt_mem_clamps_to_one_mib(self, monkeypatch):
        monkeypatch.setenv("REPRO_CWT_MEM_MB", "0.01")
        with pytest.warns(RuntimeWarning, match="clamping REPRO_CWT_MEM_MB"):
            assert get_float("REPRO_CWT_MEM_MB") == 1.0

    def test_get_flag_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SCREEN", raising=False)
        assert get_flag("REPRO_FAULT_SCREEN") is True
        monkeypatch.setenv("REPRO_FAULT_SCREEN", "0")
        assert get_flag("REPRO_FAULT_SCREEN") is False

    def test_get_str_rejects_unknown_choice(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_LOG_LEVEL", "loud")
        with pytest.warns(RuntimeWarning, match="REPRO_OBS_LOG_LEVEL"):
            assert get_str("REPRO_OBS_LOG_LEVEL") == "info"

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError, match="REPRO_TEST_NOPE"):
            get_int("REPRO_TEST_NOPE")

    def test_wrong_kind_getter_raises(self):
        with pytest.raises(TypeError, match="flag"):
            get_int("REPRO_FAULT_SCREEN")
        with pytest.raises(TypeError, match="int"):
            get_flag("REPRO_PARALLEL_MIN_FILES")


class TestKnobTable:
    def test_table_lists_exactly_the_in_table_knobs(self):
        table = knob_table_markdown()
        for knob in KNOBS.values():
            assert (f"`{knob.name}`" in table) == knob.in_table

    def test_readme_table_is_in_sync(self):
        from repro.analysis.docs import check_knob_table

        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert check_knob_table(readme) is None

    def test_declaration_validation(self):
        from repro.util.knobs import _declare

        with pytest.raises(ValueError, match="REPRO_-prefixed"):
            _declare(Knob(name="OTHER_X", kind="int", default=1, doc="d"))
        with pytest.raises(ValueError, match="duplicate"):
            knob = Knob(name="REPRO_TEST_X", kind="int", default=1, doc="d")
            _declare(knob, knob)
        with pytest.raises(ValueError, match="unknown kind"):
            _declare(Knob(name="REPRO_TEST_X", kind="list", default=1, doc="d"))
        with pytest.raises(ValueError, match="needs choices"):
            _declare(Knob(name="REPRO_TEST_X", kind="choice", default="a", doc="d"))
