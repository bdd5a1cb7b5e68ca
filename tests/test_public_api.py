"""Public API surface tests."""

import importlib
import pkgutil

import pytest

import repro


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        for sub in (
            "isa", "sim", "power", "dsp", "features", "ml", "core",
            "baselines", "experiments",
        ):
            module = importlib.import_module(f"repro.{sub}")
            assert hasattr(module, "__all__")

    def test_subpackage_alls_resolve(self):
        # Every importable module declares a sorted, duplicate-free
        # ``__all__`` of names it binds, so star-imports and the README's
        # import examples stay safe.  ``__main__`` modules run, never
        # import, and are skipped.
        names = [repro.__name__] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name.rpartition(".")[2] != "__main__"
        ]
        for qualname in names:
            module = importlib.import_module(qualname)
            assert hasattr(module, "__all__"), f"{qualname} has no __all__"
            exported = list(module.__all__)
            assert exported == sorted(set(exported)), (
                f"{qualname}.__all__ is unsorted or has duplicates"
            )
            for name in exported:
                assert hasattr(module, name), f"{qualname}.{name}"

    def test_quickstart_snippet_shape(self):
        """The README/module-docstring quickstart runs end to end."""
        from repro import Acquisition, FeatureConfig, QDA, SideChannelDisassembler

        acq = Acquisition(seed=42)
        traces = acq.capture_instruction_set(["ADD", "EOR", "LDS"], 40, 2)
        dis = SideChannelDisassembler(
            FeatureConfig(kl_threshold="auto:0.9", n_components=8),
            classifier_factory=QDA,
        )
        model = dis.fit_instruction_level(1, traces)
        keys = model.predict_keys(traces.traces[:5])
        assert set(keys) <= {"ADD", "EOR", "LDS"}
