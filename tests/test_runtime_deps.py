"""The runtime needs numpy alone: no library path imports scipy.

scipy is a test oracle only.  The check runs in a fresh interpreter
whose ``sys.meta_path`` refuses every ``scipy`` import and records the
attempt, so even an import wrapped in ``try``/``except ImportError``
fails it.  The file imports nothing outside the standard library, so it
also runs where only numpy is installed::

    PYTHONPATH=src python tests/test_runtime_deps.py
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports repro with scipy blocked, then captures, trains, compiles,
#: predicts and runs both non-default CWT configurations.
SCRIPT = f"""
import sys

attempts = []


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
            raise ImportError(f"{{name}} is blocked: scipy is a test oracle")
        return None


sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, {str(SRC)!r})

import numpy as np

import repro
from repro import Acquisition, FeatureConfig, QDA
from repro.core.hierarchy import LevelModel
from repro.dsp import CwtConfig, get_cwt
from repro.power import TraceSet

windows, pids = Acquisition(seed=5).capture_class("ADD", 24, 2)
labels = np.arange(len(windows)) % 2
trace_set = TraceSet(windows, labels, ("a", "b"), pids)
config = FeatureConfig(kl_threshold="auto:0.9", top_k=3, n_components=4)
model = LevelModel.train(trace_set, config, QDA)
model.compile()
assert len(model.predict(windows[:5])) == 5
for cwt_config in (CwtConfig(magnitude=False), CwtConfig(precision="double")):
    image = get_cwt(windows.shape[1], cwt_config).transform(windows[:3])
    assert image.shape == (3, cwt_config.n_scales, windows.shape[1])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not attempts and not loaded, (attempts, loaded)
"""


def test_runtime_never_imports_scipy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


if __name__ == "__main__":
    test_runtime_never_imports_scipy()
    print("ok: no scipy import")
