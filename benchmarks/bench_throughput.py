"""Performance microbenchmarks: the real-time-monitoring angle.

The paper motivates few-variable classification with real-time constraints
(§1: a distinguisher has only the processor's per-instruction throughput).
These benchmarks measure our pipeline's classification latency per window
and the substrate's capture throughput.  Each ``*_reference`` row times the
slow test oracle (``tests/oracles``) a fast path is checked against, so
``export_throughput.py`` can report ``speedup_vs_reference``.
"""

import numpy as np
import pytest

from repro.core import SideChannelDisassembler
from repro.core.hierarchy import LevelModel
from repro.dsp import CWT, get_cwt
from repro.features import DnvpSelector, FeatureConfig, WaveletStats
from repro.ml import OneVsOneClassifier, QDA
from repro.power import Acquisition, PowerModel
from repro.sim import AvrCpu
from repro.util.knobs import get_int
from tests.oracles import (
    dnvp_fit,
    ovo_fit,
    predict_instructions,
    render_events,
)


@pytest.fixture(scope="module")
def fitted_level():
    acq = Acquisition(seed=77)
    train = acq.capture_instruction_set(["ADD", "EOR", "LDS", "SEC"], 120, 4)
    dis = SideChannelDisassembler(
        FeatureConfig(kl_threshold="auto:0.9", n_components=15),
        classifier_factory=QDA,
    )
    model = dis.fit_instruction_level(1, train)
    test = acq.capture_instruction_set(["ADD", "EOR", "LDS", "SEC"], 60, 2)
    return model, test


def test_classify_batch_throughput(benchmark, fitted_level):
    """Windows/second through transform + QDA predict."""
    model, test = fitted_level
    windows = test.traces

    result = benchmark(lambda: model.predict(windows))
    assert len(result) == len(windows)


def test_compiled_classify_throughput(benchmark, fitted_level):
    """Folded-GEMM classify: trace→scores as two matrix products."""
    model, test = fitted_level
    windows = test.traces
    compiled = model.compile()

    result = benchmark(lambda: compiled.predict(windows))
    assert len(result) == len(windows)


def test_compiled_classify_reference_throughput(benchmark, fitted_level):
    """Staged per-stage classify baseline: CWT points, PCA, QDA predict."""
    model, test = fitted_level
    windows = test.traces
    pipeline, classifier = model.pipeline, model.classifier

    def staged():
        values = pipeline._cwt.transform_points(windows, pipeline.points)
        features = pipeline.pca.transform(
            pipeline._normalize(values, fit=False)
        )
        return classifier.predict(features)

    result = benchmark(staged)
    assert len(result) == len(windows)


def test_single_trace_latency(benchmark, fitted_level):
    """One-window classify latency (the streaming-disassembly budget)."""
    model, test = fitted_level
    window = test.traces[:1]
    model.compile()

    result = benchmark(lambda: model.predict(window))
    assert len(result) == 1


def test_cwt_full_plane_throughput(benchmark):
    """Full 50x315 CWT images per second (profiling-time cost)."""
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = CWT(315)
    images = benchmark(lambda: cwt.transform(traces))
    assert images.shape == (64, 50, 315)


def test_cwt_full_plane_chunked_throughput(benchmark):
    """Full-plane CWT under a tight (1 MiB) chunking budget.

    Chunking never changes results; this guards the cost of running with
    a constrained memory budget against the unconstrained case above.
    """
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = get_cwt(315)
    images = benchmark(lambda: cwt.transform(traces, max_mem_mb=1))
    assert images.shape == (64, 50, 315)


def test_cwt_points_throughput(benchmark):
    """Selected-point evaluation (the per-window classification cost)."""
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = get_cwt(315)
    points = [(j, int(k)) for j in (0, 7, 21, 35, 49)
              for k in np.linspace(0, 314, 41)]
    values = benchmark(lambda: cwt.transform_points(traces, points))
    assert values.shape == (64, len(points))


def test_capture_class_serial_throughput(benchmark):
    """End-to-end capture of one class, serial (assemble→sim→render→digitize)."""
    acq = Acquisition(seed=88)
    acq.reference_window()
    windows = benchmark(
        lambda: acq.capture_class("ADC", 64, n_programs=4, n_jobs=1)[0]
    )
    assert windows.shape[0] == 64


def test_capture_class_parallel_throughput(benchmark):
    """Same capture on the worker pool (REPRO_BENCH_JOBS, default 2).

    Output is bit-identical to the serial case; on a single-core host the
    pool only adds overhead, so compare against the serial number above
    with the host's core count in mind.
    """
    n_jobs = get_int("REPRO_BENCH_JOBS")
    acq = Acquisition(seed=88, n_jobs=n_jobs)
    acq.reference_window()
    windows = benchmark(
        lambda: acq.capture_class("ADC", 64, n_programs=4)[0]
    )
    assert windows.shape[0] == 64


# -- template-training stack ------------------------------------------------

TRAIN_KEYS = ["ADD", "ADC", "SUB", "AND", "OR", "EOR", "LDS", "ST_X"]
TRAIN_CONFIG = FeatureConfig(kl_threshold="auto:0.9", n_components=15)


@pytest.fixture(scope="module")
def selector_stats():
    """8 classes x 10 programs of full-plane (50x315) wavelet statistics."""
    rng = np.random.default_rng(0)
    stats = {}
    pids = np.repeat(np.arange(10), 2)
    for code, name in enumerate(TRAIN_KEYS):
        images = rng.normal(0.05 * code, 1.0 + 0.02 * code, (20, 50, 315))
        images += 0.1 * pids[:, None, None] * rng.normal(0, 1, (50, 315))
        stats[name] = WaveletStats.from_images(
            images.astype(np.float32), pids
        )
    return stats


def test_dnvp_selector_fit_throughput(benchmark, selector_stats):
    """Batched DNVP selection: each pair's field from per-class Gaussians."""
    selector = benchmark(
        lambda: DnvpSelector(kl_threshold="auto:0.6", top_k=5).fit(
            selector_stats
        )
    )
    assert len(selector.points) > 0


def test_dnvp_selector_fit_reference_throughput(benchmark, selector_stats):
    """Serial per-pair selection baseline (identical output)."""
    selector = benchmark(
        lambda: dnvp_fit(
            DnvpSelector(kl_threshold="auto:0.6", top_k=5), selector_stats
        )
    )
    assert len(selector.points) > 0


@pytest.fixture(scope="module")
def train_set():
    """8 instruction classes x 60 program files x 2 traces each."""
    return Acquisition(seed=66).capture_instruction_set(TRAIN_KEYS, 120, 60)


def _train_level(train_set):
    return LevelModel.train(
        train_set, TRAIN_CONFIG, lambda: OneVsOneClassifier(QDA())
    )


def test_level_train_throughput(benchmark, train_set):
    """End-to-end level training on the batched fast path."""
    model = benchmark.pedantic(
        lambda: _train_level(train_set),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert model.pipeline.n_points > 0


def test_level_train_reference_throughput(benchmark, train_set, monkeypatch):
    """Same training with the selection and OvO-fit oracles swapped in."""
    monkeypatch.setattr(DnvpSelector, "fit", dnvp_fit)
    monkeypatch.setattr(OneVsOneClassifier, "fit", ovo_fit)
    model = benchmark.pedantic(
        lambda: _train_level(train_set),
        rounds=2, iterations=1, warmup_rounds=1,
    )
    assert model.pipeline.n_points > 0


@pytest.fixture(scope="module")
def ovo_problem():
    """12-class Gaussian problem for one-vs-one fitting."""
    rng = np.random.default_rng(3)
    n_classes, n_per, dim = 12, 150, 20
    means = rng.normal(0, 2, (n_classes, dim))
    X = rng.normal(0, 1, (n_classes, n_per, dim)) + means[:, None, :]
    y = np.repeat(np.arange(n_classes), n_per)
    return X.reshape(-1, dim), y


def test_ovo_fit_throughput(benchmark, ovo_problem):
    """Shared-sufficient-statistic one-vs-one fitting (66 QDA pairs)."""
    X, y = ovo_problem
    clf = benchmark(lambda: OneVsOneClassifier(QDA()).fit(X, y))
    assert clf.predict(X[:4]).shape == (4,)


def test_ovo_fit_reference_throughput(benchmark, ovo_problem):
    """Per-pair refitting baseline (identical classifiers)."""
    X, y = ovo_problem
    clf = benchmark(lambda: ovo_fit(OneVsOneClassifier(QDA()), X, y))
    assert clf.predict(X[:4]).shape == (4,)


@pytest.fixture(scope="module")
def small_disassembler():
    """Two-group hierarchy plus a 128-window evaluation stream."""
    from repro.power.acquisition import random_instance
    from repro.power.dataset import TraceSet

    acq = Acquisition(seed=11)
    config = FeatureConfig(kl_threshold="auto:0.9", top_k=5, n_components=10)
    group_parts = []
    for code, (name, pool) in enumerate(
        (("G1", ["ADD", "EOR"]), ("G5", ["LDS", "ST_X"]))
    ):
        def sampler(rng, addr, _pool=pool):
            return random_instance(
                str(rng.choice(_pool)), rng, word_address=addr
            )

        w, p = acq.capture_class(
            pool[0], 60, 3, label_override=name, target_sampler=sampler
        )
        group_parts.append((w, code, p))
    group_set = TraceSet(
        traces=np.concatenate([w for w, _, _ in group_parts]),
        labels=np.concatenate(
            [np.full(len(w), c) for w, c, _ in group_parts]
        ),
        label_names=("G1", "G5"),
        program_ids=np.concatenate([p for _, _, p in group_parts]),
    )
    g1 = acq.capture_instruction_set(["ADD", "EOR"], 60, 3)
    g5 = acq.capture_instruction_set(["LDS", "ST_X"], 60, 3)
    dis = SideChannelDisassembler(config, classifier_factory=QDA)
    dis.fit_group_level(group_set)
    dis.fit_instruction_level(1, g1)
    dis.fit_instruction_level(5, g5)
    windows = np.concatenate([g1.traces[:64], g5.traces[:64]])
    return dis, windows


def test_hierarchy_predict_throughput(benchmark, small_disassembler):
    """Batched hierarchical inference: one pipeline pass per group."""
    dis, windows = small_disassembler
    keys = benchmark(
        lambda: dis.predict_instructions(windows, adapt=False)
    )
    assert len(keys) == len(windows)


def test_hierarchy_predict_reference_throughput(benchmark, small_disassembler):
    """Row-at-a-time streaming baseline (identical keys)."""
    dis, windows = small_disassembler
    keys = benchmark(
        lambda: predict_instructions(dis, windows, adapt=False)
    )
    assert len(keys) == len(windows)


def test_simulator_throughput(benchmark):
    """Simulated instructions per second (capture-time cost)."""
    program = "\n".join(["add r1, r2", "eor r3, r4", "lds r5, 0x0100"] * 200)

    def run():
        cpu = AvrCpu(program)
        return cpu.run()

    events = benchmark(run)
    assert len(events) == 600


def test_render_throughput(benchmark):
    """Power-trace samples rendered per second (coefficient matmul)."""
    cpu = AvrCpu("\n".join(["add r1, r2"] * 300))
    events = cpu.run()
    model = PowerModel()
    trace = benchmark(lambda: model.render_events(events))
    assert len(trace) > 300 * 157


def test_render_serial_throughput(benchmark):
    """Event-at-a-time renderer oracle, for before/after comparison."""
    cpu = AvrCpu("\n".join(["add r1, r2"] * 300))
    events = cpu.run()
    model = PowerModel()
    trace = benchmark(lambda: render_events(model, events))
    assert len(trace) > 300 * 157
