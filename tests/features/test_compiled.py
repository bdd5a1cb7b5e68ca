"""Parity suite for the compiled (folded-GEMM) inference path.

``CompiledPipeline`` re-expresses the staged trace→scores path as
precomputed matrix products, so every test here pins it against the
staged pipeline + classifier it was built from:

* the float64 twin against a double-precision staged pipeline at
  ≤ 1e-10 (the fold is exact; only reassociation noise remains);
* the float32 fast path against the default staged pipeline at ≤ 1e-4
  (single-precision rounding on both sides);

across all three discriminant heads (LDA / QDA / GaussianNB), plus
pickle round-trips, build determinism, unsupported-classifier errors,
and the batch-adaptation semantics of :class:`FeaturePipeline`.
"""

import pickle

import numpy as np
import pytest

from repro.core.hierarchy import LevelModel
from repro.dsp import CWT, CwtConfig
from repro.features import (
    CompiledPipeline,
    CompileError,
    FeatureConfig,
    FeaturePipeline,
)
from repro.ml import LDA, QDA, GaussianNB, SVC


def synthetic_traces(rng, n_per_class, n_classes=3, n_samples=128):
    """Classes = distinct ring bursts; program-dependent offsets added.

    Same generator as ``test_pipeline.synthetic_traces`` (duplicated:
    test subdirectories are not packages, so no relative imports).
    """
    traces, labels, pids = [], [], []
    t = np.arange(n_samples)
    for code in range(n_classes):
        period = 5 + 4 * code
        center = 40 + 15 * code
        envelope = np.exp(-0.5 * ((t - center) / 6.0) ** 2)
        signature = envelope * np.cos(2 * np.pi * (t - center) / period)
        for i in range(n_per_class):
            pid = i % 3
            trace = (
                2.0 * signature
                + rng.normal(0, 0.15, n_samples)
                + 0.5 * pid  # program DC offset
            )
            traces.append(trace)
            labels.append(code)
            pids.append(pid)
    return (
        np.array(traces, dtype=np.float32),
        np.array(labels),
        np.array(pids),
        tuple(f"C{i}" for i in range(n_classes)),
    )


SMALL_CWT = CwtConfig(n_scales=16, scale_min=2.0, scale_max=48.0)
DOUBLE_CWT = CwtConfig(
    n_scales=16, scale_min=2.0, scale_max=48.0, precision="double"
)

HEADS = [LDA, QDA, GaussianNB]


def _fitted(cwt, normalize="train_stats", seed=0, n_components=5):
    rng = np.random.default_rng(seed)
    traces, labels, pids, names = synthetic_traces(rng, 60)
    pipe = FeaturePipeline(
        FeatureConfig(
            kl_threshold="auto:0.9",
            n_components=n_components,
            normalize=normalize,
            cwt=cwt,
        )
    )
    pipe.fit(traces, labels, pids, names)
    return pipe, traces, labels, names


@pytest.fixture(scope="module")
def double_fit():
    return _fitted(DOUBLE_CWT)


@pytest.fixture(scope="module")
def single_fit():
    return _fitted(SMALL_CWT)


class TestFloat64Parity:
    """The f64 twin is exact against the double-precision staged path."""

    @pytest.mark.parametrize("head", HEADS)
    def test_scores_match_staged(self, double_fit, head):
        pipe, traces, labels, names = double_fit
        clf = head().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names, dtype="float64")
        staged_features = pipe.transform(traces)
        np.testing.assert_allclose(
            compiled.transform(traces),
            staged_features,
            rtol=1e-10,
            atol=1e-10,
        )
        assert np.array_equal(
            compiled.predict(traces), clf.predict(staged_features)
        )

    def test_feature_error_bound(self, double_fit):
        pipe, traces, _, names = double_fit
        clf = QDA().fit(pipe.transform(traces), np.arange(len(traces)) % 3)
        compiled = CompiledPipeline.build(pipe, clf, names, dtype="float64")
        staged = pipe.transform(traces)
        error = np.max(np.abs(compiled.transform(traces) - staged))
        assert error <= 1e-10 * max(1.0, np.abs(staged).max())


class TestFloat32Parity:
    """The f32 fast path tracks the default staged path to ~1e-4."""

    @pytest.mark.parametrize("head", HEADS)
    def test_features_and_predictions(self, single_fit, head):
        pipe, traces, labels, names = single_fit
        staged_features = pipe.transform(traces)
        clf = head().fit(staged_features, labels)
        compiled = CompiledPipeline.build(pipe, clf, names, dtype="float32")
        np.testing.assert_allclose(
            compiled.transform(traces),
            staged_features,
            rtol=1e-4,
            atol=1e-4,
        )
        staged_pred = clf.predict(staged_features)
        assert (compiled.predict(traces) == staged_pred).mean() > 0.99

    @pytest.mark.parametrize("normalize", ["batch", "none"])
    def test_normalization_modes(self, normalize):
        pipe, traces, labels, names = _fitted(SMALL_CWT, normalize=normalize)
        staged = pipe.transform(traces)
        clf = LDA().fit(staged, labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        np.testing.assert_allclose(
            compiled.transform(traces), staged, rtol=1e-4, atol=1e-4
        )

    def test_confidence_matches_staged_posterior(self, single_fit):
        pipe, traces, labels, names = single_fit
        staged_features = pipe.transform(traces)
        clf = QDA().fit(staged_features, labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        codes, confidence = compiled.predict_with_confidence(traces)
        proba = clf.predict_proba(staged_features)
        rows = np.arange(len(codes))
        columns = np.searchsorted(clf.classes_, codes)
        agree = np.abs(confidence - proba[rows, columns]) < 1e-3
        assert agree.mean() > 0.99


class TestAdaptation:
    """Batch-adaptive normalization refolds with the batch's moments."""

    def test_adaptive_batch_matches_staged(self):
        pipe, traces, labels, names = _fitted(SMALL_CWT, normalize="batch")
        clf = LDA().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        shifted = traces * 1.5  # deployment gain
        np.testing.assert_allclose(
            compiled.transform(shifted),
            pipe.transform(shifted),
            rtol=1e-3,
            atol=1e-3,
        )

    def test_small_batch_falls_back_to_train_stats(self):
        pipe, traces, labels, names = _fitted(SMALL_CWT, normalize="batch")
        clf = LDA().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        single = compiled.transform(traces[:1])
        frozen = compiled.transform(traces, adapt=False)
        np.testing.assert_allclose(single[0], frozen[0], rtol=1e-5, atol=1e-5)

    def test_adapt_override(self):
        pipe, traces, labels, names = _fitted(SMALL_CWT, normalize="batch")
        clf = LDA().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        adapted = compiled.transform(traces * 2.0, adapt=True)
        frozen = compiled.transform(traces * 2.0, adapt=False)
        assert not np.allclose(adapted, frozen)


class TestArtifact:
    """Pickling, determinism, and build metadata."""

    def test_pickle_round_trip(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = QDA().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names)
        restored = pickle.loads(pickle.dumps(compiled))
        np.testing.assert_array_equal(
            restored.predict(traces), compiled.predict(traces)
        )
        np.testing.assert_array_equal(
            restored.decision_scores(traces), compiled.decision_scores(traces)
        )
        assert restored.meta == compiled.meta
        assert restored.label_names == compiled.label_names

    def test_build_is_deterministic(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = QDA().fit(pipe.transform(traces), labels)
        first = CompiledPipeline.build(pipe, clf, names)
        second = CompiledPipeline.build(pipe, clf, names)
        np.testing.assert_array_equal(
            first.decision_scores(traces), second.decision_scores(traces)
        )
        np.testing.assert_array_equal(
            first._projection, second._projection
        )
        np.testing.assert_array_equal(
            first._point_matrix, second._point_matrix
        )

    def test_meta_contents(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = GaussianNB().fit(pipe.transform(traces), labels)
        compiled = CompiledPipeline.build(pipe, clf, names, dtype="float32")
        meta = compiled.meta
        assert meta["classifier"] == "GNB"
        assert meta["dtype"] == "float32"
        assert meta["n_points"] == pipe.n_points
        assert meta["n_components"] == pipe.n_features
        assert meta["n_classes"] == 3

    def test_unsupported_classifier_raises(self, single_fit):
        pipe, traces, labels, names = single_fit
        features = pipe.transform(traces)
        svc = SVC(max_iter=10).fit(features[:40], labels[:40])
        with pytest.raises(CompileError):
            CompiledPipeline.build(pipe, svc, names)

    def test_unfitted_pipeline_raises(self):
        pipe = FeaturePipeline(FeatureConfig(cwt=SMALL_CWT))
        with pytest.raises(CompileError):
            CompiledPipeline.build(pipe, QDA(), ())


class TestLevelModelRouting:
    """The hierarchy's lazy compiled routing and its staged fallback."""

    def test_predictions_match_staged_path(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = QDA().fit(pipe.transform(traces), labels)
        model = LevelModel(pipeline=pipe, classifier=clf, label_names=names)
        compiled_pred = model.predict(traces)
        assert model.compiled is not None  # lazily built
        staged_pred = clf.predict(pipe.transform(traces))
        assert (compiled_pred == staged_pred).mean() > 0.99

    def test_compile_is_idempotent(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = QDA().fit(pipe.transform(traces), labels)
        model = LevelModel(pipeline=pipe, classifier=clf, label_names=names)
        model.predict(traces)
        lazy = model.compiled
        assert model.compile() is lazy
        assert model.compile(dtype="float64") is not lazy

    def test_unsupported_classifier_falls_back(self, single_fit):
        pipe, traces, labels, names = single_fit
        features = pipe.transform(traces)
        svc = SVC().fit(features, labels)
        model = LevelModel(pipeline=pipe, classifier=svc, label_names=names)
        staged_pred = svc.predict(features)
        np.testing.assert_array_equal(model.predict(traces), staged_pred)
        assert model.compiled is None
        assert model._compile_failed
        with pytest.raises(CompileError):
            model.compile()

    def test_three_class_svm_level_reports_certainty(self, single_fit):
        # A 3-class SVC has as many pair margins as classes; they are
        # not class scores, so the level never abstains on them.
        pipe, traces, labels, names = single_fit
        features = pipe.transform(traces)
        svc = SVC().fit(features, labels)
        model = LevelModel(pipeline=pipe, classifier=svc, label_names=names)
        codes, confidence = model.predict_with_confidence(traces)
        np.testing.assert_array_equal(codes, svc.predict(features))
        np.testing.assert_array_equal(confidence, np.ones(len(traces)))

    def test_level_model_pickles_with_compiled(self, single_fit):
        pipe, traces, labels, names = single_fit
        clf = QDA().fit(pipe.transform(traces), labels)
        model = LevelModel(pipeline=pipe, classifier=clf, label_names=names)
        model.compile()
        restored = pickle.loads(pickle.dumps(model))
        assert restored.compiled is not None
        np.testing.assert_array_equal(
            restored.predict(traces), model.predict(traces)
        )


class TestNoCwtPath:
    """Time-domain (``use_cwt=False``) pipelines fold to a pure gather."""

    def test_matches_staged(self):
        rng = np.random.default_rng(5)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(
                kl_threshold="auto:0.9",
                n_components=4,
                use_cwt=False,
            )
        )
        pipe.fit(traces, labels, pids, names)
        staged = pipe.transform(traces)
        clf = LDA().fit(staged, labels)
        compiled = CompiledPipeline.build(pipe, clf, names, dtype="float64")
        np.testing.assert_allclose(
            compiled.transform(traces), staged, rtol=1e-10, atol=1e-10
        )
        assert np.array_equal(compiled.predict(traces), clf.predict(staged))


class TestPipelineFoldedPath:
    """``FeaturePipeline`` inference itself rides the folded GEMM."""

    def test_folded_matches_staged_points(self, single_fit):
        pipe, traces, _, _ = single_fit
        folded = pipe.transform(traces)
        staged_values = pipe._cwt.transform_points(traces, pipe.points)
        staged = pipe.pca.transform(pipe._normalize(staged_values, fit=False))
        np.testing.assert_allclose(folded, staged, rtol=1e-4, atol=1e-4)

    def test_point_matrix_shared_with_compiled_build(
        self, single_fit, monkeypatch
    ):
        """One ``point_operator`` call serves transform and every build."""
        pipe, traces, labels, _ = single_fit
        restored = pickle.loads(pickle.dumps(pipe))  # empty operator cache
        calls = []
        point_operator = CWT.point_operator

        def counting(self, points):
            calls.append(len(points))
            return point_operator(self, points)

        monkeypatch.setattr(CWT, "point_operator", counting)
        features = restored.transform(traces)
        clf = QDA().fit(features, labels)
        CompiledPipeline.build(restored, clf, dtype="float32")
        CompiledPipeline.build(restored, clf, dtype="float64")
        assert calls == [restored.n_points]

    def test_point_gemm_cache_dropped_from_pickle(self, single_fit):
        pipe, traces, _, _ = single_fit
        pipe.transform(traces)  # populate the cache
        assert pipe._point_gemm is not None
        restored = pickle.loads(pickle.dumps(pipe))
        assert restored._point_gemm is None
        np.testing.assert_allclose(
            restored.transform(traces),
            pipe.transform(traces),
            rtol=1e-12,
            atol=1e-12,
        )
