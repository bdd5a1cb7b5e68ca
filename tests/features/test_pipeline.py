"""FeaturePipeline integration tests on synthetic trace data."""

import numpy as np
import pytest

from repro.dsp import CwtConfig
from repro.features import FeatureConfig, FeaturePipeline


def synthetic_traces(rng, n_per_class, n_classes=3, n_samples=128):
    """Classes = distinct ring bursts; program-dependent offsets added."""
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


class TestFit:
    def test_fit_transform_shapes(self):
        rng = np.random.default_rng(0)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(kl_threshold="auto:0.9", n_components=5, cwt=SMALL_CWT)
        )
        pipe.fit(traces, labels, pids, names)
        assert pipe.n_points > 0
        out = pipe.transform(traces)
        assert out.shape == (len(traces), 5)

    def test_classes_separate_in_feature_space(self):
        rng = np.random.default_rng(1)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(kl_threshold="auto:0.9", n_components=4, cwt=SMALL_CWT)
        )
        features = pipe.fit(traces, labels, pids, names).transform(traces)
        centroids = np.array(
            [features[labels == c].mean(axis=0) for c in range(3)]
        )
        spread = np.mean(
            [
                np.linalg.norm(features[labels == c] - centroids[c], axis=1).mean()
                for c in range(3)
            ]
        )
        gaps = [
            np.linalg.norm(centroids[i] - centroids[j])
            for i in range(3) for j in range(i + 1, 3)
        ]
        assert min(gaps) > 1.5 * spread

    def test_component_truncation(self):
        rng = np.random.default_rng(2)
        traces, labels, pids, names = synthetic_traces(rng, 40)
        pipe = FeaturePipeline(
            FeatureConfig(kl_threshold="auto:0.9", n_components=6, cwt=SMALL_CWT)
        )
        pipe.fit(traces, labels, pids, names)
        full = pipe.transform(traces)
        truncated = pipe.transform(traces, n_components=2)
        np.testing.assert_allclose(truncated, full[:, :2])

    def test_time_domain_mode(self):
        rng = np.random.default_rng(3)
        traces, labels, pids, names = synthetic_traces(rng, 40)
        pipe = FeaturePipeline(
            FeatureConfig(kl_threshold="auto:0.9", n_components=4, use_cwt=False)
        )
        out = pipe.fit(traces, labels, pids, names).transform(traces)
        assert out.shape[1] == 4
        assert all(j == 0 for (j, _) in pipe.points)  # single pseudo-scale

    def test_unknown_normalize_rejected(self):
        with pytest.raises(ValueError):
            FeaturePipeline(FeatureConfig(normalize="bogus"))

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            FeaturePipeline().transform(np.zeros((2, 128)))

    def test_wrong_trace_length_rejected(self):
        rng = np.random.default_rng(4)
        traces, labels, pids, names = synthetic_traces(rng, 30)
        pipe = FeaturePipeline(
            FeatureConfig(kl_threshold="auto:0.9", n_components=3, cwt=SMALL_CWT)
        )
        pipe.fit(traces, labels, pids, names)
        with pytest.raises(ValueError):
            pipe.transform(np.zeros((2, 64)))

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(5)
        traces, labels, pids, names = synthetic_traces(rng, 30)
        with pytest.raises(ValueError, match="no traces"):
            FeaturePipeline(FeatureConfig(cwt=SMALL_CWT)).fit(
                traces, labels, pids, names + ("GHOST",)
            )


class TestSinglePassFit:
    """fit_transform and the one fit-time point-value route."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(5)
        return synthetic_traces(rng, 45)

    def _config(self):
        return FeatureConfig(
            kl_threshold="auto:0.9", n_components=4, cwt=SMALL_CWT
        )

    def test_fit_transform_matches_fit_then_transform(self, data):
        traces, labels, pids, names = data
        features = FeaturePipeline(self._config()).fit_transform(
            traces, labels, pids, names
        )
        reference = (
            FeaturePipeline(self._config())
            .fit(traces, labels, pids, names)
            .transform(traces, adapt=False)
        )
        # Fitting reads its point values from the same folded GEMM as
        # transform, so the two agree to float64 rounding at most.
        np.testing.assert_allclose(features, reference, rtol=0, atol=1e-12)

    def test_fit_transform_truncates_components(self, data):
        traces, labels, pids, names = data
        features = FeaturePipeline(self._config()).fit_transform(
            traces, labels, pids, names, n_components=2
        )
        assert features.shape == (len(traces), 2)

    def test_fit_is_independent_of_cwt_memory_budget(self, data, monkeypatch):
        """REPRO_CWT_MEM_MB bounds memory only: the model is bit-identical."""
        traces, labels, pids, names = data
        default = FeaturePipeline(self._config()).fit(
            traces, labels, pids, names
        )
        monkeypatch.setenv("REPRO_CWT_MEM_MB", "1")
        small = FeaturePipeline(self._config()).fit(
            traces, labels, pids, names
        )
        assert small.points == default.points
        np.testing.assert_array_equal(
            small.pca.components_, default.pca.components_
        )
        np.testing.assert_array_equal(
            small.transform(traces), default.transform(traces)
        )


class TestNormalizationModes:
    def test_batch_mode_removes_gain_shift(self):
        rng = np.random.default_rng(6)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(
                kl_threshold="auto:0.9", n_components=4,
                normalize="batch", cwt=SMALL_CWT,
            )
        )
        pipe.fit(traces, labels, pids, names)
        base = pipe.transform(traces)
        shifted = pipe.transform(traces * 1.5)  # deployment gain
        np.testing.assert_allclose(base, shifted, atol=0.2)

    def test_small_batch_falls_back_to_train_stats(self):
        rng = np.random.default_rng(7)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(
                kl_threshold="auto:0.9", n_components=4,
                normalize="batch", cwt=SMALL_CWT,
            )
        )
        pipe.fit(traces, labels, pids, names)
        single = pipe.transform(traces[:1])
        batch = pipe.transform(traces, adapt=False)
        np.testing.assert_allclose(single[0], batch[0], atol=1e-9)

    def test_adapt_override(self):
        rng = np.random.default_rng(8)
        traces, labels, pids, names = synthetic_traces(rng, 60)
        pipe = FeaturePipeline(
            FeatureConfig(
                kl_threshold="auto:0.9", n_components=4,
                normalize="batch", cwt=SMALL_CWT,
            )
        )
        pipe.fit(traces, labels, pids, names)
        adapted = pipe.transform(traces * 2.0, adapt=True)
        frozen = pipe.transform(traces * 2.0, adapt=False)
        assert not np.allclose(adapted, frozen)
