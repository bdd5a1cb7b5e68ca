"""The hierarchical side-channel disassembler (the paper's contribution).

Classification is performed in three levels (§2.1):

1. **group level** — a measured window is classified into one of the 8
   Table 2 instruction groups;
2. **instruction level** — it is classified into a specific instruction
   class within the predicted group;
3. **operand level** — the destination (Rd) and source (Rr) register
   addresses are recovered by dedicated 32-class classifiers.

Each level owns its feature pipeline (CWT -> KL/DNVP -> normalize -> PCA)
and a template classifier.  The hierarchy slashes the number of binary
classifiers needed: for 112 classes, flat one-vs-one SVM needs 6216
machines, hierarchical at most C(8,2) + C(20,2) = 218.

Inference is *batched*: windows routed to the same group run through
that group's pipeline + classifier as one batch, and label/operand
decoding is vectorized.  The row-at-a-time walk a naive disassembler
loop would do is the ``predict_instructions`` test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..features.compiled import CompiledPipeline, CompileError
from ..features.pipeline import FeatureConfig, FeaturePipeline
from ..isa import REGISTRY, OperandKind
from ..ml.base import Classifier
from ..ml.discriminant import QDA
from ..obs import trace as _obs
from ..power.dataset import TraceSet
from .types import ABSTAIN_KEY, DisassembledInstruction

__all__ = ["LevelModel", "SideChannelDisassembler"]


def _class_columns(classifier, codes: np.ndarray) -> np.ndarray:
    """Map predicted label codes to score-matrix columns."""
    classes = getattr(classifier, "classes_", None)
    if classes is None:
        return np.asarray(codes, dtype=np.int64)
    return np.searchsorted(np.asarray(classes), codes)


def _classifier_confidence(
    classifier, features: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """Per-row confidence of the predicted class, in ``[0, 1]``.

    Prefers calibrated posteriors (``predict_proba``), falls back to a
    logistic squash of a binary margin, and degrades to certainty (all
    ones — never abstain) otherwise, as for the multiclass SVM whose
    decision surface is per pair, not per class.
    """
    n = len(codes)
    proba_fn = getattr(classifier, "predict_proba", None)
    if proba_fn is not None:
        proba = np.asarray(proba_fn(features), dtype=np.float64)
        return proba[np.arange(n), _class_columns(classifier, codes)]
    decision_fn = getattr(classifier, "decision_function", None)
    classes = getattr(classifier, "classes_", None)
    if decision_fn is not None and classes is not None:
        scores = np.asarray(decision_fn(features), dtype=np.float64)
        if scores.ndim == 1 and len(classes) == 2:
            # Binary margin: logistic squash of its absolute value.
            return 1.0 / (1.0 + np.exp(-np.abs(scores)))
    return np.ones(n, dtype=np.float64)


@dataclass
class LevelModel:
    """One fitted classification level: feature pipeline + classifier.

    Inference routes through a :class:`CompiledPipeline` — the whole
    trace→scores path folded into precomputed GEMMs — built lazily on
    the first predict call (or eagerly via :meth:`compile`).  Classifier
    templates without a discriminant fold (SVM) fall back to the staged
    pipeline transparently.
    """

    pipeline: FeaturePipeline
    classifier: Classifier
    label_names: Tuple[str, ...]
    compiled: Optional[CompiledPipeline] = None
    _compile_failed: bool = field(default=False, repr=False)

    def compile(self, dtype="float32") -> CompiledPipeline:
        """Fold this level into a :class:`CompiledPipeline` and keep it.

        Idempotent: an artifact already built in ``dtype`` (e.g. lazily,
        by an earlier predict call) is returned as is.

        Raises:
            CompileError: the classifier has no discriminant fold.
        """
        compiled = self.compiled
        if compiled is not None and compiled.dtype == np.dtype(dtype):
            return compiled
        self.compiled = CompiledPipeline.build(
            self.pipeline,
            self.classifier,
            self.label_names,
            dtype=dtype,
        )
        self._compile_failed = False
        return self.compiled

    def _compiled_for(self) -> Optional[CompiledPipeline]:
        """The compiled artifact, or ``None`` for an unsupported classifier.

        Builds lazily once; a failed build is remembered so unsupported
        classifiers don't retry per batch.
        """
        if self.compiled is None and not self._compile_failed:
            try:
                self.compile()
            except CompileError:
                self._compile_failed = True
        return self.compiled

    @classmethod
    def train(
        cls,
        trace_set: TraceSet,
        feature_config: FeatureConfig,
        classifier_factory: Callable[[], Classifier],
    ) -> "LevelModel":
        """Fit a level on a labelled trace set."""
        with _obs.span(
            "train.level",
            n=len(trace_set.traces),
            n_classes=len(trace_set.label_names),
        ):
            pipeline = FeaturePipeline(feature_config)
            features = pipeline.fit_transform(
                trace_set.traces,
                trace_set.labels,
                trace_set.program_ids,
                trace_set.label_names,
            )
            classifier = classifier_factory()
            classifier.fit(features, trace_set.labels)
            return cls(
                pipeline=pipeline,
                classifier=classifier,
                label_names=trace_set.label_names,
            )

    def predict(
        self, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Predict integer codes for raw windows."""
        compiled = self._compiled_for()
        if compiled is not None:
            return compiled.predict(windows, adapt=adapt)
        features = self.pipeline.transform(windows, adapt=adapt)
        return self.classifier.predict(features)

    def predict_keys(
        self, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> List[str]:
        """Predict class keys for raw windows."""
        names = np.asarray(self.label_names, dtype=object)
        return list(names[self.predict(windows, adapt=adapt)])

    def predict_with_confidence(
        self, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict integer codes plus per-row confidence in ``[0, 1]``.

        Confidence is the classifier's posterior for the winning class
        when it exposes one (see :func:`_classifier_confidence`); a
        classifier with no usable score surface reports certainty, so
        confidence gating degrades to never abstaining rather than
        abstaining on everything.  The compiled path reports the softmax
        posterior of its fused discriminant scores — the same quantity
        the staged LDA/QDA/naive-Bayes ``predict_proba`` computes.
        """
        compiled = self._compiled_for()
        if compiled is not None:
            return compiled.predict_with_confidence(windows, adapt=adapt)
        features = self.pipeline.transform(windows, adapt=adapt)
        codes = self.classifier.predict(features)
        return codes, _classifier_confidence(self.classifier, features, codes)

    def score(self, trace_set: TraceSet) -> float:
        """Successful recognition rate on a labelled trace set."""
        predictions = self.predict(trace_set.traces)
        return float(np.mean(predictions == trace_set.labels))


_REG_KINDS = (OperandKind.REG, OperandKind.REG_HIGH)


@lru_cache(maxsize=None)
def _register_slots(key: str) -> Tuple[bool, bool]:
    """Whether an instruction class carries an Rd (and an Rr) operand.

    Registry lookups are pure per class key, so the per-window loop in
    :meth:`SideChannelDisassembler.disassemble` resolves them through
    this cache instead of re-scanning the operand spec per window.
    """
    spec = REGISTRY.get(key)
    if spec is None:
        return False, False
    reg_slots = [op.kind for op in spec.operands if op.kind in _REG_KINDS]
    return len(reg_slots) >= 1, len(reg_slots) >= 2


class SideChannelDisassembler:
    """Three-level hierarchical power-trace disassembler.

    Args:
        feature_config: default feature pipeline configuration for all
            levels (override per level at fit time if needed).
        classifier_factory: template classifier constructor (paper
            compares LDA / QDA / SVM / naive Bayes; QDA by default).

    Typical use::

        dis = SideChannelDisassembler()
        dis.fit_group_level(group_traces)
        dis.fit_instruction_level(1, group1_traces)
        ...
        dis.fit_register_level("Rd", rd_traces)
        instructions = dis.disassemble(windows)
    """

    def __init__(
        self,
        feature_config: Optional[FeatureConfig] = None,
        classifier_factory: Callable[[], Classifier] = QDA,
    ) -> None:
        self.feature_config = (
            feature_config if feature_config is not None else FeatureConfig()
        )
        self.classifier_factory = classifier_factory
        self.group_model: Optional[LevelModel] = None
        self.instruction_models: Dict[int, LevelModel] = {}
        self.register_models: Dict[str, LevelModel] = {}

    # -- training ----------------------------------------------------------
    def fit_group_level(
        self,
        trace_set: TraceSet,
        feature_config: Optional[FeatureConfig] = None,
    ) -> LevelModel:
        """Fit level 1 on group-labelled traces (labels ``"G1"``..``"G8"``)."""
        self.group_model = LevelModel.train(
            trace_set,
            feature_config or self.feature_config,
            self.classifier_factory,
        )
        return self.group_model

    def fit_instruction_level(
        self,
        group: int,
        trace_set: TraceSet,
        feature_config: Optional[FeatureConfig] = None,
    ) -> LevelModel:
        """Fit level 2 for one group on instruction-labelled traces."""
        model = LevelModel.train(
            trace_set,
            feature_config or self.feature_config,
            self.classifier_factory,
        )
        self.instruction_models[group] = model
        return model

    def fit_register_level(
        self,
        role: str,
        trace_set: TraceSet,
        feature_config: Optional[FeatureConfig] = None,
    ) -> LevelModel:
        """Fit level 3 for one register role (``"Rd"`` or ``"Rr"``)."""
        if role not in ("Rd", "Rr"):
            raise ValueError("role must be 'Rd' or 'Rr'")
        model = LevelModel.train(
            trace_set,
            feature_config or self.feature_config,
            self.classifier_factory,
        )
        self.register_models[role] = model
        return model

    # -- compilation -----------------------------------------------------------
    def compile(self, dtype="float32") -> Dict[str, bool]:
        """Eagerly fold every fitted level into its compiled artifact.

        Best-effort: levels whose classifier has no discriminant fold
        (SVM) keep the staged path.  Levels already compiled
        (or already known not to compile) during earlier predict calls
        are not rebuilt.  Returns a map of level name → whether it
        compiled, e.g. ``{"group": True, "I1": True, "Rd": False}``.
        """
        outcomes: Dict[str, bool] = {}

        def attempt(name: str, model: LevelModel) -> None:
            if model._compile_failed:
                outcomes[name] = False
                return
            try:
                model.compile(dtype=dtype)
                outcomes[name] = True
            except CompileError:
                model._compile_failed = True
                outcomes[name] = False

        if self.group_model is not None:
            attempt("group", self.group_model)
        for group, model in self.instruction_models.items():
            attempt(f"I{group}", model)
        for role, model in self.register_models.items():
            attempt(role, model)
        return outcomes

    # -- inference -----------------------------------------------------------
    def predict_groups(
        self, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Level-1 prediction: group number per window."""
        if self.group_model is None:
            raise RuntimeError("group level is not fitted")
        with _obs.span("infer.groups", n=len(windows)):
            codes = self.group_model.predict(windows, adapt=adapt)
        numbers = np.array(
            [int(name[1:]) for name in self.group_model.label_names]
        )
        return numbers[codes]

    def predict_groups_with_confidence(
        self, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Level-1 prediction with per-window confidence."""
        if self.group_model is None:
            raise RuntimeError("group level is not fitted")
        codes, confidence = self.group_model.predict_with_confidence(
            windows, adapt=adapt
        )
        numbers = np.array(
            [int(name[1:]) for name in self.group_model.label_names]
        )
        return numbers[codes], confidence

    def predict_instructions_with_confidence(
        self,
        windows: np.ndarray,
        groups: Optional[np.ndarray] = None,
        group_confidence: Optional[np.ndarray] = None,
        adapt: Optional[bool] = None,
    ) -> Tuple[List[str], np.ndarray]:
        """Level-2 prediction with chained per-window confidence.

        The reported confidence is the product of the level-1 and
        level-2 posteriors for the path taken through the hierarchy —
        the probability both routing decisions were right.  Windows
        routed to a group without a fitted level 2 keep their group-only
        placeholder key and the level-1 confidence alone.
        """
        windows = np.asarray(windows)
        if groups is None or group_confidence is None:
            groups, group_confidence = self.predict_groups_with_confidence(
                windows, adapt=adapt
            )
        keys = np.empty(len(windows), dtype=object)
        confidence = np.asarray(group_confidence, dtype=np.float64).copy()
        for group in np.unique(groups):
            model = self.instruction_models.get(int(group))
            rows = np.flatnonzero(groups == group)
            if model is None:
                keys[rows] = f"G{int(group)}?"
                continue
            codes, level_confidence = model.predict_with_confidence(
                windows[rows], adapt=adapt
            )
            names = np.asarray(model.label_names, dtype=object)
            keys[rows] = names[codes]
            confidence[rows] *= level_confidence
        return list(keys), confidence

    def predict_instructions(
        self,
        windows: np.ndarray,
        groups: Optional[np.ndarray] = None,
        adapt: Optional[bool] = None,
    ) -> List[str]:
        """Level-2 prediction: class key per window (hierarchical).

        Windows are grouped by their level-1 prediction and each group's
        pipeline + classifier runs **once** on the whole group batch.

        Note on ``adapt``: level-2 batches contain only the windows routed
        to one group, so their class mixture is typically *not*
        representative of training — pass ``adapt=False`` for real-code
        streams unless the batch is known to be balanced.
        """
        windows = np.asarray(windows)
        if groups is None:
            groups = self.predict_groups(windows, adapt=adapt)
        keys = np.empty(len(windows), dtype=object)
        with _obs.span("infer.instructions", n=len(windows)):
            for group in np.unique(groups):
                model = self.instruction_models.get(int(group))
                rows = np.flatnonzero(groups == group)
                if model is None:
                    # Group without a fitted level 2: report the group only.
                    keys[rows] = f"G{int(group)}?"
                    continue
                keys[rows] = model.predict_keys(windows[rows], adapt=adapt)
        return list(keys)

    def predict_register(
        self, role: str, windows: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Level-3 prediction: register address per window."""
        model = self.register_models.get(role)
        if model is None:
            raise RuntimeError(f"register level {role!r} is not fitted")
        codes = model.predict(windows, adapt=adapt)
        numbers = np.array([int(name[2:]) for name in model.label_names])
        return numbers[codes]

    def disassemble(
        self,
        windows: np.ndarray,
        adapt: Optional[bool] = None,
        abstain_threshold: Optional[float] = None,
    ) -> List[DisassembledInstruction]:
        """Full hierarchical disassembly of a window sequence.

        Args:
            windows: profiling windows in program order.
            adapt: batch-adaptation override; use ``False`` for real-code
                streams whose instruction mixture is skewed (see
                :meth:`predict_instructions`).
            abstain_threshold: when set, windows whose chained hierarchy
                confidence falls below it are reported as
                :data:`~repro.core.types.ABSTAIN_KEY` (``"??"``) instead
                of a low-confidence guess — a corrupted window that
                slipped past acquisition screening mostly lands here
                instead of becoming a silent misprediction.  ``None``
                (default) never abstains.
        """
        windows = np.asarray(windows)
        confidence: Optional[np.ndarray]
        with _obs.span("infer.disassemble", n=len(windows)):
            if abstain_threshold is None:
                groups = self.predict_groups(windows, adapt=adapt)
                keys = self.predict_instructions(windows, groups, adapt=adapt)
                confidence = None
            else:
                groups, group_confidence = (
                    self.predict_groups_with_confidence(windows, adapt=adapt)
                )
                keys, confidence = self.predict_instructions_with_confidence(
                    windows, groups, group_confidence, adapt=adapt
                )
            rd = (
                self.predict_register("Rd", windows, adapt=adapt)
                if "Rd" in self.register_models
                else [None] * len(windows)
            )
            rr = (
                self.predict_register("Rr", windows, adapt=adapt)
                if "Rr" in self.register_models
                else [None] * len(windows)
            )
            out: List[DisassembledInstruction] = []
            for i, key in enumerate(keys):
                conf = None if confidence is None else float(confidence[i])
                if conf is not None and conf < abstain_threshold:
                    out.append(
                        DisassembledInstruction(
                            key=ABSTAIN_KEY,
                            group=int(groups[i]),
                            confidence=conf,
                        )
                    )
                    continue
                want_rd, want_rr = _register_slots(key)
                out.append(
                    DisassembledInstruction(
                        key=key,
                        group=int(groups[i]),
                        rd=int(rd[i]) if want_rd and rd[i] is not None else None,
                        rr=int(rr[i]) if want_rr and rr[i] is not None else None,
                        confidence=conf,
                    )
                )
            if _obs.enabled():
                _obs.counter("hierarchy.windows").inc(len(out))
                _obs.counter("hierarchy.abstained").inc(
                    sum(1 for d in out if d.key == ABSTAIN_KEY)
                )
            return out

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted disassembler (templates included) to disk.

        Uses pickle: load only files you created yourself.  The package
        version is embedded and checked on load, since templates are only
        meaningful against the same pipeline code.
        """
        import pickle
        from pathlib import Path

        from .. import __version__

        payload = {
            "version": __version__,
            "feature_config": self.feature_config,
            "group_model": self.group_model,
            "instruction_models": self.instruction_models,
            "register_models": self.register_models,
        }
        with Path(path).open("wb") as handle:
            pickle.dump(payload, handle)

    @classmethod
    def load(cls, path) -> "SideChannelDisassembler":
        """Load a disassembler saved with :meth:`save`."""
        import pickle
        from pathlib import Path

        from .. import __version__

        with Path(path).open("rb") as handle:
            payload = pickle.load(handle)
        if payload.get("version") != __version__:
            raise ValueError(
                f"template file was written by repro "
                f"{payload.get('version')!r}, this is {__version__!r}; "
                f"re-train the templates"
            )
        instance = cls(feature_config=payload["feature_config"])
        instance.group_model = payload["group_model"]
        instance.instruction_models = payload["instruction_models"]
        instance.register_models = payload["register_models"]
        return instance

    @property
    def n_binary_classifiers_flat(self) -> int:
        """One-vs-one classifier count a flat 112-class SVM would need."""
        n = sum(len(m.label_names) for m in self.instruction_models.values())
        return n * (n - 1) // 2

    @property
    def n_binary_classifiers_hierarchical(self) -> int:
        """Worst-case one-vs-one count of the fitted hierarchy."""
        n_groups = (
            len(self.group_model.label_names) if self.group_model else 0
        )
        worst_group = max(
            (len(m.label_names) for m in self.instruction_models.values()),
            default=0,
        )
        return (
            n_groups * (n_groups - 1) // 2
            + worst_group * (worst_group - 1) // 2
        )
