"""Outside-in per-layer timing: wrap public entry points, keep a stack.

Each wrapped callable opens a frame on entry and closes it on exit; a
frame's *self* time is its wall time minus the wall time of the wrapped
frames it called.  Work done inside a private helper therefore lands on
the nearest wrapped (public) caller.  Nothing under ``src/`` changes: the
wrappers replace module and class attributes for the duration of a
:class:`Tracer` context and are removed on exit.

Names bound with ``from ... import`` are patched where they were imported
(``repro.sim.cpu.decode_one``, not only ``repro.isa.disasm.decode_one``).

Pool workers: when the capture pool really fans out, the wrapped
``parallel_map`` ships each work item inside :class:`_WorkerProbe`, which
records the worker's own frames (the pool forks, so workers inherit the
patched modules) and returns them with the result.  Worker time is added
to the layer totals but kept out of the main-process accounting, so
``unattributed`` and the shares describe the parent's wall clock only.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The tracer whose wrappers are installed (module-level so a forked pool
#: worker can find its inherited copy).
_ACTIVE: Optional["Tracer"] = None

#: Name of the root frame the harness opens around each traced operation;
#: its self time is the operation's unattributed wall time.
ROOT = "unattributed"


class Stats:
    """Per-layer call counts, self seconds and event counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def merge(self, other: "Stats") -> None:
        for name, value in other.calls.items():
            self.calls[name] += value
        for name, value in other.self_s.items():
            self.self_s[name] += value
        for name, value in other.counts.items():
            self.counts[name] += value

    def self_sum(self, prefix: str) -> float:
        """Self seconds of ``prefix`` and every layer nested under it."""
        return sum(
            value for name, value in self.self_s.items()
            if name == prefix or name.startswith(prefix + ".")
        )


class Tracer:
    """Installs wrappers on enter, removes them on exit.

    ``main`` holds frames recorded in this process; ``workers`` holds the
    frames pool workers shipped back.
    """

    def __init__(self) -> None:
        self.main = Stats()
        self.workers = Stats()
        self._stats = self.main
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- frames ---------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])
        self._stats.calls[name] += 1

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        wall = time.perf_counter() - start
        self._stats.self_s[name] += wall - children
        if self._stack:
            self._stack[-1][2] += wall

    def count(self, name: str, value: int) -> None:
        self._stats.counts[name] += int(value)

    # -- patching -------------------------------------------------------------
    def patch(
        self,
        owner,
        attr: str,
        layer: str,
        counter: Optional[str] = None,
        measure: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a frame-recording wrapper.

        ``counter``/``measure`` add ``measure(result)`` to an event
        counter on every return (e.g. events produced per ``run``).
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self.count(counter, measure(result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def patch_parallel_map(self, owner, attr: str, layer: str) -> None:
        """Wrap a ``parallel_map`` binding.

        A call that resolves to the serial path is transparent (counted,
        no frame), so its per-item work lands on the caller.  A pooled
        call gets a frame (the parent's wait on the pool) and probes its
        work items to collect the workers' frames.
        """
        from repro.util.parallel import effective_workers, resolve_n_jobs

        raw = owner.__dict__[attr]

        @functools.wraps(raw)
        def wrapper(fn, items, n_jobs=None, min_items_per_worker=1, **kwargs):
            items = list(items)
            workers = effective_workers(
                len(items), resolve_n_jobs(n_jobs), min_items_per_worker
            )
            if workers <= 1:
                self._stats.calls[layer] += 1
                return raw(fn, items, n_jobs, min_items_per_worker, **kwargs)
            self.enter(layer)
            try:
                shipped = raw(
                    _WorkerProbe(fn), items, n_jobs, min_items_per_worker,
                    **kwargs,
                )
            finally:
                self.exit()
            results = []
            for value, stats in shipped:
                if stats is not None:
                    self.workers.merge(stats)
                results.append(value)
            return results

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def __enter__(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        _ACTIVE = self
        try:
            install_layers(self)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        _ACTIVE = None

    def totals(self) -> Stats:
        """Main-process and worker frames combined."""
        merged = Stats()
        merged.merge(self.main)
        merged.merge(self.workers)
        return merged


class _WorkerProbe:
    """Picklable work-item wrapper: run ``fn`` under a fresh worker frame set.

    In a forked worker the module global :data:`_ACTIVE` is the worker's
    copy of the parent's tracer, with the patched modules still in place.
    The file task's own residual is attributed to ``power.capture``.
    Items the pool salvages serially run in the parent, under its
    open ``parallel_map`` frame.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.parent_pid = os.getpid()

    def __call__(self, item):
        tracer = _ACTIVE
        if tracer is None or os.getpid() == self.parent_pid:
            return self.fn(item), None
        tracer._stats = Stats()
        tracer._stack = []
        tracer.enter("power.capture")
        try:
            value = self.fn(item)
        finally:
            tracer.exit()
        stats, tracer._stats = tracer._stats, tracer.main
        return value, stats


def install_layers(tracer: Tracer) -> None:
    """The layer map: which public entry point belongs to which layer."""
    import repro.core.hierarchy as hierarchy
    import repro.dsp.cwt as cwt
    import repro.experiments.endtoend as endtoend
    import repro.experiments.workloads as workloads
    import repro.features.compiled as compiled
    import repro.features.pca as pca
    import repro.features.pipeline as pipeline
    import repro.features.selection as selection
    import repro.isa.assembler as assembler
    import repro.ml.discriminant as discriminant
    import repro.power.acquisition as acquisition
    import repro.power.faults as faults
    import repro.power.model as model
    import repro.power.quality as quality
    import repro.power.scope as scope
    import repro.sim.cpu as cpu

    patch = tracer.patch
    # isa / sim
    patch(cpu, "decode_one", "isa.decode")
    patch(assembler.Instruction, "encode", "isa.encode")
    patch(cpu.AvrCpu, "run", "sim.run", "sim.events", len)
    # power
    patch(acquisition, "random_instance", "power.program_gen")
    patch(workloads, "random_instance", "power.program_gen")
    patch(model.PowerModel, "render_events", "power.render")
    patch(scope.Oscilloscope, "digitize", "power.digitize")
    for name in (
        "reference_window", "capture_class", "capture_instruction_set",
        "capture_register_set", "capture_mixed_program", "capture_program",
    ):
        patch(acquisition.Acquisition, name, "power.capture")
    patch(faults.FaultInjector, "corrupt", "power.faults")
    patch(quality.TraceScreener, "screen", "power.screen")
    tracer.patch_parallel_map(acquisition, "parallel_map", "util.parallel_map")
    # dsp / features / ml (fit)
    patch(cwt.CWT, "transform", "dsp.cwt.transform")
    patch(cwt.CWT, "transform_points", "dsp.cwt.points")
    patch(pipeline, "compute_class_stats", "features.kl_stats")
    patch(selection.DnvpSelector, "fit", "features.select")
    patch(pca.PCA, "fit", "features.pca")
    patch(pca.PCA, "transform", "features.pca")
    for name in ("fit", "fit_transform", "transform"):
        patch(pipeline.FeaturePipeline, name, "features.pipeline")
    for cls in (discriminant.LDA, discriminant.QDA):
        patch(cls, "fit", "ml.fit")
        patch(cls, "predict", "ml.predict")
    # compile / classify
    patch(cwt.CWT, "point_operator", "dsp.cwt.point_operator")
    patch(compiled.CompiledPipeline, "build", "features.compiled.build")
    for name in (
        "transform", "decision_scores", "predict", "predict_with_confidence",
    ):
        patch(compiled.CompiledPipeline, name, "features.compiled.classify")
    # core: the hierarchy's own code between the layers above
    patch(
        hierarchy.LevelModel, "train", "core.train",
        "features.points", lambda level: level.pipeline.n_points,
    )
    for name in ("compile", "predict", "predict_keys",
                 "predict_with_confidence", "score"):
        patch(hierarchy.LevelModel, name, "core")
    for name in (
        "fit_group_level", "fit_instruction_level", "fit_register_level",
        "compile", "predict_groups", "predict_groups_with_confidence",
        "predict_instructions", "predict_instructions_with_confidence",
        "predict_register", "disassemble",
    ):
        patch(hierarchy.SideChannelDisassembler, name, "core")
    # experiment runners
    patch(endtoend, "run", "experiments")
    patch(endtoend, "capture_group_set", "experiments")
    patch(workloads, "capture_group_set", "experiments")
