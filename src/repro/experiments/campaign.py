"""Fault-tolerant sharded campaign engine for collection-factor grids.

The Gwinn/Matties collection-factor studies (arXiv:2204.04766,
arXiv:2107.11870) show that *acquisition* choices — sampling rate,
bandwidth, wavelet family, screening thresholds — dominate side-channel
disassembly accuracy before any modelling decision does.  Answering
"which scope and which wavelet should a deployment buy?" is therefore
not one experiment but a configuration grid of thousands of cells, and
a run of that size statistically guarantees failures: a worker OOMs, a
cell's covariance goes singular, the host reboots at 80 %.  This module
runs such grids to completion anyway:

* **grid spec** — declarative axes plus constraints enumerate into a
  deterministic cell list; each cell gets a stable content-addressed ID
  (a hash of its parameters), so "the same cell" means the same thing
  across runs, shards and machines;
* **sharded execution** — cells are partitioned into fixed-size shards;
  each shard runs through :func:`repro.util.parallel.parallel_map`
  (crash/hang-tolerant already) with a per-shard stall timeout, and a
  cell that still fails is retried with capped, deterministically
  jittered backoff (:class:`repro.util.retry.BackoffPolicy`) before it
  is **quarantined** — recorded with its failure context, never fatal;
* **checkpoint/resume** — every completed shard is persisted atomically
  via :class:`~repro.experiments.checkpoint.CheckpointStore`; a SIGKILL
  mid-campaign resumes from the first missing shard and the merged
  result is bit-identical to an uninterrupted run (asserted by
  ``tests/experiments/test_campaign_kill.py``);
* **partial-result degradation** — the merged
  :class:`~repro.experiments.results.ResultTable` and the Pareto report
  (accuracy vs capture cost vs inference cost) are produced from
  whatever completed, with explicit coverage accounting of completed /
  quarantined / skipped cells, plus a recommended-config artifact.

Determinism contract: a cell's *outcome* (its metrics, or the decision
to quarantine it and the recorded error) is a pure function of the grid
spec and the campaign seed — never of worker count, timing, or how many
times the run was killed and resumed.  That is what makes shard
checkpoints composable: replaying a shard from disk is indistinguishable
from recomputing it.

Knobs: ``REPRO_CAMPAIGN_SHARD_SIZE``, ``REPRO_CAMPAIGN_RETRIES``,
``REPRO_CAMPAIGN_BACKOFF``; the per-shard stall bound falls back to
``REPRO_TASK_TIMEOUT`` (see README knob table).

CLI::

    python -m repro.experiments.campaign --scale smoke \\
        --checkpoint-dir /tmp/camp --report campaign_report.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import ledger as _ledger
from ..obs import log as _log
from ..obs import trace as _obs
from ..util.io import atomic_write_json
from ..util.knobs import get_float, get_int
from ..util.parallel import last_map_failures, parallel_map
from ..util.retry import BackoffPolicy, uniform01
from .checkpoint import checkpoint_store
from .results import ResultTable

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Cell",
    "CellResult",
    "CellRunner",
    "EVALUATORS",
    "GridSpec",
    "default_grid",
    "main",
    "pareto_front",
    "run",
    "run_campaign",
]

#: Metric keys every evaluator must return (the Pareto dimensions).
METRIC_KEYS = ("accuracy", "capture_cost", "inference_cost")


# ---------------------------------------------------------------------------
# Grid spec: axes + constraints -> enumerated cells with stable IDs
# ---------------------------------------------------------------------------


def _cell_id(params: Mapping[str, object]) -> str:
    """Stable content-addressed cell ID (12 hex chars of SHA-256).

    Hashes the canonical JSON of the sorted parameter mapping, so the
    ID survives axis reordering, re-sharding, and process restarts —
    "the same cell" is the same ID everywhere.
    """
    canon = json.dumps(
        {k: params[k] for k in sorted(params)}, sort_keys=True, default=str
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Cell:
    """One grid point: a stable ID plus its parameter assignment."""

    cell_id: str
    params: Tuple[Tuple[str, object], ...]

    @property
    def param_dict(self) -> Dict[str, object]:
        """The cell's parameters as a plain dict (axis order)."""
        return dict(self.params)


@dataclass(frozen=True)
class GridSpec:
    """Declarative sweep: ordered axes and keep-constraints.

    Attributes:
        axes: ``(name, values)`` pairs in declaration order; enumeration
            is the cartesian product with the *last* axis fastest, so
            cell order is deterministic and independent of the process.
        constraints: predicates over a parameter dict; a cell is kept
            only when every constraint returns True.  Constraints run at
            enumeration time on the driver, so they need not pickle.
    """

    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    constraints: Tuple[Callable[[Mapping[str, object]], bool], ...] = ()

    @classmethod
    def from_axes(
        cls,
        axes: Mapping[str, Sequence[object]],
        constraints: Sequence[Callable[[Mapping[str, object]], bool]] = (),
    ) -> "GridSpec":
        """Build a spec from an ordered ``{axis: values}`` mapping."""
        if not axes:
            raise ValueError("a grid needs at least one axis")
        frozen = tuple(
            (str(name), tuple(values)) for name, values in axes.items()
        )
        for name, values in frozen:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        return cls(axes=frozen, constraints=tuple(constraints))

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Axis names in declaration order."""
        return tuple(name for name, _ in self.axes)

    def n_raw(self) -> int:
        """Cell count before constraints."""
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def enumerate(self) -> Tuple[List[Cell], int]:
        """All kept cells in deterministic order, plus the excluded count."""
        cells: List[Cell] = []
        excluded = 0
        names = self.axis_names
        for combo in product(*(values for _, values in self.axes)):
            params = dict(zip(names, combo))
            if all(keep(params) for keep in self.constraints):
                cells.append(
                    Cell(cell_id=_cell_id(params), params=tuple(params.items()))
                )
            else:
                excluded += 1
        return cells, excluded

    def fingerprint(self) -> str:
        """Hash of the grid's identity, for the checkpoint meta guard.

        Covers axis names/values and constraint names: resuming a
        checkpoint directory with a *different* grid would silently
        mis-map shard indices to cells, so the store must refuse.
        """
        payload = {
            "axes": [[name, [str(v) for v in values]] for name, values in self.axes],
            "constraints": [
                getattr(c, "__qualname__", repr(c)) for c in self.constraints
            ],
        }
        canon = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Cell outcomes
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """Outcome of one cell after the retry funnel.

    ``status`` is ``"ok"``/``"error"`` as emitted by the runner for a
    single attempt, promoted by the shard executor to ``"completed"`` /
    ``"quarantined"`` once the funnel settles.  ``attempts`` counts
    campaign-level executions (pool-internal retries are invisible —
    they cannot change a deterministic cell's outcome).  ``error`` holds
    the ``repr`` of the last in-cell exception and is deterministic;
    transport-level context (which worker died) lives in the report's
    ``pool_failures`` section instead, because it *does* depend on
    scheduling.
    """

    cell_id: str
    params: Dict[str, object]
    status: str
    metrics: Dict[str, float] = field(default_factory=dict)
    attempts: int = 1
    error: str = ""


# ---------------------------------------------------------------------------
# Evaluators: params -> {accuracy, capture_cost, inference_cost}
# ---------------------------------------------------------------------------


def _cell_seed(seed: int, cell_id: str) -> int:
    """Derive the cell's private seed (independent of attempt/shard)."""
    return (int(seed) << 16) ^ int(cell_id[:8], 16)


def evaluate_synthetic(cell: Cell, seed: int) -> Dict[str, float]:
    """Closed-form response surface mimicking the collection-factor story.

    Fast and dependency-free: used by CI smoke, the engine tests and
    the scheduling benchmarks, where the engine — not the science — is
    under test.  The surface is shaped so the Pareto front is
    non-trivial: faster scopes (low ``decimation``) buy accuracy at
    capture cost, permissive KL thresholds buy robustness to faults at
    inference cost, and the wavelet centre frequency has a sweet spot.
    """
    import math

    params = cell.param_dict
    decimation = int(params.get("decimation", 1))
    omega0 = float(params.get("omega0", 8.0))
    kl = str(params.get("kl_threshold", "auto:0.9"))
    fault_rate = float(params.get("fault_rate", 0.0))
    screen = {"auto:0.9": 0.9, "auto:0.5": 0.7, "inf": 0.25}.get(kl, 0.5)
    n_points = {"auto:0.9": 40.0, "auto:0.5": 25.0, "inf": 10.0}.get(kl, 20.0)
    accuracy = (
        99.0
        - 6.5 * math.log2(max(1, decimation))
        - 0.9 * abs(omega0 - 8.0)
        - 85.0 * fault_rate * (1.0 - screen)
    )
    # Small deterministic measurement noise so ties break realistically.
    noise = 0.5 * uniform01(_cell_seed(seed, cell.cell_id), "noise") - 0.25
    accuracy = min(100.0, max(0.0, accuracy + noise))
    capture_cost = (315.0 / decimation) * (1.0 + 3.0 * fault_rate * screen)
    inference_cost = n_points * (omega0 / 8.0)
    return {
        "accuracy": round(accuracy, 4),
        "capture_cost": round(capture_cost, 4),
        "inference_cost": round(inference_cost, 4),
    }


def evaluate_bench(cell: Cell, seed: int) -> Dict[str, float]:
    """Real micro-experiment: capture, train and score one grid cell.

    Runs the actual pipeline at a deliberately tiny budget — group-1
    classes, a few dozen traces each — so a thousand-cell grid stays
    tractable.  The axes map onto the collection factors under study:
    ``decimation`` emulates a slower scope (as in
    :mod:`repro.experiments.sampling_rate`), ``omega0`` selects the
    Morlet centre frequency (the wavelet-family axis), ``kl_threshold``
    is the paper's ``KL_th`` selection knob, and ``fault_rate`` drives
    :mod:`repro.power.faults` with screening active.

    Costs are deterministic resource proxies, not wall-clock: capture
    cost is digitized samples including screening re-captures (scope
    time / storage), inference cost is selected points × PCA components
    (the per-trace GEMM volume).
    """
    import numpy as np

    from ..core.hierarchy import SideChannelDisassembler
    from ..dsp.cwt import CwtConfig
    from ..features.pipeline import FeatureConfig
    from ..isa.groups import classification_classes
    from ..ml.discriminant import QDA
    from ..power.acquisition import Acquisition
    from ..power.dataset import TraceSet
    from ..power.faults import FaultInjector
    from ..power.quality import ScreeningStats

    params = cell.param_dict
    decimation = int(params.get("decimation", 1))
    omega0 = float(params.get("omega0", 8.0))
    kl_raw = params.get("kl_threshold", "auto:0.9")
    kl: Union[float, str] = (
        float("inf") if str(kl_raw) == "inf" else kl_raw  # type: ignore[assignment]
    )
    fault_rate = float(params.get("fault_rate", 0.0))

    cell_seed = _cell_seed(seed, cell.cell_id) % (2**31 - 1)
    keys = classification_classes(1)[:3]
    n_per_class, n_programs, n_components = 36, 2, 6

    faults = FaultInjector(rate=fault_rate) if fault_rate > 0.0 else None
    acq = Acquisition(
        seed=cell_seed,
        n_jobs=1,  # the campaign parallelizes across cells, not within
        faults=faults,
        screener=True if faults is not None else None,
    )
    full = acq.capture_instruction_set(keys, n_per_class, n_programs)
    stats = ScreeningStats()
    for per_class in acq.screening_stats.values():
        stats.merge(per_class)

    decimated = TraceSet(
        traces=full.traces[:, ::decimation].copy(),
        labels=full.labels,
        label_names=full.label_names,
        program_ids=full.program_ids,
        device=full.device,
        meta=dict(full.meta),
    )
    rng = np.random.default_rng(cell_seed ^ 0x5EED)
    train, test = decimated.split_random(0.7, rng)

    config = FeatureConfig(
        kl_threshold=kl,  # type: ignore[arg-type]
        top_k=5,
        n_components=n_components,
        normalize="batch",
        cwt=CwtConfig(omega0=omega0),
    )
    dis = SideChannelDisassembler(config, classifier_factory=QDA)
    model = dis.fit_instruction_level(1, train)
    accuracy = model.score(test) * 100.0

    window_samples = decimated.traces.shape[1]
    n_captured = stats.n_captured if stats.n_captured else len(full.traces)
    capture_cost = float((n_captured + stats.n_retried) * window_samples)
    inference_cost = float(len(model.pipeline.points) * n_components)
    return {
        "accuracy": round(float(accuracy), 4),
        "capture_cost": round(capture_cost, 4),
        "inference_cost": round(inference_cost, 4),
    }


#: Evaluator registry (name -> callable), extensible by downstream code.
EVALUATORS: Dict[str, Callable[[Cell, int], Dict[str, float]]] = {
    "synthetic": evaluate_synthetic,
    "bench": evaluate_bench,
}


# ---------------------------------------------------------------------------
# The per-cell work function (picklable; runs on pool workers)
# ---------------------------------------------------------------------------


class CellRunner:
    """Picklable per-cell work function handed to ``parallel_map``.

    One call = one attempt at one cell.  Every in-cell exception is
    caught and returned as an ``"error"`` outcome, so the serial salvage
    pass can never blow up the shard: the only failures that escape a
    call are worker-process deaths, which ``parallel_map`` already
    contains.
    """

    def __init__(
        self, evaluator: str, seed: int, cell_pause_s: float = 0.0
    ) -> None:
        if evaluator not in EVALUATORS:
            raise KeyError(
                f"unknown evaluator {evaluator!r}; "
                f"choose from {sorted(EVALUATORS)}"
            )
        self.evaluator = evaluator
        self.seed = seed
        #: Artificial per-cell pause (seconds) — pacing for the kill/
        #: resume tests and scheduling benchmarks; never affects results.
        self.cell_pause_s = cell_pause_s

    def __call__(self, work: Tuple[Cell, int]) -> CellResult:
        cell, attempt = work
        with _obs.span("campaign.cell", cell=cell.cell_id, attempt=attempt):
            try:
                if self.cell_pause_s > 0.0:
                    time.sleep(self.cell_pause_s)
                metrics = EVALUATORS[self.evaluator](cell, self.seed)
                missing = [k for k in METRIC_KEYS if k not in metrics]
                if missing:
                    raise ValueError(
                        f"evaluator {self.evaluator!r} omitted {missing}"
                    )
                return CellResult(
                    cell_id=cell.cell_id,
                    params=cell.param_dict,
                    status="ok",
                    metrics=metrics,
                    attempts=attempt + 1,
                )
            except Exception as exc:
                # Deliberate catch-all: the outcome carries the error —
                # the funnel retries or quarantines, never crashes.
                return CellResult(
                    cell_id=cell.cell_id,
                    params=cell.param_dict,
                    status="error",
                    attempts=attempt + 1,
                    error=repr(exc),
                )


# ---------------------------------------------------------------------------
# Campaign configuration and driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign run's parameters (``None`` fields resolve to knobs).

    Attributes:
        spec: the grid to sweep.
        evaluator: key into :data:`EVALUATORS`.
        seed: campaign seed — feeds cell seeds and backoff jitter, so
            distinct campaigns decorrelate while one campaign replays
            exactly.
        shard_size: cells per checkpoint shard
            (``REPRO_CAMPAIGN_SHARD_SIZE``).
        n_jobs: worker processes per shard (``REPRO_N_JOBS`` rules).
        cell_timeout: stall bound per shard round, seconds, passed to
            ``parallel_map(timeout=)`` (``None`` = ``REPRO_TASK_TIMEOUT``;
            0 = off).
        retries: per-cell retry rounds before quarantine
            (``REPRO_CAMPAIGN_RETRIES``).
        backoff: base backoff between retry rounds, seconds
            (``REPRO_CAMPAIGN_BACKOFF``).
        cell_pause_s: artificial per-cell pause (test/bench pacing).
        checkpoint_dir: shard checkpoint directory (``None`` = off).
        stop_after_shards: stop after computing this many *fresh* shards
            (already-checkpointed shards don't count) — simulates an
            interruption for resume tests and lets CI force a resume.
        sleep: backoff sleep hook (``None`` computes but never waits).
    """

    spec: GridSpec
    evaluator: str = "synthetic"
    seed: int = 2018
    shard_size: Optional[int] = None
    n_jobs: Optional[int] = None
    cell_timeout: Optional[float] = None
    retries: Optional[int] = None
    backoff: Optional[float] = None
    cell_pause_s: float = 0.0
    checkpoint_dir: Optional[Union[str, Path]] = None
    stop_after_shards: Optional[int] = None
    sleep: Optional[Callable[[float], None]] = None


@dataclass
class CampaignResult:
    """Everything a finished (possibly partial) campaign produced."""

    table: ResultTable
    report: Dict[str, object]
    results: List[CellResult]


def _run_shard(
    shard_index: int,
    cells: Sequence[Cell],
    runner: CellRunner,
    policy: BackoffPolicy,
    n_jobs: Optional[int],
    cell_timeout: Optional[float],
    pool_context: Dict[str, str],
) -> List[CellResult]:
    """Run one shard's cells through the retry funnel; always returns.

    Round 0 maps every cell; failed cells re-enter at attempt 1, 2, ...
    with jittered backoff between rounds, until they complete or the
    budget is spent and they are quarantined.  Transport-level failure
    context (worker died, round stalled) is folded into ``pool_context``
    keyed by cell ID for the quarantine report — kept out of the
    :class:`CellResult` itself because it depends on scheduling, and
    results must not.
    """
    outcomes: Dict[str, CellResult] = {}
    pending: List[Cell] = list(cells)
    attempt = 0
    while pending:
        work = [(cell, attempt) for cell in pending]
        results = parallel_map(
            runner,
            work,
            n_jobs=n_jobs,
            min_items_per_worker=1,
            timeout=cell_timeout,
        )
        for failure in last_map_failures():
            cell = pending[failure.index]
            pool_context[cell.cell_id] = (
                f"attempt {attempt}: {failure.error} "
                f"(x{failure.attempts} pool rounds)"
            )
        retry: List[Cell] = []
        for cell, result in zip(pending, results):
            if result.status == "ok":
                result.status = "completed"
                outcomes[cell.cell_id] = result
                _obs.counter("campaign.cells_completed").inc()
            elif attempt < policy.max_attempts:
                retry.append(cell)
                _obs.counter("campaign.cell_retries").inc()
            else:
                result.status = "quarantined"
                outcomes[cell.cell_id] = result
                _obs.counter("campaign.cells_quarantined").inc()
                _log.warning(
                    f"campaign: quarantined cell {cell.cell_id} after "
                    f"{result.attempts} attempts: {result.error}",
                    key="campaign.quarantine",
                )
        pending = retry
        if pending:
            attempt += 1
            policy.wait(attempt, key=f"shard-{shard_index}")
    return [outcomes[cell.cell_id] for cell in cells]


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute a campaign end to end; never raises for cell failures.

    Partitions the grid into shards, runs/resumes each through the
    retry funnel, checkpoints completed shards atomically, and merges
    whatever finished into the table + Pareto report with full coverage
    accounting.  The only exceptions that escape are genuine driver
    bugs, a checkpoint-directory fingerprint mismatch, or an unknown
    evaluator — a failing *cell* is data, not an error.
    """
    shard_size = (
        config.shard_size
        if config.shard_size is not None
        else get_int("REPRO_CAMPAIGN_SHARD_SIZE")
    )
    retries = (
        config.retries
        if config.retries is not None
        else get_int("REPRO_CAMPAIGN_RETRIES")
    )
    backoff = (
        config.backoff
        if config.backoff is not None
        else get_float("REPRO_CAMPAIGN_BACKOFF")
    )

    cells, n_excluded = config.spec.enumerate()
    shards = [
        cells[start:start + shard_size]
        for start in range(0, len(cells), shard_size)
    ]
    policy = BackoffPolicy(
        max_attempts=retries,
        backoff_base=backoff,
        jitter=0.25,
        seed=config.seed,
        sleep=config.sleep,
    )
    runner = CellRunner(config.evaluator, config.seed, config.cell_pause_s)
    store = checkpoint_store(
        config.checkpoint_dir,
        experiment="campaign",
        grid=config.spec.fingerprint(),
        evaluator=config.evaluator,
        seed=config.seed,
        retries=retries,
        shard_size=shard_size,
    )

    results: List[CellResult] = []
    pool_context: Dict[str, str] = {}
    skipped_cells: List[Cell] = []
    n_fresh = 0
    n_resumed = 0
    _obs.gauge("campaign.cells_total").set(float(len(cells)))
    with _obs.span(
        "campaign.run",
        n_cells=len(cells),
        n_shards=len(shards),
        evaluator=config.evaluator,
    ):
        for index, shard in enumerate(shards):
            name = f"shard-{index:05d}"
            cached = store.has(name)
            if (
                not cached
                and config.stop_after_shards is not None
                and n_fresh >= config.stop_after_shards
            ):
                skipped_cells.extend(shard)
                continue
            with _obs.span(
                "campaign.shard",
                index=index,
                n_cells=len(shard),
                resumed=cached,
            ):
                shard_results = store.stage(
                    name,
                    lambda: _run_shard(
                        index,
                        shard,
                        runner,
                        policy,
                        config.n_jobs,
                        config.cell_timeout,
                        pool_context,
                    ),
                )
            results.extend(shard_results)
            if cached:
                n_resumed += 1
                _obs.counter("campaign.shards_resumed").inc()
            else:
                n_fresh += 1
                _obs.counter("campaign.shards_run").inc()
            done = sum(len(s) for s in shards[: index + 1])
            _log.info(
                f"campaign: shard {index + 1}/{len(shards)} "
                f"{'resumed' if cached else 'done'} "
                f"({done}/{len(cells)} cells)"
            )

    _log.flush_suppressed()
    table = _merge_table(config, cells, results, skipped_cells)
    report = _build_report(
        config,
        shard_size=shard_size,
        n_excluded=n_excluded,
        n_cells=len(cells),
        n_shards=len(shards),
        n_resumed=n_resumed,
        results=results,
        skipped_cells=skipped_cells,
        pool_context=pool_context,
    )
    return CampaignResult(table=table, report=report, results=results)


# ---------------------------------------------------------------------------
# Merge: ResultTable + Pareto report + recommended config
# ---------------------------------------------------------------------------


def _merge_table(
    config: CampaignConfig,
    cells: Sequence[Cell],
    results: Sequence[CellResult],
    skipped_cells: Sequence[Cell],
) -> ResultTable:
    """Fold shard results into one table, in grid-enumeration order.

    Rows carry only deterministic values (parameters, status, attempts,
    metrics, the in-cell error), which is what makes the kill/resume
    bit-identity guarantee checkable on the table itself.
    """
    axis_names = list(config.spec.axis_names)
    columns = (
        ["cell"]
        + axis_names
        + ["status", "attempts", "accuracy", "capture cost",
           "inference cost", "error"]
    )
    table = ResultTable(
        title=(
            f"Campaign: {config.evaluator} sweep over "
            f"{' x '.join(axis_names)} ({len(cells)} cells)"
        ),
        columns=columns,
        notes=(
            "accuracy in %, capture cost in digitized samples "
            "(incl. re-captures), inference cost in GEMM volume "
            "(points x components); quarantined/skipped rows carry "
            "no metrics"
        ),
    )
    by_id = {result.cell_id: result for result in results}
    skipped = {cell.cell_id for cell in skipped_cells}
    for cell in cells:
        result = by_id.get(cell.cell_id)
        row: Dict[str, object] = {"cell": cell.cell_id}
        row.update(cell.param_dict)
        if result is not None:
            row.update(
                status=result.status,
                attempts=result.attempts,
                error=result.error,
            )
            for key, column in zip(
                METRIC_KEYS, ("accuracy", "capture cost", "inference cost")
            ):
                if key in result.metrics:
                    row[column] = result.metrics[key]
        elif cell.cell_id in skipped:
            row.update(status="skipped", attempts=0, error="")
        else:  # pragma: no cover - accounting bug tripwire
            row.update(status="missing", attempts=0, error="")
        table.add_row(**row)
    return table


def pareto_front(points: Sequence[Mapping[str, float]]) -> List[int]:
    """Indices of Pareto-optimal points (max accuracy, min both costs).

    A point is dominated when some other point is at least as good on
    all three objectives and strictly better on one.  O(n²) — campaign
    grids are thousands of cells, not millions.
    """
    def key(p: Mapping[str, float]) -> Tuple[float, float, float]:
        return (
            float(p["accuracy"]),
            float(p["capture_cost"]),
            float(p["inference_cost"]),
        )

    front: List[int] = []
    for i, a in enumerate(map(key, points)):
        dominated = False
        for j, b in enumerate(map(key, points)):
            if j == i:
                continue
            if (
                b[0] >= a[0]
                and b[1] <= a[1]
                and b[2] <= a[2]
                and (b[0] > a[0] or b[1] < a[1] or b[2] < a[2])
            ):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def _build_report(
    config: CampaignConfig,
    *,
    shard_size: int,
    n_excluded: int,
    n_cells: int,
    n_shards: int,
    n_resumed: int,
    results: Sequence[CellResult],
    skipped_cells: Sequence[Cell],
    pool_context: Mapping[str, str],
) -> Dict[str, object]:
    """Assemble the JSON campaign report (Pareto + coverage accounting).

    The coverage section is the degradation contract: every enumerated
    cell is exactly one of completed / quarantined / skipped, and
    ``accounted`` asserts the sum matches — a partial campaign is a
    smaller campaign, never a silently wrong one.
    """
    completed = [r for r in results if r.status == "completed"]
    quarantined = [r for r in results if r.status == "quarantined"]
    front_indices = pareto_front([r.metrics for r in completed])
    front = [completed[i] for i in front_indices]
    front.sort(
        key=lambda r: (-r.metrics["accuracy"], r.metrics["capture_cost"],
                       r.cell_id)
    )
    recommended = front[0] if front else None

    def _entry(result: CellResult) -> Dict[str, object]:
        return {
            "cell_id": result.cell_id,
            "params": dict(result.params),
            "metrics": dict(result.metrics),
        }

    coverage = {
        "n_cells": n_cells,
        "n_excluded": n_excluded,
        "n_completed": len(completed),
        "n_quarantined": len(quarantined),
        "n_skipped": len(skipped_cells),
        "complete": len(completed) == n_cells,
        "accounted": (
            len(completed) + len(quarantined) + len(skipped_cells) == n_cells
        ),
    }
    return {
        "campaign": {
            "evaluator": config.evaluator,
            "seed": config.seed,
            "grid_fingerprint": config.spec.fingerprint(),
            "shard_size": shard_size,
            "n_shards": n_shards,
            "n_shards_resumed": n_resumed,
        },
        "grid": {
            "axes": {name: list(values) for name, values in config.spec.axes},
            "n_cells": n_cells,
            "n_excluded": n_excluded,
        },
        "coverage": coverage,
        "pareto_front": [_entry(r) for r in front],
        "recommended": _entry(recommended) if recommended else None,
        "quarantined": [
            {
                "cell_id": r.cell_id,
                "params": dict(r.params),
                "attempts": r.attempts,
                "error": r.error,
                "pool_context": pool_context.get(r.cell_id, ""),
            }
            for r in quarantined
        ],
        "skipped": [c.cell_id for c in skipped_cells],
    }


# ---------------------------------------------------------------------------
# Default grids, runner-registry entry, CLI
# ---------------------------------------------------------------------------


def _resolvable_band(params: Mapping[str, object]) -> bool:
    """Keep-constraint: high centre frequencies need a fast scope.

    At 8x decimation and beyond, the Morlet band for ``omega0 >= 12``
    sits largely above the emulated Nyquist — those cells would measure
    aliasing, not the instruction signal, so the grid excludes them.
    """
    return not (
        int(params.get("decimation", 1)) >= 8
        and float(params.get("omega0", 8.0)) >= 12.0
    )


#: Grid presets per scale name (axes mirror the collection factors the
#: Gwinn/Matties studies rank as dominant).
_GRIDS: Dict[str, Dict[str, Sequence[object]]] = {
    "smoke": {
        "decimation": (1, 4),
        "omega0": (6.0, 8.0),
        "kl_threshold": ("auto:0.9", "inf"),
        "fault_rate": (0.0, 0.15),
    },
    "bench": {
        "decimation": (1, 2, 4, 8),
        "omega0": (5.0, 8.0, 12.0),
        "kl_threshold": ("auto:0.9", "auto:0.5", "inf"),
        "fault_rate": (0.0, 0.05, 0.15),
    },
    "paper": {
        "decimation": (1, 2, 4, 8, 16),
        "omega0": (5.0, 6.0, 8.0, 10.0, 12.0),
        "kl_threshold": ("auto:0.9", "auto:0.5", "inf"),
        "fault_rate": (0.0, 0.02, 0.05, 0.10, 0.15),
    },
}


def default_grid(scale_name: str) -> GridSpec:
    """The preset grid for a scale name (smoke | bench | paper)."""
    try:
        axes = _GRIDS[scale_name]
    except KeyError:
        raise KeyError(
            f"no campaign grid for scale {scale_name!r}; "
            f"choose from {sorted(_GRIDS)}"
        ) from None
    return GridSpec.from_axes(axes, constraints=(_resolvable_band,))


def run(scale="bench", checkpoint_dir=None) -> ResultTable:
    """Registry-compatible entry: sweep the scale's default grid.

    ``smoke`` runs the synthetic evaluator (seconds — engine smoke);
    ``bench``/``paper`` run the real micro-experiment evaluator.
    """
    from .scales import get_scale

    scale = get_scale(scale)
    evaluator = "synthetic" if scale.name == "smoke" else "bench"
    result = run_campaign(
        CampaignConfig(
            spec=default_grid(scale.name),
            evaluator=evaluator,
            n_jobs=scale.n_jobs,
            checkpoint_dir=checkpoint_dir,
        )
    )
    return result.table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver: ``python -m repro.experiments.campaign``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.campaign",
        description=(
            "Fault-tolerant sharded sweep over collection-factor grids "
            "(resumable; failures are quarantined, never fatal)."
        ),
    )
    parser.add_argument(
        "--scale", default="smoke",
        help="grid preset: smoke | bench | paper (default: smoke)",
    )
    parser.add_argument(
        "--evaluator", default=None, choices=sorted(EVALUATORS),
        help="cell evaluator (default: synthetic for smoke, else bench)",
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--shard-size", type=int, default=None,
        help="cells per checkpoint shard (default REPRO_CAMPAIGN_SHARD_SIZE)",
    )
    parser.add_argument(
        "--n-jobs", type=int, default=None,
        help="worker processes per shard (default REPRO_N_JOBS)",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="cell retry rounds before quarantine "
        "(default REPRO_CAMPAIGN_RETRIES)",
    )
    parser.add_argument(
        "--backoff", type=float, default=None,
        help="base backoff seconds between retry rounds "
        "(default REPRO_CAMPAIGN_BACKOFF)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-shard stall bound in seconds "
        "(default REPRO_TASK_TIMEOUT; 0 = off)",
    )
    parser.add_argument(
        "--cell-pause-ms", type=float, default=0.0,
        help="artificial per-cell pause (test/bench pacing only)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="per-shard atomic checkpoints; rerun with the same "
        "directory to resume after any interruption",
    )
    parser.add_argument(
        "--stop-after-shards", type=int, default=None, metavar="N",
        help="stop after N freshly computed shards (forces a later "
        "resume; already-checkpointed shards don't count)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON campaign report (Pareto front, recommended "
        "config, coverage, quarantine) here",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the merged ResultTable as JSON here",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="activate observability and write the JSONL trace here",
    )
    args = parser.parse_args(argv)

    from .. import obs

    if args.trace is not None:
        obs.activate()
    t_start = _obs.now_ms()
    evaluator = args.evaluator
    if evaluator is None:
        evaluator = "synthetic" if args.scale == "smoke" else "bench"
    config = CampaignConfig(
        spec=default_grid(args.scale),
        evaluator=evaluator,
        seed=args.seed,
        shard_size=args.shard_size,
        n_jobs=args.n_jobs,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        backoff=args.backoff,
        cell_pause_s=args.cell_pause_ms / 1e3,
        checkpoint_dir=args.checkpoint_dir,
        stop_after_shards=args.stop_after_shards,
        sleep=time.sleep,
    )
    result = run_campaign(config)
    print(result.table.render())  # replint: disable=REP008 -- CLI data output: stdout carries the merged table
    coverage = result.report["coverage"]
    _log.info(
        f"coverage: {coverage['n_completed']} completed, "  # type: ignore[index]
        f"{coverage['n_quarantined']} quarantined, "  # type: ignore[index]
        f"{coverage['n_skipped']} skipped "  # type: ignore[index]
        f"of {coverage['n_cells']} cells"  # type: ignore[index]
    )
    if args.out is not None:
        result.table.save(args.out)
        _log.info(f"result table written to {args.out}")
    if args.report is not None:
        atomic_write_json(args.report, result.report)
        _log.info(f"campaign report written to {args.report}")
    obs.maybe_export(args.trace)
    _ledger.record_run(
        "campaign",
        status="ok" if coverage["accounted"] else "failed",  # type: ignore[index]
        duration_s=(_obs.now_ms() - t_start) / 1e3,
        extra={
            "scale": args.scale,
            "evaluator": evaluator,
            "grid_fingerprint": config.spec.fingerprint(),
            "coverage": coverage,
        },
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    import sys

    # Re-import under the canonical module name so work items pickle as
    # repro.experiments.campaign.*, not __main__.*, for pool workers.
    from repro.experiments.campaign import main as _main

    sys.exit(_main())
