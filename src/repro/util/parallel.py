"""Deterministic process-pool mapping that survives worker failure.

The capture loops are embarrassingly parallel: every work item owns an
independently derived sub-seed, so the result of an item never depends on
which worker ran it or in what order.  :func:`parallel_map` exploits that —
it always returns results in input order, which makes the parallel output
bit-for-bit identical to the serial output for any worker count *and any
failure pattern*:

* a worker that raises or dies (``BrokenProcessPool``, a segfaulting
  native library, an OOM kill) only loses its own in-flight items —
  results already delivered by other workers are salvaged, and the lost
  items are retried on a fresh pool (``REPRO_TASK_RETRIES`` rounds) and
  finally re-executed serially, where a *deterministic* error reproduces
  with an undecorated traceback;
* a hung worker is bounded by ``REPRO_TASK_TIMEOUT`` (seconds without a
  single item completing): the pool is torn down — lingering worker
  processes are terminated, never leaked — completed results are kept,
  and the unfinished items go through the same retry funnel;
* unpicklable work degrades to the serial path: an unpicklable item
  always, an unpicklable ``fn`` only under ``spawn``/``forkserver``
  (forked workers inherit it).

How ``fn`` reaches the workers: each pool round hands ``fn`` to its
workers once, through the executor's ``initializer``, and submits only
the items (to the module-level trampoline :func:`_call_installed`).
Under the ``fork`` start method (Linux's default before Python 3.14)
workers inherit ``fn`` without pickling it; under ``spawn`` or
``forkserver`` it is pickled once per worker, not once per item.  A task
that holds a large object (the capture task holds its whole
``Acquisition``) therefore costs the same to ship for 4 items as for
400.

Worker-count resolution (:func:`resolve_n_jobs`):

1. an explicit ``n_jobs`` argument;
2. the ``REPRO_N_JOBS`` environment variable;
3. default 1 (serial — no surprise process pools).

``n_jobs <= 0`` means "all cores".

The fit leaves (CWT chunks, class-statistics column tiles) fan out on
*threads* instead: :func:`run_threads` runs independent tasks that each
write a disjoint slice of a preallocated output, so the result is
bit-identical for any thread count.  Threads live for one call only and
are joined before it returns, so a process that forks later (a capture
pool, a campaign shard) is single-threaded when it forks; inside a pool
worker :func:`usable_cores` is 1, so pools are never oversubscribed.
Tasks that call BLAS thread only when :func:`blas_threads` is 1, so
BLAS's own threads never run under ours.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs import trace as _obs
from .knobs import get_float, get_int

__all__ = [
    "ItemFailure",
    "blas_threads",
    "effective_workers",
    "last_map_failures",
    "parallel_map",
    "resolve_n_jobs",
    "resolve_task_retries",
    "resolve_task_timeout",
    "run_threads",
    "thread_workers",
    "usable_cores",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Placeholder for not-yet-computed results (``None`` is a valid result).
_PENDING = object()


@dataclass
class ItemFailure:
    """Pool-side failure history of one work item, for salvage reports.

    Attributes:
        index: the item's position in the input sequence.
        attempts: pool rounds in which the item failed before the serial
            salvage pass recomputed it.
        error: ``repr`` of the last pool-side exception, or a stall
            marker when the item's round timed out without completing.
    """

    index: int
    attempts: int = 0
    error: str = ""


#: Per-thread record of the most recent :func:`parallel_map` call's
#: item failures, so callers (the campaign quarantine report) can name
#: exactly which item needed salvage and why without threading a stats
#: object through every signature.
_TLS = threading.local()


def last_map_failures() -> List[ItemFailure]:
    """Item failures of this thread's most recent :func:`parallel_map`.

    Empty when every item completed inside its first pool round (or the
    call took the serial path).  Entries are sorted by item index and
    describe *pool-side* history only — each listed item was still
    recomputed by the serial salvage pass, so the map's results remain
    complete and deterministic.
    """
    return list(getattr(_TLS, "failures", ()))


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Resolve a worker count (argument → ``REPRO_N_JOBS`` → 1)."""
    if n_jobs is None:
        n_jobs = get_int("REPRO_N_JOBS")
    if n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the stall timeout (argument → ``REPRO_TASK_TIMEOUT`` → off).

    The timeout bounds how long :func:`parallel_map` waits without *any*
    pending item completing before it declares the pool stalled.  ``0``
    (the default) disables the bound.
    """
    if timeout is None:
        timeout = get_float("REPRO_TASK_TIMEOUT")
    return None if timeout <= 0 else float(timeout)


def resolve_task_retries(retries: Optional[int] = None) -> int:
    """Resolve the pool retry budget (argument → ``REPRO_TASK_RETRIES``)."""
    if retries is None:
        retries = get_int("REPRO_TASK_RETRIES")
    return max(0, int(retries))


def effective_workers(
    n_items: int, n_jobs: int, min_items_per_worker: int = 1
) -> int:
    """Cap a worker count so each worker gets enough items to pay off.

    Process pools have a fixed startup + pickling cost; when the work per
    worker is smaller than that cost, the pool is *slower* than the serial
    loop.  This caps ``n_jobs`` so every worker receives at least
    ``min_items_per_worker`` items — with the cap active, small workloads
    degrade gracefully to fewer workers and ultimately to serial
    execution (a return value of 1).
    """
    if n_jobs <= 1 or n_items <= 1:
        return 1
    if min_items_per_worker <= 1:
        return n_jobs
    return max(1, min(n_jobs, n_items // min_items_per_worker))


def _serial_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
    return [fn(item) for item in items]


def _terminate_pool(pool, stalled: bool) -> None:
    """Shut a pool down without leaking processes.

    A clean pool joins its workers; a stalled one cannot (a worker is
    stuck executing), so its processes are terminated outright after the
    executor is told to abandon queued work.
    """
    known = getattr(pool, "_processes", None)
    processes = list(known.values()) if isinstance(known, dict) else []
    pool.shutdown(wait=not stalled, cancel_futures=True)
    if not stalled:
        return
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # replint: disable=REP007 -- teardown must not mask the original failure
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:  # replint: disable=REP007 -- teardown must not mask the original failure
            pass


def _note_failure(
    failures: Dict[int, ItemFailure], index: int, error: str
) -> None:
    record = failures.setdefault(index, ItemFailure(index))
    record.attempts += 1
    record.error = error


#: The work function of the pool round this worker process serves,
#: installed once per worker by :func:`_install_fn`.
_INSTALLED_FN: Optional[Callable] = None


def _install_fn(fn: Callable) -> None:
    """Pool initializer: keep ``fn`` for every item this worker runs."""
    global _INSTALLED_FN
    _INSTALLED_FN = fn


def _call_installed(item):
    """Module-level trampoline submitted per item: apply the installed fn."""
    return _INSTALLED_FN(item)  # type: ignore[misc]


def _pool_attempt(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    results: List[object],
    pending: Sequence[int],
    n_jobs: int,
    timeout: Optional[float],
    failures: Dict[int, ItemFailure],
) -> List[int]:
    """Run one pool round over ``pending`` items; return the survivors.

    Results of completed items land in ``results``; indices whose item
    raised, whose worker died, or that were still unfinished when the
    pool stalled are returned for the caller to retry, with the attempt
    and last-error history accumulated in ``failures``.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    try:
        pool = ProcessPoolExecutor(
            max_workers=min(n_jobs, len(pending)),
            initializer=_install_fn,
            initargs=(fn,),
        )
    except Exception as exc:
        for index in pending:
            _note_failure(failures, index, f"pool unavailable: {exc!r}")
        return list(pending)
    stalled = False
    failed: List[int] = []
    waiting = set()
    index_of = {}
    try:
        try:
            for index in pending:
                future = pool.submit(_call_installed, work[index])
                index_of[future] = index
                waiting.add(future)
        except Exception as exc:
            # Submission itself failed (pool already broken): everything
            # not yet submitted is retried; whatever was submitted is
            # drained below.
            for index in pending:
                if index not in index_of.values():
                    failed.append(index)
                    _note_failure(
                        failures, index, f"submission failed: {exc!r}"
                    )
        while waiting:
            done, waiting = wait(
                waiting, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # Nothing finished within the stall bound: declare the
                # pool hung, keep what completed, retry the rest.
                stalled = True
                for future in waiting:
                    index = index_of[future]
                    failed.append(index)
                    _note_failure(
                        failures,
                        index,
                        f"stalled: no completion within {timeout}s",
                    )
                waiting = set()
                break
            for future in done:
                index = index_of[future]
                try:
                    results[index] = future.result()
                except Exception as exc:
                    failed.append(index)
                    _note_failure(failures, index, repr(exc))
    finally:
        _terminate_pool(pool, stalled)
    return sorted(failed)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_jobs: Optional[int] = None,
    min_items_per_worker: int = 1,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[_R]:
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results always come back in input order.  ``fn`` reaches each worker
    once per pool round, as the executor's initializer argument: forked
    workers inherit it unpickled, spawned ones unpickle it once.  Only
    the items travel per submission, so every item must be picklable,
    and so must ``fn`` under ``spawn``/``forkserver``.  Anything that
    prevents an item from being delivered — unpicklable work, fork
    restrictions, a killed or hung worker — is retried on a fresh pool
    up to ``retries`` times and then re-executed on the serial path.
    Because work items are pure functions of their own inputs, the final
    result is identical for any worker count and any failure pattern,
    and a genuine error raised by ``fn`` still surfaces (from the serial
    pass, with an undecorated traceback).

    Library callers must pass a module-level function or a picklable
    task instance — never a lambda or closure, which pickle by qualified
    name.  Under ``fork`` such a callable still reaches the workers
    (inherited, never pickled), so "lambdas force the serial path" now
    holds only under ``spawn`` and ``forkserver``.  The rule stays:
    library code must not depend on the start method.  It is
    machine-checked whole-program by ``REP010`` in :mod:`repro.analysis`
    (the rule resolves the callable through the import graph, so a
    lambda imported from another module is caught at the submission
    site).

    Args:
        fn: callable applied to each item (module-level for pool use).
        items: work items; consumed eagerly.
        n_jobs: worker count, resolved via :func:`resolve_n_jobs`.
        min_items_per_worker: workload-size heuristic — shrink the pool
            (possibly to serial) so each worker gets at least this many
            items (see :func:`effective_workers`).  Results are identical
            for any value; it only moves the serial/parallel cutover.
        timeout: seconds without any item completing before the pool is
            declared stalled and torn down (``None`` →
            ``REPRO_TASK_TIMEOUT``; ``0`` disables).
        retries: extra pool rounds for failed items before the serial
            salvage pass (``None`` → ``REPRO_TASK_RETRIES``).
    """
    work = list(items)
    n_jobs = effective_workers(
        len(work), resolve_n_jobs(n_jobs), min_items_per_worker
    )
    if n_jobs <= 1 or len(work) <= 1:
        _TLS.failures = []
        return _serial_map(fn, work)
    timeout = resolve_task_timeout(timeout)
    retries = resolve_task_retries(retries)
    if not _obs.enabled():
        results, _, _, _ = _pooled_map(fn, work, n_jobs, timeout, retries)
        return results  # type: ignore[return-value]
    return _observed_pooled_map(fn, work, n_jobs, timeout, retries)


def _pooled_map(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    n_jobs: int,
    timeout: Optional[float],
    retries: int,
) -> Tuple[List[object], int, int, List[ItemFailure]]:
    """Pool rounds + serial salvage over ``work``.

    Returns ``(results, extra_rounds_used, n_salvaged, failures)`` — the
    retry/salvage counts feed the ``parallel.*`` metrics when
    observability is on, and the per-item failure contexts are published
    through :func:`last_map_failures` either way.
    """
    results: List[object] = [_PENDING] * len(work)
    pending: List[int] = list(range(len(work)))
    extra_rounds = 0
    failures: Dict[int, ItemFailure] = {}
    for attempt in range(1 + retries):
        if not pending:
            break
        if attempt:
            extra_rounds += 1
        pending = _pool_attempt(
            fn, work, results, pending, n_jobs, timeout, failures
        )
    n_salvaged = len(pending)
    for index in pending:
        # Serial salvage: pure items recompute to the same value; a
        # deterministic error reproduces here, undecorated.  An item
        # that genuinely hangs forever blocks here exactly as the serial
        # path always would.
        results[index] = fn(work[index])
    ordered = sorted(failures.values(), key=lambda f: f.index)
    _TLS.failures = ordered
    return results, extra_rounds, n_salvaged, ordered


def _observed_pooled_map(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    n_jobs: int,
    timeout: Optional[float],
    retries: int,
) -> List[_R]:
    """Pooled map with span/metric capture (observability active).

    Wraps ``fn`` in a :class:`repro.obs.trace.WorkerTask` so spans and
    metrics recorded on worker processes ship back with each result and
    merge under the enclosing ``parallel.map`` span; publishes pool
    health (items, retries, salvages, per-task latency, worker
    utilization) into the ``parallel.*`` metrics.
    """
    task = _obs.WorkerTask(fn)
    results: List[_R] = []
    with _obs.span("parallel.map", n_jobs=n_jobs, n_items=len(work)) as sp:
        t0 = _obs.now_ms()
        wrapped, extra_rounds, n_salvaged, failures = _pooled_map(
            task, work, n_jobs, timeout, retries
        )
        region_ms = _obs.now_ms() - t0
        busy_ms = 0.0
        for value, payload in wrapped:  # type: ignore[misc]
            if payload is not None:
                hist = payload.get("metrics", {}).get("parallel.task_ms")
                if hist:
                    busy_ms += float(hist["total"])
                _obs.merge_payload(payload)
            results.append(value)
        if failures:
            # Name the failing items on the span itself so a trace
            # report can say *which* cell/file was salvaged, not just
            # how many (capped: attrs must stay small).
            sp.annotate(
                item_failures=[
                    f"#{f.index} x{f.attempts}: {f.error[:120]}"
                    for f in failures[:8]
                ],
                n_item_failures=len(failures),
            )
    _obs.counter("parallel.items").inc(len(work))
    if failures:
        _obs.counter("parallel.item_retries").inc(
            sum(f.attempts for f in failures)
        )
    if n_salvaged:
        _obs.counter("parallel.items_salvaged").inc(n_salvaged)
    if extra_rounds:
        _obs.counter("parallel.pool_retries").inc(extra_rounds)
    if region_ms > 0:
        _obs.gauge("parallel.worker_utilization").set(
            min(1.0, busy_ms / (n_jobs * region_ms))
        )
    return results


def usable_cores() -> int:
    """Cores this process may run on; 1 inside a process-pool worker."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - hosts without affinity
        return os.cpu_count() or 1


#: ``get_num_threads`` entry points of the BLAS builds NumPy links:
#: scipy-openblas wheels, older OpenBLAS wheels, plain OpenBLAS, MKL.
_BLAS_THREAD_PROBES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


@functools.lru_cache(maxsize=None)
def _blas_thread_probe() -> Optional[Callable[[], int]]:
    """NumPy's BLAS thread-count getter, or ``None`` if none is found."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        # dlsym on this handle also searches the libraries it links.
        lib = ctypes.CDLL(umath.__file__)
    except OSError:  # pragma: no cover - static or exotic builds
        return None
    for name in _BLAS_THREAD_PROBES:
        probe = getattr(lib, name, None)
        if probe is not None:
            return probe
    return None


def blas_threads() -> Optional[int]:
    """Threads NumPy's BLAS runs one call on; ``None`` if unknown."""
    probe = _blas_thread_probe()
    return None if probe is None else int(probe())


def thread_workers(n_tasks: int, calls_blas: bool = False) -> int:
    """Threads for ``n_tasks`` independent tasks: usable cores, capped.

    Tasks that call BLAS run serially unless BLAS is known to run on
    one thread: a multi-threaded BLAS under our threads oversubscribes
    the cores, and its idle threads spin-wait between calls.
    """
    workers = max(1, min(usable_cores(), n_tasks))
    if workers > 1 and calls_blas and blas_threads() != 1:
        return 1
    return workers


def run_threads(
    task: Callable[[_T], None], items: Sequence[_T], workers: int
) -> None:
    """Call ``task(item)`` for every item on up to ``workers`` threads.

    One worker runs the items inline, in order.  Otherwise the threads
    live for this call only: they are joined before it returns, and the
    first failing item's exception is re-raised.  ``task`` must only
    write its own item's slice of shared output — then the result
    cannot depend on the schedule.
    """
    if workers <= 1 or len(items) <= 1:
        for item in items:
            task(item)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        for future in [pool.submit(task, item) for item in items]:
            future.result()
