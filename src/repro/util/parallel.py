"""Deterministic process-pool mapping that survives worker death.

The capture loops are embarrassingly parallel: every work item owns an
independently derived sub-seed, so the result of an item never depends on
which worker ran it or in what order.  :func:`parallel_map` exploits that —
it always returns results in input order, which makes the parallel output
bit-for-bit identical to the serial output for any worker count:

* one pool round runs every item; an exception raised by ``fn``
  propagates as raised;
* a worker that dies (``BrokenProcessPool``: a segfaulting native
  library, an OOM kill) only loses the items that have no result yet —
  those are re-executed serially in the parent, results already
  delivered are kept;
* the pool is shut down with its queued work cancelled on every path,
  so no worker outlives the call.

How ``fn`` reaches the workers: the pool hands ``fn`` to its workers
once, through the executor's ``initializer``, and submits only the
items (to the module-level trampoline :func:`_call_installed`).  Under
the ``fork`` start method (Linux's default before Python 3.14) workers
inherit ``fn`` without pickling it; under ``spawn`` or ``forkserver`` it
is pickled once per worker, not once per item.  A task that holds a
large object (the capture task holds its whole ``Acquisition``)
therefore costs the same to ship for 4 items as for 400.

Worker-count resolution (:func:`resolve_n_jobs`):

1. an explicit ``n_jobs`` argument;
2. the ``REPRO_N_JOBS`` environment variable;
3. default 1 (serial — no surprise process pools).

``n_jobs <= 0`` means "all cores".

The fit leaves (CWT chunks, class-statistics column tiles) fan out on
*threads* instead: :func:`run_threads` runs independent tasks that each
write a disjoint slice of a preallocated output, so the result is
bit-identical for any thread count.  The calling thread works too: it
claims items from a shared counter next to ``workers - 1`` helper
threads, so a call pays for starting one thread per extra core and no
executor.  The helpers live for one call only and are joined before it
returns, so a process that forks later (a capture pool) is
single-threaded when it forks; inside a pool worker
:func:`usable_cores` is 1, so pools are never oversubscribed.
Tasks that call BLAS thread only when :func:`blas_threads` is 1, so
BLAS's own threads never run under ours.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
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
from .knobs import get_int

__all__ = [
    "blas_threads",
    "effective_workers",
    "parallel_map",
    "resolve_n_jobs",
    "run_threads",
    "thread_workers",
    "usable_cores",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Placeholder for not-yet-computed results (``None`` is a valid result).
_PENDING = object()


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Resolve a worker count (argument → ``REPRO_N_JOBS`` → 1)."""
    if n_jobs is None:
        n_jobs = get_int("REPRO_N_JOBS")
    if n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)


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


#: The work function of the pool this worker process serves, installed
#: once per worker by :func:`_install_fn`.
_INSTALLED_FN: Optional[Callable] = None


def _install_fn(fn: Callable) -> None:
    """Pool initializer: keep ``fn`` for every item this worker runs."""
    global _INSTALLED_FN
    _INSTALLED_FN = fn


def _call_installed(item):
    """Module-level trampoline submitted per item: apply the installed fn."""
    return _INSTALLED_FN(item)  # type: ignore[misc]


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_jobs: Optional[int] = None,
    min_items_per_worker: int = 1,
) -> List[_R]:
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results always come back in input order.  ``fn`` reaches each worker
    once, as the executor's initializer argument: forked workers inherit
    it unpickled, spawned ones unpickle it once.  Only the items travel
    per submission, so every item must be picklable, and so must ``fn``
    under ``spawn``/``forkserver``.  An exception raised by ``fn``
    propagates as raised.  Items left without a result because a worker
    died, or because the pool could not take them (it broke, or ``fn``
    does not pickle under ``spawn``), run serially in the parent.
    Because work items are pure functions of their own inputs, the
    result is identical for any worker count and any worker death.

    Library callers must pass a module-level function or a picklable
    task instance — never a lambda or closure, which pickle by qualified
    name.  Under ``fork`` such a callable still reaches the workers
    (inherited, never pickled), so "lambdas force the serial path"
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
    """
    work = list(items)
    n_jobs = effective_workers(
        len(work), resolve_n_jobs(n_jobs), min_items_per_worker
    )
    if n_jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    if not _obs.enabled():
        results, _ = _pooled_map(fn, work, n_jobs)
        return results  # type: ignore[return-value]
    return _observed_pooled_map(fn, work, n_jobs)


def _pooled_map(
    fn: Callable[[_T], _R], work: Sequence[_T], n_jobs: int
) -> Tuple[List[object], int]:
    """One pool round over ``work``, then the serial salvage pass.

    Returns ``(results, n_salvaged)``: the salvage count feeds the
    ``parallel.items_salvaged`` counter when observability is on.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: List[object] = [_PENDING] * len(work)
    pool = ProcessPoolExecutor(
        max_workers=min(n_jobs, len(work)),
        initializer=_install_fn,
        initargs=(fn,),
    )
    try:
        futures = []
        for item in work:
            try:
                futures.append(pool.submit(_call_installed, item))
            except Exception:  # the pool cannot take work: salvage the rest
                break
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                continue  # a worker died: salvaged below
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    lost = [index for index, value in enumerate(results) if value is _PENDING]
    for index in lost:
        # Pure items recompute to the same value; a deterministic error
        # reproduces here, undecorated.
        results[index] = fn(work[index])
    return results, len(lost)


def _observed_pooled_map(
    fn: Callable[[_T], _R], work: Sequence[_T], n_jobs: int
) -> List[_R]:
    """Pooled map with span/metric capture (observability active).

    Wraps ``fn`` in a :class:`repro.obs.trace.WorkerTask` so spans and
    metrics recorded on worker processes ship back with each result and
    merge under the enclosing ``parallel.map`` span; publishes pool
    health (items, salvages, per-task latency, worker utilization) into
    the ``parallel.*`` metrics.
    """
    task = _obs.WorkerTask(fn)
    results: List[_R] = []
    with _obs.span("parallel.map", n_jobs=n_jobs, n_items=len(work)):
        t0 = _obs.now_ms()
        wrapped, n_salvaged = _pooled_map(task, work, n_jobs)
        region_ms = _obs.now_ms() - t0
        busy_ms = 0.0
        for value, payload in wrapped:  # type: ignore[misc]
            if payload is not None:
                hist = payload.get("metrics", {}).get("parallel.task_ms")
                if hist:
                    busy_ms += float(hist["total"])
                _obs.merge_payload(payload)
            results.append(value)
    _obs.counter("parallel.items").inc(len(work))
    if n_salvaged:
        _obs.counter("parallel.items_salvaged").inc(n_salvaged)
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
def _blas_library():
    """A ``ctypes`` handle that resolves NumPy's BLAS symbols, or ``None``."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        # dlsym on this handle also searches the libraries it links.
        return ctypes.CDLL(umath.__file__)
    except OSError:  # pragma: no cover - static or exotic builds
        return None


@functools.lru_cache(maxsize=None)
def _blas_thread_probe() -> Optional[Callable[[], int]]:
    """NumPy's BLAS thread-count getter, or ``None`` if none is found."""
    lib = _blas_library()
    if lib is None:  # pragma: no cover - static or exotic builds
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

    One worker runs the items inline, in order.  Otherwise the calling
    thread and ``workers - 1`` helper threads claim items in index
    order from a shared counter; the helpers live for this call only
    and are joined before it returns.  Once an item fails no further
    item is claimed, and after the join the lowest-index failure is
    re-raised.  ``task`` must only write its own item's slice of shared
    output — then the result cannot depend on the schedule.
    """
    n_items = len(items)
    if workers <= 1 or n_items <= 1:
        for item in items:
            task(item)
        return
    lock = threading.Lock()
    claimed = 0
    errors: Dict[int, BaseException] = {}

    def work() -> None:
        nonlocal claimed
        while True:
            with lock:
                if errors or claimed == n_items:
                    return
                index = claimed
                claimed += 1
            try:
                task(items[index])
            except BaseException as exc:  # re-raised after the join
                with lock:
                    errors[index] = exc
                return

    helpers = [
        threading.Thread(target=work, name=f"repro-fit-{i}")
        for i in range(1, min(workers, n_items))
    ]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
