"""The shared process pool and the scheduling helpers around it.

Matrix cells (:mod:`repro.experiments.parallel`) run on the single
:class:`~concurrent.futures.ProcessPoolExecutor` owned here, so worker
processes are spawned (and warmed) once per Python process, not once
per call.  Each cell runs whole inside one worker, as one
:class:`repro.service.AnalysisSession`.  An ``atexit`` hook tears the
pool down when the process exits, so pool workers can never outlive
the CLI.  Execution knobs (``workers``, ``chunk_size``) are taken from
configuration as given.

The pool ``initializer`` pre-builds the process-wide default engine and
checker (:func:`repro.experiments.runner.default_engine` /
``default_checker``), so cell workers do not pay construction cost on
their first cell.

``POOL_FALLBACK_ERRORS`` is the shared contract for "the environment, not
the code, refused to parallelize": unpicklable payloads, broken pools,
sandboxes that forbid ``fork``.  Callers catch it and fall back to
in-process execution, which must produce bit-identical results anyway.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar


class PoolClosedError(RuntimeError):
    """The shared pool was finally shut down (interpreter exit path).

    Raised by :func:`shared_pool` after :func:`shutdown_shared_pool` ran
    with ``final=True`` — typically from the ``atexit`` hook — so late
    callers degrade to in-process execution instead of re-spawning
    worker processes that would outlive (or hang) the exiting CLI.
    """


#: Environment-caused pool failures that mean "run in-process instead".
POOL_FALLBACK_ERRORS = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    BrokenProcessPool,
    OSError,
    PermissionError,
    PoolClosedError,
)

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_pool_finalized: bool = False


def _warm_worker(max_offset: int) -> None:
    """Pool initializer: reset signal handlers and pre-build engine/checker."""
    # Forked workers inherit the CLI's SIGTERM/SIGINT handlers, which
    # tear down the *shared pool* — a parent-only action that deadlocks
    # in a child holding forked copies of the executor's locks.  Restore
    # the default dispositions so ``terminate()`` actually kills workers.
    import signal

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    from repro.experiments.runner import default_checker, default_engine

    default_engine(max_offset)
    default_checker()


def shared_pool(
    workers: Optional[int] = None,
    max_offset: int = 200,
) -> ProcessPoolExecutor:
    """The process-wide executor, grown (never shrunk) to ``workers``.

    The first caller's ``max_offset`` seeds the worker warm-up; later
    callers with a different one still work — ``default_engine`` is an
    LRU per ``max_offset`` — they just build that engine on first use
    instead of at worker start.
    """
    global _pool, _pool_workers
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be a positive integer or None")
    if _pool_finalized:
        raise PoolClosedError(
            "the shared pool was finally shut down; run in-process instead"
        )
    if _pool is None or _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(max_offset,),
        )
        _pool_workers = workers
    return _pool


def kill_pool_workers() -> int:
    """Terminate the pool's worker processes; returns how many were signalled.

    **Signal-handler safe**: reads the executor's private process table
    (guarded against both stdlib layout changes and the table mutating
    under a mid-fork race) and signals the workers directly, touching no
    executor lock — ``ProcessPoolExecutor.shutdown`` acquires the
    non-reentrant ``_shutdown_lock``, which deadlocks if the interrupted
    main thread was inside ``submit()`` already holding it.  Workers run
    with default signal dispositions (:func:`_warm_worker`), so the
    ``SIGTERM`` that ``terminate()`` sends actually kills them.
    """
    pool = _pool
    if pool is None:
        return 0
    processes: List = []
    for _ in range(3):
        try:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            break
        except RuntimeError:  # pragma: no cover - table mutated mid-fork
            continue
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            # Racing exit, or a worker whose fork has not completed yet
            # (``_popen`` still unset) — either way there is nothing to kill.
            pass
    return len(processes)


def shutdown_shared_pool(final: bool = False, terminate: bool = False) -> None:
    """Tear the shared pool down (broken pool recovery, test isolation).

    ``final=True`` additionally forbids re-creation: any later
    :func:`shared_pool` call raises :class:`PoolClosedError` (which is in
    ``POOL_FALLBACK_ERRORS``, so executors degrade to in-process rather
    than fail).  The module registers ``shutdown_shared_pool(final=True)``
    with :mod:`atexit` so pool workers cannot outlive the CLI process.

    ``terminate=True`` additionally kills worker processes outright
    instead of letting them finish their in-flight task — the graceful-
    drain path (``serve`` shutdown), where the contract is "no orphaned
    workers survive the CLI", not "finish the work".  Not for signal
    handlers — they must use :func:`kill_pool_workers` alone.
    """
    global _pool, _pool_workers, _pool_finalized
    if _pool is not None:
        processes = dict(getattr(_pool, "_processes", None) or {})
        if terminate:
            kill_pool_workers()
        _pool.shutdown(wait=False, cancel_futures=True)
        if terminate:
            for process in processes.values():
                process.join(timeout=2.0)
        _pool = None
        _pool_workers = 0
    if final:
        _pool_finalized = True


def reopen_shared_pool() -> None:
    """Lift a final shutdown so a new pool may be created (tests only)."""
    global _pool_finalized
    _pool_finalized = False


atexit.register(shutdown_shared_pool, final=True)


T = TypeVar("T")


def submission_order(
    items: Sequence[T], cost: Callable[[T], float]
) -> List[int]:
    """Indices of *items* sorted largest-expected-cost-first.

    Ties keep enumeration order, so equal-cost workloads submit exactly
    as they enumerate and the schedule stays deterministic.  Callers
    submit in this order but still gather results in enumeration order —
    scheduling must never leak into merge order.
    """
    return sorted(range(len(items)), key=lambda i: (-cost(items[i]), i))

