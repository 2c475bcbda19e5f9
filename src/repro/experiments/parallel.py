"""Experiment-matrix execution, in-process or on a per-run process pool.

The matrix cells — every (app, network, repeat) triple — are independent:
each one simulates, filters, inspects and judges its own trace.
:func:`run_matrix` runs them in-process or on a
:class:`~concurrent.futures.ProcessPoolExecutor` that lives for that one
call, and merges the per-cell :class:`ExperimentAggregate`s back into a
:class:`MatrixResult`.

Determinism contract: the merge happens in the *enumeration* order of
``matrix_cells`` (apps outer, networks middle, repeats inner) no matter
which worker finished first, so the result is bit-identical to the serial
path.

Scheduling: cells are submitted in enumeration order — every cell of a
matrix shares one config, so none is known to cost more than another.
The pool is shut down, its workers joined, before :func:`run_matrix`
returns, so no worker outlives the call.

Fallbacks: ``workers=1`` (or a single-cell matrix) never spawns processes,
and pool failures caused by the environment (``POOL_FALLBACK_ERRORS``:
unpicklable configs, a broken process pool, sandboxes that forbid
``fork``) degrade to in-process execution, which produces bit-identical
results, instead of failing the run.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, NetworkCondition
from repro.experiments.runner import (
    ExperimentAggregate,
    ExperimentConfig,
    MatrixResult,
    run_experiment,
)

#: One experiment cell: (app, network, repeat index).
Cell = Tuple[str, NetworkCondition, int]

#: Environment-caused pool failures that mean "run in-process instead".
POOL_FALLBACK_ERRORS = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    BrokenProcessPool,
    OSError,
)

#: The pool of the :func:`run_matrix` call in progress, if any; read by
#: :func:`kill_pool_workers` from a signal handler.
_active_pool: Optional[ProcessPoolExecutor] = None


def matrix_cells(
    apps: Sequence[str],
    networks: Sequence[NetworkCondition],
    repeats: int,
) -> List[Cell]:
    """Enumerate the matrix cells in canonical (and merge) order."""
    return [
        (app, network, repeat)
        for app in apps
        for network in networks
        for repeat in range(repeats)
    ]


def run_cell(cell: Cell, config: ExperimentConfig) -> ExperimentAggregate:
    """Run one matrix cell; module-level so process pools can pickle it."""
    app, network, repeat = cell
    return run_experiment(app, network, config, call_index=repeat)


def run_matrix(
    apps: Sequence[str] = APP_NAMES,
    networks: Sequence[NetworkCondition] = tuple(NetworkCondition),
    config: ExperimentConfig = ExperimentConfig(),
    workers: Optional[int] = 1,
) -> MatrixResult:
    """Run the full experiment matrix and merge per-app aggregates.

    ``workers`` selects the executor: ``1`` (the default) runs every cell
    in-process, ``N > 1`` runs cells on a process pool of ``N`` workers
    (at most one per cell) created for this call, and ``None`` sizes the
    pool to ``os.cpu_count()``.  The result is bit-identical regardless
    of ``workers`` — cells are merged in their enumeration order, never
    in completion order.
    """
    cells = matrix_cells(apps, networks, config.repeats)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be a positive integer or None")
    workers = min(workers, len(cells)) if cells else 1

    results: Optional[List[ExperimentAggregate]] = None
    if workers > 1:
        results = _run_pool(cells, config, workers)
    if results is None:
        results = [run_cell(cell, config) for cell in cells]
    return _merge_in_order(cells, results, config)


def _run_pool(
    cells: Sequence[Cell], config: ExperimentConfig, workers: int
) -> Optional[List[ExperimentAggregate]]:
    """Execute cells on a pool of *workers*; ``None`` means "run in-process".

    Cells are submitted and gathered in enumeration order, which is
    exactly the deterministic merge order — completion order never leaks
    through.  Leaving the ``with`` block joins every worker.
    """
    global _active_pool
    try:
        # A config that cannot cross a process boundary runs in-process.
        pickle.dumps(config)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _active_pool = pool
            futures = [pool.submit(run_cell, cell, config) for cell in cells]
            return [future.result() for future in futures]
    except POOL_FALLBACK_ERRORS:
        return None
    finally:
        _active_pool = None


def kill_pool_workers() -> int:
    """Terminate the active pool's workers; returns how many were signalled.

    **Signal-handler safe**: reads the executor's private process table
    (guarded against both stdlib layout changes and the table mutating
    under a mid-fork race) and signals the workers directly, touching no
    executor lock — ``ProcessPoolExecutor.shutdown`` acquires the
    non-reentrant ``_shutdown_lock``, which deadlocks if the interrupted
    main thread was inside ``submit()`` already holding it.  A forked
    worker inherits the CLI's signal handler, whose owner-pid guard makes
    it just die on the ``SIGTERM`` that ``terminate()`` sends.
    """
    pool = _active_pool
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


def _merge_in_order(
    cells: Sequence[Cell],
    results: Sequence[ExperimentAggregate],
    config: ExperimentConfig,
) -> MatrixResult:
    per_app: Dict[str, ExperimentAggregate] = {}
    for (app, _network, _repeat), aggregate in zip(cells, results):
        if app in per_app:
            per_app[app].merge(aggregate)
        else:
            per_app[app] = aggregate
    return MatrixResult(per_app=per_app, config=config)
