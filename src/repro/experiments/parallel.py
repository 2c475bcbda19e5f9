"""Parallel experiment-matrix execution.

The matrix cells — every (app, network, repeat) triple — are independent:
each one simulates, filters, inspects and judges its own trace.  This
module schedules them onto a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges the per-cell :class:`ExperimentAggregate`s back into a
:class:`MatrixResult`.

Determinism contract: the merge happens in the *enumeration* order of
``matrix_cells`` (apps outer, networks middle, repeats inner) no matter
which worker finished first, so the result is bit-identical to the serial
path.  ``run_matrix(workers=...)`` in :mod:`repro.experiments.runner` is
the public entry point; it delegates here.

Scheduling: cells are submitted to the *shared* process pool (see
:mod:`repro.experiments.scheduler`) in enumeration order — every cell of
a matrix shares one config, so none is known to cost more than another.
The pool's initializer builds the process-wide default engine and
checker once per worker process, not once per cell.

Fallbacks: ``workers=1`` (or a single-cell matrix) never spawns processes,
and pool failures caused by the environment — unpicklable configs, a
broken/forbidden process pool — degrade to in-process execution instead of
failing the run.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, NetworkCondition
from repro.experiments.runner import (
    ExperimentAggregate,
    ExperimentConfig,
    MatrixResult,
    run_experiment,
)
from repro.experiments.scheduler import (
    POOL_FALLBACK_ERRORS,
    shared_pool,
    shutdown_shared_pool,
)

#: One experiment cell: (app, network, repeat index).
Cell = Tuple[str, NetworkCondition, int]


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


def run_matrix_parallel(
    apps: Sequence[str] = APP_NAMES,
    networks: Sequence[NetworkCondition] = tuple(NetworkCondition),
    config: ExperimentConfig = ExperimentConfig(),
    workers: Optional[int] = None,
) -> MatrixResult:
    """Run the matrix on up to ``workers`` processes (default: CPU count)."""
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
    """Execute cells on the shared pool; ``None`` means "fall back to serial".

    Cells are submitted and gathered in enumeration order, which is
    exactly the deterministic merge order — completion order never leaks
    through.
    """
    try:
        import pickle

        # Pre-flight the payload: a config that cannot cross a process
        # boundary should degrade to serial, not poison the shared pool.
        pickle.dumps(config)
        pool = shared_pool(workers, config.max_offset)
        futures = [pool.submit(run_cell, cell, config) for cell in cells]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        # The pool itself died (or could not spawn workers at all):
        # discard it so the next caller gets a fresh one, run serially.
        shutdown_shared_pool()
        return None
    except POOL_FALLBACK_ERRORS:
        # Unpicklable cell/config payloads or an environment where worker
        # processes cannot be spawned: run in-process instead.
        return None


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
