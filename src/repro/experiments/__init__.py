"""Experiment matrix runner and table/figure generators (paper §3-§5)."""

from repro.experiments.runner import (
    ExperimentAggregate,
    ExperimentConfig,
    MatrixResult,
    default_checker,
    default_engine,
    run_experiment,
    run_matrix,
)
from repro.experiments.parallel import (
    matrix_cells,
    run_matrix_parallel,
)
from repro.experiments.scheduler import (
    PoolClosedError,
    reopen_shared_pool,
    shared_pool,
    shutdown_shared_pool,
)

__all__ = [
    "ExperimentAggregate",
    "ExperimentConfig",
    "MatrixResult",
    "PoolClosedError",
    "default_checker",
    "default_engine",
    "matrix_cells",
    "reopen_shared_pool",
    "run_experiment",
    "run_matrix",
    "run_matrix_parallel",
    "shared_pool",
    "shutdown_shared_pool",
]
