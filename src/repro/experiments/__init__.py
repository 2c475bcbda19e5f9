"""Experiment matrix runner and table/figure generators (paper §3-§5)."""

from repro.experiments.runner import (
    ExperimentAggregate,
    ExperimentConfig,
    MatrixResult,
    default_checker,
    default_engine,
    run_experiment,
)
from repro.experiments.parallel import matrix_cells, run_matrix

__all__ = [
    "ExperimentAggregate",
    "ExperimentConfig",
    "MatrixResult",
    "default_checker",
    "default_engine",
    "matrix_cells",
    "run_experiment",
    "run_matrix",
]
