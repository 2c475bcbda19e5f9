"""Experiment matrix runner and table/figure generators (paper §3-§5)."""

from repro.experiments.runner import (
    ExperimentAggregate,
    ExperimentConfig,
    MatrixResult,
    run_experiment,
)
from repro.experiments.parallel import matrix_cells, run_matrix

__all__ = [
    "ExperimentAggregate",
    "ExperimentConfig",
    "MatrixResult",
    "matrix_cells",
    "run_experiment",
    "run_matrix",
]
