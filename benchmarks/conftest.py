"""Shared state for the benchmark harness.

The full experiment matrix (6 apps x 3 networks) is computed once per
session; each benchmark file prints its table/figure from it, asserts the
paper's shape, and times a representative pipeline stage with
pytest-benchmark.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import DpiEngine
from repro.experiments import ExperimentConfig, run_matrix
from repro.filtering import TwoStageFilter

#: Scaled-down analogue of the paper's 5-minute calls: long enough for every
#: behaviour (bursts, call-end messages, payload-type rotations) to appear.
BENCH_CONFIG = ExperimentConfig(call_duration=40.0, media_scale=0.5, seed=0)

#: Worker processes for the shared matrix fixture.  Overridable so CI can
#: pin it; the parallel and serial paths are bit-identical by contract.
BENCH_WORKERS = int(os.environ.get("BENCH_WORKERS", os.cpu_count() or 1))


@pytest.fixture(scope="session")
def matrix():
    return run_matrix(config=BENCH_CONFIG, workers=BENCH_WORKERS)


@pytest.fixture(scope="session")
def zoom_trace():
    return get_simulator("zoom").simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=0,
                   call_duration=40.0, media_scale=0.5)
    )


@pytest.fixture(scope="session")
def zoom_kept_records(zoom_trace):
    return TwoStageFilter(zoom_trace.window).apply(zoom_trace.records).kept_records


@pytest.fixture(scope="session")
def zoom_dpi(zoom_kept_records):
    return DpiEngine(backend="columnar").analyze_records(zoom_kept_records)
