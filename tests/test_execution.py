"""Cell execution: the per-run matrix pool and hermetic runs.

Every cell runs in one :class:`repro.service.AnalysisSession`; these
tests pin the pieces around it — the process pool ``run_matrix``
creates for one call and its in-process fallback, and that a run writes
nothing outside its own output.
"""

import multiprocessing

from repro.apps import NetworkCondition
from repro.experiments import ExperimentConfig, run_experiment, run_matrix
from repro.experiments import parallel

CONFIG = ExperimentConfig(call_duration=2.0, media_scale=0.2, seed=1)
NETWORKS = (NetworkCondition.WIFI_RELAY, NetworkCondition.CELLULAR)


class TestHermeticRuns:
    def test_run_experiment_writes_nothing_under_home(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        aggregate = run_experiment("zoom", NetworkCondition.WIFI_RELAY, CONFIG)
        assert aggregate.summary is not None
        assert list(tmp_path.iterdir()) == []


class TestMatrixPool:
    def test_no_worker_outlives_the_run(self):
        result = run_matrix(("zoom",), NETWORKS, config=CONFIG, workers=2)
        assert result.per_app["zoom"].summary is not None
        assert multiprocessing.active_children() == []

    def test_matrix_runs_in_process_when_the_pool_cannot_start(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise PermissionError("process creation forbidden")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        pooled = run_matrix(("zoom",), NETWORKS, config=CONFIG, workers=2)
        serial = run_matrix(("zoom",), NETWORKS, config=CONFIG, workers=1)
        assert pooled.per_app["zoom"].summary == serial.per_app["zoom"].summary
        assert parallel.kill_pool_workers() == 0
