"""Cell execution: chunked stages and the shared pool.

Every cell runs in one :class:`repro.service.AnalysisSession`; these
tests pin the pieces around it — chunk-size invariance of the streaming
pipeline, the shared process pool's finalization, and that a run writes
nothing outside its own output.
"""

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker
from repro.dpi import DpiEngine
from repro.experiments import (
    ExperimentConfig,
    PoolClosedError,
    reopen_shared_pool,
    run_experiment,
    run_matrix,
    shared_pool,
    shutdown_shared_pool,
)
from repro.experiments.scheduler import POOL_FALLBACK_ERRORS
from repro.filtering import TwoStageFilter
from repro.pipeline import DEFAULT_CHUNK_SIZE, run_streaming


@pytest.fixture(scope="module")
def kept_records():
    trace = get_simulator("zoom").simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=1,
                   call_duration=6.0, media_scale=0.3)
    )
    return TwoStageFilter(trace.window).apply(trace.records).kept_records


def _verdict_fingerprint(verdicts):
    return [
        (verdict.message.protocol.value, verdict.message.offset,
         verdict.compliant,
         tuple((v.criterion, v.code) for v in verdict.violations))
        for verdict in verdicts
    ]


class TestChunkedExecution:
    def test_chunk_size_invariance_and_counter(self, kept_records):
        per_record = run_streaming(
            kept_records, DpiEngine(), ComplianceChecker(), chunk_size=1
        )
        chunked = run_streaming(
            kept_records, DpiEngine(), ComplianceChecker(),
            chunk_size=DEFAULT_CHUNK_SIZE,
        )
        assert _verdict_fingerprint(chunked[1]) == _verdict_fingerprint(
            per_record[1]
        )
        per_record_chunks = sum(stat.chunks for stat in per_record[2])
        chunked_chunks = sum(stat.chunks for stat in chunked[2])
        assert chunked_chunks > 0
        assert chunked_chunks < per_record_chunks
        assert all("chunks" in stat.to_json() for stat in chunked[2])

    def test_pipeline_rejects_bad_chunk_size(self):
        from repro.service import AnalysisSession

        with pytest.raises(ValueError):
            AnalysisSession(chunk_size=0)

    def test_chunk_size_flag(self):
        from repro.cli import build_parser

        for command in ("matrix", "report", "pipeline-stats"):
            args = build_parser().parse_args([command, "--chunk-size", "64"])
            assert args.chunk_size == 64
            assert build_parser().parse_args([command]).chunk_size is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--chunk-size", "0"])


class TestScheduler:
    def test_shared_pool_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            shared_pool(0)


class TestHermeticRuns:
    def test_run_experiment_writes_nothing_under_home(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        config = ExperimentConfig(call_duration=2.0, media_scale=0.2, seed=1)
        aggregate = run_experiment("zoom", NetworkCondition.WIFI_RELAY, config)
        assert aggregate.summary is not None
        assert list(tmp_path.iterdir()) == []


class TestPoolFinalization:
    def test_pool_not_recreated_after_final_shutdown(self):
        try:
            shutdown_shared_pool(final=True)
            with pytest.raises(PoolClosedError):
                shared_pool(2)
            # Still closed on a second attempt — no silent re-creation.
            with pytest.raises(PoolClosedError):
                shared_pool(1)
            assert PoolClosedError in POOL_FALLBACK_ERRORS
        finally:
            reopen_shared_pool()

    def test_matrix_degrades_in_process_after_final_shutdown(self):
        config = ExperimentConfig(call_duration=2.0, media_scale=0.2, seed=1)
        try:
            shutdown_shared_pool(final=True)
            result = run_matrix(
                apps=("zoom",),
                networks=(NetworkCondition.WIFI_RELAY,
                          NetworkCondition.CELLULAR),
                config=config,
                workers=2,
            )
            assert set(result.per_app) == {"zoom"}
            assert result.per_app["zoom"].summary is not None
        finally:
            reopen_shared_pool()
