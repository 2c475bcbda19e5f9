"""Flow-sharded parallel streaming: determinism, fallbacks, CLI, scheduler.

The sharded executor's whole contract is bit-identical output to the
single-process streaming pipeline for every shard count, worker count,
and failure-induced fallback.  These tests pin that contract, plus the
supporting pieces: the stable flow-shard hash, chunked stage execution,
the shared process pool's scheduling helpers, and the CLI flags.
"""

from functools import partial

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker
from repro.dpi import DpiEngine
from repro.experiments import (
    ExperimentConfig,
    expected_cell_cost,
    plan_shard_workers,
    submission_order,
)
from repro.experiments.runner import run_cell_pipeline
from repro.filtering import TwoStageFilter
from repro.pipeline import (
    DEFAULT_CHUNK_SIZE,
    flow_shard,
    run_cell_sharded,
    run_streaming,
    run_streaming_sharded,
)


@pytest.fixture(scope="module")
def kept_records():
    trace = get_simulator("zoom").simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=1,
                   call_duration=6.0, media_scale=0.3)
    )
    return TwoStageFilter(trace.window).apply(trace.records).kept_records


@pytest.fixture(scope="module")
def raw_trace():
    return get_simulator("meet").simulate(
        CallConfig(network=NetworkCondition.CELLULAR, seed=2,
                   call_duration=6.0, media_scale=0.3)
    )


def _verdict_fingerprint(verdicts):
    return [
        (verdict.message.protocol.value, verdict.message.offset,
         verdict.compliant,
         tuple((v.criterion, v.code) for v in verdict.violations))
        for verdict in verdicts
    ]


def _analysis_fingerprint(dpi):
    return [
        (analysis.record.timestamp, analysis.classification.value,
         tuple((m.protocol.value, m.offset, m.length)
               for m in analysis.messages))
        for analysis in dpi.analyses
    ]


class TestFlowShard:
    def test_stable_across_processes(self):
        # blake2b of the canonical flow token — must never depend on
        # PYTHONHASHSEED, or shard assignment would differ per process.
        key = (("10.0.0.1", 5000), ("10.0.0.2", 6000), "UDP")
        assert flow_shard(key, 1) == 0
        assert flow_shard(key, 4) == flow_shard(key, 4)

    def test_range_and_distribution(self):
        seen = set()
        for port in range(200):
            key = (("10.0.0.1", port), ("10.0.0.2", 6000), "UDP")
            shard = flow_shard(key, 4)
            assert 0 <= shard < 4
            seen.add(shard)
        assert seen == {0, 1, 2, 3}

    def test_rejects_nonpositive_shards(self):
        key = (("10.0.0.1", 1), ("10.0.0.2", 2), "UDP")
        with pytest.raises(ValueError):
            flow_shard(key, 0)


class TestShardInvariance:
    def test_streaming_bit_identical_across_shard_counts(self, kept_records):
        single_dpi, single_verdicts, single_stats = run_streaming(
            kept_records, DpiEngine(), ComplianceChecker()
        )
        for shards in (1, 2, 4):
            dpi, verdicts, stats = run_streaming_sharded(
                kept_records, engine_factory=partial(DpiEngine),
                shards=shards, workers=0,
            )
            assert _analysis_fingerprint(dpi) == _analysis_fingerprint(single_dpi)
            assert _verdict_fingerprint(verdicts) == _verdict_fingerprint(
                single_verdicts
            )
            assert dpi.stats.datagrams == single_dpi.stats.datagrams
            # Merged stage stats conserve record flow regardless of shards.
            by_name = {stat.name: stat for stat in stats}
            single_by_name = {stat.name: stat for stat in single_stats}
            assert set(by_name) == set(single_by_name)
            for name, stat in by_name.items():
                assert stat.records_in == single_by_name[name].records_in
                assert stat.records_out == single_by_name[name].records_out

    def test_dpi_stats_exact_on_golden_cells(self):
        # Engines keep no cross-stream state, so partitioning flows across
        # shards must not move a single DPI counter.
        from repro.conformance import (
            CorpusConfig,
            default_corpus_dir,
            load_manifest,
        )
        from repro.conformance.golden import cell_records, corpus_cells

        manifest = load_manifest(default_corpus_dir())
        config = CorpusConfig.from_dict(manifest["config"])
        factory = partial(DpiEngine, max_offset=config.max_offset)
        cells = corpus_cells(manifest)
        assert len(cells) == 18
        for app, network in cells:
            records = cell_records(app, network, config)
            single, _verdicts, _stats = run_streaming(
                records, factory(), ComplianceChecker()
            )
            for shards in (2, 3):
                dpi, _verdicts, _stats = run_streaming_sharded(
                    records, engine_factory=factory, shards=shards, workers=0,
                )
                assert dpi.stats.as_dict() == single.stats.as_dict(), (
                    app, network.value, shards,
                )

    def test_pool_path_matches_in_process(self, kept_records):
        reference = run_streaming_sharded(
            kept_records, engine_factory=partial(DpiEngine),
            shards=2, workers=0,
        )
        pooled = run_streaming_sharded(
            kept_records, engine_factory=partial(DpiEngine),
            shards=2, workers=2,
        )
        assert _analysis_fingerprint(pooled[0]) == _analysis_fingerprint(
            reference[0]
        )
        assert _verdict_fingerprint(pooled[1]) == _verdict_fingerprint(
            reference[1]
        )

    def test_unpicklable_factory_falls_back_in_process(self, kept_records):
        # A lambda cannot cross a process boundary; the executor must
        # degrade to in-process shards and still produce identical output.
        reference = run_streaming_sharded(
            kept_records, engine_factory=partial(DpiEngine),
            shards=2, workers=0,
        )
        fallback = run_streaming_sharded(
            kept_records, engine_factory=lambda: DpiEngine(),
            shards=2, workers=2,
        )
        assert _verdict_fingerprint(fallback[1]) == _verdict_fingerprint(
            reference[1]
        )
        assert fallback[0].stats.datagrams == reference[0].stats.datagrams

    def test_empty_capture(self):
        dpi, verdicts, stats = run_streaming_sharded(
            [], engine_factory=partial(DpiEngine), shards=4, workers=0
        )
        assert dpi.analyses == [] and verdicts == []

    def test_rejects_bad_shards(self, kept_records):
        with pytest.raises(ValueError):
            run_streaming_sharded(
                kept_records, engine_factory=partial(DpiEngine), shards=0
            )


class TestCellSharding:
    def test_cell_sharded_matches_unsharded(self, raw_trace):
        filter_ = TwoStageFilter(raw_trace.window)
        reference_filter = filter_.apply(raw_trace.records)
        reference_dpi, reference_verdicts, _ = run_streaming(
            reference_filter.kept_records, DpiEngine(), ComplianceChecker()
        )
        for shards in (2, 4):
            run = run_cell_sharded(
                raw_trace.records, TwoStageFilter(raw_trace.window),
                engine_factory=partial(DpiEngine),
                shards=shards, workers=0,
            )
            assert _verdict_fingerprint(run.verdicts) == _verdict_fingerprint(
                reference_verdicts
            )
            assert _analysis_fingerprint(run.dpi) == _analysis_fingerprint(
                reference_dpi
            )
            # Filter outcome must match the global two-stage filter exactly,
            # including bucket order in removed_by (insertion order of the
            # single-process run).
            got, want = run.filter_result, reference_filter
            assert [s.key for s in got.kept_streams] == [
                s.key for s in want.kept_streams
            ]
            assert list(got.removed_by) == list(want.removed_by)
            for reason, streams in want.removed_by.items():
                assert [s.key for s in got.removed_by[reason]] == [
                    s.key for s in streams
                ]
            assert got.raw == want.raw
            assert got.stage1_removed == want.stage1_removed
            assert got.stage2_removed == want.stage2_removed
            assert got.kept == want.kept
            assert got.evaluation == want.evaluation
            assert [r.timestamp for r in got.kept_records] == [
                r.timestamp for r in want.kept_records
            ]

    def test_run_cell_pipeline_shard_workers(self, raw_trace):
        config = ExperimentConfig(call_duration=6.0, media_scale=0.3, seed=2)
        reference = run_cell_pipeline("meet", NetworkCondition.CELLULAR, config)
        sharded = run_cell_pipeline(
            "meet", NetworkCondition.CELLULAR, config, shard_workers=2
        )
        assert _verdict_fingerprint(sharded.verdicts) == _verdict_fingerprint(
            reference.verdicts
        )
        assert (sharded.filter_result.evaluation
                == reference.filter_result.evaluation)

    def test_run_cell_pipeline_rejects_bad_shard_workers(self):
        config = ExperimentConfig(call_duration=6.0, media_scale=0.3, seed=2)
        with pytest.raises(ValueError):
            run_cell_pipeline(
                "meet", NetworkCondition.CELLULAR, config, shard_workers=0
            )


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
        assert all("chunks" in stat.as_dict() for stat in chunked[2])

    def test_pipeline_rejects_bad_chunk_size(self):
        from repro.pipeline import Pipeline

        with pytest.raises(ValueError):
            Pipeline([], chunk_size=0)


class TestScheduler:
    def test_submission_order_largest_first_stable(self):
        items = ["b", "a", "c", "a"]
        order = submission_order(items, lambda item: {"a": 2, "b": 1, "c": 3}[item])
        assert order == [2, 1, 3, 0]

    def test_expected_cell_cost_scales_with_config(self):
        small = ExperimentConfig(call_duration=5.0, media_scale=0.2)
        large = ExperimentConfig(call_duration=20.0, media_scale=0.5)
        cell = ("zoom", NetworkCondition.WIFI_RELAY, 0)
        assert expected_cell_cost(cell, large) > expected_cell_cost(cell, small)

    def test_shared_pool_rejects_bad_workers(self):
        from repro.experiments import shared_pool

        with pytest.raises(ValueError):
            shared_pool(0)


class TestShardPlan:
    def test_auto_sizes_to_cpu_count(self):
        plan = plan_shard_workers(None, tasks=8, cpu_count=4)
        assert plan.effective == 4
        assert not plan.clamped and not plan.in_process

    def test_clamps_to_cpu_count(self):
        # The sharding cliff: 4 requested workers on a 1-CPU box must
        # degrade to in-process execution, not oversubscribe.
        plan = plan_shard_workers(4, tasks=4, cpu_count=1)
        assert plan.effective == 1
        assert plan.clamped and plan.in_process
        assert "clamped to 1 cpu" in plan.describe()
        assert plan.describe().startswith("in-process")

    def test_caps_at_task_count_without_clamp_flag(self):
        plan = plan_shard_workers(8, tasks=2, cpu_count=16)
        assert plan.effective == 2
        assert not plan.clamped
        assert plan.describe() == "2 workers"

    def test_zero_and_one_force_in_process(self):
        for requested in (0, 1):
            plan = plan_shard_workers(requested, tasks=8, cpu_count=8)
            assert plan.in_process
            assert plan.effective == requested

    def test_as_dict_round_trips_the_decision(self):
        plan = plan_shard_workers(4, tasks=4, cpu_count=2)
        assert plan.as_dict() == {
            "requested": 4, "effective": 2, "cpu_count": 2,
            "clamped": True, "in_process": False,
        }

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shard_workers(-1, tasks=4)
        with pytest.raises(ValueError):
            plan_shard_workers(2, tasks=4, cpu_count=0)

    def test_executor_applies_the_plan(self, kept_records):
        # A wildly oversubscribed request must behave exactly like the
        # in-process reference on this machine (and on any machine:
        # bit-identical by contract, clamped by the plan).
        reference = run_streaming_sharded(
            kept_records, engine_factory=partial(DpiEngine),
            shards=2, workers=0,
        )
        clamped = run_streaming_sharded(
            kept_records, engine_factory=partial(DpiEngine),
            shards=2, workers=64,
        )
        assert _verdict_fingerprint(clamped[1]) == _verdict_fingerprint(
            reference[1]
        )
        assert clamped[0].stats.datagrams == reference[0].stats.datagrams


class TestConformanceSpec:
    def test_sharded_streaming_spec_registered(self):
        from repro.conformance.differ import ENGINE_SPECS

        names = [spec.name for spec in ENGINE_SPECS]
        assert "sharded-streaming" in names
        spec = next(s for s in ENGINE_SPECS if s.name == "sharded-streaming")
        assert spec.shards > 1 and spec.streaming


class TestCliFlags:
    def test_shard_flags_parse(self):
        from repro.cli import build_parser

        for command in ("matrix", "report", "pipeline-stats"):
            args = build_parser().parse_args(
                [command, "--shard-workers", "2", "--chunk-size", "64"]
            )
            assert args.shard_workers == 2
            assert args.chunk_size == 64
            args = build_parser().parse_args([command])
            assert args.shard_workers == 1
            assert args.chunk_size is None

    def test_shard_flags_reject_nonpositive(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--shard-workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--chunk-size", "0"])
