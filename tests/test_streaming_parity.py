"""Streaming-vs-batch parity for the pipeline core.

The streaming refactor's contract is bit-identity: every layer's online
mode must produce exactly what the historical batch call produced.  These
tests pin that contract layer by layer (filter, DPI session, checker
stream, summary accumulator), end to end (``run_cell_pipeline`` vs a
hand-rolled batch run), and corpus-wide (the differ's streaming engine
spec against all 18 golden cells), plus the flush semantics and stage
instrumentation the streaming mode introduces.
"""

import gc
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.conformance.differ import EngineSpec, check_corpus
from repro.conformance.golden import default_corpus_dir
from repro.core import ComplianceChecker, ComplianceSummary, StreamingSummary
from repro.dpi import DpiEngine
from repro.experiments.runner import ExperimentConfig, run_cell_pipeline
from repro.filtering import TwoStageFilter
from repro.filtering.online import OnlineTwoStageFilter
from repro.packets.packet import PacketRecord
from repro.pipeline import (
    CheckStage,
    DpiStage,
    FilterStage,
    Pipeline,
    Stage,
    StageStats,
    merge_stage_stats,
    ordered_verdicts,
    run_streaming,
)
from repro.service import AnalysisSession
from repro.streams.timeline import CallWindow

WINDOW = CallWindow(capture_start=0, call_start=60, call_end=360, capture_end=420)


def record(t, src=("10.0.0.9", 40000), dst=("93.184.216.34", 443),
           transport="UDP", payload=b"x"):
    return PacketRecord(
        timestamp=t, src_ip=src[0], src_port=src[1],
        dst_ip=dst[0], dst_port=dst[1], transport=transport, payload=payload,
    )


@pytest.fixture(scope="module")
def trace():
    simulator = get_simulator("meet")
    return simulator.simulate(
        CallConfig(
            network=NetworkCondition.CELLULAR,
            seed=3,
            call_duration=5.0,
            media_scale=0.3,
        )
    )


@pytest.fixture(scope="module")
def kept_records(trace):
    return TwoStageFilter(trace.window).apply(trace.records).kept_records


class TestOnlineFilterParity:
    def test_manual_online_equals_batch_apply(self, trace):
        batch = TwoStageFilter(trace.window).apply(trace.records)
        online = TwoStageFilter(trace.window).online()
        for rec in trace.records:
            online.observe(rec)
        streamed = online.finalize()
        assert streamed.raw == batch.raw
        assert streamed.stage1_removed == batch.stage1_removed
        assert streamed.stage2_removed == batch.stage2_removed
        assert streamed.kept == batch.kept
        assert [s.key for s in streamed.kept_streams] == [
            s.key for s in batch.kept_streams
        ]
        assert streamed.kept_records == batch.kept_records
        assert streamed.evaluation == batch.evaluation
        assert {name: [s.key for s in streams]
                for name, streams in streamed.removed_by.items()} == \
               {name: [s.key for s in streams]
                for name, streams in batch.removed_by.items()}

    def test_provisional_keep_revoked_at_flush(self):
        # An in-window stream is only provisionally kept: a post-window
        # record sharing its destination 3-tuple (NAT rebinding shape)
        # must still doom it when it arrives *after* the stream's packets.
        in_window = [
            record(100.0 + i, src=("10.0.0.9", 40002), dst=("17.5.7.9", 5223))
            for i in range(3)
        ]
        post_window = record(
            400.0, src=("10.0.0.9", 40003), dst=("17.5.7.9", 5223)
        )

        alone = TwoStageFilter(WINDOW).online()
        for rec in in_window:
            alone.observe(rec)
        assert len(alone.finalize().kept_streams) == 1

        revoked = TwoStageFilter(WINDOW).online()
        for rec in in_window:
            revoked.observe(rec)
        revoked.observe(post_window)
        result = revoked.finalize()
        assert [s.key for s in result.removed_by["3tuple"]] == [
            in_window[0].flow_key
        ]

    def test_observe_after_finalize_raises(self):
        online = TwoStageFilter(WINDOW).online()
        online.observe(record(100.0))
        online.finalize()
        with pytest.raises(RuntimeError):
            online.observe(record(101.0))
        with pytest.raises(RuntimeError):
            online.finalize()

    def test_low_memory_preserves_accounting(self, trace):
        batch = TwoStageFilter(trace.window).apply(trace.records)
        plain = TwoStageFilter(trace.window).online()
        low = TwoStageFilter(trace.window).online(low_memory=True)
        for rec in trace.records:
            plain.observe(rec)
            low.observe(rec)
        # Draining must actually release buffered packets...
        assert low.buffered_packets < plain.buffered_packets
        drained = low.finalize()
        # ...while every counter, the kept output, and the ground-truth
        # evaluation stay identical to the batch run.
        assert drained.raw == batch.raw
        assert drained.stage1_removed == batch.stage1_removed
        assert drained.stage2_removed == batch.stage2_removed
        assert drained.kept == batch.kept
        assert drained.kept_records == batch.kept_records
        assert drained.evaluation == batch.evaluation

    def test_kept_records_cached_and_sorted(self, trace):
        result = TwoStageFilter(trace.window).apply(trace.records)
        first = result.kept_records
        assert first is result.kept_records  # cached, not recomputed
        assert first == sorted(first, key=lambda r: r.timestamp)


class _Doubler(Stage):
    name = "double"

    def process(self, item):
        return (item, item)


class _HoldAll(Stage):
    name = "hold"

    def __init__(self):
        self._held = []

    def process(self, item):
        self._held.append(item)
        return ()

    def flush(self):
        held, self._held = self._held, []
        return held

    def buffered(self):
        return len(self._held)


class TestPipelineInstrumentation:
    def test_counts_and_peak_buffered(self):
        hold = _HoldAll()
        pipeline = Pipeline([_Doubler(), hold])
        out = pipeline.run([1, 2, 3])
        assert out == [1, 1, 2, 2, 3, 3]
        double_stats, hold_stats = pipeline.stats()
        assert (double_stats.records_in, double_stats.records_out) == (3, 6)
        assert (hold_stats.records_in, hold_stats.records_out) == (6, 6)
        assert hold_stats.peak_buffered == 6
        assert double_stats.wall_seconds >= 0.0

    def test_flush_cascades_downstream(self):
        # Items released by an upstream flush must still pass through the
        # stages after it.
        pipeline = Pipeline([_HoldAll(), _Doubler()])
        assert pipeline.feed("a") == []
        assert pipeline.flush() == ["a", "a"]
        assert pipeline.flush() == []  # idempotent

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_merge_stage_stats(self):
        into = {}
        merge_stage_stats(into, [StageStats("dpi", 10, 8, 0.5, 100)])
        merge_stage_stats(into, [StageStats("dpi", 5, 4, 0.25, 40)])
        merged = into["dpi"]
        assert (merged.records_in, merged.records_out) == (15, 12)
        assert merged.wall_seconds == pytest.approx(0.75)
        assert merged.peak_buffered == 100  # max, not sum


class TestDpiStreamSession:
    def test_session_result_equals_batch(self, kept_records):
        batch = DpiEngine().analyze_records(kept_records)
        session = DpiEngine().stream_session()
        for rec in kept_records:
            session.feed(rec)
        streamed = session.result()
        assert [a.classification for a in streamed.analyses] == [
            a.classification for a in batch.analyses
        ]
        assert [
            (m.timestamp, m.protocol, m.offset, m.length)
            for m in streamed.messages()
        ] == [
            (m.timestamp, m.protocol, m.offset, m.length)
            for m in batch.messages()
        ]
        assert streamed.stats.as_dict() == batch.stats.as_dict()

    def test_analyze_iter_matches_analyze_records(self, kept_records):
        batch = DpiEngine().analyze_records(kept_records)
        iterated = list(DpiEngine().analyze_iter(kept_records))
        assert [(a.record.timestamp, a.classification) for a in iterated] == [
            (a.record.timestamp, a.classification) for a in batch.analyses
        ]

    def test_finish_stream_releases_buffered_state(self, kept_records):
        udp = [r for r in kept_records if r.transport == "UDP"]
        first_key = udp[0].flow_key
        first_flow = [r for r in udp if r.flow_key == first_key]
        rest = [r for r in udp if r.flow_key != first_key]
        assert first_flow and rest

        session = DpiEngine().stream_session()
        for rec in first_flow:
            session.feed(rec)
        high_water = session.buffered
        early = session.finish_stream(first_key)
        assert len(early) == len(first_flow)
        assert session.buffered == 0
        for rec in rest:
            session.feed(rec)
        late = session.flush()
        assert session.buffered == 0

        # Early release changes emission order, never per-stream verdicts:
        # streams are independent, so the union matches the batch run.
        batch = DpiEngine().analyze_records(udp)
        combined = sorted(
            early + late, key=lambda a: a.record.timestamp
        )
        assert [(a.record.timestamp, a.classification) for a in combined] == [
            (a.record.timestamp, a.classification) for a in batch.analyses
        ]
        assert high_water == len(first_flow)

    def test_feed_after_flush_raises(self, kept_records):
        session = DpiEngine().stream_session()
        session.feed(kept_records[0])
        session.flush()
        with pytest.raises(RuntimeError):
            session.feed(kept_records[0])


#: Four flows, so operation sequences revisit, finish and reopen them.
_FLOWS = [("10.0.0.%d" % i, 40000 + i) for i in range(4)]

_session_ops = st.lists(st.one_of(
    st.tuples(st.just("feed"), st.integers(0, 3),
              st.floats(0.0, 420.0), st.sampled_from(["UDP", "TCP"])),
    st.tuples(st.just("finish"), st.integers(0, 3)),
    st.tuples(st.just("evict"), st.floats(0.0, 420.0),
              st.floats(0.5, 100.0)),
), max_size=40)

_filter_ops = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 3), st.floats(0.0, 420.0)),
    st.tuples(st.just("evict")),
), max_size=40)


def _held(streams):
    return sum(len(stream.packets) for stream in streams.values())


def _unique_flow_records(count):
    """*count* UDP records, every one on a flow of its own."""
    return [
        record(1.0 + i * 1e-6,
               src=("10.%d.%d.%d" % (i >> 16 & 255, i >> 8 & 255, i & 255),
                    1024 + i % 50000),
               dst=("20.0.0.2", 3478))
        for i in range(count)
    ]


def _feed_seconds_per_record(records):
    """Per-record time of one filterless session feed.

    The cyclic collector is paused while timing: its full passes scale
    with every live object in the process, which is not the cost under
    test.
    """
    session = AnalysisSession()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        session.feed(records)
        return (time.perf_counter() - start) / len(records)
    finally:
        gc.enable()


class TestBufferedCounts:
    """``buffered`` / ``buffered_packets`` are running counts.  The
    pipeline reads them after every chunk, so they must equal the sum
    over open streams without recomputing it."""

    @settings(max_examples=60)
    @given(ops=_session_ops)
    def test_dpi_session_count_equals_sum(self, ops):
        session = DpiEngine(backend="columnar").stream_session()
        for op in ops:
            if op[0] == "feed":
                _, flow, t, transport = op
                session.feed(record(t, src=_FLOWS[flow], transport=transport))
            elif op[0] == "finish":
                session.finish_stream(record(0.0, src=_FLOWS[op[1]]).flow_key)
            else:
                session.evict_idle(op[1], op[2])
            assert session.buffered == _held(session._streams)
        session.flush()
        assert session.buffered == _held(session._streams) == 0

    @settings(max_examples=60)
    @given(ops=_filter_ops, low_memory=st.booleans())
    def test_filter_count_equals_sum(self, ops, low_memory):
        online = OnlineTwoStageFilter(WINDOW, low_memory=low_memory)
        for op in ops:
            if op[0] == "observe":
                online.observe(record(op[2], src=_FLOWS[op[1]]))
            else:
                online.evict()
            assert online.buffered_packets == _held(online._streams)
        online.finalize()
        assert online.buffered_packets == _held(online._streams)

    def test_feed_time_flat_in_open_flows(self):
        """Per-record feed cost must not grow with the number of open
        flows: 80k unique flows stay within 2x of 20k (a per-chunk
        re-sum over open streams made it ~3-4x)."""
        few = _unique_flow_records(20_000)
        many = _unique_flow_records(80_000)
        # Each ratio comes from two back-to-back feeds, so a shared
        # host's CPU-speed swings (seconds long) cancel out of it.
        ratios = sorted(
            _feed_seconds_per_record(many) / _feed_seconds_per_record(few)
            for _ in range(5)
        )
        assert ratios[2] < 2, ratios


class TestCheckerStreamParity:
    @pytest.mark.parametrize("strict_compound", [False, True])
    def test_stream_matches_batch(self, kept_records, strict_compound):
        dpi = DpiEngine().analyze_records(kept_records)
        checker = ComplianceChecker(strict_compound=strict_compound)
        batch = checker.check(dpi.messages())

        stream = checker.stream()
        indexed = []
        for analysis in dpi.analyses:
            indexed.extend(stream.feed(analysis.messages))
        assert stream.deferred > 0  # meet traces carry STUN traffic
        indexed.extend(stream.flush())
        streamed = ordered_verdicts(indexed)

        assert len(streamed) == len(batch)
        for got, want in zip(streamed, batch):
            assert got.message is want.message
            assert got.violation_keys() == want.violation_keys()

    def test_feed_after_flush_raises(self):
        stream = ComplianceChecker().stream()
        stream.flush()
        with pytest.raises(RuntimeError):
            stream.feed([])


class TestStreamingSummaryParity:
    def test_out_of_order_add_reproduces_batch_summary(self, kept_records):
        dpi = DpiEngine().analyze_records(kept_records)
        verdicts = ComplianceChecker().check(dpi.messages())
        batch = ComplianceSummary.from_verdicts("meet", verdicts)

        accumulator = StreamingSummary("meet")
        # Deliver in a deliberately scrambled order, as the checker stream
        # does when STUN verdicts arrive at flush.
        indexed = list(enumerate(verdicts))
        scrambled = indexed[1::2] + indexed[0::2][::-1]
        for index, verdict in scrambled:
            accumulator.add(verdict, index=index)
        result = accumulator.result()

        assert result.volume == batch.volume
        assert result.volume_by_protocol == batch.volume_by_protocol
        assert list(result.volume_by_protocol) == list(batch.volume_by_protocol)
        assert list(result.types) == list(batch.types)  # insertion order too
        for key, entry in batch.types.items():
            got = result.types[key]
            assert (got.total, got.non_compliant) == (
                entry.total, entry.non_compliant
            )
            assert got.example_violations == entry.example_violations


class TestCellPipelineParity:
    CONFIG = ExperimentConfig(call_duration=5.0, media_scale=0.3, seed=3)

    def test_streaming_cell_equals_handrolled_batch(self, trace, kept_records):
        run = run_cell_pipeline(
            "meet",
            NetworkCondition.CELLULAR,
            self.CONFIG,
            engine=DpiEngine(),
            checker=ComplianceChecker(),
        )
        batch_dpi = DpiEngine().analyze_records(kept_records)
        batch_verdicts = ComplianceChecker().check(batch_dpi.messages())

        assert run.filter_result.kept_records == kept_records
        assert [a.classification for a in run.dpi.analyses] == [
            a.classification for a in batch_dpi.analyses
        ]
        assert run.dpi.stats.as_dict() == batch_dpi.stats.as_dict()
        assert [v.violation_keys() for v in run.verdicts] == [
            v.violation_keys() for v in batch_verdicts
        ]

    def test_stage_stats_shape(self):
        run = run_cell_pipeline(
            "meet", NetworkCondition.CELLULAR, self.CONFIG
        )
        assert list(run.stage_stats) == ["filter", "dpi", "check"]
        filter_stats = run.stage_stats["filter"]
        assert filter_stats.records_in > 0
        # The filter withholds everything until flush, so its high-water
        # mark is the whole capture...
        assert filter_stats.peak_buffered == filter_stats.records_in
        assert filter_stats.records_out == len(
            run.filter_result.kept_records
        )
        # ...and the checker's buffer only ever holds deferred STUN.
        assert run.stage_stats["check"].records_out == len(run.verdicts)

    def test_run_streaming_helper(self, kept_records):
        dpi, verdicts, stats = run_streaming(
            kept_records, DpiEngine(), ComplianceChecker()
        )
        batch_dpi = DpiEngine().analyze_records(kept_records)
        assert len(verdicts) == len(batch_dpi.messages())
        assert [s.name for s in stats] == ["dpi", "check"]


class TestDifferStreamingSpec:
    def test_streaming_sweep_matches_all_golden_cells(self):
        # The committed corpus ships with the repo; replay every cell
        # through a sweep-configured engine driven by the streaming core.
        spec = EngineSpec("streaming-sweep", streaming=True)
        report = check_corpus(default_corpus_dir(), specs=(spec,))
        drifts = "\n".join(d.render() for d in report.drifts)
        assert report.ok, f"streaming engine drifted from goldens:\n{drifts}"
        assert report.cells_checked == 18
