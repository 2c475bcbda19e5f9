"""Streaming-vs-batch parity for the pipeline core.

The streaming refactor's contract is bit-identity: every layer's stage
must produce exactly what the layer's batch call produces.  These
tests pin that contract layer by layer (filter, DPI and check stages,
summary accumulator), end to end (``run_cell_pipeline`` vs a
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
from repro.conformance.golden import (
    CorpusConfig,
    cell_records,
    default_corpus_dir,
    experiment_config,
)
from repro.core import ComplianceChecker, ComplianceSummary, StreamingSummary
from repro.dpi import (
    ColumnarEngine,
    DatagramAnalysis,
    DpiEngine,
    ExtractedMessage,
    Protocol,
)
from repro.experiments.runner import ExperimentConfig, run_cell_pipeline
from repro.filtering import TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.pipeline import (
    CheckStage,
    DpiStage,
    FilterStage,
    StageStats,
    merge_stage_stats,
)
from repro.protocols.rtp.extensions import HeaderExtension
from repro.protocols.rtp.header import RtpPacket
from repro.service import AnalysisSession, EvictionPolicy
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


def chunks(items, size=256):
    return [items[start:start + size] for start in range(0, len(items), size)]


class TestOnlineFilterParity:
    def test_manual_online_equals_batch_apply(self, trace):
        batch = TwoStageFilter(trace.window).apply(trace.records)
        stage = FilterStage(TwoStageFilter(trace.window))
        for chunk in chunks(trace.records):
            assert stage.process_chunk(chunk) == []
        kept = stage.flush()
        streamed = stage.result
        assert kept == streamed.kept_records
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

        alone = FilterStage(TwoStageFilter(WINDOW))
        alone.process_chunk(in_window)
        alone.flush()
        assert len(alone.result.kept_streams) == 1

        revoked = FilterStage(TwoStageFilter(WINDOW))
        revoked.process_chunk(in_window)
        revoked.process_chunk([post_window])
        revoked.flush()
        result = revoked.result
        assert [s.key for s in result.removed_by["3tuple"]] == [
            in_window[0].flow_key
        ]

    def test_observe_after_finalize_raises(self):
        stage = FilterStage(TwoStageFilter(WINDOW))
        stage.process_chunk([record(100.0)])
        stage.flush()
        with pytest.raises(RuntimeError):
            stage.process_chunk([record(101.0)])
        with pytest.raises(RuntimeError):
            stage.flush()

    def test_low_memory_preserves_accounting(self, trace):
        batch = TwoStageFilter(trace.window).apply(trace.records)
        plain = FilterStage(TwoStageFilter(trace.window))
        low = FilterStage(TwoStageFilter(trace.window))
        for chunk in chunks(trace.records):
            plain.process_chunk(chunk)
            low.process_chunk(chunk)
            assert low.evict(chunk[-1].timestamp) == ()
        # Draining must actually release buffered packets...
        assert low.buffered() < plain.buffered()
        low.flush()
        drained = low.result
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


class TestPipelineInstrumentation:
    """Exact per-stage counters of the session's filter → DPI → check loop.

    Any change to how records, chunks or buffer peaks are counted, or to
    what one stage hands the next, shows up here.  Counters are
    ``(records_in, records_out, chunks, peak_buffered)`` per stage.
    """

    @staticmethod
    def _counters(stats):
        return {
            stat.name: (
                stat.records_in, stat.records_out, stat.chunks,
                stat.peak_buffered,
            )
            for stat in stats
        }

    @staticmethod
    def _assert_hand_offs(stats):
        if "filter" in stats:
            assert stats["filter"].records_out == stats["dpi"].records_in
        assert stats["dpi"].records_out == stats["check"].records_in

    def test_counts_and_peak_buffered(self):
        """A filtered golden cell, fed by the batch adapter."""
        corpus = CorpusConfig()
        run = run_cell_pipeline(
            "meet", NetworkCondition.WIFI_RELAY, experiment_config(corpus)
        )
        assert list(run.stage_stats) == ["filter", "dpi", "check"]
        assert self._counters(run.stage_stats.values()) == {
            "filter": (998, 821, 4, 998),
            "dpi": (821, 795, 4, 795),
            "check": (795, 795, 4, 344),
        }
        self._assert_hand_offs(run.stage_stats)
        assert all(stat.wall_seconds > 0 for stat in run.stage_stats.values())

    def test_filterless_idle_eviction_cascades(self):
        """A filterless idle-evicting session over an impaired cell."""
        corpus = CorpusConfig(impairment="rebind")
        records = cell_records("zoom", NetworkCondition.WIFI_P2P, corpus)
        session = AnalysisSession(
            engine=DpiEngine(max_offset=corpus.max_offset),
            eviction=EvictionPolicy("idle", idle_gap=1.0, sweep_interval=0.5),
        )
        for start in range(0, len(records), 100):
            session.feed(records[start:start + 100])
        # Mid-stream, evicted flows have already reached the checker.
        before_close = session.snapshot()
        assert before_close.verdicts_ready == 347
        assert self._counters(before_close.stages) == {
            "dpi": (838, 404, 9, 562),
            "check": (404, 347, 2, 2),
        }
        result = session.close()
        assert list(result.stage_stats) == ["dpi", "check"]
        assert self._counters(result.stage_stats.values()) == {
            "dpi": (838, 797, 9, 562),
            "check": (797, 713, 4, 4),
        }
        assert len(result.verdicts) == 713
        self._assert_hand_offs(result.stage_stats)

    def test_merge_stage_stats(self):
        into = {}
        first = StageStats("dpi", 10, 8, 0.5, 100)
        merge_stage_stats(into, [first])
        merge_stage_stats(into, [StageStats("dpi", 5, 4, 0.25, 40)])
        merged = into["dpi"]
        assert (merged.records_in, merged.records_out) == (15, 12)
        assert merged.wall_seconds == pytest.approx(0.75)
        assert merged.peak_buffered == 100  # max, not sum
        assert first.records_in == 10  # the first record was copied


def _open_state(stage):
    """The flow keys ``DpiStage`` holds state for; all three must agree."""
    keys = set(stage._streams)
    assert set(stage._serials) == set(stage._last_seen) == keys
    return keys


class TestDpiStreamSession:
    """``DpiStage``: grouping, eviction and the order keys it emits."""

    def test_session_result_equals_batch(self, kept_records):
        batch = DpiEngine().analyze_records(kept_records)
        stage = DpiStage(DpiEngine())
        for chunk in chunks(kept_records):
            assert stage.process_chunk(chunk) == []
        emitted = stage.flush()
        streamed = [analysis for analysis, _ in emitted]
        assert streamed == batch.analyses
        # Flush emits in order-key order, each key naming its analysis.
        keys = [key for _, key in emitted]
        assert keys == sorted(keys)
        assert [key[0] for key in keys] == [a.record.timestamp for a in streamed]
        assert [key[3] for key in keys] == [len(a.messages) for a in streamed]
        assert stage.stats().as_dict() == batch.stats.as_dict()
        assert _open_state(stage) == set()

    def test_evict_releases_buffered_state(self, kept_records):
        udp = [r for r in kept_records if r.transport == "UDP"]
        first_key = udp[0].flow_key
        first_flow = [r for r in udp if r.flow_key == first_key]
        rest = [r for r in udp if r.flow_key != first_key]
        assert first_flow and rest

        stage = DpiStage(DpiEngine(), idle_gap=1.0)
        stage.process_chunk(first_flow)
        high_water = stage.buffered()
        last = max(r.timestamp for r in first_flow)
        assert stage.evict(last + 0.5) == []  # idle, but within the gap
        early = stage.evict(last + 1.5)
        assert len(early) == len(first_flow)
        assert stage.buffered() == 0
        # A finished stream leaves nothing behind.
        assert _open_state(stage) == set()
        stage.process_chunk(rest)
        late = stage.flush()
        assert stage.buffered() == 0
        assert _open_state(stage) == set()

        # Early release changes emission order, never per-stream verdicts:
        # streams are independent, and the order keys restore the batch
        # sequence exactly.
        batch = DpiEngine().analyze_records(udp)
        restored = sorted(early + late, key=lambda pair: pair[1][:3])
        assert [analysis for analysis, _ in restored] == batch.analyses
        assert high_water == len(first_flow)

    def test_feed_after_flush_raises(self, kept_records):
        stage = DpiStage(DpiEngine())
        stage.process_chunk(kept_records[:1])
        stage.flush()
        with pytest.raises(RuntimeError):
            stage.process_chunk(kept_records[:1])


#: Four flows, so operation sequences revisit, evict and reopen them.
_FLOWS = [("10.0.0.%d" % i, 40000 + i) for i in range(4)]

_session_ops = st.lists(st.one_of(
    st.tuples(st.just("feed"), st.integers(0, 3),
              st.floats(0.0, 420.0), st.sampled_from(["UDP", "TCP"])),
    st.tuples(st.just("evict"), st.floats(0.0, 420.0)),
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
    """The filter and DPI stages' ``buffered()`` are running counts.  The
    session reads them after every chunk, so they must equal the sum
    over open streams without recomputing it."""

    @settings(max_examples=60)
    @given(ops=_session_ops, idle_gap=st.floats(0.5, 100.0))
    def test_dpi_session_count_equals_sum(self, ops, idle_gap):
        stage = DpiStage(ColumnarEngine(), idle_gap=idle_gap)
        for op in ops:
            if op[0] == "feed":
                _, flow, t, transport = op
                stage.process_chunk(
                    [record(t, src=_FLOWS[flow], transport=transport)]
                )
            else:
                stage.evict(op[1])
            assert stage.buffered() == _held(stage._streams)
            _open_state(stage)
        stage.flush()
        assert stage.buffered() == _held(stage._streams) == 0
        assert _open_state(stage) == set()

    @settings(max_examples=60)
    @given(ops=_filter_ops, evict_each=st.booleans())
    def test_filter_count_equals_sum(self, ops, evict_each):
        stage = FilterStage(TwoStageFilter(WINDOW))
        for op in ops:
            if op[0] == "observe":
                stage.process_chunk([record(op[2], src=_FLOWS[op[1]])])
                if evict_each:
                    stage.evict(op[2])
            else:
                stage.evict(0.0)
            assert stage.buffered() == _held(stage._streams)
        stage.flush()
        assert stage.buffered() == _held(stage._streams)

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
    @pytest.mark.parametrize("sequential", [False, True])
    def test_stream_matches_batch(self, kept_records, sequential):
        dpi = DpiEngine().analyze_records(kept_records)
        checker = ComplianceChecker(sequential=sequential)
        batch = checker.check(dpi.messages())

        stage = CheckStage(checker)
        indexed = []
        for chunk in chunks(dpi.analyses):
            indexed.extend(stage.process_chunk(chunk))
        assert stage.buffered() > 0  # meet traces carry STUN traffic
        indexed.extend(stage.flush())
        assert stage.buffered() == 0
        streamed = [verdict for _, verdict in sorted(indexed, key=lambda p: p[0])]

        assert len(streamed) == len(batch)
        for got, want in zip(streamed, batch):
            assert got.message is want.message
            assert got.violation_keys() == want.violation_keys()

    @pytest.mark.parametrize("sequential", [True, False])
    def test_rtp_with_two_faults(self, sequential):
        """The stage judges RTP through ``check_rtp`` directly; the
        checker's ``sequential`` setting must still reach it."""
        packet = RtpPacket(
            payload_type=96, sequence_number=1, timestamp=2, ssrc=3,
            payload=b"\x00", invalid_padding=True,
            extension=HeaderExtension(profile=0x1234, data=b""),
        )
        message = ExtractedMessage(
            Protocol.RTP, 0, 17, packet, record(100)
        )
        checker = ComplianceChecker(sequential=sequential)
        stage = CheckStage(checker)
        streamed = stage.process_chunk(
            [DatagramAnalysis.classify(message.record, [message])]
        )
        want = checker.check([message])
        assert [v.violation_keys() for _, v in streamed] == [
            v.violation_keys() for v in want
        ]
        assert len(want[0].violations) == (1 if sequential else 2)

    def test_feed_after_flush_raises(self):
        stage = CheckStage(ComplianceChecker())
        stage.flush()
        with pytest.raises(RuntimeError):
            stage.process_chunk([])


class TestStreamingSummaryParity:
    def test_out_of_order_add_reproduces_batch_summary(self, kept_records):
        dpi = DpiEngine().analyze_records(kept_records)
        verdicts = ComplianceChecker().check(dpi.messages())
        batch = ComplianceSummary.from_verdicts("meet", verdicts)

        accumulator = StreamingSummary("meet")
        # Deliver in a deliberately scrambled order, as the check stage
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

    def test_filterless_session_judges_every_message(self, kept_records):
        session = AnalysisSession(engine=DpiEngine(), checker=ComplianceChecker())
        session.feed(kept_records)
        result = session.close()
        batch_dpi = DpiEngine().analyze_records(kept_records)
        assert result.filter_result is None
        assert len(result.verdicts) == len(batch_dpi.messages())
        assert list(result.stage_stats) == ["dpi", "check"]


class TestDifferStreamingSpec:
    def test_streaming_sweep_matches_all_golden_cells(self):
        # The committed corpus ships with the repo; replay every cell
        # through a sweep-configured engine driven by the streaming core.
        spec = EngineSpec("streaming-sweep", streaming=True)
        report = check_corpus(default_corpus_dir(), specs=(spec,))
        drifts = "\n".join(d.render() for d in report.drifts)
        assert report.ok, f"streaming engine drifted from goldens:\n{drifts}"
        assert report.cells_checked == 18
