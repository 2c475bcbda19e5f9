"""Memory held per analysed message, the one-copy payload contract, and
the streaming pipeline's flat peak.

A filtered session decides only at close (the 3-tuple rule needs the
whole capture), so what it holds per record is what bounds its memory.
These tests pin that cost with tracemalloc and pin the sharing that keeps
it low: an extracted RTP message's payload is a read-only view into its
record's payload, never a second copy, and still pickles, deep-copies and
compares like ``bytes``.  An unfiltered stream that evicts idle flows
holds only the flows still open, so its peak stays flat as the capture
grows while a batch run's grows with it.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker, ComplianceSummary, StreamingSummary
from repro.dpi import DpiEngine, Protocol
from repro.packets.packet import PacketRecord
from repro.pipeline import CheckStage, DpiStage
from repro.protocols.rtp.extensions import HeaderExtension
from repro.protocols.rtp.header import RtpPacket
from repro.service import AnalysisSession

#: tracemalloc bytes a closed filtered session holds per analysed datagram
#: on the call below: ~741 on CPython 3.11, plus 10%.  An empty CSRC
#: list per RTP packet and an empty violation list per compliant verdict
#: would hold ~838; a second copy of each RTP payload, or a tuple per
#: order key and per verdict, ~1,520.
HELD_BYTES_PER_DATAGRAM = 815


def _call(duration):
    config = CallConfig(
        network=NetworkCondition.WIFI_RELAY,
        seed=0,
        call_duration=duration,
        media_scale=0.3,
    )
    return config, list(get_simulator("zoom").iter_records(config))


def _run(config, records):
    session = AnalysisSession(window=config.window())
    session.feed(records)
    return session, session.close()


@pytest.fixture(scope="module")
def closed_call():
    config, records = _call(20.0)
    assert len(records) >= 2000
    # Warm lazily built module state (caches, compiled patterns) first,
    # so only what the measured session holds is counted.
    _run(*_call(2.0))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session, result = _run(config, records)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return session, result, held


def test_closed_filtered_session_holds_little_per_datagram(closed_call):
    _session, result, held = closed_call
    analysed = len(result.dpi.analyses)
    assert analysed >= 1500
    per_datagram = held / analysed
    assert per_datagram <= HELD_BYTES_PER_DATAGRAM, (
        f"{per_datagram:.0f} B held per analysed datagram"
    )


def test_extracted_rtp_payload_is_a_view_of_its_record(closed_call):
    _session, result, _held = closed_call
    rtp = [
        message
        for analysis in result.dpi.analyses
        for message in analysis.messages
        if message.protocol is Protocol.RTP
    ]
    assert rtp
    for message in rtp:
        payload = message.message.payload
        assert isinstance(payload, memoryview) and payload.readonly
        assert payload.obj is message.record.payload


def test_bytearray_input_yields_an_independent_copy():
    wire = RtpPacket(
        payload_type=96,
        sequence_number=7,
        timestamp=1234,
        ssrc=0xCAFE,
        payload=b"media-bytes",
        extension=HeaderExtension(profile=0xBEDE, data=b"\x10\xaa\x00\x00"),
    ).build()
    buffer = bytearray(wire)
    packet = RtpPacket.parse(buffer)
    assert type(packet.payload) is bytes
    assert type(packet.extension.data) is bytes
    buffer[-3:] = b"XYZ"
    buffer[17] = 0xFF
    assert packet.payload == b"media-bytes"
    assert packet.extension.data == b"\x10\xaa\x00\x00"
    assert packet == RtpPacket.parse(wire)


def test_view_packet_equals_its_bytes_twin_and_round_trips():
    wire = RtpPacket(
        payload_type=111, sequence_number=1, timestamp=2, ssrc=3,
        payload=b"abc", padding_length=4,
    ).build()
    packet = RtpPacket.parse(wire)
    assert isinstance(packet.payload, memoryview)
    assert bytes(packet.payload) == b"abc"
    twin = RtpPacket(
        payload_type=111, sequence_number=1, timestamp=2, ssrc=3,
        payload=b"abc", padding_length=4,
    )
    assert packet == twin
    for clone in (pickle.loads(pickle.dumps(packet)), copy.deepcopy(packet),
                  copy.copy(packet)):
        assert type(clone.payload) is bytes
        assert clone == packet
        assert clone.build() == wire
    with pytest.raises(dataclasses.FrozenInstanceError):
        packet.payload = b"xyz"
    # Slotted: no ad-hoc attributes.  A frozen slotted dataclass refuses
    # them with TypeError on some CPython versions, AttributeError on others.
    with pytest.raises((AttributeError, TypeError)):
        packet.note = "x"


def test_closed_result_analyses_and_verdicts_round_trip(closed_call):
    _session, result, _held = closed_call
    analyses, verdicts = result.dpi.analyses, result.verdicts
    for clone in (pickle.loads(pickle.dumps((analyses, verdicts))),
                  copy.deepcopy((analyses, verdicts))):
        cloned_analyses, cloned_verdicts = clone
        assert cloned_analyses == analyses
        assert cloned_verdicts == verdicts
        assert [v.violation_keys() for v in cloned_verdicts] == [
            v.violation_keys() for v in verdicts
        ]


def _rotating_flow_records(flows, packets_per_flow):
    """Sequential short RTP flows, one UDP source port per flow.

    Each flow carries enough packets for the stream-scoped RTP validator
    to engage, and flows never interleave, so a streaming consumer can
    retire each flow (an idle ``DpiStage.evict``) the moment the next one
    starts, while a batch consumer must hold the whole capture.
    """
    for flow in range(flows):
        ssrc = 0x5EED0000 + flow
        base = flow * packets_per_flow * 0.02
        for seq in range(packets_per_flow):
            packet = RtpPacket(
                payload_type=96,
                sequence_number=(1000 + seq) & 0xFFFF,
                timestamp=(seq * 960) & 0xFFFFFFFF,
                ssrc=ssrc,
                payload=bytes(160),
            )
            yield PacketRecord(
                timestamp=base + seq * 0.02,
                src_ip="192.168.7.2",
                src_port=30000 + flow,
                dst_ip="198.51.100.9",
                dst_port=50004,
                transport="UDP",
                payload=packet.build(),
            )


def _pipeline_peak(mode, flows, packets_per_flow=24):
    """tracemalloc peak (bytes) and the finished summary.

    The production engine on both sides; the only variable is whether the
    run materializes the capture or streams it.
    """
    engine = DpiEngine(backend="columnar")
    checker = ComplianceChecker()
    gc.collect()
    tracemalloc.start()
    try:
        if mode == "batch":
            records = list(_rotating_flow_records(flows, packets_per_flow))
            dpi = engine.analyze_records(records)
            summary = ComplianceSummary.from_verdicts(
                "memory", checker.check(dpi.messages())
            )
        else:
            # A flow's packets are 0.02 s apart and the next flow starts
            # 0.02 s after its last one.  Evicting right after each record
            # with a shorter idle gap retires a flow as soon as the next
            # one starts, and never the flow just fed.
            dpi = DpiStage(engine, idle_gap=0.01)
            check = CheckStage(checker)
            folding = StreamingSummary("memory")

            def judge(emitted):
                analyses = [analysis for analysis, _ in emitted]
                for index, verdict in check.process_chunk(analyses):
                    folding.add(verdict, index=index)

            for record in _rotating_flow_records(flows, packets_per_flow):
                dpi.process_chunk((record,))
                judge(dpi.evict(record.timestamp))
            judge(dpi.flush())
            for index, verdict in check.flush():
                folding.add(verdict, index=index)
            summary = folding.result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, summary


def test_streaming_memory_bounded():
    """Streaming peak memory is flat in call duration; batch grows with it.

    Same rotating-flow workload at 1x and 4x duration: the batch path's
    tracemalloc peak must scale roughly with the capture (> 2.5x), while
    the streaming path, which retires each flow as the next begins, must
    stay essentially flat (< 2x).  Both modes must agree on the
    compliance summary, so the memory win costs no fidelity.
    """
    flows = 40
    batch_1x, batch_summary = _pipeline_peak("batch", flows)
    batch_4x, _ = _pipeline_peak("batch", flows * 4)
    stream_1x, stream_summary = _pipeline_peak("streaming", flows)
    stream_4x, _ = _pipeline_peak("streaming", flows * 4)

    assert stream_summary == batch_summary
    assert batch_summary.volume.total > 0

    peaks = {"batch": (batch_1x, batch_4x), "streaming": (stream_1x, stream_4x)}
    assert batch_4x / batch_1x > 2.5, peaks
    assert stream_4x / stream_1x < 2.0, peaks
