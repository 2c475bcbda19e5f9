"""Tests for stream grouping and the call timeline."""

import random

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import DpiEngine
from repro.packets.packet import PacketRecord
from repro.streams.flow import Stream, group_streams
from repro.streams.timeline import CallWindow, Phase


def record(t, src=("10.0.0.1", 1000), dst=("8.8.8.8", 2000), transport="UDP",
           payload=b"xx"):
    return PacketRecord(
        timestamp=t, src_ip=src[0], src_port=src[1],
        dst_ip=dst[0], dst_port=dst[1], transport=transport, payload=payload,
    )


class TestGrouping:
    def test_bidirectional_packets_share_stream(self):
        records = [
            record(1.0),
            record(2.0, src=("8.8.8.8", 2000), dst=("10.0.0.1", 1000)),
        ]
        streams = group_streams(records)
        assert len(streams) == 1
        assert next(iter(streams.values())).packet_count == 2

    def test_different_ports_split(self):
        records = [record(1.0), record(1.0, dst=("8.8.8.8", 2001))]
        assert len(group_streams(records)) == 2

    def test_transport_separates(self):
        records = [record(1.0), record(1.0, transport="TCP")]
        assert len(group_streams(records)) == 2

    def test_packets_time_sorted(self):
        streams = group_streams([record(5.0), record(1.0), record(3.0)])
        stream = next(iter(streams.values()))
        timestamps = [p.timestamp for p in stream]
        assert timestamps == sorted(timestamps)

    def test_stream_properties(self):
        streams = group_streams([record(1.0, payload=b"abc"), record(4.0)])
        stream = next(iter(streams.values()))
        assert stream.timespan == (1.0, 4.0)
        assert stream.byte_count == 5
        assert stream.transport == "UDP"
        assert set(stream.ips()) == {"10.0.0.1", "8.8.8.8"}
        assert set(stream.ports()) == {1000, 2000}
        assert len(stream) == 2

    def test_dpi_stage_groups_like_group_streams(self):
        # DpiStage groups streams itself: UDP only, one serial per stream
        # in first-seen order, each stream time-sorted when it finishes,
        # and a stable timestamp sort at flush.  That is group_streams
        # over the UDP records, analysed stream by stream.
        trace = get_simulator("zoom").simulate(CallConfig(
            network=NetworkCondition.WIFI_P2P, seed=2, call_duration=3.0,
            media_scale=0.2,
        ))
        records = list(trace.records)
        # Out-of-order arrivals inside streams, and TCP records to drop.
        rng = random.Random(7)
        for i in rng.sample(range(len(records) - 1), len(records) // 10):
            records[i], records[i + 1] = records[i + 1], records[i]
        records += [record(t, transport="TCP", payload=b"\x80" * 40)
                    for t in (0.5, 1.5)]
        engine = DpiEngine()
        udp = [r for r in records if r.transport == "UDP"]
        want = [
            analysis
            for stream in group_streams(udp).values()
            for analysis in engine.analyze_stream(stream)
        ]
        want.sort(key=lambda analysis: analysis.record.timestamp)
        got = engine.analyze_records(records).analyses
        assert len(group_streams(udp)) > 1
        assert len(got) == len(udp) < len(records)
        assert got == want


class TestCallWindow:
    def test_standard_layout(self):
        window = CallWindow.standard()
        assert window.capture_start == 0.0
        assert window.call_start == 60.0
        assert window.call_end == 360.0
        assert window.capture_end == 420.0
        assert window.call_duration == 300.0

    def test_phases(self):
        window = CallWindow.standard()
        assert window.phase_of(10.0) is Phase.PRE_CALL
        assert window.phase_of(100.0) is Phase.CALL
        assert window.phase_of(400.0) is Phase.POST_CALL

    def test_extended_margins(self):
        window = CallWindow.standard()
        assert window.extended_start == 58.0
        assert window.extended_end == 362.0

    def test_encloses(self):
        window = CallWindow.standard()
        assert window.encloses(60.0, 360.0)
        assert window.encloses(59.0, 361.0)  # inside the ±2 s margin
        assert not window.encloses(30.0, 100.0)
        assert not window.encloses(100.0, 400.0)

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            CallWindow(capture_start=10, call_start=5, call_end=20, capture_end=30)
