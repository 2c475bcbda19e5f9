"""Tests for the DPI engine: validation, overlap resolution, classification."""

import pytest

from repro.dpi import DatagramClass, DpiEngine, DpiStats, Protocol
from repro.packets.packet import PacketRecord
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage


def udp(t, payload, sport=50000, dport=3478):
    return PacketRecord(
        timestamp=t, src_ip="10.0.0.1", src_port=sport,
        dst_ip="20.0.0.2", dst_port=dport, transport="UDP", payload=payload,
    )


def rtp_stream_records(count=10, ssrc=0x1234, start_seq=100, prefix=b"",
                       payload_len=40, pt=96):
    records = []
    for i in range(count):
        packet = RtpPacket(
            payload_type=pt, sequence_number=start_seq + i,
            timestamp=1000 + 160 * i, ssrc=ssrc, payload=bytes(payload_len),
        )
        records.append(udp(1.0 + i * 0.02, prefix + packet.build()))
    return records


class TestRtpValidation:
    def test_continuous_stream_accepted(self):
        result = DpiEngine().analyze_records(rtp_stream_records())
        assert all(a.classification is DatagramClass.STANDARD for a in result.analyses)
        assert len(result.messages()) == 10

    def test_single_packet_rejected(self):
        # One lone RTP-shaped datagram has no sequence-continuity evidence.
        result = DpiEngine().analyze_records(rtp_stream_records(count=1))
        assert result.analyses[0].classification is DatagramClass.FULLY_PROPRIETARY

    def test_discontinuous_group_rejected(self):
        records = []
        for i, seq in enumerate([5, 30000, 12, 60000, 7, 40000]):
            packet = RtpPacket(payload_type=96, sequence_number=seq,
                               timestamp=0, ssrc=0x77, payload=bytes(20))
            records.append(udp(1.0 + i * 0.02, packet.build()))
        result = DpiEngine().analyze_records(records)
        assert not result.messages()

    def test_proprietary_header_detected(self):
        result = DpiEngine().analyze_records(
            rtp_stream_records(prefix=b"\x04\x64" + bytes(22))
        )
        for analysis in result.analyses:
            assert analysis.classification is DatagramClass.PROPRIETARY_HEADER
            assert len(analysis.proprietary_header) == 24
            assert analysis.messages[0].offset == 24

    def test_offset_limit_hides_deep_messages(self):
        records = rtp_stream_records(prefix=bytes(150))
        assert DpiEngine(max_offset=200).analyze_records(records).messages()
        assert not DpiEngine(max_offset=100).analyze_records(records).messages()

    def test_dual_rtp_recovered(self):
        # Zoom's pattern: short probe + media frame, same SSRC/timestamp,
        # consecutive sequence numbers, in one datagram.
        records = rtp_stream_records(count=6, ssrc=0x99, start_seq=10)
        first = RtpPacket(payload_type=110, sequence_number=16, timestamp=5000,
                          ssrc=0x99, payload=bytes(7))
        second = RtpPacket(payload_type=110, sequence_number=17, timestamp=5000,
                           ssrc=0x99, payload=bytes(900))
        records.append(udp(2.0, first.build() + second.build()))
        result = DpiEngine().analyze_records(records)
        dual = [a for a in result.analyses if len(a.messages) == 2]
        assert len(dual) == 1
        lengths = [m.length for m in dual[0].messages]
        assert lengths[0] == 12 + 7  # truncated at the second packet


class TestStunExtraction:
    def test_wrapped_stun_found(self):
        message = StunMessage(msg_type=0x0001, transaction_id=bytes(12),
                              attributes=[StunAttribute(0x8022, b"agent")])
        records = [udp(1.0, b"\x60\x00" + bytes(10) + message.build())]
        result = DpiEngine().analyze_records(records)
        assert result.analyses[0].classification is DatagramClass.PROPRIETARY_HEADER
        extracted = result.analyses[0].messages[0]
        assert extracted.protocol is Protocol.STUN_TURN
        assert extracted.message.msg_type == 0x0001

    def test_undefined_type_still_extracted(self):
        # The whole point of the custom DPI: unknown message types with
        # valid structure are surfaced, not dropped.
        message = StunMessage(msg_type=0x0801, transaction_id=bytes(12),
                              attributes=[StunAttribute(0x4003, b"\xff")])
        result = DpiEngine().analyze_records([udp(1.0, message.build())])
        assert result.messages()[0].message.msg_type == 0x0801

    def test_nested_rtp_in_data_attribute_not_double_counted(self):
        inner = RtpPacket(payload_type=96, sequence_number=1, timestamp=2,
                          ssrc=3, payload=bytes(20)).build()
        records = []
        for i in range(5):
            message = StunMessage(
                msg_type=0x0016, transaction_id=bytes([i] * 12),
                attributes=[StunAttribute(0x0013, inner)],
            )
            records.append(udp(1.0 + i, message.build()))
        result = DpiEngine().analyze_records(records)
        protocols = {m.protocol for m in result.messages()}
        assert protocols == {Protocol.STUN_TURN}


class TestFullyProprietary:
    def test_random_noise_classified(self):
        import random
        rng = random.Random(3)
        records = [
            udp(1.0 + i, bytes(rng.getrandbits(8) for _ in range(200)))
            for i in range(20)
        ]
        result = DpiEngine().analyze_records(records)
        fully = sum(1 for a in result.analyses
                    if a.classification is DatagramClass.FULLY_PROPRIETARY)
        assert fully >= 18  # allow the rare structural coincidence

    def test_filler_classified(self):
        records = [udp(1.0 + i, b"\x01" * 1000) for i in range(5)]
        result = DpiEngine().analyze_records(records)
        assert all(a.classification is DatagramClass.FULLY_PROPRIETARY
                   for a in result.analyses)


class TestEngineMisc:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            DpiEngine(max_offset=-1)

    def test_retired_cache_size(self):
        # ``cache_size=0`` is the old "no cache" spelling and still builds
        # an engine; sizing the removed payload-dedup cache is an error.
        records = rtp_stream_records()
        retired = DpiEngine(fastpath=False, cache_size=0)
        assert retired.analyze_records(records).analyses == \
            DpiEngine(fastpath=False).analyze_records(records).analyses
        assert retired.stats.cache_lookups == 0
        with pytest.raises(ValueError):
            DpiEngine(cache_size=4096)

    def test_retired_fastpath(self):
        # ``fastpath=False`` is the old "sweep only" spelling and still
        # builds the reference engine; asking for the removed fast path
        # is an error.
        records = rtp_stream_records()
        retired = DpiEngine(fastpath=False, cache_size=0)
        assert retired.backend == "scalar"
        result = retired.analyze_records(records)
        assert result.analyses == DpiEngine().analyze_records(records).analyses
        assert result.stats.fastpath_hits == 0
        assert result.stats.sweeps == result.stats.datagrams
        for value in (True, 1, None):
            with pytest.raises(ValueError):
                DpiEngine(fastpath=value)

    def test_invariants_flag_retired_cache_counters(self):
        sound = DpiStats(datagrams=3, sweeps=3)
        assert sound.invariant_violations() == []
        for retired in ("cache_hits", "fastpath_hits", "fastpath_redos"):
            stale = DpiStats(datagrams=3, sweeps=3, **{retired: 1})
            assert any(retired in p for p in stale.invariant_violations())
        # Every datagram is swept exactly once.
        assert DpiStats(datagrams=3, sweeps=2).invariant_violations()
        assert DpiStats(datagrams=3, sweeps=4).invariant_violations()

    def test_tcp_records_ignored(self):
        record = PacketRecord(
            timestamp=1.0, src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2",
            dst_port=2, transport="TCP", payload=b"\x80" * 40,
        )
        assert not DpiEngine().analyze_records([record]).analyses

    def test_result_aggregations(self):
        result = DpiEngine().analyze_records(rtp_stream_records())
        assert result.protocol_counts() == {Protocol.RTP: 10}
        assert result.by_class()[DatagramClass.STANDARD] == 10

    def test_analyses_time_sorted(self):
        records = rtp_stream_records()[::-1]
        result = DpiEngine().analyze_records(records)
        times = [a.record.timestamp for a in result.analyses]
        assert times == sorted(times)


class TestQuicStreamContext:
    def _long(self, dcid):
        import struct
        from repro.protocols.quic.varint import encode_varint
        out = bytes([0xC1]) + struct.pack("!I", 1)
        out += bytes([len(dcid)]) + dcid + bytes([8]) + b"\x02" * 8
        out += encode_varint(0) + encode_varint(30) + bytes(30)
        return out

    def test_short_header_requires_known_cid(self):
        dcid = b"\x07" * 8
        records = [
            udp(1.0, self._long(dcid), dport=443),
            udp(2.0, bytes([0x41]) + dcid + bytes(30), dport=443),
            # Same shape but unknown CID on a different stream: rejected.
            udp(3.0, bytes([0x41]) + b"\x09" * 8 + bytes(30), dport=444),
        ]
        result = DpiEngine().analyze_records(records)
        quic = [m for m in result.messages() if m.protocol is Protocol.QUIC]
        assert len(quic) == 2
        shorts = [m for m in quic if not m.message.is_long]
        assert len(shorts) == 1 and bytes(shorts[0].message.dcid) == dcid
