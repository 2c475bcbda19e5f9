"""Tests for pcap/pcapng reading and writing and full-stack decode."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets.decode import (
    LINKTYPE_ETHERNET,
    LINKTYPE_NULL,
    LINKTYPE_RAW,
    DecodeError,
    decode_frame,
    encode_record,
)
from repro.packets.packet import PacketRecord
from repro.packets.pcap import (
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)
from repro.packets.pcapng import read_pcapng, write_pcapng


def make_record(**overrides):
    defaults = dict(
        timestamp=123.456789,
        src_ip="10.0.0.1",
        src_port=5000,
        dst_ip="93.184.216.34",
        dst_port=443,
        transport="UDP",
        payload=b"payload-bytes",
    )
    defaults.update(overrides)
    return PacketRecord(**defaults)


class TestEncodeDecode:
    @pytest.mark.parametrize("link_type", [LINKTYPE_ETHERNET, LINKTYPE_RAW, LINKTYPE_NULL])
    def test_round_trip_udp(self, link_type):
        record = make_record()
        decoded = decode_frame(link_type, encode_record(record, link_type), record.timestamp)
        assert decoded.five_tuple == record.five_tuple
        assert decoded.payload == record.payload

    def test_round_trip_tcp(self):
        record = make_record(transport="TCP", payload=b"segment")
        decoded = decode_frame(
            LINKTYPE_ETHERNET, encode_record(record), record.timestamp
        )
        assert decoded.transport == "TCP"
        assert decoded.payload == b"segment"

    def test_round_trip_ipv6(self):
        record = make_record(src_ip="fd00::1", dst_ip="2001:db8::9")
        decoded = decode_frame(
            LINKTYPE_ETHERNET, encode_record(record), record.timestamp
        )
        assert decoded.src_ip == "fd00::1"
        assert decoded.dst_ip == "2001:db8::9"

    def test_non_ip_frame_rejected(self):
        arp = b"\xff" * 12 + b"\x08\x06" + bytes(28)
        with pytest.raises(DecodeError):
            decode_frame(LINKTYPE_ETHERNET, arp, 0.0)

    def test_unknown_link_type_rejected(self):
        with pytest.raises(DecodeError):
            decode_frame(147, b"\x00" * 40, 0.0)

    def test_non_udp_tcp_protocol_rejected(self):
        from repro.packets.ip import IPv4Header
        icmp = IPv4Header(src_ip="1.1.1.1", dst_ip="2.2.2.2", proto=1,
                          payload=b"\x08\x00" + bytes(6)).build()
        with pytest.raises(DecodeError):
            decode_frame(LINKTYPE_RAW, icmp, 0.0)


class TestPcap:
    def test_round_trip_file(self, tmp_path):
        records = [make_record(timestamp=float(i)) for i in range(5)]
        path = tmp_path / "t.pcap"
        assert write_pcap(path, records) == 5
        back = read_pcap(path)
        assert len(back) == 5
        assert [r.payload for r in back] == [r.payload for r in records]

    def test_timestamp_precision_micros(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, [make_record(timestamp=1.234567)])
        assert abs(read_pcap(path)[0].timestamp - 1.234567) < 1e-6

    def test_timestamp_precision_nanos(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, [make_record(timestamp=1.123456789)], nanosecond=True)
        assert abs(read_pcap(path)[0].timestamp - 1.123456789) < 1e-9

    def test_negative_timestamp_rejected(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(ValueError):
            writer.write_frame(-1.0, b"x")

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_header_rejected(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, [make_record()])
        data = path.read_bytes()[:-4]
        with pytest.raises(PcapFormatError):
            list(PcapReader(io.BytesIO(data)))

    def test_big_endian_pcap_readable(self):
        # Hand-build a big-endian pcap with one tiny raw-IP frame.
        frame = encode_record(make_record(payload=b"x"), LINKTYPE_RAW)
        buf = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 262144, LINKTYPE_RAW)
        buf += struct.pack(">IIII", 10, 500000, len(frame), len(frame)) + frame
        records = list(PcapReader(io.BytesIO(buf)).records())
        assert records[0].payload == b"x"
        assert abs(records[0].timestamp - 10.5) < 1e-6

    def test_undecodable_frames_skipped(self, tmp_path):
        path = tmp_path / "t.pcap"
        with open(path, "wb") as fileobj:
            writer = PcapWriter(fileobj)
            writer.write_frame(1.0, b"\xff" * 12 + b"\x08\x06" + bytes(28))  # ARP
            writer.write_record(make_record())
        assert len(read_pcap(path)) == 1

    @settings(max_examples=25)
    @given(st.binary(min_size=1, max_size=300), st.floats(min_value=0, max_value=1e6))
    def test_property_payload_survives(self, payload, timestamp):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_record(make_record(payload=payload, timestamp=timestamp))
        buffer.seek(0)
        records = list(PcapReader(buffer).records())
        assert records[0].payload == payload


class TestPcapng:
    def test_round_trip_file(self, tmp_path):
        records = [make_record(timestamp=float(i) + 0.25) for i in range(4)]
        path = tmp_path / "t.pcapng"
        assert write_pcapng(path, records) == 4
        back = read_pcapng(path)
        assert [r.payload for r in back] == [r.payload for r in records]
        assert abs(back[1].timestamp - 1.25) < 1e-6

    def test_mixed_transports(self, tmp_path):
        path = tmp_path / "t.pcapng"
        write_pcapng(path, [make_record(), make_record(transport="TCP")])
        back = read_pcapng(path)
        assert [r.transport for r in back] == ["UDP", "TCP"]

    def test_unknown_blocks_skipped(self, tmp_path):
        path = tmp_path / "t.pcapng"
        write_pcapng(path, [make_record()])
        data = bytearray(path.read_bytes())
        # Append an unknown block type (0x99) — must be ignored.
        body = b"\x00" * 8
        unknown = struct.pack("<II", 0x99, len(body) + 12) + body + struct.pack(
            "<I", len(body) + 12
        )
        path.write_bytes(bytes(data) + unknown)
        assert len(read_pcapng(path)) == 1

    @pytest.mark.parametrize("block_type, body", [
        (0x1, b"\x01\x00\x00\x00"),            # IDB without its snaplen
        (0x6, b"\x00" * 16),                   # EPB without its orig_len
    ], ids=["short-idb", "short-epb"])
    def test_short_block_is_a_format_error(self, tmp_path, block_type, body):
        path = tmp_path / "t.pcapng"
        write_pcapng(path, [])
        total = len(body) + 12
        block = struct.pack("<II", block_type, total) + body + struct.pack(
            "<I", total
        )
        path.write_bytes(path.read_bytes() + block)
        with pytest.raises(PcapFormatError):
            read_pcapng(path)
