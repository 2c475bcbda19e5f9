"""UDP and TCP codecs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.packets.checksum import tcp_checksum, udp_checksum
from repro.utils.bytesview import ByteReader, ByteWriter, TruncatedError


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes

    HEADER_LEN = 8

    @classmethod
    def parse(cls, data: bytes) -> "UdpDatagram":
        reader = ByteReader(data)
        src_port = reader.u16()
        dst_port = reader.u16()
        length = reader.u16()
        reader.u16()  # checksum (not verified on synthetic traces)
        if length < cls.HEADER_LEN or length > len(data):
            raise TruncatedError(f"UDP length {length} inconsistent with {len(data)} bytes")
        payload = data[cls.HEADER_LEN:length]
        return cls(src_port=src_port, dst_port=dst_port, payload=payload)

    def build(self, src_ip: str | None = None, dst_ip: str | None = None) -> bytes:
        """Serialize; a real checksum is computed when both IPs are given."""
        writer = ByteWriter()
        writer.u16(self.src_port)
        writer.u16(self.dst_port)
        writer.u16(self.HEADER_LEN + len(self.payload))
        writer.u16(0)
        writer.write(self.payload)
        raw = writer.getvalue()
        if src_ip is not None and dst_ip is not None:
            checksum = udp_checksum(src_ip, dst_ip, raw)
            raw = raw[:6] + checksum.to_bytes(2, "big") + raw[8:]
        return raw


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes
    window: int = 65535
    urgent: int = 0
    options: bytes = b""

    MIN_HEADER_LEN = 20

    @classmethod
    def parse(cls, data: bytes) -> "TcpSegment":
        reader = ByteReader(data)
        src_port = reader.u16()
        dst_port = reader.u16()
        seq = reader.u32()
        ack = reader.u32()
        offset_flags = reader.u16()
        data_offset = (offset_flags >> 12) * 4
        if data_offset < cls.MIN_HEADER_LEN or data_offset > len(data):
            raise TruncatedError(f"TCP data offset {data_offset} invalid")
        flags = offset_flags & 0x01FF
        window = reader.u16()
        reader.u16()  # checksum
        urgent = reader.u16()
        options = reader.read(data_offset - cls.MIN_HEADER_LEN)
        payload = data[data_offset:]
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=payload,
            window=window,
            urgent=urgent,
            options=options,
        )

    def build(self, src_ip: str | None = None, dst_ip: str | None = None) -> bytes:
        if len(self.options) % 4:
            raise ValueError("TCP options must pad the header to a 4-byte multiple")
        data_offset = (self.MIN_HEADER_LEN + len(self.options)) // 4
        writer = ByteWriter()
        writer.u16(self.src_port)
        writer.u16(self.dst_port)
        writer.u32(self.seq)
        writer.u32(self.ack)
        writer.u16((data_offset << 12) | (self.flags & 0x01FF))
        writer.u16(self.window)
        writer.u16(0)
        writer.u16(self.urgent)
        writer.write(self.options)
        writer.write(self.payload)
        raw = writer.getvalue()
        if src_ip is not None and dst_ip is not None:
            checksum = tcp_checksum(src_ip, dst_ip, raw)
            raw = raw[:16] + checksum.to_bytes(2, "big") + raw[18:]
        return raw
