"""Minimal pcapng (next-generation capture) reader/writer.

Implements the block types a Wireshark-produced RTC trace actually contains:
Section Header (SHB), Interface Description (IDB), Enhanced Packet (EPB) and
the legacy Simple Packet Block.  Unknown block types are skipped, as the spec
requires.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.packets.batch import DEFAULT_CHUNK_SIZE
from repro.packets.decode import LINKTYPE_ETHERNET, DecodeError, decode_frame, encode_record
from repro.packets.packet import PacketRecord
from repro.packets.pcap import PcapFormatError, RawCapture

BLOCK_SHB = 0x0A0D0D0A
BLOCK_IDB = 0x00000001
BLOCK_SPB = 0x00000003
BLOCK_EPB = 0x00000006

_BYTE_ORDER_MAGIC = 0x1A2B3C4D
#: Body bytes a block type needs for the fixed fields read from it.
_MIN_BODY = {BLOCK_SHB: 4, BLOCK_IDB: 8, BLOCK_SPB: 4, BLOCK_EPB: 20}


class PcapngReader:
    """Iterate frames out of a pcapng file (one or more sections)."""

    def __init__(self, fileobj: BinaryIO):
        self._file = fileobj
        self._endian = "<"
        self._interfaces: List[dict] = []

    def _read_block(self):
        header = self._file.read(8)
        if not header:
            return None
        if len(header) != 8:
            raise PcapFormatError("truncated pcapng block header")
        block_type, total_len = struct.unpack(self._endian + "II", header)
        if block_type == BLOCK_SHB:
            # Byte order may change at a section boundary; sniff the magic.
            body_peek = self._file.read(4)
            if len(body_peek) != 4:
                raise PcapFormatError("truncated SHB")
            magic = struct.unpack("<I", body_peek)[0]
            self._endian = "<" if magic == _BYTE_ORDER_MAGIC else ">"
            block_type, total_len = struct.unpack(self._endian + "II", header)
        else:
            body_peek = b""
        if total_len < 12 + _MIN_BODY.get(block_type, 0):
            raise PcapFormatError(f"pcapng block too short: {total_len} bytes")
        body = body_peek + self._file.read(total_len - 12 - len(body_peek))
        trailer = self._file.read(4)
        if len(trailer) != 4:
            raise PcapFormatError("truncated pcapng block trailer")
        trailing_len = struct.unpack(self._endian + "I", trailer)[0]
        if trailing_len != total_len:
            raise PcapFormatError("pcapng block length mismatch")
        return block_type, body

    def __iter__(self) -> Iterator[RawCapture]:
        while True:
            block = self._read_block()
            if block is None:
                return
            block_type, body = block
            if block_type == BLOCK_SHB:
                self._interfaces = []
            elif block_type == BLOCK_IDB:
                link_type, _reserved, snaplen = struct.unpack_from(
                    self._endian + "HHI", body
                )
                # Default if_tsresol is 10^-6 unless an option overrides it.
                tsresol = self._parse_tsresol(body[8:])
                self._interfaces.append(
                    {"link_type": link_type, "snaplen": snaplen, "tsresol": tsresol}
                )
            elif block_type == BLOCK_EPB:
                iface_id, ts_high, ts_low, cap_len, _orig_len = struct.unpack_from(
                    self._endian + "IIIII", body
                )
                if iface_id >= len(self._interfaces):
                    raise PcapFormatError(f"EPB references unknown interface {iface_id}")
                iface = self._interfaces[iface_id]
                ticks = (ts_high << 32) | ts_low
                timestamp = ticks / iface["tsresol"]
                data = body[20:20 + cap_len]
                if len(data) != cap_len:
                    raise PcapFormatError("truncated EPB packet data")
                yield RawCapture(timestamp, iface["link_type"], data)
            elif block_type == BLOCK_SPB:
                if not self._interfaces:
                    raise PcapFormatError("SPB before any IDB")
                (orig_len,) = struct.unpack_from(self._endian + "I", body)
                data = body[4:4 + orig_len]
                yield RawCapture(0.0, self._interfaces[0]["link_type"], data)
            # Unknown block types are skipped silently per the spec.

    def _parse_tsresol(self, options: bytes) -> float:
        offset = 0
        while offset + 4 <= len(options):
            code, length = struct.unpack_from(self._endian + "HH", options, offset)
            offset += 4
            if code == 0:  # opt_endofopt
                break
            value = options[offset:offset + length]
            offset += (length + 3) & ~3
            if code == 9 and length == 1:  # if_tsresol
                raw = value[0]
                if raw & 0x80:
                    return float(2 ** (raw & 0x7F))
                return float(10 ** raw)
        return 1e6

    def records(self) -> Iterator[PacketRecord]:
        """Decode frames to :class:`PacketRecord`, skipping undecodable ones."""
        for capture in self:
            try:
                yield decode_frame(capture.link_type, capture.data, capture.timestamp)
            except DecodeError:
                pass


def _pad4(data: bytes) -> bytes:
    return data + b"\x00" * (-len(data) % 4)


class PcapngWriter:
    """Write a single-section, single-interface pcapng file."""

    def __init__(self, fileobj: BinaryIO, link_type: int = LINKTYPE_ETHERNET):
        self._file = fileobj
        self._link_type = link_type
        self._write_block(BLOCK_SHB, struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1))
        self._write_block(BLOCK_IDB, struct.pack("<HHI", link_type, 0, 262144))

    def _write_block(self, block_type: int, body: bytes) -> None:
        body = _pad4(body)
        total = len(body) + 12
        self._file.write(struct.pack("<II", block_type, total))
        self._file.write(body)
        self._file.write(struct.pack("<I", total))

    def write_frame(self, timestamp: float, data: bytes) -> None:
        ticks = int(round(timestamp * 1e6))
        body = struct.pack(
            "<IIIII", 0, (ticks >> 32) & 0xFFFFFFFF, ticks & 0xFFFFFFFF, len(data), len(data)
        ) + _pad4(data)
        self._write_block(BLOCK_EPB, body)

    def write_record(self, record: PacketRecord) -> None:
        self.write_frame(record.timestamp, encode_record(record, self._link_type))


def write_pcapng(
    path: Union[str, Path],
    records: Iterable[PacketRecord],
    link_type: int = LINKTYPE_ETHERNET,
) -> int:
    count = 0
    with open(path, "wb") as fileobj:
        writer = PcapngWriter(fileobj, link_type=link_type)
        for record in records:
            writer.write_record(record)
            count += 1
    return count


def iter_pcapng(path: Union[str, Path]) -> Iterator[PacketRecord]:
    """Stream every decodable record out of a pcapng file, one at a time."""
    with open(path, "rb") as fileobj:
        yield from PcapngReader(fileobj).records()


def iter_pcapng_chunks(path: Union[str, Path]) -> Iterator[List[PacketRecord]]:
    """Stream decoded pcapng records ``DEFAULT_CHUNK_SIZE`` at a time.

    Same chunked shape the batch pcap decoder exposes, so
    :func:`repro.packets.batch.iter_capture_chunks` can dispatch on the
    container without callers caring which format they got.
    """
    batch: List[PacketRecord] = []
    for record in iter_pcapng(path):
        batch.append(record)
        if len(batch) >= DEFAULT_CHUNK_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch


def read_pcapng(path: Union[str, Path]) -> List[PacketRecord]:
    """Thin list wrapper over :func:`iter_pcapng`."""
    return list(iter_pcapng(path))
