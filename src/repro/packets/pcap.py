"""Classic libpcap file format reader/writer (no external dependencies).

Supports both byte orders and both microsecond and nanosecond timestamp
variants.  Streaming readers/writers keep memory flat for multi-gigabyte
traces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.packets.decode import LINKTYPE_ETHERNET, DecodeError, decode_frame, encode_record
from repro.packets.packet import PacketRecord

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
_SNAPLEN = 262144


@dataclass(frozen=True)
class RawCapture:
    """One frame as stored in a capture file."""

    timestamp: float
    link_type: int
    data: bytes


class PcapFormatError(ValueError):
    """Raised on malformed pcap containers."""


class PcapReader:
    """Iterate frames (or decoded records) out of a classic pcap file."""

    def __init__(self, fileobj: BinaryIO):
        self._file = fileobj
        header = fileobj.read(24)
        if len(header) != 24:
            raise PcapFormatError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            self._endian = "<"
        else:
            magic = struct.unpack(">I", header[:4])[0]
            if magic in (MAGIC_MICROS, MAGIC_NANOS):
                self._endian = ">"
            else:
                raise PcapFormatError(f"bad pcap magic 0x{magic:08x}")
        self._ts_divisor = 1e6 if magic == MAGIC_MICROS else 1e9
        (
            self.version_major,
            self.version_minor,
            _thiszone,
            _sigfigs,
            self.snaplen,
            self.link_type,
        ) = struct.unpack(self._endian + "HHiIII", header[4:])

    def __iter__(self) -> Iterator[RawCapture]:
        unpack = struct.Struct(self._endian + "IIII")
        while True:
            header = self._file.read(16)
            if not header:
                return
            if len(header) != 16:
                raise PcapFormatError("truncated pcap record header")
            ts_sec, ts_frac, incl_len, orig_len = unpack.unpack(header)
            if incl_len > self.snaplen + 65536:
                raise PcapFormatError(f"implausible record length {incl_len}")
            data = self._file.read(incl_len)
            if len(data) != incl_len:
                raise PcapFormatError("truncated pcap record body")
            timestamp = ts_sec + ts_frac / self._ts_divisor
            yield RawCapture(timestamp=timestamp, link_type=self.link_type, data=data)

    def records(self) -> Iterator[PacketRecord]:
        """Decode frames to :class:`PacketRecord`, skipping undecodable ones."""
        for capture in self:
            try:
                yield decode_frame(capture.link_type, capture.data, capture.timestamp)
            except DecodeError:
                pass


class PcapWriter:
    """Write frames or records into a classic pcap file."""

    def __init__(
        self,
        fileobj: BinaryIO,
        link_type: int = LINKTYPE_ETHERNET,
        nanosecond: bool = False,
    ):
        self._file = fileobj
        self._link_type = link_type
        self._ts_multiplier = 1e9 if nanosecond else 1e6
        magic = MAGIC_NANOS if nanosecond else MAGIC_MICROS
        self._file.write(
            struct.pack("<IHHiIII", magic, 2, 4, 0, 0, _SNAPLEN, link_type)
        )

    def write_frame(self, timestamp: float, data: bytes) -> None:
        if timestamp < 0:
            raise ValueError(f"pcap timestamps cannot be negative ({timestamp})")
        ts_sec = int(timestamp)
        ts_frac = int(round((timestamp - ts_sec) * self._ts_multiplier))
        if ts_frac >= self._ts_multiplier:  # rounding carried into the next second
            ts_sec += 1
            ts_frac = 0
        self._file.write(struct.pack("<IIII", ts_sec, ts_frac, len(data), len(data)))
        self._file.write(data)

    def write_record(self, record: PacketRecord) -> None:
        self.write_frame(record.timestamp, encode_record(record, self._link_type))


def write_pcap(
    path: Union[str, Path],
    records: Iterable[PacketRecord],
    link_type: int = LINKTYPE_ETHERNET,
    nanosecond: bool = False,
) -> int:
    """Serialize *records* to *path*; returns the number written."""
    count = 0
    with open(path, "wb") as fileobj:
        writer = PcapWriter(fileobj, link_type=link_type, nanosecond=nanosecond)
        for record in records:
            writer.write_record(record)
            count += 1
    return count


def read_pcap(path: Union[str, Path]) -> List[PacketRecord]:
    """Read every decodable record from a pcap file into memory.

    Thin wrapper over the streaming batch decoder
    (:func:`repro.packets.batch.iter_pcap`); prefer the iterator forms
    for anything that doesn't genuinely need the whole list at once.
    """
    # Imported lazily: batch.py imports this module's constants.
    from repro.packets.batch import iter_pcap

    return list(iter_pcap(path))
