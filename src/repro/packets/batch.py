"""Zero-copy batch pcap ingest: mmap once, index in one pass, decode in chunks.

The seed reader (:class:`repro.packets.pcap.PcapReader`) pays two per-frame
taxes that dominate real-pcap workloads now that DPI itself is fast: one
16-byte ``read()`` call per record header, and a layer-by-layer object
decode (``EthernetFrame`` → ``IPv4Header`` → ``UdpDatagram``, each with a
``ByteReader``, MAC formatting, and :mod:`ipaddress` string conversion).
This module removes both:

* **Index scan.**  The capture is mapped once
  (:class:`repro.packets.mmapio.MappedCapture`, length pinned at open) and
  every record header is walked in a single pass into parallel
  offset/caplen/timestamp arrays.  Record offsets are sequentially
  dependent (each frame's length positions the next header), so the walk
  itself is a tight Python loop reading only ``incl_len``; the timestamp
  columns are then gathered and combined **vectorized** with numpy, for
  captures of any size.  Should the gather fail, the column is
  recomputed in pure Python (:func:`_python_timestamps`, counted in
  ``IngestStats.vector_errors``).  Both give bit-identical floats:
  ``ts_sec`` and ``ts_frac`` are exactly representable in float64, and
  ``sec + frac / divisor`` is the same IEEE expression either way.

* **Chunked fast-path decode.**  Frames are decoded ``chunk_size`` at a
  time with precompiled :class:`struct.Struct` one-pass header parses for
  the dominant shapes — Ethernet(IPv4)/UDP|TCP and RAW(IPv4)/UDP|TCP with
  no VLAN tag, no IP options, no fragments to reassemble — and payload
  bytes sliced straight out of the map.  Anything else (VLAN, IPv6,
  IPv4 options, odd link types, short or inconsistent headers) falls back
  *per frame* to the existing :func:`repro.packets.decode.decode_frame`,
  so the emitted :class:`~repro.packets.packet.PacketRecord` stream —
  fields, payload bytes, timestamps, and exception behavior
  (``DecodeError`` skipped, ``TruncatedError`` propagated) — is
  bit-identical to the scalar reader's.

Every fast-path precondition is a *sufficient* condition for the scalar
decode to succeed with the same output: the ethertype bytes pin the
non-VLAN IPv4 ethernet header at 14 bytes, ``0x45`` pins IHL at 20 with
no options, and the length checks reproduce the exact inequalities
``IPv4Header.parse``/``UdpDatagram.parse``/``TcpSegment.parse`` enforce
before slicing their payloads.  When any of them fails the frame is
handed to ``decode_frame`` so errors are raised (or skipped) by the same
code path the scalar reader uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.packets.decode import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    DecodeError,
    decode_frame,
)
from repro.packets.mmapio import MappedCapture
from repro.packets.packet import PacketRecord
from repro.packets.pcap import MAGIC_MICROS, MAGIC_NANOS, PcapFormatError

#: Records decoded per chunk unless the caller overrides it; matches the
#: pipeline chunk unit so decode→filter→DPI stays chunked end-to-end.
DEFAULT_CHUNK_SIZE = 256

_MAGIC_LE = struct.Struct("<I")
_MAGIC_BE = struct.Struct(">I")
#: IPv4 fixed header as one parse: ver_ihl, tos, total_length, ident,
#: flags_frag, ttl, proto, checksum, src, dst.
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
#: UDP header as one parse: src_port, dst_port, length, checksum.
_UDP = struct.Struct("!HHHH")
#: The two TCP port fields; the data offset byte is read directly.
_TCP_PORTS = struct.Struct("!HH")

_ETHERTYPE_IPV4 = b"\x08\x00"


@dataclass
class IngestStats:
    """Batch-decoder instrumentation, one counter set per consumer.

    ``fallbacks`` counts frames the fast path refused and handed to
    :func:`decode_frame`; ``skipped`` the subset of those the scalar
    decoder then rejected as undecodable (non-IP ethertypes, unsupported
    protocols); ``vector_errors`` whole index scans that dropped from the
    numpy timestamp gather to the pure-Python recompute.
    """

    files: int = 0
    frames: int = 0
    records: int = 0
    fast_path: int = 0
    fallbacks: int = 0
    skipped: int = 0
    vector_errors: int = 0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.frames if self.frames else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "frames": self.frames,
            "records": self.records,
            "fast_path": self.fast_path,
            "fallbacks": self.fallbacks,
            "skipped": self.skipped,
            "vector_errors": self.vector_errors,
            "fallback_rate": self.fallback_rate,
        }

    def merge(self, other: "IngestStats") -> None:
        self.files += other.files
        self.frames += other.frames
        self.records += other.records
        self.fast_path += other.fast_path
        self.fallbacks += other.fallbacks
        self.skipped += other.skipped
        self.vector_errors += other.vector_errors


@dataclass(frozen=True)
class PcapIndex:
    """Parallel per-record arrays from one header-scan pass.

    ``offsets[i]`` is the byte offset of record *i*'s 16-byte header
    (frame data begins at ``offsets[i] + 16``), ``caplens[i]`` its
    captured length, ``timestamps[i]`` the float timestamp exactly as
    :class:`~repro.packets.pcap.PcapReader` would compute it.
    """

    link_type: int
    snaplen: int
    nanosecond: bool
    endian: str
    offsets: List[int]
    caplens: List[int]
    timestamps: List[float]
    vectorized: bool

    def __len__(self) -> int:
        return len(self.offsets)


def _python_timestamps(
    buffer, offsets: List[int], endian: str, divisor: float
) -> List[float]:
    """Recompute the timestamp column without numpy (scan fallback)."""
    unpack = struct.Struct(endian + "II").unpack_from
    out = []
    for offset in offsets:
        ts_sec, ts_frac = unpack(buffer, offset)
        out.append(ts_sec + ts_frac / divisor)
    return out


def _vector_timestamps(
    buffer, offsets: List[int], endian: str, divisor: float
) -> List[float]:
    """Gather and combine the timestamp columns with numpy.

    ``ts_sec``/``ts_frac`` are gathered byte-wise (record headers sit at
    arbitrary alignment) and combined with exact integer weights; both
    fit float64 exactly, so ``sec + frac / divisor`` is bit-identical to
    the pure-Python expression.
    """
    base = np.asarray(offsets, dtype=np.int64)
    raw = np.frombuffer(buffer, dtype=np.uint8)
    gathered = raw[(base[:, None] + np.arange(8, dtype=np.int64)).ravel()]
    fields = gathered.reshape(len(offsets), 8).astype(np.uint64)
    if endian == "<":
        weights = np.array([1, 1 << 8, 1 << 16, 1 << 24], dtype=np.uint64)
    else:
        weights = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.uint64)
    sec = (fields[:, :4] * weights).sum(axis=1)
    frac = (fields[:, 4:] * weights).sum(axis=1)
    return (sec.astype(np.float64) + frac.astype(np.float64) / divisor).tolist()


def _scan_index(buffer, size: int, stats: IngestStats) -> PcapIndex:
    """One pass over every record header; same validation, same errors,
    same order as :class:`~repro.packets.pcap.PcapReader`."""
    if size < 24:
        raise PcapFormatError("truncated pcap global header")
    magic = _MAGIC_LE.unpack_from(buffer, 0)[0]
    if magic in (MAGIC_MICROS, MAGIC_NANOS):
        endian = "<"
    else:
        magic = _MAGIC_BE.unpack_from(buffer, 0)[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            endian = ">"
        else:
            raise PcapFormatError(f"bad pcap magic 0x{magic:08x}")
    nanosecond = magic == MAGIC_NANOS
    divisor = 1e9 if nanosecond else 1e6
    _maj, _min, _tz, _sig, snaplen, link_type = struct.unpack_from(
        endian + "HHiIII", buffer, 4
    )
    limit = snaplen + 65536

    offsets: List[int] = []
    caplens: List[int] = []
    unpack_len = struct.Struct(endian + "I").unpack_from
    offset = 24
    while offset < size:
        if size - offset < 16:
            raise PcapFormatError("truncated pcap record header")
        incl_len = unpack_len(buffer, offset + 8)[0]
        if incl_len > limit:
            raise PcapFormatError(f"implausible record length {incl_len}")
        if offset + 16 + incl_len > size:
            raise PcapFormatError("truncated pcap record body")
        offsets.append(offset)
        caplens.append(incl_len)
        offset += 16 + incl_len
    vector = True
    timestamps: List[float] = []
    if offsets:
        try:
            timestamps = _vector_timestamps(buffer, offsets, endian, divisor)
        except Exception:  # pragma: no cover - numpy safety net
            stats.vector_errors += 1
            vector = False
            timestamps = _python_timestamps(buffer, offsets, endian, divisor)
    return PcapIndex(
        link_type=link_type,
        snaplen=snaplen,
        nanosecond=nanosecond,
        endian=endian,
        offsets=offsets,
        caplens=caplens,
        timestamps=timestamps,
        vectorized=vector,
    )


class BatchPcapReader:
    """mmap-backed pcap reader: eager index, chunked fast-path decode.

    Records are bit-identical to the scalar reader's; parity is pinned by
    the golden-cell round-trip tests.  The index is built at
    construction, so :attr:`frame_count` is available *before* any
    decode — the CLI plans from it.

    The mmap length is pinned at open: a file that grows while this
    reader is alive decodes exactly the records present at open time.
    """

    def __init__(
        self,
        path: Union[str, Path],
        stats: Optional[IngestStats] = None,
    ):
        self.stats = stats if stats is not None else IngestStats()
        self._capture = MappedCapture(path)
        try:
            self.index = _scan_index(
                self._capture.buffer, self._capture.size, self.stats
            )
        except BaseException:
            self._capture.close()
            raise
        self.stats.files += 1
        self._ip_cache: Dict[bytes, str] = {}

    @property
    def frame_count(self) -> int:
        return len(self.index)

    @property
    def link_type(self) -> int:
        return self.index.link_type

    @property
    def vectorized(self) -> bool:
        """Whether the numpy gather built the timestamp column (false only
        after the safety net recomputed it)."""
        return self.index.vectorized

    def close(self) -> None:
        self._capture.close()

    def __enter__(self) -> "BatchPcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- decode -------------------------------------------------------------------

    def decode_slice(
        self, start: int, stop: int, skip_undecodable: bool = True
    ) -> List[PacketRecord]:
        """Decode records ``start..stop`` of the index, in capture order.

        Undecodable frames (``DecodeError`` from the scalar fallback) are
        skipped by default; ``TruncatedError`` and other failures
        propagate — exactly :meth:`PcapReader.records` semantics.
        """
        buffer = self._capture.buffer
        index = self.index
        offsets = index.offsets
        caplens = index.caplens
        timestamps = index.timestamps
        link_type = index.link_type
        stats = self.stats
        ip_cache = self._ip_cache
        out: List[PacketRecord] = []
        append = out.append
        unpack_ipv4 = _IPV4.unpack_from
        unpack_udp = _UDP.unpack_from
        unpack_tcp_ports = _TCP_PORTS.unpack_from
        ethernet = link_type == LINKTYPE_ETHERNET
        fast_link = ethernet or link_type == LINKTYPE_RAW
        stop = min(stop, len(offsets))
        for i in range(max(start, 0), stop):
            data_off = offsets[i] + 16
            caplen = caplens[i]
            stats.frames += 1
            record = None
            if fast_link:
                if ethernet:
                    ip_off = data_off + 14
                    ip_len = caplen - 14
                    eligible = (
                        ip_len >= 20
                        and buffer[data_off + 12:data_off + 14] == _ETHERTYPE_IPV4
                    )
                else:
                    ip_off = data_off
                    ip_len = caplen
                    eligible = ip_len >= 20
                if eligible:
                    (
                        ver_ihl, _tos, total_length, _ident, _flags,
                        _ttl, proto, _cksum, src4, dst4,
                    ) = unpack_ipv4(buffer, ip_off)
                    if ver_ihl == 0x45 and 20 <= total_length <= ip_len:
                        transport_off = ip_off + 20
                        t_len = total_length - 20
                        if proto == 17 and t_len >= 8:
                            src_port, dst_port, udp_len, _ck = unpack_udp(
                                buffer, transport_off
                            )
                            if 8 <= udp_len <= t_len:
                                src_ip = ip_cache.get(src4)
                                if src_ip is None:
                                    src_ip = "%d.%d.%d.%d" % tuple(src4)
                                    ip_cache[src4] = src_ip
                                dst_ip = ip_cache.get(dst4)
                                if dst_ip is None:
                                    dst_ip = "%d.%d.%d.%d" % tuple(dst4)
                                    ip_cache[dst4] = dst_ip
                                record = PacketRecord(
                                    timestamp=timestamps[i],
                                    src_ip=src_ip,
                                    src_port=src_port,
                                    dst_ip=dst_ip,
                                    dst_port=dst_port,
                                    transport="UDP",
                                    payload=buffer[
                                        transport_off + 8:transport_off + udp_len
                                    ],
                                )
                        elif proto == 6 and t_len >= 20:
                            data_offset = (buffer[transport_off + 12] >> 4) * 4
                            if 20 <= data_offset <= t_len:
                                src_port, dst_port = unpack_tcp_ports(
                                    buffer, transport_off
                                )
                                src_ip = ip_cache.get(src4)
                                if src_ip is None:
                                    src_ip = "%d.%d.%d.%d" % tuple(src4)
                                    ip_cache[src4] = src_ip
                                dst_ip = ip_cache.get(dst4)
                                if dst_ip is None:
                                    dst_ip = "%d.%d.%d.%d" % tuple(dst4)
                                    ip_cache[dst4] = dst_ip
                                record = PacketRecord(
                                    timestamp=timestamps[i],
                                    src_ip=src_ip,
                                    src_port=src_port,
                                    dst_ip=dst_ip,
                                    dst_port=dst_port,
                                    transport="TCP",
                                    payload=buffer[
                                        transport_off + data_offset:
                                        ip_off + total_length
                                    ],
                                )
            if record is None:
                stats.fallbacks += 1
                frame = buffer[data_off:data_off + caplen]
                try:
                    record = decode_frame(link_type, bytes(frame), timestamps[i])
                except DecodeError:
                    stats.skipped += 1
                    if skip_undecodable:
                        continue
                    raise
            else:
                stats.fast_path += 1
            stats.records += 1
            append(record)
        return out

    def chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        skip_undecodable: bool = True,
    ) -> Iterator[List[PacketRecord]]:
        """Decoded records in capture order, ``chunk_size`` frames at a
        time (chunks may come up short where frames were skipped; empty
        chunks are suppressed)."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        total = len(self.index)
        for start in range(0, total, chunk_size):
            batch = self.decode_slice(start, start + chunk_size, skip_undecodable)
            if batch:
                yield batch

    def records(
        self, skip_undecodable: bool = True
    ) -> Iterator[PacketRecord]:
        for batch in self.chunks(skip_undecodable=skip_undecodable):
            yield from batch


def iter_pcap_chunks(
    path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stats: Optional[IngestStats] = None,
) -> Iterator[List[PacketRecord]]:
    """Stream decoded record chunks out of a pcap file (batch decoder).

    Opens the capture lazily on first ``next()`` and closes it when the
    iterator is exhausted or dropped; peak memory is one chunk plus the
    (pinned) mmap, never the whole record list.
    """
    reader = BatchPcapReader(path, stats=stats)
    try:
        yield from reader.chunks(chunk_size)
    finally:
        reader.close()


def iter_pcap(
    path: Union[str, Path],
    stats: Optional[IngestStats] = None,
) -> Iterator[PacketRecord]:
    """Stream every decodable record out of a pcap file, one at a time."""
    for batch in iter_pcap_chunks(path, stats=stats):
        yield from batch


def iter_capture_chunks(
    path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stats: Optional[IngestStats] = None,
) -> Iterator[List[PacketRecord]]:
    """Chunked record stream for either capture container.

    ``.pcapng`` files go through the streaming block reader
    (:func:`repro.packets.pcapng.iter_pcapng_chunks`); everything else
    through the mmap batch decoder.  This is the one entry point the
    service ingest layer uses.
    """
    if str(path).endswith(".pcapng"):
        from repro.packets.pcapng import iter_pcapng_chunks

        yield from iter_pcapng_chunks(path, chunk_size)
    else:
        yield from iter_pcap_chunks(path, chunk_size, stats=stats)
