"""Batch capture ingest: mmap index parity, fast-path bit-identity, wiring.

The contract under test is absolute: for any pcap the mmap batch decoder
(:mod:`repro.packets.batch`) must produce exactly the record stream the
scalar :class:`~repro.packets.pcap.PcapReader` produces — same fields,
same payload bytes, same float timestamps, same skips, same exceptions —
for captures of every size, from one frame up.  Everything
else (streaming wrappers, the directory watcher, the ``pcap`` command)
layers on that guarantee.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import NetworkCondition
from repro.conformance.golden import (
    IMPAIRED_CORPORA,
    CorpusConfig,
    cell_records,
    corpus_cells,
    load_manifest,
)
from repro.conformance import default_corpus_dir
from repro.packets import (
    BatchPcapReader,
    IngestStats,
    MappedCapture,
    PacketRecord,
    PcapReader,
    PcapWriter,
    iter_capture_chunks,
    iter_pcap,
    iter_pcap_chunks,
    iter_pcapng,
    iter_pcapng_chunks,
    read_pcap,
    read_pcapng,
    write_pcap,
    write_pcapng,
)
from repro.packets.batch import DEFAULT_CHUNK_SIZE
from repro.packets.decode import (
    LINKTYPE_ETHERNET,
    LINKTYPE_NULL,
    LINKTYPE_RAW,
    encode_record,
)
from repro.packets.pcap import MAGIC_MICROS, PcapFormatError

def scalar_records(path):
    with open(path, "rb") as fileobj:
        return list(PcapReader(fileobj).records())


def batch_records(path):
    stats = IngestStats()
    records = list(iter_pcap(path, stats=stats))
    assert stats.vector_errors == 0
    return records, stats


def assert_bit_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for left, right in zip(scalar, batch):
        assert left == right
        # Equality is not enough: the DPI columnar scanner requires real
        # bytes payloads, and timestamps must match to the bit.
        assert type(right.payload) is bytes
        assert struct.pack("d", left.timestamp) == struct.pack(
            "d", right.timestamp
        )


# --------------------------------------------------------------------------
# Index-scan format errors: same type for the same malformed input
# --------------------------------------------------------------------------


class TestIndexScanErrors:
    def _write(self, tmp_path, blob):
        path = tmp_path / "capture.pcap"
        path.write_bytes(blob)
        return path

    def _global_header(self, snaplen=262144, link_type=LINKTYPE_ETHERNET):
        return struct.pack(
            "<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, snaplen, link_type
        )

    def test_truncated_global_header(self, tmp_path):
        path = self._write(tmp_path, b"\xd4\xc3\xb2\xa1\x02\x00")
        with pytest.raises(PcapFormatError, match="truncated pcap global"):
            BatchPcapReader(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, b"")
        with pytest.raises(PcapFormatError, match="truncated pcap global"):
            BatchPcapReader(path)

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path, b"\x00" * 24)
        with pytest.raises(PcapFormatError, match="bad pcap magic"):
            BatchPcapReader(path)

    def test_truncated_record_header(self, tmp_path):
        path = self._write(tmp_path, self._global_header() + b"\x01\x02\x03")
        with pytest.raises(PcapFormatError, match="truncated pcap record header"):
            BatchPcapReader(path)

    def test_implausible_record_length(self, tmp_path):
        record = struct.pack("<IIII", 0, 0, 0xFFFFFFFF, 0xFFFFFFFF)
        path = self._write(tmp_path, self._global_header() + record)
        with pytest.raises(PcapFormatError, match="implausible record length"):
            BatchPcapReader(path)

    def test_truncated_record_body(self, tmp_path):
        record = struct.pack("<IIII", 0, 0, 64, 64) + b"\x00" * 10
        path = self._write(tmp_path, self._global_header() + record)
        with pytest.raises(PcapFormatError, match="truncated pcap record body"):
            BatchPcapReader(path)

    def test_scalar_reader_agrees_on_every_error(self, tmp_path):
        blobs = [
            b"",
            b"\xd4\xc3\xb2\xa1",
            b"\x00" * 24,
            self._global_header() + b"\x01",
            self._global_header() + struct.pack("<IIII", 0, 0, 1 << 30, 0),
            self._global_header() + struct.pack("<IIII", 0, 0, 40, 40),
        ]
        for blob in blobs:
            path = self._write(tmp_path, blob)
            with pytest.raises(PcapFormatError):
                scalar_records(path)
            with pytest.raises(PcapFormatError):
                BatchPcapReader(path)

    def test_zero_record_file_decodes_empty(self, tmp_path):
        path = self._write(tmp_path, self._global_header())
        with BatchPcapReader(path) as reader:
            assert reader.frame_count == 0
            assert list(reader.records()) == []
        assert scalar_records(path) == []


# --------------------------------------------------------------------------
# Timestamp variants and exotic containers
# --------------------------------------------------------------------------


class TestTimestampAndContainerParity:
    def _sample_records(self):
        return [
            PacketRecord(
                timestamp=1.0 + i * 0.000001 + i * 1e-9,
                src_ip="10.0.0.1",
                src_port=5000 + i,
                dst_ip="10.0.0.2",
                dst_port=6000,
                transport="UDP",
                payload=bytes([i]) * (i + 1),
            )
            for i in range(32)
        ]

    def test_nanosecond_timestamps(self, tmp_path):
        path = tmp_path / "nanos.pcap"
        write_pcap(path, self._sample_records(), nanosecond=True)
        batch, stats = batch_records(path)
        assert_bit_identical(scalar_records(path), batch)
        assert stats.fallbacks == 0

    def test_big_endian_capture(self, tmp_path):
        payload = b"\x80\x60" + b"\x00" * 30
        ip = bytes([0x45, 0]) + struct.pack("!H", 20 + 8 + len(payload))
        ip += b"\x00" * 4 + bytes([64, 17]) + b"\x00\x00"
        ip += bytes([10, 0, 0, 1]) + bytes([10, 0, 0, 2])
        udp = struct.pack("!HHHH", 4000, 4001, 8 + len(payload), 0) + payload
        frame = ip + udp
        path = tmp_path / "be.pcap"
        blob = struct.pack(
            ">IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, 262144, LINKTYPE_RAW
        )
        blob += struct.pack(">IIII", 7, 250000, len(frame), len(frame)) + frame
        path.write_bytes(blob)
        batch, stats = batch_records(path)
        assert_bit_identical(scalar_records(path), batch)
        assert stats.fast_path == 1

    def test_raw_and_null_link_types(self, tmp_path):
        records = self._sample_records()
        for link_type in (LINKTYPE_RAW, LINKTYPE_NULL):
            path = tmp_path / f"lt{link_type}.pcap"
            write_pcap(path, records, link_type=link_type)
            batch, stats = batch_records(path)
            assert_bit_identical(scalar_records(path), batch)
            if link_type == LINKTYPE_NULL:
                # No fast path for the NULL family header: every frame
                # must round-trip through decode_frame instead.
                assert stats.fallbacks == stats.frames

    def test_undecodable_frames_skipped_identically(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        with open(path, "wb") as fileobj:
            writer = PcapWriter(fileobj)
            writer.write_record(self._sample_records()[0])
            # An ARP ethertype: decode_frame raises DecodeError, which
            # records() skips — both readers must drop exactly this frame.
            writer.write_frame(2.0, b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28)
            writer.write_record(self._sample_records()[1])
        batch, stats = batch_records(path)
        assert_bit_identical(scalar_records(path), batch)
        assert len(batch) == 2
        assert stats.frames == 3
        assert stats.skipped == 1

    def test_vlan_and_options_fall_back_bit_identically(
        self, tmp_path
    ):
        base = encode_record(self._sample_records()[0], LINKTYPE_ETHERNET)
        # 802.1Q tag spliced after the MACs; the fast path only takes
        # untagged IPv4, so the batch reader must defer to decode_frame
        # (which does understand the tag) and emit an identical record.
        vlan = base[:12] + b"\x81\x00\x00\x2a" + base[12:]
        # IHL=6 (one option word): the fast path must refuse (first IP
        # byte is 0x46) and the scalar decode handles the options.
        ip_frame = bytearray(base)
        ip_frame[14] = 0x46
        ip_frame[14 + 20:14 + 20] = b"\x01\x01\x01\x00"
        total = struct.unpack_from("!H", ip_frame, 16)[0] + 4
        struct.pack_into("!H", ip_frame, 16, total)
        path = tmp_path / "exotic.pcap"
        with open(path, "wb") as fileobj:
            writer = PcapWriter(fileobj)
            writer.write_frame(1.0, vlan)
            writer.write_frame(2.0, bytes(ip_frame))
        batch, stats = batch_records(path)
        assert_bit_identical(scalar_records(path), batch)
        assert stats.fallbacks == 2
        assert stats.fast_path == 0
        assert len(batch) == 2  # both exotic frames decode via fallback

    def test_truncated_ip_payload_propagates_from_both(self, tmp_path):
        # total_length larger than the captured bytes: decode_frame
        # raises TruncatedError (a ValueError, not a DecodeError), which
        # records() must NOT swallow — in either reader.
        frame = bytearray(encode_record(self._sample_records()[0],
                                        LINKTYPE_ETHERNET))
        struct.pack_into("!H", frame, 16, len(frame) - 14 + 40)
        path = tmp_path / "trunc.pcap"
        with open(path, "wb") as fileobj:
            PcapWriter(fileobj).write_frame(1.0, bytes(frame))
        with pytest.raises(ValueError):
            scalar_records(path)
        with pytest.raises(ValueError):
            batch_records(path)


# --------------------------------------------------------------------------
# Hypothesis round-trip property
# --------------------------------------------------------------------------

_ips = st.tuples(
    st.integers(1, 254), st.integers(0, 255),
    st.integers(0, 255), st.integers(1, 254),
).map(lambda parts: "%d.%d.%d.%d" % parts)

_records = st.lists(
    st.builds(
        PacketRecord,
        timestamp=st.floats(0.0, 4e9, allow_nan=False, width=32),
        src_ip=_ips,
        src_port=st.integers(1, 65535),
        dst_ip=_ips,
        dst_port=st.integers(1, 65535),
        transport=st.sampled_from(["UDP", "TCP"]),
        payload=st.binary(min_size=0, max_size=64),
    ),
    min_size=1,
    max_size=24,
)


#: Three frames for the 1- to 3-frame captures, the smallest the numpy
#: timestamp gather serves.
_FEW = [
    PacketRecord(timestamp=7.25 + i * 0.000013, src_ip="10.0.0.1",
                 src_port=5000 + i, dst_ip="10.0.0.2", dst_port=6000,
                 transport=("UDP", "TCP")[i % 2], payload=bytes([i]) * i)
    for i in range(3)
]


class TestRoundTripProperty:
    @settings(max_examples=40)
    @given(records=_records, link_type=st.sampled_from(
        [LINKTYPE_ETHERNET, LINKTYPE_RAW]
    ), nanosecond=st.booleans())
    @example(records=_FEW[:1], link_type=LINKTYPE_ETHERNET, nanosecond=False)
    @example(records=_FEW[:2], link_type=LINKTYPE_RAW, nanosecond=True)
    @example(records=_FEW[:3], link_type=LINKTYPE_ETHERNET, nanosecond=True)
    def test_encode_decode_round_trip_bit_identical(
        self, tmp_path_factory, records, link_type, nanosecond
    ):
        path = tmp_path_factory.mktemp("rt") / "prop.pcap"
        write_pcap(path, records, link_type=link_type, nanosecond=nanosecond)
        scalar = scalar_records(path)
        batch, stats = batch_records(path)
        assert_bit_identical(scalar, batch)
        assert stats.frames == len(records)
        assert stats.records == len(scalar)
        # Every generated shape is UDP/TCP over plain IPv4: the fast
        # path must take all of them on these link types.
        assert stats.fallbacks == 0
        assert stats.fallback_rate == 0.0


# --------------------------------------------------------------------------
# Golden + impaired corpus parity (the acceptance criterion)
# --------------------------------------------------------------------------

_CORPUS = CorpusConfig()
_CLEAN_CELLS = corpus_cells(load_manifest(default_corpus_dir()))
_IMPAIRED_CELLS = [
    (app, IMPAIRED_CORPORA[profile], profile)
    for profile in sorted(IMPAIRED_CORPORA)
    for app in sorted({a for a, _n in _CLEAN_CELLS})
]


class TestCorpusParity:
    @pytest.mark.parametrize(
        "app,network",
        _CLEAN_CELLS,
        ids=[f"{a}-{n.value}" for a, n in _CLEAN_CELLS],
    )
    def test_clean_cells_round_trip(self, tmp_path, app, network):
        records = cell_records(app, network, _CORPUS)
        path = tmp_path / "cell.pcap"
        write_pcap(path, records)
        scalar = scalar_records(path)
        assert len(scalar) == len(records)
        batch, stats = batch_records(path)
        assert_bit_identical(scalar, batch)
        assert stats.skipped == 0

    @pytest.mark.parametrize(
        "app,network,profile",
        _IMPAIRED_CELLS,
        ids=[f"{a}-{p}" for a, _n, p in _IMPAIRED_CELLS],
    )
    def test_impaired_cells_round_trip(self, tmp_path, app, network, profile):
        config = CorpusConfig(impairment=profile)
        records = cell_records(app, network, config)
        path = tmp_path / "cell.pcap"
        write_pcap(path, records)
        scalar = scalar_records(path)
        assert len(scalar) == len(records)
        batch, stats = batch_records(path)
        assert_bit_identical(scalar, batch)
        assert stats.skipped == 0


# --------------------------------------------------------------------------
# Streaming wrappers, mmap pinning, watcher and replay wiring
# --------------------------------------------------------------------------


def _cell_pcap(tmp_path, name="cell.pcap"):
    """One golden cell serialized to *tmp_path*; returns (path, expected).

    ``expected`` is the scalar reader's decode of the file — the
    round-trip drops simulator-only ground-truth labels, so decoded
    streams must be compared against decoded expectations.
    """
    records = cell_records("meet", NetworkCondition.WIFI_RELAY, _CORPUS)
    path = tmp_path / name
    write_pcap(path, records)
    return path, scalar_records(path)


class TestStreamingWrappers:
    def test_read_pcap_matches_iterators(self, tmp_path):
        path, records = _cell_pcap(tmp_path)
        flat = list(iter_pcap(path))
        chunked = [r for batch in iter_pcap_chunks(path) for r in batch]
        assert read_pcap(path) == flat == chunked == records

    def test_chunk_sizes_respected(self, tmp_path):
        path, records = _cell_pcap(tmp_path)
        batches = list(iter_pcap_chunks(path))
        assert len(batches) > 1
        assert all(len(batch) <= DEFAULT_CHUNK_SIZE for batch in batches)
        assert all(batches)
        assert sum(len(batch) for batch in batches) == len(records)

    def test_invalid_chunk_size_rejected(self, tmp_path):
        path, _records = _cell_pcap(tmp_path)
        with BatchPcapReader(path) as reader:
            with pytest.raises(ValueError):
                list(reader.chunks(0))

    def test_pcapng_iterators_match_list_reader(self, tmp_path):
        records = cell_records("meet", NetworkCondition.WIFI_RELAY, _CORPUS)
        path = tmp_path / "cell.pcapng"
        write_pcapng(path, records)
        flat = list(iter_pcapng(path))
        chunked = [r for b in iter_pcapng_chunks(path) for r in b]
        assert read_pcapng(path) == flat == chunked

    def test_iter_capture_chunks_dispatches_on_suffix(self, tmp_path):
        records = cell_records("meet", NetworkCondition.WIFI_RELAY, _CORPUS)
        pcap = tmp_path / "c.pcap"
        pcapng = tmp_path / "c.pcapng"
        write_pcap(pcap, records)
        write_pcapng(pcapng, records)
        via_pcap = [r for b in iter_capture_chunks(pcap) for r in b]
        via_pcapng = [r for b in iter_capture_chunks(pcapng) for r in b]
        assert via_pcap == read_pcap(pcap)
        assert via_pcapng == read_pcapng(pcapng)


class TestMmapPinning:
    def test_mapped_capture_pins_length_at_open(self, tmp_path):
        path = tmp_path / "grow.bin"
        path.write_bytes(b"A" * 100)
        with MappedCapture(path) as capture:
            assert capture.size == 100
            with open(path, "ab") as fileobj:
                fileobj.write(b"B" * 100)
            assert capture.size == 100
            assert len(capture.buffer) == 100

    def test_reader_ignores_growth_after_open(self, tmp_path):
        path, records = _cell_pcap(tmp_path)
        extra = PacketRecord(
            timestamp=records[-1].timestamp + 1.0,
            src_ip="192.0.2.1", src_port=1234,
            dst_ip="192.0.2.2", dst_port=4321,
            transport="UDP", payload=b"late",
        )
        with BatchPcapReader(path) as reader:
            assert reader.frame_count == len(records)
            # A rotating writer reopens the file and appends mid-read:
            # the pinned mapping must keep yielding the open-time prefix.
            with open(path, "ab") as fileobj:
                frame = encode_record(extra, LINKTYPE_ETHERNET)
                fileobj.write(
                    struct.pack("<IIII", 99, 0, len(frame), len(frame))
                )
                fileobj.write(frame)
            decoded = list(reader.records())
        assert decoded == records
        # A fresh open sees the appended record too.
        assert len(read_pcap(path)) == len(records) + 1

    def test_empty_mapped_capture(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with MappedCapture(path) as capture:
            assert capture.size == 0
            assert capture.buffer == b""


class TestIngestWiring:
    def test_watcher_streams_batches_and_skips_bad_files(self, tmp_path):
        from repro.service.ingest import PcapDirectoryWatcher

        path, records = _cell_pcap(tmp_path, "aaa.pcap")
        (tmp_path / "bbb.pcap").write_bytes(b"\x00" * 48)  # bad magic
        watcher = PcapDirectoryWatcher(
            str(tmp_path), poll_interval=0.01, drain_once=True
        )
        batches = list(watcher)
        assert all(len(batch) <= DEFAULT_CHUNK_SIZE for batch in batches)
        assert [r for batch in batches for r in batch] == records

    def test_replay_source_from_pcap_matches_list_replay(self, tmp_path):
        from repro.service.ingest import ReplaySource

        path, records = _cell_pcap(tmp_path)
        from_list = list(ReplaySource(records))
        from_file = list(ReplaySource.from_pcap(str(path)))
        assert from_list == from_file

    def test_replay_source_from_pcap_paced(self, tmp_path):
        from repro.service.ingest import ReplaySource

        path, records = _cell_pcap(tmp_path)
        source = ReplaySource.from_pcap(str(path), pace="clock", speed=1e6)
        assert [r for b in source for r in b] == records


# --------------------------------------------------------------------------
# CLI: streaming pcap analysis
# --------------------------------------------------------------------------


class TestPcapCli:
    def test_pcap_fixed_mode_output_unchanged_shape(self, tmp_path, capsys):
        from repro import cli

        path, _records = _cell_pcap(tmp_path)
        code = cli.main(["pcap", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Datagram classes" in out
        assert "Ingest:" in out
        assert "fallback rate" in out
        assert "plan:" not in out
