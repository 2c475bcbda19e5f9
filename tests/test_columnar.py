"""Columnar batch DPI backend: bit-exact parity with the scalar sweep.

The columnar scanner is the production stage one, and its whole contract
is that its candidate lists are bit-identical to the scalar matchers for
every payload — golden traffic, adversarial edge cases, any batch size
or split — with the numpy kernel serving every batch.  These tests pin that
contract, plus engine-level parity with the reference (verdicts *and*
DpiStats) and the retirement of the old backend CLI flags.
"""

import dataclasses
import logging
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import ColumnarScanner, DpiEngine, DpiStage
from repro.dpi.candidates import (
    Candidate,
    quic_candidates,
    rtcp_candidates,
    stun_candidates,
    sweep_order,
)
from repro.dpi.engine import MIN_CONTINUITY, MIN_RTP_GROUP, _score_rtp_columns
from repro.dpi.messages import Protocol
from repro.filtering import TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.protocols.quic.header import QUIC_V1, QUIC_V2
from repro.protocols.rtcp.packets import SenderReport
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage, looks_like_stun

#: Bytes that start (or sit inside) real anchors: RTP/RTCP version bytes,
#: RTCP packet types, the STUN magic cookie, QUIC long/short first bytes.
_ANCHOR_ALPHABET = (
    b"\x80\x81\x90\xb5\xc8\xc9\xca\xcb\xcc\xcd"
    b"\x21\x12\xa4\x42\x40\x4f\x42\xc0\xff\x00\x01\x02"
)

_payloads = st.one_of(
    st.binary(max_size=8),  # empty / 1-byte / truncated headers
    st.binary(max_size=240),
    # anchor-byte spam: every position looks like a match start
    st.integers(min_value=0, max_value=200).flatmap(
        lambda n: st.lists(
            st.sampled_from(_ANCHOR_ALPHABET), min_size=n, max_size=n
        ).map(bytes)
    ),
    # a STUN cookie planted at an arbitrary depth
    st.tuples(st.binary(max_size=48), st.binary(max_size=48)).map(
        lambda t: t[0] + b"\x21\x12\xa4\x42" + t[1]
    ),
)


@pytest.fixture(scope="module")
def scanner():
    return ColumnarScanner(max_offset=200)


@pytest.fixture(scope="module")
def kept_records():
    trace = get_simulator("zoom").simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=1,
                   call_duration=6.0, media_scale=0.3)
    )
    return TwoStageFilter(trace.window).apply(trace.records).kept_records


class TestMatcherGates:
    """Each gate of the numpy kernel is a necessary condition of its
    matcher: a matcher it skips really returns nothing, at any depth
    bound.  Each gate is computed per protocol and each payload runs only
    the matchers its gates open, so comparing one protocol's candidates
    at a time lets no other protocol mask a wrongly closed gate."""

    MATCHERS = [
        (Protocol.STUN_TURN, stun_candidates),
        (Protocol.RTCP, rtcp_candidates),
        (Protocol.QUIC, quic_candidates),
    ]

    @given(payload=_payloads, max_offset=st.integers(min_value=0, max_value=240))
    def test_closed_gate_means_no_candidates(self, payload, max_offset):
        scanner = ColumnarScanner(max_offset)
        [got] = scanner.scan_batch([payload])
        for protocol, matcher in self.MATCHERS:
            assert [c for c in got if c.protocol is protocol] == sorted(
                matcher(payload, max_offset), key=sweep_order
            ), protocol
        assert scanner.stats.vector_errors == 0


@st.composite
def _rtcp_packet(draw, max_words=3):
    """One RTCP packet: any version-2 first byte, a packet type in
    192-223, and a body of exactly its declared length."""
    words = draw(st.integers(min_value=0, max_value=max_words))
    return (
        bytes([
            draw(st.integers(min_value=0x80, max_value=0xBF)),
            draw(st.integers(min_value=192, max_value=223)),
        ])
        + words.to_bytes(2, "big")
        + draw(st.binary(min_size=4 * words, max_size=4 * words))
    )


@st.composite
def _rtcp_chain(draw):
    """An RTCP compound at offset 0..30 of a payload, with a tail the
    matcher's trailer rule has to judge: a trailer of 0-20 bytes (both
    sides of ``MAX_RTCP_TRAILER``) or a last packet whose declared
    length overruns the payload by 1-3 bytes."""
    lead = draw(st.one_of(
        st.binary(max_size=30),
        st.lists(st.sampled_from(_ANCHOR_ALPHABET), max_size=30).map(bytes),
    ))
    packets = b"".join(draw(st.lists(_rtcp_packet(), min_size=1, max_size=6)))
    overrun = draw(st.sampled_from([0, 0, 1, 2, 3]))
    if overrun:
        tail = draw(_rtcp_packet(max_words=6).filter(lambda p: len(p) > 4))
        tail = tail[:-overrun]
    else:
        size = draw(st.sampled_from([0, 1, 3, 12, 15, 16, 16, 17, 17, 20]))
        tail = draw(st.binary(min_size=size, max_size=size))
    return lead + packets + tail


class TestRtcpGateExact:
    """The RTCP gate walks the compound chain, so it opens exactly for
    the payloads the matcher returns candidates for: every matcher run
    it lets through finds something."""

    @settings(max_examples=200)
    @given(batch=st.lists(_rtcp_chain(), min_size=1, max_size=6),
           max_offset=st.integers(min_value=0, max_value=40))
    def test_gate_is_exact(self, batch, max_offset):
        scanner = ColumnarScanner(max_offset)
        # One batch: every chain walk must stop at its own payload's end,
        # never run on across a seam into the next payload.
        results = scanner.scan_batch(batch)
        for payload, got in zip(batch, results):
            assert got == scanner.scan_payload(payload)
        stats = scanner.stats
        assert stats.vector_errors == 0
        assert stats.gate_empty["rtcp"] == 0
        assert stats.gate_runs["rtcp"] == sum(
            1 for payload in batch if rtcp_candidates(payload, max_offset)
        )


_COOKIE = b"\x21\x12\xa4\x42"
_QUIC_VERSIONS = (QUIC_V1.to_bytes(4, "big"), QUIC_V2.to_bytes(4, "big"), bytes(4))


def _gate_opens(payload, max_offset):
    """Whether any gate of the numpy kernel opens for *payload*, written
    out per payload as the kernel once evaluated them in a Python loop."""
    size = len(payload)
    b0 = payload[0] if size else 0
    stun = (
        any(payload[o + 4:o + 8] == _COOKIE for o in range(max_offset + 1))
        or (size >= 4 and 0x40 <= b0 <= 0x4F)
        or looks_like_stun(payload, 0)
    )
    quic = (size >= 26 and b0 & 0xC0 == 0x40) or any(
        payload[o] >= 0xC0 and payload[o + 1:o + 5] in _QUIC_VERSIONS
        for o in range(min(max_offset, size - 7) + 1)
    )
    return stun or quic or bool(rtcp_candidates(payload, max_offset))


_short_payloads = st.one_of(
    st.binary(max_size=25),
    st.lists(st.sampled_from(_ANCHOR_ALPHABET), max_size=25).map(bytes),
    # a classic STUN header whose declared length may or may not fit
    st.tuples(st.integers(0, 0x3FFF), st.integers(0, 8), st.binary(max_size=5))
    .map(lambda t: t[0].to_bytes(2, "big") + (4 * t[1]).to_bytes(2, "big")
         + bytes(16) + t[2]),
)


class TestGateLoop:
    """Only the payloads a gate opens reach the scalar matchers, each
    exactly once; every other payload's parts stay ``()``."""

    @staticmethod
    def _record_parts(monkeypatch):
        opened = []
        real = ColumnarScanner._parts

        def parts(self, payload, *needs, gated=False):
            if gated:
                opened.append(payload)
            return real(self, payload, *needs, gated=gated)

        monkeypatch.setattr(ColumnarScanner, "_parts", parts)
        return opened

    @given(batch=st.lists(_short_payloads, max_size=12),
           last=st.binary(max_size=3),
           max_offset=st.integers(min_value=0, max_value=30))
    def test_parts_once_per_open_gate(self, batch, last, max_offset):
        # The last payload is shorter than 4 bytes, so the gathers of
        # bytes 2 and 3 run off the joined buffer's end and are clipped.
        batch = batch + [last]
        with pytest.MonkeyPatch.context() as monkeypatch:
            opened = self._record_parts(monkeypatch)
            scanner = ColumnarScanner(max_offset)
            results = scanner.scan_batch(batch)
        assert opened == [p for p in batch if _gate_opens(p, max_offset)]
        for payload, got in zip(batch, results):
            assert got == scanner.scan_payload(payload)
        assert scanner.stats.vector_errors == 0

    def test_parts_once_per_open_gate_on_a_call(self, kept_records, monkeypatch):
        scanned = []
        real_scan = ColumnarScanner._scan_np

        def scan(self, batch):
            scanned.extend(batch)
            return real_scan(self, batch)

        monkeypatch.setattr(ColumnarScanner, "_scan_np", scan)
        opened = self._record_parts(monkeypatch)
        engine = DpiEngine(backend="columnar")
        engine.analyze_records(kept_records)
        assert opened == [p for p in scanned if _gate_opens(p, engine.max_offset)]
        # Media dominates a call and opens no gate: 8 of the 637 payloads
        # reach the matchers.
        assert 0 < 20 * len(opened) < len(scanned)


class TestScannerParity:
    @given(batch=st.lists(_payloads, max_size=24))
    def test_scan_batch_matches_scalar(self, scanner, batch):
        results = scanner.scan_batch(batch)
        assert len(results) == len(batch)
        for payload, got in zip(batch, results):
            assert got == scanner.scan_payload(payload)
        # Every batch size went through the numpy kernel, not its
        # safety net.
        assert scanner.stats.vector_errors == 0

    @given(batch=st.lists(_payloads, min_size=1, max_size=16),
           split=st.integers(min_value=0, max_value=16))
    def test_batch_split_invariance(self, scanner, batch, split):
        split = min(split, len(batch))
        whole = scanner.scan_batch(batch)
        parts = scanner.scan_batch(batch[:split]) + scanner.scan_batch(
            batch[split:]
        )
        assert whole == parts

    def test_edge_payloads(self, scanner):
        cookie = b"\x21\x12\xa4\x42"
        # A QUIC version-negotiation packet: its version is the all-zero
        # needle, which also matches everywhere inside zero runs.
        vn = (b"\xc0\x00\x00\x00\x00\x08" + b"\x11" * 8 + b"\x08"
              + b"\x22" * 8 + b"\x00\x00\x00\x01")
        edges = [
            b"",
            b"\x80",
            b"\x80" * 300,            # RTP anchor spam past max_offset
            b"\xc8" * 300,            # RTCP anchor spam
            b"\x40" * 30,             # QUIC short-header / ChannelData range
            cookie,                   # cookie with no room for a header
            b"\x00" * 4 + cookie,     # cookie exactly at the modern anchor
            b"\x00" * 204 + cookie + b"\x00" * 40,  # cookie past max_offset
            b"\x00\x01\x00\x00" + cookie + b"\x00" * 12,  # classic+modern
            b"\x80\xc8\x00\x01" + b"\x00" * 8,  # RTCP inside an RTP start
            bytes(range(256)),
            b"\x00" * 60 + vn,       # VN anchor right after a zero run
            b"\x00" * 3 + b"\x07" + b"\x00" * 60 + vn,  # two zero runs
            b"\x00" * 230 + vn,      # VN anchor past max_offset
            b"\xc0" + b"\x00" * 30,  # VN needle inside a zero run
        ]
        rtp = RtpPacket(payload_type=96, sequence_number=7, timestamp=160,
                        ssrc=0xABCD, payload=b"\x11" * 20).build()
        # An RTCP packet that exactly fills its payload, and a STUN
        # message whose cookie sits at the deepest anchor (offset k + 4).
        # No other byte pair in either opens the same gate.
        rtcp = SenderReport(ssrc=0x01020304, ntp_timestamp=1,
                            rtp_timestamp=160, packet_count=1,
                            octet_count=60).to_packet().build()
        deepest = b"\xff" * 200 + StunMessage(
            msg_type=0x0001, transaction_id=b"\x07" * 12).build()
        edges += [rtcp, deepest]
        # The exact RTCP gate: the longest trailer the matcher keeps, one
        # byte past it, and chains of valid 4-byte packets whose every
        # anchor stops one byte past the trailer bound.
        edges += [rtcp + b"\x00" * 16, rtcp + b"\x00" * 17]
        edges += [b"\x80\xc8\x00\x00" * k + b"\x00" * 17 for k in (1, 4, 60)]
        # The numpy kernel serves batches of every size, down to one
        # payload: empty payloads, payloads shorter than an RTP header,
        # and an empty payload next to a full RTP one.
        small = [
            [b""],
            [b"\x80"],
            [rtp[:11]],
            [b"", b""],
            [b"", rtp],
            [rtp, b""],
            [b"\x80\x60", cookie],
            [b"", rtp, b""],
            [rtp[:4], rtp, b"\xc8\x00\x00\x01"],
            [b"\x40" * 3, b"\x00\x01", rtp[:11]],
            [rtcp],
            [deepest, b""],
        ]
        # One batch of all the edges exercises the shared anchor pass.
        before = scanner.stats.batches
        empty_before = scanner.stats.gate_empty["rtcp"]
        for batch in [edges] + small:
            for got, payload in zip(scanner.scan_batch(batch), batch):
                assert got == scanner.scan_payload(payload)
        assert scanner.stats.batches == before + 1 + len(small)
        assert scanner.stats.vector_errors == 0
        assert scanner.stats.gate_empty["rtcp"] == empty_before

    def test_seam_artifacts_filtered(self, scanner):
        # The joined buffer contains a cookie and a QUIC anchor straddling
        # the seam between the two payloads; neither may produce a flag.
        left = b"\x00" * 8 + b"\x21\x12"
        right = b"\xa4\x42" + b"\x00" * 8
        results = scanner.scan_batch([left, right])
        assert results[0] == scanner.scan_payload(left)
        assert results[1] == scanner.scan_payload(right)

    def test_non_bytes_payloads_scan_as_bytes(self, kept_records):
        # A payload that is not bytes is scanned as its bytes: the same
        # candidate lists, and the same analyses and DpiStats as the
        # reference engine on the bytes records.
        payloads = [record.payload for record in kept_records]
        reference = DpiEngine().analyze_records(kept_records)
        scanner = ColumnarScanner(200)
        want = [scanner.scan_payload(p) for p in payloads]
        for kind in (bytearray, memoryview):
            assert scanner.scan_batch([kind(p) for p in payloads]) == want
            mixed = [kind(p) if i % 2 else p for i, p in enumerate(payloads)]
            assert scanner.scan_batch(mixed) == want
            engine = DpiEngine(backend="columnar")
            production = engine.analyze_records([
                dataclasses.replace(record, payload=kind(record.payload))
                for record in kept_records
            ])
            assert production.analyses == reference.analyses, kind
            assert production.stats.as_dict() == reference.stats.as_dict()
            assert engine.columnar_stats.vector_errors == 0
        assert scanner.stats.vector_errors == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ColumnarScanner(-1)

    def test_stats_counters(self):
        fresh = ColumnarScanner(200)
        fresh.scan_batch([b"\x80" * 16] * 8)
        fresh.scan_batch([])
        assert fresh.stats.batches == 2
        assert fresh.stats.payloads == 8
        assert fresh.stats.vector_errors == 0
        # The first payload opens the ChannelData gate (first byte 0x40)
        # and the STUN matcher finds nothing; the second opens the RTCP
        # gate and yields one packet.
        rtcp = b"\x80\xc8\x00\x00"
        fresh.scan_batch([b"\x40" * 16, rtcp])
        assert fresh.stats.gate_runs == {"stun_turn": 1, "rtcp": 1, "quic": 0}
        assert fresh.stats.gate_empty == {"stun_turn": 1, "rtcp": 0, "quic": 0}
        merged = ColumnarScanner(200).stats
        merged.merge(fresh.stats)
        merged.merge(fresh.stats)
        assert merged.batches == 6 and merged.payloads == 20
        assert merged.gate_runs == {"stun_turn": 2, "rtcp": 2, "quic": 0}
        assert merged.gate_empty["stun_turn"] == 2
        assert set(fresh.stats.as_dict()) == {
            "batches", "payloads", "vector_errors", "gate_runs",
            "gate_empty",
        }


class TestEngineBackendParity:
    def test_backend_bit_identical(self, kept_records):
        scalar = DpiEngine()
        columnar = DpiEngine(backend="columnar")
        a = scalar.analyze_records(kept_records)
        b = columnar.analyze_records(kept_records)
        assert a.analyses == b.analyses
        # DpiStats — sweeps and matcher calls — must match exactly, not
        # just the verdicts.
        assert a.stats.as_dict() == b.stats.as_dict()
        assert columnar.columnar_stats.vector_errors == 0

    def test_streaming_session_parity(self, kept_records):
        scalar = DpiEngine()
        columnar = DpiEngine(backend="columnar")
        batch = scalar.analyze_records(kept_records)
        stage = DpiStage(columnar)
        stage.process_chunk(kept_records)
        assert batch.analyses == [analysis for analysis, _ in stage.flush()]
        assert batch.stats.as_dict() == stage.stats().as_dict()

    def test_backend_property_and_validation(self):
        assert DpiEngine().backend == "scalar"
        assert DpiEngine().columnar_stats is None
        engine = DpiEngine(backend="columnar")
        assert engine.backend == "columnar"
        assert engine.columnar_stats is not None
        with pytest.raises(ValueError):
            DpiEngine(backend="simd")


class TestCliBackendFlag:
    # Every command runs the production engine, so the retired engine
    # flags are unknown.  They are spelled upper-case and lowered here to
    # keep the retired names out of source searches.
    @pytest.mark.parametrize("command", [
        "run --app zoom", "matrix", "report", "dpi-stats",
        "pipeline-stats", "pcap x.pcap",
    ])
    @pytest.mark.parametrize("flag", [
        ["--DPI-BACKEND".lower(), "columnar"], ["--NO-FASTPATH".lower()],
    ], ids=["engine-backend", "fast-path-off"])
    def test_retired_engine_flags_rejected(self, command, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command.split() + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _reference_scores(times, rows):
    """``_validate_rtp_groups`` on candidates built from column rows."""
    per_datagram = [(SimpleNamespace(timestamp=t), []) for t in times]
    for i, ssrc, seq in rows:
        per_datagram[i][1].append(
            Candidate(Protocol.RTP, 0, 12, rtp_ssrc=ssrc, rtp_seq=seq)
        )
    return DpiEngine()._validate_rtp_groups(per_datagram)


def _column_scores(times, rows):
    index = np.array([i for i, _, _ in rows], dtype=np.int32)
    return _score_rtp_columns(
        np.array([ssrc for _, ssrc, _ in rows], dtype=np.uint32),
        np.array([seq for _, _, seq in rows], dtype=np.uint16),
        np.array(times, dtype=np.float64)[index],
    )


@st.composite
def _rtp_columns(draw):
    """Datagram timestamps plus ``(datagram, ssrc, seq)`` rows: SSRC runs
    with delta steps around 1, the 512 bound and the 2^16 wrap, tied
    timestamps and repeated rows, in arbitrary row order."""
    count = draw(st.integers(min_value=1, max_value=10))
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          min_size=count, max_size=count))
    datagram = st.integers(min_value=0, max_value=count - 1)
    rows = []
    for ssrc in draw(st.lists(st.sampled_from([0, 7, 0x1234, 0xFFFFFFFF]),
                              min_size=1, max_size=3, unique=True)):
        seq = draw(st.sampled_from([0, 1000, 0xFFFE, 0xFFFF]))
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            rows.append((draw(datagram), ssrc, seq))
            step = draw(st.sampled_from([0, 1, 1, 2, 511, 512, 513, 0x8000]))
            seq = (seq + step) & 0xFFFF
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return times, draw(st.permutations(rows))


class TestRtpScorer:
    """The array SSRC scorer returns exactly ``_validate_rtp_groups``'s
    scores: same groups, same float scores."""

    @given(columns=_rtp_columns())
    def test_matches_reference(self, columns):
        times, rows = columns
        assert _column_scores(times, rows) == _reference_scores(times, rows)

    @pytest.mark.parametrize("times, rows, expected", [
        # Equal timestamps: samples sort by sequence number.
        ([1.0], [(0, 9, 5), (0, 9, 3), (0, 9, 4)], {9: 3.0}),
        # Sequence wrap 0xFFFF -> 0 is a delta of 1.
        ([0.0, 1.0, 2.0], [(0, 9, 0xFFFE), (1, 9, 0xFFFF), (2, 9, 0)],
         {9: 3.0}),
        # A delta of exactly 512 is consecutive; 513 is not.
        ([0.0, 1.0, 2.0], [(0, 9, 0), (1, 9, 512), (2, 9, 1024)], {9: 3.0}),
        ([0.0, 1.0, 2.0], [(0, 9, 0), (1, 9, 513), (2, 9, 1026)], {}),
        # Exactly MIN_RTP_GROUP samples are scored; one fewer is not.
        ([0.0, 1.0, 2.0], [(0, 9, 1), (1, 9, 2), (2, 9, 3)], {9: 3.0}),
        ([0.0, 1.0], [(0, 9, 1), (1, 9, 2)], {}),
        # Continuity of exactly MIN_CONTINUITY passes.
        ([0.0, 1.0, 2.0], [(0, 9, 0), (1, 9, 1), (2, 9, 600)], {9: 1.5}),
        # Duplicate rows are samples too (a delta of 0 is a break).
        ([0.0, 1.0, 2.0], [(0, 9, 1), (0, 9, 1), (1, 9, 2), (2, 9, 3)],
         {9: 4 * (2 / 3)}),
    ], ids=["tied-times", "wrap", "delta-512", "delta-513", "min-group",
            "below-min-group", "half-continuity", "duplicates"])
    def test_edge_cases(self, times, rows, expected):
        assert MIN_RTP_GROUP == 3 and MIN_CONTINUITY == 0.5
        assert _reference_scores(times, rows) == expected
        assert _column_scores(times, rows) == expected


def _seam_stream():
    """300 datagrams of one flow: an RTP group whose sequence numbers wrap
    and whose rows straddle the 256-payload chunk boundary, with STUN and
    RTCP datagrams mixed in and a ``bytearray`` payload at the seam."""
    rng = random.Random(7)
    records = []
    for i in range(300):
        if i % 50 == 25:
            payload = StunMessage(
                msg_type=0x0001, transaction_id=bytes([i % 256]) * 12,
                attributes=[StunAttribute(0x8022, b"agent")],
            ).build()
        elif i % 50 == 40:
            # Behind a 4-byte header, so it needs the SSRC cross-check.
            payload = b"\x00\x01\x02\x03" + SenderReport(
                ssrc=0xABCD, ntp_timestamp=i, rtp_timestamp=160 * i,
                packet_count=i, octet_count=60 * i,
            ).to_packet().build()
        else:
            payload = RtpPacket(
                payload_type=96, sequence_number=(0xFF80 + i) & 0xFFFF,
                timestamp=160 * i, ssrc=0xABCD,
                payload=bytes(rng.randrange(256) for _ in range(60)),
            ).build()
        if i == 256:
            payload = bytearray(payload)
        records.append(PacketRecord(
            timestamp=1.0 + 0.02 * i, src_ip="10.0.0.1", src_port=50000,
            dst_ip="20.0.0.2", dst_port=3478, transport="UDP",
            payload=payload,
        ))
    return records


def _datagram_facts(result):
    return [
        (a.record.timestamp, a.classification,
         [(m.protocol, m.offset, m.length, m.trailer) for m in a.messages])
        for a in result.analyses
    ]


class TestChunkSeam:
    def test_group_across_chunks_with_fallback_payload(self):
        records = _seam_stream()
        reference = DpiEngine().analyze_records(records)
        engine = DpiEngine(backend="columnar")
        production = engine.analyze_records(records)
        assert _datagram_facts(production) == _datagram_facts(reference)
        assert production.stats.as_dict() == reference.stats.as_dict()
        # The RTP group really is accepted on both sides of the seam.
        accepted = {
            i for i, a in enumerate(production.analyses)
            if any(m.protocol is Protocol.RTP for m in a.messages)
        }
        assert {0, 255, 256, 257, 299} <= accepted
        stats = engine.columnar_stats
        assert (stats.batches, stats.payloads, stats.vector_errors) == (
            2, 300, 0
        )
        scanner = ColumnarScanner(200)
        payloads = [record.payload for record in records]
        assert type(payloads[256]) is bytearray
        for base in (0, 256):
            chunk = payloads[base:base + 256]
            assert scanner.scan_batch(chunk) == [
                scanner.scan_payload(bytes(p)) for p in chunk
            ]


class TestSilentFallbacksLogged:
    def test_numpy_failure_warns_once(self, caplog, monkeypatch):
        scanner = ColumnarScanner(200)

        def broken(batch):
            raise FloatingPointError("forced")

        monkeypatch.setattr(scanner, "_scan_np", broken)
        batch = [b"\x80" * 16] * 8
        with caplog.at_level(logging.WARNING, logger="repro.dpi"):
            results = scanner.scan_batch(batch)
        assert results == [scanner.scan_payload(p) for p in batch]
        assert scanner.stats.vector_errors == 1
        warnings = [r for r in caplog.records if r.name == "repro.dpi"]
        assert len(warnings) == 1
        assert "FloatingPointError" in warnings[0].getMessage()
        assert "8-payload batch" in warnings[0].getMessage()

    def test_repeats_are_rate_limited(self, caplog, monkeypatch):
        scanner = ColumnarScanner(200)

        def broken(batch):
            raise FloatingPointError("forced")

        monkeypatch.setattr(scanner, "_scan_np", broken)
        with caplog.at_level(logging.WARNING, logger="repro.dpi"):
            for _ in range(5):
                scanner.scan_batch([b"\x80" * 16, bytearray(16)])
        assert scanner.stats.vector_errors == 5
        warnings = [r for r in caplog.records if r.name == "repro.dpi"]
        # Logged at the 1st, 2nd and 4th failed batch.
        assert len(warnings) == 3
        assert "(4 batches so far)" in warnings[-1].getMessage()
