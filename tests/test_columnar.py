"""Columnar batch DPI backend: bit-exact parity with the scalar sweep.

The columnar scanner is the production stage one, and its whole contract
is that its candidate lists are bit-identical to the scalar matchers for
every payload — golden traffic, adversarial edge cases, any batch size
or split — with the numpy kernel serving every batch.  These tests pin that
contract, plus engine-level parity with the reference (verdicts *and*
DpiStats) and the retirement of the old backend CLI flags.
"""

import logging
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import ColumnarScanner, DpiEngine
from repro.dpi.candidates import (
    Candidate,
    quic_candidates,
    rtcp_candidates,
    stun_candidates,
)
from repro.dpi.engine import MIN_CONTINUITY, MIN_RTP_GROUP, _score_rtp_columns
from repro.dpi.messages import Protocol
from repro.filtering import TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.packets import SenderReport
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage

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
    bound.  One matcher per scanner, so no other protocol's candidates
    can mask a wrongly closed gate."""

    MATCHERS = [
        (Protocol.STUN_TURN, stun_candidates),
        (Protocol.RTCP, rtcp_candidates),
        (Protocol.QUIC, quic_candidates),
    ]

    @given(payload=_payloads, max_offset=st.integers(min_value=0, max_value=240))
    def test_closed_gate_means_no_candidates(self, payload, max_offset):
        for protocol, matcher in self.MATCHERS:
            scanner = ColumnarScanner(max_offset, protocols=(protocol,))
            [got] = scanner.scan_batch([payload])
            assert got == sorted(
                matcher(payload, max_offset),
                key=lambda c: (c.offset, -c.length),
            ), protocol
            assert scanner.stats.vector_errors == 0


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
        for batch in [edges] + small:
            for got, payload in zip(scanner.scan_batch(batch), batch):
                assert got == scanner.scan_payload(payload)
        assert scanner.stats.batches == before + 1 + len(small)
        assert scanner.stats.vector_errors == 0

    def test_seam_artifacts_filtered(self, scanner):
        # The joined buffer contains a cookie and a QUIC anchor straddling
        # the seam between the two payloads; neither may produce a flag.
        left = b"\x00" * 8 + b"\x21\x12"
        right = b"\xa4\x42" + b"\x00" * 8
        results = scanner.scan_batch([left, right])
        assert results[0] == scanner.scan_payload(left)
        assert results[1] == scanner.scan_payload(right)

    def test_non_bytes_payload_falls_back(self, scanner):
        before = scanner.stats.fallbacks
        results = scanner.scan_batch([b"\x80" * 16, memoryview(b"\x80" * 16)])
        assert results[0] == scanner.scan_payload(b"\x80" * 16)
        assert results[1] is None
        assert scanner.stats.fallbacks == before + 1
        assert scanner.stats.fallback_rate > 0.0

    def test_protocol_subset_and_order(self):
        # A scanner restricted to a protocol subset (and a non-default
        # order) must still match its own scalar oracle.
        payload = b"\x00\x01\x00\x00\x21\x12\xa4\x42" + b"\x00" * 12
        for protocols in (
            (Protocol.RTP,),
            (Protocol.QUIC, Protocol.RTP),
            (Protocol.RTCP, Protocol.STUN_TURN),
        ):
            scanner = ColumnarScanner(200, protocols=protocols)
            batch = [payload, b"\x80" * 40, b"", b"\xc8\x00\x00\x01"]
            for got, p in zip(scanner.scan_batch(batch), batch):
                assert got == scanner.scan_payload(p)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ColumnarScanner(-1)
        with pytest.raises(ValueError):
            ColumnarScanner(200, batch_size=0)

    def test_stats_counters(self):
        fresh = ColumnarScanner(200)
        fresh.scan_batch([b"\x80" * 16] * 8)
        fresh.scan_batch([])
        assert fresh.stats.batches == 2
        assert fresh.stats.payloads == 8
        assert fresh.stats.fallbacks == 0
        merged = ColumnarScanner(200).stats
        merged.merge(fresh.stats)
        assert merged.batches == 2 and merged.payloads == 8
        assert set(fresh.stats.as_dict()) == {
            "batches", "payloads", "fallbacks", "vector_errors",
            "fallback_rate",
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
        assert columnar.columnar_stats.fallbacks == 0

    def test_streaming_session_parity(self, kept_records):
        scalar = DpiEngine()
        columnar = DpiEngine(backend="columnar")
        batch = scalar.analyze_records(kept_records)
        session = columnar.stream_session()
        session.feed_many(kept_records)
        streamed = session.result()
        assert batch.analyses == streamed.analyses
        assert batch.stats.as_dict() == streamed.stats.as_dict()

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
        assert (stats.batches, stats.payloads, stats.fallbacks) == (2, 300, 1)
        scanner = ColumnarScanner(200)
        payloads = [record.payload for record in records]
        for base in (0, 256):
            chunk = payloads[base:base + 256]
            assert scanner.scan_batch(chunk) == [
                scanner.scan_payload(p) if type(p) is bytes else None
                for p in chunk
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

    def test_repeats_are_rate_limited(self, caplog):
        scanner = ColumnarScanner(200)
        with caplog.at_level(logging.WARNING, logger="repro.dpi"):
            for _ in range(5):
                scanner.scan_batch([b"\x80" * 16, bytearray(16)])
        assert scanner.stats.fallbacks == 5
        warnings = [r for r in caplog.records if r.name == "repro.dpi"]
        # Logged at the 1st, 2nd and 4th refusal.
        assert len(warnings) == 3
        assert "bytearray" in warnings[0].getMessage()
