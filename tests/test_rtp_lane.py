"""The production engine's lone-RTP lane against the reference engine.

On the columnar backend a datagram with no non-RTP candidate and exactly
one RTP row whose SSRC passed stage two is parsed straight into its one
message, with no ``Candidate`` and no arbitration; every other datagram
takes the reference's validation and overlap resolution.  These tests
hold the lane to the reference ``DpiEngine()`` on synthetic streams that
mix both kinds, and pin by count, not by clock, that the lane is what
real calls take.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dpi.engine as engine_module
from repro.apps import NetworkCondition
from repro.dpi import DatagramClass, DpiEngine, Protocol
from repro.experiments.runner import ExperimentConfig, run_cell_pipeline
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.packets import SenderReport
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage

#: A small k, so prefixes land both inside and past the sweep window.
MAX_OFFSET = 48
_RTP_TWICE = (
    Protocol.STUN_TURN, Protocol.RTP, Protocol.RTCP, Protocol.RTP,
    Protocol.QUIC,
)

_KINDS = (
    "plain",          # one RTP packet at offset 0
    "prefixed",       # one RTP packet behind 1..k+4 proprietary bytes
    "empty_padded",   # padding bit set, no payload bytes: parse fails
    "dual",           # Zoom's two-RTP datagram (seq n, then n + 1)
    "rtcp_tail",      # RTP media, then an SR of the same SSRC
    "stun_then_rtp",  # a STUN message, then an RTP packet
    "channel_data",   # RTP inside a TURN ChannelData frame
    "weak",           # RTP of an SSRC whose sequence numbers jump
    "junk",           # arbitrary bytes
)


def _rtp(ssrc, seq, media, marker=False):
    return RtpPacket(
        payload_type=96, sequence_number=seq & 0xFFFF,
        timestamp=(seq * 160) & 0xFFFFFFFF, ssrc=ssrc, payload=media,
        marker=marker,
    ).build()


@st.composite
def _streams(draw):
    """One flow's payloads: a continuous SSRC group carried in every
    datagram shape above, beside a discontinuous one and noise."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=30))
    ssrc = draw(st.integers(0, 0xFFFFFFFF))
    weak_ssrc = draw(st.integers(0, 0xFFFFFFFF))
    seq = draw(st.integers(0, 0xFFFF))
    media = st.binary(max_size=24)
    payloads = []
    for kind in kinds:
        prefix = b""
        if kind in ("prefixed", "empty_padded", "dual") and draw(st.booleans()):
            prefix = draw(st.binary(min_size=1, max_size=MAX_OFFSET + 4))
        if kind in ("plain", "prefixed"):
            body = _rtp(ssrc, seq, draw(media), draw(st.booleans()))
            seq += 1
        elif kind == "empty_padded":
            body = bytes([0xA0, 96]) + (
                (seq & 0xFFFF).to_bytes(2, "big")
                + (seq * 160 & 0xFFFFFFFF).to_bytes(4, "big")
                + ssrc.to_bytes(4, "big")
            )
            seq += 1
        elif kind == "dual":
            body = _rtp(ssrc, seq, draw(media)) + _rtp(ssrc, seq + 1, draw(media))
            seq += 2
        elif kind == "rtcp_tail":
            body = _rtp(ssrc, seq, draw(media)) + SenderReport(
                ssrc=ssrc, ntp_timestamp=seq, rtp_timestamp=160 * seq,
                packet_count=seq, octet_count=60 * seq,
            ).to_packet().build()
            seq += 1
        elif kind == "stun_then_rtp":
            body = StunMessage(
                msg_type=0x0001, transaction_id=bytes([seq & 0xFF]) * 12,
                attributes=[StunAttribute(0x8022, b"agent")],
            ).build() + _rtp(ssrc, seq, draw(media))
            seq += 1
        elif kind == "channel_data":
            inner = _rtp(ssrc, seq, draw(media))
            body = b"\x40\x00" + len(inner).to_bytes(2, "big") + inner
            seq += 1
        elif kind == "weak":
            body = _rtp(weak_ssrc, draw(st.integers(0, 0xFFFF)), draw(media))
        else:
            body = draw(st.binary(max_size=80))
        payloads.append(prefix + body)
    return payloads


def _records(payloads):
    return [
        PacketRecord(
            timestamp=1.0 + 0.02 * i, src_ip="10.0.0.1", src_port=50000,
            dst_ip="20.0.0.2", dst_port=3478, transport="UDP",
            payload=payload,
        )
        for i, payload in enumerate(payloads)
    ]


def _facts(result):
    """Each datagram's class and messages, parsed message included."""
    return [
        (
            analysis.classification,
            [
                (m.protocol, m.offset, m.length, m.trailer, m.message)
                for m in analysis.messages
            ],
        )
        for analysis in result.analyses
    ]


@settings(max_examples=150)
@given(
    payloads=_streams(),
    protocols=st.sampled_from([tuple(Protocol), _RTP_TWICE]),
)
def test_lane_matches_reference(payloads, protocols):
    records = _records(payloads)
    reference = DpiEngine(MAX_OFFSET, protocols).analyze_records(records)
    production = DpiEngine(
        MAX_OFFSET, protocols, backend="columnar"
    ).analyze_records(records)
    assert _facts(production) == _facts(reference)
    assert production.stats.as_dict() == reference.stats.as_dict()


class _Counts:
    """RTP ``Candidate``s built from rows and RTP ``_materialize`` calls."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.materialized = 0
        build = engine_module.build_rtp_candidates
        materialize = DpiEngine._materialize

        def counting_build(rows):
            out = build(rows)
            self.built += sum(len(found) for found in out.values())
            return out

        def counting_materialize(engine, candidate, record):
            if candidate.protocol is Protocol.RTP:
                self.materialized += 1
            return materialize(engine, candidate, record)

        monkeypatch.setattr(
            engine_module, "build_rtp_candidates", counting_build
        )
        monkeypatch.setattr(DpiEngine, "_materialize", counting_materialize)


def test_lane_shapes(monkeypatch):
    """Which datagrams take the lane: lone rows at offset 0 and behind a
    header do, and so does an unparsable one (it stays fully
    proprietary); a dual-RTP datagram and RTP beside STUN do not."""
    ssrc = 0x5EED
    payloads = [_rtp(ssrc, seq, b"media") for seq in range(3)]
    payloads.append(b"\x07" * 5 + _rtp(ssrc, 3, b"media"))
    payloads.append(bytes([0xA0, 96]) + (4).to_bytes(2, "big")
                    + bytes(4) + ssrc.to_bytes(4, "big"))
    payloads.append(_rtp(ssrc, 5, b"ab") + _rtp(ssrc, 6, b"cd"))
    stun = StunMessage(msg_type=0x0001, transaction_id=bytes(12)).build()
    payloads.append(stun + _rtp(ssrc, 7, b"media"))
    records = _records(payloads)
    reference = DpiEngine(MAX_OFFSET).analyze_records(records)
    counts = _Counts(monkeypatch)
    production = DpiEngine(MAX_OFFSET, backend="columnar").analyze_records(
        records
    )
    assert _facts(production) == _facts(reference)
    classes = [a.classification for a in production.analyses]
    assert classes == [
        DatagramClass.STANDARD, DatagramClass.STANDARD,
        DatagramClass.STANDARD, DatagramClass.PROPRIETARY_HEADER,
        DatagramClass.FULLY_PROPRIETARY, DatagramClass.STANDARD,
        DatagramClass.STANDARD,
    ]
    # Only the dual-RTP datagram (two rows) and the STUN one (one row)
    # get Candidates; both of the dual's messages are materialized.
    assert (counts.built, counts.materialized) == (3, 3)


#: Per cell (8 s, media scale 0.3, seed 1): RTP ``Candidate``s built from
#: rows, and RTP ``_materialize`` calls.  Without the lane every passing
#: RTP row got a ``Candidate`` (wifi_relay 721, wifi_p2p 706) and every
#: accepted one a ``_materialize`` call (696, 698).  Now only datagrams
#: with a second candidate pay for them: RTCP compounds behind Zoom's
#: header, STUN, and wifi_p2p's two dual-RTP datagrams.
LANE_COUNTS = {
    NetworkCondition.WIFI_RELAY: (35, 10),
    NetworkCondition.WIFI_P2P: (13, 5),
}


@pytest.mark.parametrize(
    "network", list(LANE_COUNTS), ids=lambda network: network.value
)
def test_lone_rows_take_the_lane(network, monkeypatch):
    counts = _Counts(monkeypatch)
    run = run_cell_pipeline(
        "zoom", network,
        ExperimentConfig(call_duration=8.0, media_scale=0.3, seed=1),
    )
    rtp = sum(
        m.protocol is Protocol.RTP
        for analysis in run.dpi.analyses for m in analysis.messages
    )
    assert rtp > 500
    assert (counts.built, counts.materialized) == LANE_COUNTS[network]
