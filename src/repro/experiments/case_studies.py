"""Detectors for the paper's per-application case studies (§5.2, §5.3).

Each detector takes pipeline outputs (traces, DPI results, verdicts) and
returns a small result object quantifying one documented behaviour.  The
case-study benchmark asserts the paper's qualitative claims against them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.dpi.messages import DatagramAnalysis, ExtractedMessage, Protocol
from repro.protocols.rtcp.packets import RtcpPacket
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.message import StunMessage

FACETIME_BEACON_PREFIX = bytes.fromhex("DEADBEEFCAFE")


# --- Zoom ---------------------------------------------------------------------

@dataclass
class FillerReport:
    """Zoom's 1000-identical-byte bandwidth-probe datagrams."""

    filler_count: int
    fully_proprietary_count: int
    peak_rate_pps: float
    shares_media_stream: bool

    @property
    def filler_share(self) -> float:
        if not self.fully_proprietary_count:
            return 0.0
        return self.filler_count / self.fully_proprietary_count


def detect_zoom_filler(analyses: Sequence[DatagramAnalysis]) -> FillerReport:
    filler_times: List[float] = []
    filler_streams = set()
    media_streams = set()
    fully = 0
    for analysis in analyses:
        if analysis.messages:
            if any(m.protocol in (Protocol.RTP, Protocol.RTCP) for m in analysis.messages):
                media_streams.add(analysis.record.flow_key)
            continue
        fully += 1
        payload = analysis.record.payload
        if len(payload) == 1000 and len(set(payload)) == 1:
            filler_times.append(analysis.record.timestamp)
            filler_streams.add(analysis.record.flow_key)
    peak = 0.0
    if filler_times:
        filler_times.sort()
        # Peak 1-second-window rate.
        left = 0
        for right, t in enumerate(filler_times):
            while filler_times[left] < t - 1.0:
                left += 1
            peak = max(peak, float(right - left + 1))
    return FillerReport(
        filler_count=len(filler_times),
        fully_proprietary_count=fully,
        peak_rate_pps=peak,
        shares_media_stream=bool(filler_streams & media_streams),
    )


@dataclass
class DualRtpReport:
    """Zoom datagrams carrying two RTP messages (§5.3)."""

    dual_datagrams: int
    rtp_datagrams: int
    all_first_short: bool
    all_same_ssrc_timestamp: bool

    @property
    def rate(self) -> float:
        return self.dual_datagrams / self.rtp_datagrams if self.rtp_datagrams else 0.0


def detect_dual_rtp(analyses: Sequence[DatagramAnalysis]) -> DualRtpReport:
    dual = 0
    rtp_datagrams = 0
    first_short = True
    same_identity = True
    for analysis in analyses:
        rtp_messages = [m for m in analysis.messages if m.protocol is Protocol.RTP]
        if not rtp_messages:
            continue
        rtp_datagrams += 1
        if len(rtp_messages) < 2:
            continue
        dual += 1
        first, second = rtp_messages[0].message, rtp_messages[1].message
        if len(first.payload) > 16:
            first_short = False
        if first.ssrc != second.ssrc or first.timestamp != second.timestamp:
            same_identity = False
    return DualRtpReport(
        dual_datagrams=dual,
        rtp_datagrams=rtp_datagrams,
        all_first_short=first_short and dual > 0,
        all_same_ssrc_timestamp=same_identity and dual > 0,
    )


def observed_rtp_ssrcs(messages: Sequence[ExtractedMessage]) -> FrozenSet[int]:
    """Distinct RTP SSRCs — for the fixed-SSRC-across-calls case study."""
    return frozenset(
        m.message.ssrc for m in messages if m.protocol is Protocol.RTP
    )


# --- Discord -------------------------------------------------------------------

@dataclass
class SsrcZeroReport:
    zero_ssrc: int
    total_205: int

    @property
    def rate(self) -> float:
        return self.zero_ssrc / self.total_205 if self.total_205 else 0.0


def detect_ssrc_zero(messages: Sequence[ExtractedMessage]) -> SsrcZeroReport:
    zero = total = 0
    for extracted in messages:
        if extracted.protocol is not Protocol.RTCP:
            continue
        packet: RtcpPacket = extracted.message
        if packet.packet_type != 205:
            continue
        total += 1
        if packet.ssrc == 0:
            zero += 1
    return SsrcZeroReport(zero_ssrc=zero, total_205=total)


@dataclass
class ExtensionAbuseReport:
    """Discord's RFC 8285 deviations (§5.2.2)."""

    id_zero_messages: int
    undefined_profile_messages: int
    undefined_profile_payload_types: FrozenSet[int]
    rtp_messages: int

    @property
    def id_zero_rate(self) -> float:
        return self.id_zero_messages / self.rtp_messages if self.rtp_messages else 0.0

    @property
    def undefined_profile_rate(self) -> float:
        return (
            self.undefined_profile_messages / self.rtp_messages
            if self.rtp_messages
            else 0.0
        )


def detect_extension_abuse(messages: Sequence[ExtractedMessage]) -> ExtensionAbuseReport:
    id_zero = undefined = rtp_total = 0
    undefined_pts = set()
    for extracted in messages:
        if extracted.protocol is not Protocol.RTP:
            continue
        rtp_total += 1
        packet: RtpPacket = extracted.message
        extension = packet.extension
        if extension is None:
            continue
        if extension.is_one_byte:
            if any(
                e.ext_id == 0 and e.declared_length > 0 for e in extension.elements()
            ):
                id_zero += 1
        elif not extension.is_two_byte:
            undefined += 1
            undefined_pts.add(packet.payload_type)
    return ExtensionAbuseReport(
        id_zero_messages=id_zero,
        undefined_profile_messages=undefined,
        undefined_profile_payload_types=frozenset(undefined_pts),
        rtp_messages=rtp_total,
    )


@dataclass
class DirectionByteReport:
    """Discord's per-direction RTCP trailer byte (§5.2.3)."""

    outbound_values: FrozenSet[int]
    inbound_values: FrozenSet[int]
    trailered_messages: int

    @property
    def perfectly_correlated(self) -> bool:
        return (
            self.trailered_messages > 0
            and self.outbound_values == frozenset({0x80})
            and self.inbound_values == frozenset({0x00})
        )


def detect_direction_byte(messages: Sequence[ExtractedMessage]) -> DirectionByteReport:
    from repro.packets.packet import Direction

    outbound = set()
    inbound = set()
    count = 0
    for extracted in messages:
        if extracted.protocol is not Protocol.RTCP or len(extracted.trailer) != 3:
            continue
        count += 1
        last = extracted.trailer[-1]
        if extracted.direction is Direction.OUTBOUND:
            outbound.add(last)
        else:
            inbound.add(last)
    return DirectionByteReport(
        outbound_values=frozenset(outbound),
        inbound_values=frozenset(inbound),
        trailered_messages=count,
    )


# --- FaceTime ------------------------------------------------------------------

@dataclass
class BeaconReport:
    """FaceTime's fully proprietary 36-byte cellular beacons (§5.3)."""

    beacon_count: int
    total_datagrams: int
    all_36_bytes: bool
    counters_monotonic: bool
    median_interval: float

    @property
    def share(self) -> float:
        return self.beacon_count / self.total_datagrams if self.total_datagrams else 0.0


def detect_facetime_beacons(analyses: Sequence[DatagramAnalysis]) -> BeaconReport:
    beacons: List[Tuple[float, bytes]] = []
    for analysis in analyses:
        payload = analysis.record.payload
        if payload.startswith(FACETIME_BEACON_PREFIX):
            beacons.append((analysis.record.timestamp, payload))
    all_36 = all(len(p) == 36 for _, p in beacons)
    monotonic = True
    by_dir: Dict[tuple, List[Tuple[float, bytes]]] = defaultdict(list)
    for analysis in analyses:
        payload = analysis.record.payload
        if payload.startswith(FACETIME_BEACON_PREFIX):
            by_dir[(analysis.record.src_ip, analysis.record.src_port)].append(
                (analysis.record.timestamp, payload)
            )
    intervals: List[float] = []
    for samples in by_dir.values():
        samples.sort()
        prev_a = prev_b = None
        for i, (t, payload) in enumerate(samples):
            if len(payload) != 36:
                continue
            counter_a = int.from_bytes(payload[28:32], "big")
            counter_b = int.from_bytes(payload[32:36], "big")
            if prev_a is not None and (counter_a <= prev_a or counter_b <= prev_b):
                monotonic = False
            prev_a, prev_b = counter_a, counter_b
            if i:
                intervals.append(t - samples[i - 1][0])
    intervals.sort()
    median = intervals[len(intervals) // 2] if intervals else 0.0
    return BeaconReport(
        beacon_count=len(beacons),
        total_datagrams=len(analyses),
        all_36_bytes=all_36 and bool(beacons),
        counters_monotonic=monotonic and bool(beacons),
        median_interval=median,
    )


@dataclass
class ProprietaryHeaderReport:
    """Share of datagrams with a proprietary header, and the header profile."""

    headered: int
    total: int
    all_start_0x6000: bool
    length_range: Tuple[int, int]

    @property
    def share(self) -> float:
        return self.headered / self.total if self.total else 0.0


def detect_facetime_headers(analyses: Sequence[DatagramAnalysis]) -> ProprietaryHeaderReport:
    headered = 0
    starts_ok = True
    lengths: List[int] = []
    for analysis in analyses:
        header = analysis.proprietary_header
        if not header:
            continue
        headered += 1
        lengths.append(len(header))
        if not header.startswith(b"\x60\x00"):
            starts_ok = False
    return ProprietaryHeaderReport(
        headered=headered,
        total=len(analyses),
        all_start_0x6000=starts_ok and headered > 0,
        length_range=(min(lengths), max(lengths)) if lengths else (0, 0),
    )


# --- WhatsApp / Messenger --------------------------------------------------------

@dataclass
class BurstReport:
    """The 0x0801/0x0802 pre-join burst (§5.2.1)."""

    pairs: int
    burst_span: float
    request_sizes: FrozenSet[int]
    response_sizes: FrozenSet[int]
    txids_paired: bool


def detect_meta_burst(messages: Sequence[ExtractedMessage]) -> BurstReport:
    requests: Dict[bytes, ExtractedMessage] = {}
    responses: Dict[bytes, ExtractedMessage] = {}
    for extracted in messages:
        if extracted.protocol is not Protocol.STUN_TURN:
            continue
        message = extracted.message
        if not isinstance(message, StunMessage):
            continue
        if message.msg_type == 0x0801:
            requests[message.transaction_id] = extracted
        elif message.msg_type == 0x0802:
            responses[message.transaction_id] = extracted
    paired = set(requests) & set(responses)
    times = [requests[txid].timestamp for txid in paired]
    span = (max(times) - min(times)) if len(times) > 1 else 0.0
    return BurstReport(
        pairs=len(paired),
        burst_span=span,
        request_sizes=frozenset(len(requests[t].raw) for t in paired),
        response_sizes=frozenset(len(responses[t].raw) for t in paired),
        txids_paired=bool(paired) and set(requests) == set(responses),
    )


@dataclass
class CallEndReport:
    """Undefined 0x0800 messages at call termination (§5.2.1)."""

    count: int
    near_call_end: bool
    carry_relayed_address: bool


def detect_call_end_0800(
    messages: Sequence[ExtractedMessage], call_end: float, slack: float = 5.0
) -> CallEndReport:
    from repro.protocols.stun.constants import AttributeType

    found = [
        m
        for m in messages
        if m.protocol is Protocol.STUN_TURN
        and isinstance(m.message, StunMessage)
        and m.message.msg_type == 0x0800
    ]
    near_end = all(call_end - slack <= m.timestamp <= call_end + slack for m in found)
    with_relay = all(
        m.message.attribute(int(AttributeType.XOR_RELAYED_ADDRESS)) is not None
        for m in found
    )
    return CallEndReport(
        count=len(found),
        near_call_end=near_end and bool(found),
        carry_relayed_address=with_relay and bool(found),
    )


# --- Google Meet -----------------------------------------------------------------

@dataclass
class SrtcpTagReport:
    """SRTCP authentication-tag presence (§5.2.3)."""

    tagged: int
    tagless: int

    @property
    def tagless_share(self) -> float:
        total = self.tagged + self.tagless
        return self.tagless / total if total else 0.0


def detect_srtcp_tags(messages: Sequence[ExtractedMessage]) -> SrtcpTagReport:
    from repro.core.rtcp_rules import classify_trailer

    tagged = tagless = 0
    for extracted in messages:
        if extracted.protocol is not Protocol.RTCP:
            continue
        kind = classify_trailer(extracted.trailer)
        if kind == "srtcp":
            tagged += 1
        elif kind == "srtcp-no-tag":
            tagless += 1
    return SrtcpTagReport(tagged=tagged, tagless=tagless)
