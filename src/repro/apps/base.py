"""Shared infrastructure for application call simulators.

A simulator produces a :class:`Trace`: every packet the capture device would
record during one experiment — pre-call app startup, the 5-minute (scaled)
call, post-call tail, plus background noise.  All packets carry ground-truth
labels so filter precision/recall can be measured, which the paper could not
do for closed-source applications.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.netem import build_impairer, get_profile
from repro.packets.packet import Direction, PacketRecord, TrafficCategory, Truth
from repro.protocols.rtp.extensions import HeaderExtension
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.rtcp.packets import (
    ReceiverReport,
    ReportBlock,
    RtcpPacket,
    SdesChunk,
    SdesItem,
    SdesPacket,
    SenderReport,
)
from repro.streams.timeline import CallWindow
from repro.utils.rand import DeterministicRandom, derive


class NetworkCondition(enum.Enum):
    """The three network configurations of the experiment matrix (§3.1.1)."""

    WIFI_P2P = "wifi_p2p"
    WIFI_RELAY = "wifi_relay"
    CELLULAR = "cellular"


class TransmissionMode(enum.Enum):
    P2P = "p2p"
    RELAY = "relay"


@dataclass(frozen=True)
class CallConfig:
    """Parameters of one simulated call experiment.

    ``participants`` extends the paper's 1-on-1 scope (its declared future
    work): SFU-based applications (Zoom, Google Meet, Discord) fan in one
    additional inbound audio+video stream pair per extra participant.  The
    P2P-oriented simulators reject group configurations explicitly.

    ``impairment`` names a :mod:`repro.netem` profile applied to the
    record stream post-synthesis (loss, reordering, duplication, NAT
    rebinding, UDP blackout).  ``"none"`` — the default — keeps the
    historical clean-path behavior exactly.
    """

    network: NetworkCondition
    seed: int = 0
    call_index: int = 0
    call_duration: float = 30.0   # paper: 300 s; scaled down for laptop runs
    media_scale: float = 1.0      # multiplier on media packet rates
    include_background: bool = True
    participants: int = 2
    impairment: str = "none"

    def __post_init__(self) -> None:
        if self.participants < 2:
            raise ValueError("a call needs at least 2 participants")
        # Outside input (daemon specs, CLI flags) reaches these: a
        # non-positive scale makes synthesis loop forever or divide by
        # zero, and an infinite duration opens an endless call window.
        # NaN fails every comparison, hence the positive test.
        for name in ("call_duration", "media_scale"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        # Fail at configuration time, not mid-simulation.
        get_profile(self.impairment)

    @property
    def extra_participants(self) -> int:
        return self.participants - 2

    def window(self) -> CallWindow:
        pre = min(60.0, max(10.0, self.call_duration / 3))
        post = pre
        return CallWindow(
            capture_start=0.0,
            call_start=pre,
            call_end=pre + self.call_duration,
            capture_end=pre + self.call_duration + post,
        )


@dataclass
class Trace:
    """The output of one simulated experiment."""

    app: str
    config: CallConfig
    window: CallWindow
    records: List[PacketRecord] = field(default_factory=list)
    mode_timeline: List[Tuple[float, TransmissionMode]] = field(default_factory=list)

    def sort(self) -> None:
        self.records.sort(key=lambda r: r.timestamp)

    @property
    def udp_records(self) -> List[PacketRecord]:
        return [r for r in self.records if r.transport == "UDP"]


@dataclass
class Endpoint:
    ip: str
    port: int


#: Device/infrastructure addressing shared by all simulators.
DEVICE_WIFI_IP = "192.168.1.23"
PEER_WIFI_IP = "192.168.1.57"
DEVICE_CELL_IP = "10.120.14.5"      # carrier CGNAT address
PEER_CELL_PUBLIC_IP = "172.58.96.41"
ROUTER_IP = "192.168.1.1"
DEVICE_LINK_LOCAL = "fe80::1c2d:3e4f:5a6b:7c8d"


class RtpStreamState:
    """Sequence/timestamp bookkeeping for one outgoing RTP stream."""

    def __init__(
        self,
        ssrc: int,
        payload_type: int,
        clock_rate: int,
        rng: DeterministicRandom,
        start_seq: Optional[int] = None,
        start_ts: Optional[int] = None,
    ):
        self.ssrc = ssrc
        self.payload_type = payload_type
        self.clock_rate = clock_rate
        self.seq = start_seq if start_seq is not None else rng.u16()
        self.rtp_ts = start_ts if start_ts is not None else rng.u32()
        self.packet_count = 0
        self.octet_count = 0

    def next_packet(
        self,
        payload: bytes,
        ts_increment: int,
        marker: bool = False,
        extension: Optional[HeaderExtension] = None,
        payload_type: Optional[int] = None,
    ) -> RtpPacket:
        packet = RtpPacket(
            payload_type=self.payload_type if payload_type is None else payload_type,
            sequence_number=self.seq,
            timestamp=self.rtp_ts,
            ssrc=self.ssrc,
            payload=payload,
            marker=marker,
            extension=extension,
        )
        self.seq = (self.seq + 1) & 0xFFFF
        self.rtp_ts = (self.rtp_ts + ts_increment) & 0xFFFFFFFF
        self.packet_count += 1
        self.octet_count += len(payload)
        return packet


class AppSimulator(abc.ABC):
    """Base class for per-application call simulators."""

    #: Application name, e.g. ``"zoom"``; set by subclasses.
    name: str = ""

    @abc.abstractmethod
    def simulate(self, config: CallConfig) -> Trace:
        """Produce the full experiment trace for *config*."""

    def iter_records(self, config: CallConfig) -> Iterator[PacketRecord]:
        """Yield the trace's records in capture order, one at a time.

        This is the streaming pipeline's source stage.  The default
        materializes the trace and yields from it — simulators build
        their schedules whole-call anyway — but downstream stages only
        ever see one record at a time, so a subclass backed by a live
        capture can override this without touching the rest of the
        pipeline.

        ``config.impairment`` is applied *here*, between synthesis and
        the pipeline: per-app ``simulate`` stays clean-path, and every
        consumer — batch, streaming, service session — sees the
        same impaired sequence because they all source from this method.
        """
        records = self.simulate(config).records
        impairer = build_impairer(
            config.impairment,
            config.seed,
            f"{self.name}/{config.network.value}/{config.call_index}",
        )
        if impairer is not None:
            records = impairer.apply(records)
        yield from records

    # -- common helpers ------------------------------------------------------

    def rng_for(self, config: CallConfig, label: str) -> DeterministicRandom:
        return derive(config.seed, f"{self.name}/{config.network.value}/{config.call_index}/{label}")

    def device_ip(self, config: CallConfig) -> str:
        if config.network is NetworkCondition.CELLULAR:
            return DEVICE_CELL_IP
        return DEVICE_WIFI_IP

    def peer_device_ip(self, config: CallConfig) -> str:
        if config.network is NetworkCondition.CELLULAR:
            return PEER_CELL_PUBLIC_IP
        return PEER_WIFI_IP

    def truth(self, category: TrafficCategory, detail: str = "") -> Truth:
        return Truth(category=category, app=self.name, detail=detail)

    def media_truth(self, detail: str = "") -> Truth:
        return self.truth(TrafficCategory.RTC_MEDIA, detail)

    def control_truth(self, detail: str = "") -> Truth:
        return self.truth(TrafficCategory.RTC_CONTROL, detail)

    def packet(
        self,
        timestamp: float,
        device: Endpoint,
        remote: Endpoint,
        payload: bytes,
        direction: Direction,
        truth: Truth,
        transport: str = "UDP",
    ) -> PacketRecord:
        """Build a record from the capture device's vantage point."""
        if direction is Direction.OUTBOUND:
            src, dst = device, remote
        else:
            src, dst = remote, device
        return PacketRecord(
            timestamp=timestamp,
            src_ip=src.ip,
            src_port=src.port,
            dst_ip=dst.ip,
            dst_port=dst.port,
            transport=transport,
            payload=payload,
            direction=direction,
            truth=truth,
        )

    def make_sender_report(
        self,
        state: RtpStreamState,
        remote_ssrc: int,
        rng: DeterministicRandom,
        wall_time: float,
    ) -> RtcpPacket:
        """A plausible SR reflecting the stream's counters."""
        ntp = int((wall_time + 2208988800.0) * (1 << 32)) & 0xFFFFFFFFFFFFFFFF
        block = ReportBlock(
            ssrc=remote_ssrc,
            fraction_lost=rng.randint(0, 5),
            cumulative_lost=rng.randint(0, 50),
            highest_seq=state.seq,
            jitter=rng.randint(0, 400),
            lsr=rng.u32() & 0xFFFF0000,
            dlsr=rng.randint(0, 65536),
        )
        return SenderReport(
            ssrc=state.ssrc,
            ntp_timestamp=ntp,
            rtp_timestamp=state.rtp_ts,
            packet_count=state.packet_count,
            octet_count=state.octet_count,
            report_blocks=[block],
        ).to_packet()

    def make_receiver_report(
        self, ssrc: int, remote_ssrc: int, rng: DeterministicRandom
    ) -> RtcpPacket:
        block = ReportBlock(
            ssrc=remote_ssrc,
            fraction_lost=rng.randint(0, 5),
            cumulative_lost=rng.randint(0, 50),
            highest_seq=rng.u16(),
            jitter=rng.randint(0, 400),
            lsr=rng.u32() & 0xFFFF0000,
            dlsr=rng.randint(0, 65536),
        )
        return ReceiverReport(ssrc=ssrc, report_blocks=[block]).to_packet()

    def make_sdes(self, ssrc: int, cname: str) -> RtcpPacket:
        return SdesPacket(
            chunks=[SdesChunk(ssrc=ssrc, items=[SdesItem(1, cname.encode("ascii"))])]
        ).to_packet()
