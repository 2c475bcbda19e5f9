"""Background (unrelated) traffic generators.

Reproduces the noise classes the paper's two-stage filter removes (§3.2):
OS push services with NAT rebinding, TLS flows to tracker/app-store domains,
LAN management chatter, and well-known-port services.  Every record carries
``Truth(BACKGROUND)`` so filter precision/recall is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps.base import (
    DEVICE_LINK_LOCAL,
    ROUTER_IP,
    CallConfig,
    NetworkCondition,
)
from repro.packets.packet import Direction, PacketRecord, TrafficCategory, Truth
from repro.protocols.tls.client_hello import build_client_hello
from repro.streams.timeline import CallWindow
from repro.utils.rand import DeterministicRandom

#: Domains the paper's 7.5-hour idle capture would put on the blocklist.
DEFAULT_SNI_BLOCKLIST = frozenset(
    {
        "oauth2.googleapis.com",
        "web.facebook.com",
        "itunes.apple.com",
        "init.push.apple.com",
        "app-measurement.com",
        "graph.instagram.com",
        "mobile.events.data.microsoft.com",
        "ssl.google-analytics.com",
        "api-adservices.apple.com",
        "gsp-ssl.ls.apple.com",
    }
)

_APNS_IP = "17.57.146.20"
_DNS_SERVER = "192.168.1.1"
_TRACKER_IPS = {
    "oauth2.googleapis.com": "142.250.65.74",
    "itunes.apple.com": "17.253.25.205",
    "app-measurement.com": "142.250.65.78",
    "ssl.google-analytics.com": "142.250.65.72",
    "init.push.apple.com": "17.57.146.84",
}


def _truth(detail: str) -> Truth:
    return Truth(category=TrafficCategory.BACKGROUND, app="os", detail=detail)


@dataclass
class BackgroundNoiseGenerator:
    """Synthesizes the unrelated traffic mixed into every experiment trace."""

    config: CallConfig
    device_ip: str
    rng: DeterministicRandom

    def generate(self, window: CallWindow) -> List[PacketRecord]:
        records: List[PacketRecord] = []
        records.extend(self._dns_chatter(window))
        records.extend(self._apns_persistent(window))
        records.extend(self._tracker_tls(window))
        records.extend(self._intra_call_tls(window))
        if self.config.network is not NetworkCondition.CELLULAR:
            records.extend(self._lan_services(window))
        records.extend(self._ntp(window))
        return records

    # -- stage-1 fodder: streams that straddle the call window ---------------

    def _dns_chatter(self, window: CallWindow) -> List[PacketRecord]:
        """Short DNS lookups sprinkled over the whole capture (port filter)."""
        records = []
        t = window.capture_start + self.rng.uniform(0.5, 3.0)
        while t < window.capture_end:
            sport = self.rng.randint(49152, 65535)
            query = self.rng.rand_bytes(self.rng.randint(30, 60))
            records.append(
                PacketRecord(
                    timestamp=t,
                    src_ip=self.device_ip,
                    src_port=sport,
                    dst_ip=_DNS_SERVER,
                    dst_port=53,
                    transport="UDP",
                    payload=query,
                    direction=Direction.OUTBOUND,
                    truth=_truth("dns"),
                )
            )
            records.append(
                PacketRecord(
                    timestamp=t + 0.02,
                    src_ip=_DNS_SERVER,
                    src_port=53,
                    dst_ip=self.device_ip,
                    dst_port=sport,
                    transport="UDP",
                    payload=self.rng.rand_bytes(self.rng.randint(60, 180)),
                    direction=Direction.INBOUND,
                    truth=_truth("dns"),
                )
            )
            t += self.rng.uniform(4.0, 15.0)
        return records

    def _apns_persistent(self, window: CallWindow) -> List[PacketRecord]:
        """Apple-push-style persistent TCP with NAT rebinding (3-tuple filter).

        The destination 3-tuple stays fixed across the capture while the
        source port changes mid-call, splitting the activity into several
        5-tuple streams — the evasion the 3-tuple timing filter targets.
        """
        records = []
        # Rebind a couple of times; one segment is entirely inside the call
        # window so only the 3-tuple filter can catch it.
        boundaries = [
            window.capture_start + 1.0,
            window.call_start + window.call_duration * 0.25,
            window.call_start + window.call_duration * 0.6,
            window.capture_end - 1.0,
        ]
        for start, end in zip(boundaries, boundaries[1:]):
            sport = self.rng.randint(49152, 65535)
            t = start
            while t < end:
                records.append(
                    PacketRecord(
                        timestamp=t,
                        src_ip=self.device_ip,
                        src_port=sport,
                        dst_ip=_APNS_IP,
                        dst_port=5223,
                        transport="TCP",
                        payload=self.rng.rand_bytes(self.rng.randint(40, 120)),
                        direction=Direction.OUTBOUND,
                        truth=_truth("apns"),
                    )
                )
                records.append(
                    PacketRecord(
                        timestamp=t + 0.05,
                        src_ip=_APNS_IP,
                        src_port=5223,
                        dst_ip=self.device_ip,
                        dst_port=sport,
                        transport="TCP",
                        payload=self.rng.rand_bytes(self.rng.randint(40, 200)),
                        direction=Direction.INBOUND,
                        truth=_truth("apns"),
                    )
                )
                t += self.rng.uniform(8.0, 20.0)
        return records

    # -- stage-2 fodder: activity entirely inside the call window ------------

    def _tracker_tls(self, window: CallWindow) -> List[PacketRecord]:
        """TLS flows to blocklisted domains starting pre-call (stage 1 catches)."""
        records = []
        for domain in sorted(DEFAULT_SNI_BLOCKLIST)[:4]:
            ip = _TRACKER_IPS.get(domain, "203.0.113.77")
            start = window.capture_start + self.rng.uniform(1.0, 20.0)
            records.extend(self._tls_flow(domain, ip, start, duration=self.rng.uniform(2, 8)))
        return records

    def _intra_call_tls(self, window: CallWindow) -> List[PacketRecord]:
        """Short-lived TLS flows fully inside the call (SNI filter catches)."""
        records = []
        for domain in ("oauth2.googleapis.com", "itunes.apple.com", "app-measurement.com"):
            ip = _TRACKER_IPS.get(domain, "203.0.113.88")
            start = window.call_start + self.rng.uniform(
                5.0, max(6.0, window.call_duration - 10.0)
            )
            records.extend(self._tls_flow(domain, ip, start, duration=self.rng.uniform(1, 4)))
        return records

    def _tls_flow(
        self, domain: str, server_ip: str, start: float, duration: float
    ) -> List[PacketRecord]:
        sport = self.rng.randint(49152, 65535)
        hello = build_client_hello(domain, random_bytes=self.rng.rand_bytes(32))
        records = [
            PacketRecord(
                timestamp=start,
                src_ip=self.device_ip,
                src_port=sport,
                dst_ip=server_ip,
                dst_port=443,
                transport="TCP",
                payload=hello,
                direction=Direction.OUTBOUND,
                truth=_truth(f"tls:{domain}"),
            )
        ]
        t = start + 0.05
        while t < start + duration:
            inbound = self.rng.random() < 0.6
            records.append(
                PacketRecord(
                    timestamp=t,
                    src_ip=server_ip if inbound else self.device_ip,
                    src_port=443 if inbound else sport,
                    dst_ip=self.device_ip if inbound else server_ip,
                    dst_port=sport if inbound else 443,
                    transport="TCP",
                    payload=self.rng.rand_bytes(self.rng.randint(100, 1200)),
                    direction=Direction.INBOUND if inbound else Direction.OUTBOUND,
                    truth=_truth(f"tls:{domain}"),
                )
            )
            t += self.rng.uniform(0.05, 0.4)
        return records

    def _lan_services(self, window: CallWindow) -> List[PacketRecord]:
        """SSDP/mDNS/DHCP chatter (port + local-IP filters).

        The link-local pair also appears pre-call, which is the condition the
        local-IP filter uses to distinguish LAN management from legitimate
        P2P media between the two phones.
        """
        records = []
        # SSDP NOTIFY multicasts from the router, across all phases.
        t = window.capture_start + 2.0
        while t < window.capture_end:
            records.append(
                PacketRecord(
                    timestamp=t,
                    src_ip=ROUTER_IP,
                    src_port=1900,
                    dst_ip="239.255.255.250",
                    dst_port=1900,
                    transport="UDP",
                    payload=b"NOTIFY * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n\r\n",
                    direction=Direction.INBOUND,
                    truth=_truth("ssdp"),
                )
            )
            t += self.rng.uniform(20.0, 40.0)
        # mDNS queries from the device, including some inside the call.
        for offset in (3.0, window.call_duration * 0.4, window.call_duration * 0.9):
            records.append(
                PacketRecord(
                    timestamp=window.call_start + offset,
                    src_ip=self.device_ip,
                    src_port=5353,
                    dst_ip="224.0.0.251",
                    dst_port=5353,
                    transport="UDP",
                    payload=self.rng.rand_bytes(80),
                    direction=Direction.OUTBOUND,
                    truth=_truth("mdns"),
                )
            )
        # IPv6 link-local neighbour chatter seen both pre-call and mid-call.
        precall_t = max(window.capture_start + 0.5, window.call_start - 30.0)
        for timestamp in (precall_t, window.call_start + window.call_duration * 0.5):
            records.append(
                PacketRecord(
                    timestamp=timestamp,
                    src_ip=DEVICE_LINK_LOCAL,
                    src_port=546,
                    dst_ip="fe80::1",
                    dst_port=547,
                    transport="UDP",
                    payload=self.rng.rand_bytes(60),
                    direction=Direction.OUTBOUND,
                    truth=_truth("dhcpv6"),
                )
            )
        return records

    def _ntp(self, window: CallWindow) -> List[PacketRecord]:
        records = []
        t = window.capture_start + self.rng.uniform(5, 30)
        while t < window.capture_end:
            sport = self.rng.randint(49152, 65535)
            for direction, (sip, spt, dip, dpt) in (
                (Direction.OUTBOUND, (self.device_ip, sport, "17.253.4.125", 123)),
                (Direction.INBOUND, ("17.253.4.125", 123, self.device_ip, sport)),
            ):
                records.append(
                    PacketRecord(
                        timestamp=t if direction is Direction.OUTBOUND else t + 0.03,
                        src_ip=sip,
                        src_port=spt,
                        dst_ip=dip,
                        dst_port=dpt,
                        transport="UDP",
                        payload=self.rng.rand_bytes(48),
                        direction=direction,
                        truth=_truth("ntp"),
                    )
                )
            t += self.rng.uniform(60.0, 120.0)
        return records
