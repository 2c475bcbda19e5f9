"""Grouping packets into 5-tuple transport streams.

The paper groups IP packets into *streams* by transport 5-tuple (both
directions of a conversation belong to one stream) because protocol
behaviours — keepalives, multi-packet media delivery — span packets, and
because unrelated traffic manifests as separable streams (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.packets.packet import PacketRecord

FlowKey = Tuple[Tuple[str, int], Tuple[str, int], str]


@dataclass
class Stream:
    """All packets of one bidirectional transport conversation, time-ordered."""

    key: FlowKey
    packets: List[PacketRecord] = field(default_factory=list)

    @property
    def transport(self) -> str:
        return self.key[2]

    @property
    def endpoint_a(self) -> Tuple[str, int]:
        return self.key[0]

    @property
    def endpoint_b(self) -> Tuple[str, int]:
        return self.key[1]

    @property
    def first_timestamp(self) -> float:
        return self.packets[0].timestamp

    @property
    def last_timestamp(self) -> float:
        return self.packets[-1].timestamp

    @property
    def timespan(self) -> Tuple[float, float]:
        return (self.first_timestamp, self.last_timestamp)

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def byte_count(self) -> int:
        return sum(len(p.payload) for p in self.packets)

    def add(self, packet: PacketRecord) -> None:
        self.packets.append(packet)

    def sort(self) -> None:
        self.packets.sort(key=lambda p: p.timestamp)

    def ports(self) -> Tuple[int, int]:
        return (self.key[0][1], self.key[1][1])

    def ips(self) -> Tuple[str, str]:
        return (self.key[0][0], self.key[1][0])

    def __iter__(self):
        return iter(self.packets)

    def __len__(self) -> int:
        return len(self.packets)


def group_streams(records: Iterable[PacketRecord]) -> Dict[FlowKey, Stream]:
    """Group *records* into bidirectional streams, each time-sorted."""
    streams: Dict[FlowKey, Stream] = {}
    for record in records:
        key = record.flow_key
        stream = streams.get(key)
        if stream is None:
            stream = Stream(key=key)
            streams[key] = stream
        stream.add(record)
    for stream in streams.values():
        stream.sort()
    return streams
