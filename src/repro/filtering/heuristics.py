"""Stage-2 filtering heuristics (paper §3.2.2).

Four protocol-aware heuristics catch intra-call background activity that
evades the stage-1 timespan filter: 3-tuple timing, TLS SNI blocklisting,
local-IP scoping, and well-known-port exclusion.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Set, Tuple

from repro.apps.background import DEFAULT_SNI_BLOCKLIST
from repro.packets.ip import is_private_address
from repro.packets.packet import PacketRecord
from repro.protocols.tls.client_hello import extract_sni
from repro.streams.flow import Stream
from repro.streams.timeline import CallWindow

#: Ports reserved for non-RTC services (IANA registry subset the paper cites
#: plus the LAN-management ports seen on idle phones).
DEFAULT_EXCLUDED_PORTS: FrozenSet[int] = frozenset(
    {53, 67, 68, 123, 137, 138, 139, 546, 547, 1900, 5353}
)

EndpointTuple = Tuple[str, int, str]


class ThreeTupleFilter:
    """Removes in-window streams whose endpoint 3-tuple is active outside it.

    Background services (e.g. APNS) keep a fixed (IP, port, protocol)
    destination while NAT rebinding varies the source port, splitting one
    logical connection into several 5-tuple streams.  A 3-tuple observed
    outside the call window marks every in-window stream sharing it.
    """

    name = "3tuple"

    def __init__(self, all_records: Sequence[PacketRecord], window: CallWindow):
        self._outside: Set[EndpointTuple] = set()
        for record in all_records:
            if window.extended_start <= record.timestamp <= window.extended_end:
                continue
            self.observe_outside(record)

    @classmethod
    def from_outside_tuples(
        cls, outside: Iterable[EndpointTuple]
    ) -> "ThreeTupleFilter":
        """Build from an incrementally collected outside-window endpoint set.

        The filter stage collects the endpoints of every out-of-window
        record as it arrives instead of re-scanning a materialized record
        list; the resulting set is identical.
        """
        instance = cls.__new__(cls)
        instance._outside = set(outside)
        return instance

    def observe_outside(self, record: PacketRecord) -> None:
        """Register one record already known to lie outside the window."""
        self._outside.add((record.src_ip, record.src_port, record.transport))
        self._outside.add((record.dst_ip, record.dst_port, record.transport))

    def keeps(self, stream: Stream) -> bool:
        (ip_a, port_a), (ip_b, port_b), transport = (
            stream.endpoint_a, stream.endpoint_b, stream.transport,
        )
        if (ip_a, port_a, transport) in self._outside:
            return False
        if (ip_b, port_b, transport) in self._outside:
            return False
        return True


class SniFilter:
    """Removes TCP streams whose TLS ClientHello SNI is on the blocklist."""

    name = "sni"

    def __init__(self, blocklist: Iterable[str] = DEFAULT_SNI_BLOCKLIST):
        self._blocklist = frozenset(blocklist)

    def keeps(self, stream: Stream) -> bool:
        if stream.transport != "TCP":
            return True
        for record in stream.packets:
            sni = extract_sni(record.payload)
            if sni is not None:
                return sni not in self._blocklist
        return True


class LocalIpFilter:
    """Removes local-network management streams.

    A stream is removed when either endpoint is a private/link-local address
    *and* the same IP pair already appeared in the pre-call capture — the
    second condition is what preserves legitimate P2P media between the two
    call participants (§3.2.2).
    """

    name = "local_ip"

    def __init__(self, all_records: Sequence[PacketRecord], window: CallWindow):
        self._precall_pairs: Set[FrozenSet[str]] = set()
        for record in all_records:
            if record.timestamp < window.call_start:
                self.observe_precall(record)

    @classmethod
    def from_precall_pairs(
        cls, pairs: Iterable[FrozenSet[str]]
    ) -> "LocalIpFilter":
        """Build from an incrementally collected pre-call IP-pair set."""
        instance = cls.__new__(cls)
        instance._precall_pairs = set(pairs)
        return instance

    def observe_precall(self, record: PacketRecord) -> None:
        """Register one record already known to precede the call start."""
        self._precall_pairs.add(frozenset((record.src_ip, record.dst_ip)))

    def keeps(self, stream: Stream) -> bool:
        ip_a, ip_b = stream.ips()
        if not (_is_local(ip_a) or _is_local(ip_b)):
            return True
        return frozenset((ip_a, ip_b)) not in self._precall_pairs


def _is_local(ip: str) -> bool:
    try:
        return is_private_address(ip) or ip.startswith(("224.", "239.", "ff"))
    except ValueError:
        return False


class PortFilter:
    """Removes streams using transport ports reserved for non-RTC services."""

    name = "port"

    def __init__(self, excluded_ports: Iterable[int] = DEFAULT_EXCLUDED_PORTS):
        self._ports = frozenset(excluded_ports)

    def keeps(self, stream: Stream) -> bool:
        port_a, port_b = stream.ports()
        return port_a not in self._ports and port_b not in self._ports
