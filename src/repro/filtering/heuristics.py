"""Stage-2 filtering heuristics (paper §3.2.2).

Four protocol-aware heuristics catch intra-call background activity that
evades the stage-1 timespan filter: 3-tuple timing, TLS SNI blocklisting,
local-IP scoping, and well-known-port exclusion.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.apps.background import DEFAULT_SNI_BLOCKLIST
from repro.packets.ip import is_private_address
from repro.protocols.tls.client_hello import extract_sni
from repro.streams.flow import Stream

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

    *outside* holds both endpoints of every record outside the extended
    call window; the filter stage collects it as records arrive.
    """

    name = "3tuple"

    def __init__(self, outside: Iterable[EndpointTuple]):
        self._outside: FrozenSet[EndpointTuple] = frozenset(outside)

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
    """Removes TCP streams whose TLS ClientHello SNI is on the blocklist.

    The first record that carries a ClientHello SNI decides the stream.
    :func:`~repro.protocols.tls.client_hello.extract_sni` probes each
    record's first and sixth bytes before it parses, so a stream without a
    ClientHello (TURN-over-TCP media, application data) is scanned for
    about 0.1 µs per record instead of a failed parse per record.
    """

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

    def __init__(self, precall_pairs: Iterable[FrozenSet[str]]):
        #: The IP pair of every record before the call start, collected by
        #: the filter stage as records arrive.
        self._precall_pairs: FrozenSet[FrozenSet[str]] = frozenset(precall_pairs)

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
