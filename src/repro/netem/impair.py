"""Deterministic fault injection over a simulated record stream.

An :class:`Impairer` applies one :class:`~repro.netem.profiles.ImpairmentProfile`
to a list of :class:`~repro.packets.packet.PacketRecord` as a **pure
transform**: the output is a function of (profile, seed, label, input
records) and nothing else, so it composes with ``run_cell_pipeline``,
the streaming session, and both DPI backends unchanged, and the same
seed always yields the same impaired sequence.

Semantics, in application order:

1. **UDP blackout** (``udp_blocked``): every ground-truth RTC UDP flow
   is re-emitted as TURN ChannelData frames over TCP port 443 (the
   app-level relay fallback); all other UDP traffic is dropped.  TCP
   records pass through.
2. **Loss**: independent random loss plus a per-flow Gilbert-Elliott
   burst chain.  UDP only — TCP retransmission hides transport loss
   from a payload-level capture.
3. **Duplication**: a kept UDP packet is occasionally re-delivered a
   fraction of a millisecond later.
4. **Bounded reordering**: a kept UDP packet is occasionally delayed by
   up to ``reorder_delay`` seconds.  Reordering is realized as a
   *timestamp* shift followed by the final re-sort, because every
   consumer orders streams by timestamp — a feed-order shuffle alone
   would be invisible by construction.
5. **NAT rebinding**: at ``at_fraction`` of the capture span, the
   device-side port of every still-active UDP socket is rewritten —
   fresh ports, or (``collide=True``) the affected sockets adopt each
   other's original ports, merging post-rebind packets into flow keys
   other streams already occupy.

Randomness is drawn from per-flow children of ``derive(seed, label)``
keyed by the flow's stable endpoint label, so one flow's decisions
never depend on which other flows exist.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.netem.profiles import ImpairmentProfile, get_profile
from repro.packets.packet import Direction, PacketRecord
from repro.protocols.stun.message import ChannelData
from repro.utils.rand import DeterministicRandom, derive

#: TURN servers listen for the TCP fallback on 443 to traverse
#: UDP-hostile middleboxes (RFC 8656 §2.1 deployment guidance).
TURN_TCP_PORT = 443

#: First device-side TCP source port assigned to fallback connections.
FALLBACK_PORT_BASE = 51000

#: First TURN channel number bound per fallback connection (0x4000-0x4FFF).
FALLBACK_CHANNEL_BASE = 0x4000

#: Device-side ports for post-rebind sockets land in this range.
REBIND_PORT_RANGE = (40000, 60000)

#: A duplicate is re-delivered this far after the original (seconds).
_DUP_DELAY = (0.0002, 0.002)


def _flow_label(record: PacketRecord) -> str:
    """Stable per-flow RNG label: sorted endpoints plus transport."""
    (a_ip, a_port), (b_ip, b_port), transport = record.flow_key
    return f"{a_ip}:{a_port}-{b_ip}:{b_port}/{transport}"


def _device_endpoint(record: PacketRecord) -> Tuple[str, int]:
    """The capture device's side of the conversation."""
    if record.direction is Direction.OUTBOUND:
        return (record.src_ip, record.src_port)
    return (record.dst_ip, record.dst_port)


class _GilbertElliottState:
    """One flow's position in the two-state burst-loss chain."""

    __slots__ = ("bad",)

    def __init__(self) -> None:
        self.bad = False


class Impairer:
    """Applies one impairment profile to record streams, deterministically.

    ``label`` namespaces the randomness (conventionally
    ``"{app}/{network}/{call_index}"``), so sibling cells impaired with
    the same seed draw independent streams, exactly like the simulators'
    own ``rng_for`` derivation.
    """

    def __init__(
        self,
        profile: Union[ImpairmentProfile, str],
        seed: Union[int, str] = 0,
        label: str = "",
    ):
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self._root = derive(seed, f"netem/{label}")

    def _flow_rng(self, record: PacketRecord, purpose: str) -> DeterministicRandom:
        return self._root.child(f"{purpose}/{_flow_label(record)}")

    def apply(self, records: Sequence[PacketRecord]) -> List[PacketRecord]:
        """Transform *records*; the input sequence is never mutated."""
        profile = self.profile
        out = list(records)
        if profile.is_noop:
            return out
        if profile.udp_blocked:
            out = self._apply_udp_blocked(out)
        if (
            profile.loss_rate > 0.0
            or profile.burst is not None
            or profile.duplicate_rate > 0.0
            or profile.reorder_rate > 0.0
        ):
            out = self._apply_per_packet(out)
        if profile.rebind is not None:
            out = self._apply_rebind(out)
        out.sort(key=lambda r: r.timestamp)
        return out

    # -- UDP blackout → TURN-over-TCP fallback ------------------------------

    def _apply_udp_blocked(self, records: List[PacketRecord]) -> List[PacketRecord]:
        """Drop all UDP; re-home ground-truth RTC flows into TCP/443.

        Only flows the *application* owns fall back (it re-routes its own
        media through its relay); background UDP has no such recourse and
        simply dies.  Records without truth labels (real pcaps) count as
        background — impairment is a simulation-layer transform.
        """
        rtc_flows = sorted({
            record.flow_key
            for record in records
            if record.transport == "UDP"
            and record.truth is not None
            and record.truth.is_rtc
        })
        mapping = {
            flow: (FALLBACK_PORT_BASE + index,
                   FALLBACK_CHANNEL_BASE + (index % 0x1000))
            for index, flow in enumerate(rtc_flows)
        }
        out: List[PacketRecord] = []
        for record in records:
            if record.transport != "UDP":
                out.append(record)
                continue
            assignment = mapping.get(record.flow_key)
            if assignment is None:
                continue
            device_port, channel = assignment
            frame = ChannelData(channel=channel, data=record.payload).build()
            # RFC 8656 §12.4: over TCP the frame is padded to 4 bytes.
            frame += b"\x00" * (-len(frame) % 4)
            device = _device_endpoint(record)
            remote = (
                (record.dst_ip, record.dst_port)
                if device == (record.src_ip, record.src_port)
                else (record.src_ip, record.src_port)
            )
            if record.direction is Direction.OUTBOUND:
                src = (device[0], device_port)
                dst = (remote[0], TURN_TCP_PORT)
            else:
                src = (remote[0], TURN_TCP_PORT)
                dst = (device[0], device_port)
            out.append(PacketRecord(
                timestamp=record.timestamp,
                src_ip=src[0],
                src_port=src[1],
                dst_ip=dst[0],
                dst_port=dst[1],
                transport="TCP",
                payload=frame,
                direction=record.direction,
                truth=record.truth,
            ))
        return out

    # -- loss / duplication / bounded reordering ----------------------------

    def _apply_per_packet(self, records: List[PacketRecord]) -> List[PacketRecord]:
        profile = self.profile
        burst = profile.burst
        rngs: Dict[object, DeterministicRandom] = {}
        states: Dict[object, _GilbertElliottState] = {}
        out: List[PacketRecord] = []
        for record in records:
            if record.transport != "UDP":
                out.append(record)
                continue
            key = record.flow_key
            rng = rngs.get(key)
            if rng is None:
                rng = self._flow_rng(record, "pkt")
                rngs[key] = rng
            dropped = False
            if profile.loss_rate > 0.0 and rng.random() < profile.loss_rate:
                dropped = True
            if burst is not None:
                state = states.get(key)
                if state is None:
                    state = _GilbertElliottState()
                    states[key] = state
                loss_p = burst.loss_bad if state.bad else burst.loss_good
                if rng.random() < loss_p:
                    dropped = True
                if state.bad:
                    if rng.random() < burst.p_exit:
                        state.bad = False
                elif rng.random() < burst.p_enter:
                    state.bad = True
            if dropped:
                continue
            timestamp = record.timestamp
            if profile.reorder_rate > 0.0 and rng.random() < profile.reorder_rate:
                timestamp += rng.uniform(0.0, profile.reorder_delay)
            kept = (
                record if timestamp == record.timestamp
                else replace(record, timestamp=timestamp)
            )
            out.append(kept)
            if profile.duplicate_rate > 0.0 and rng.random() < profile.duplicate_rate:
                out.append(replace(
                    kept, timestamp=timestamp + rng.uniform(*_DUP_DELAY)
                ))
        return out

    # -- mid-call NAT rebinding ---------------------------------------------

    def _apply_rebind(self, records: List[PacketRecord]) -> List[PacketRecord]:
        rebind = self.profile.rebind
        assert rebind is not None
        timestamps = [r.timestamp for r in records]
        if not timestamps:
            return records
        t0, t1 = min(timestamps), max(timestamps)
        if t1 <= t0:
            return records
        t_rebind = t0 + rebind.at_fraction * (t1 - t0)
        # A *socket* rebinds, not a flow: one local port talking to
        # several remotes (ICE checks, relay plus peer) moves as a unit.
        # Only the app's own RTC sockets are rewritten — rebinding
        # background sockets has no downstream observable (they are
        # filtered either way) but rotating their ports onto RTC sockets
        # would alias call media into endpoints the window heuristics
        # have already condemned, which models a filter bug, not a NAT.
        active: Dict[Tuple[str, int], List[bool]] = {}
        for record in records:
            if record.transport != "UDP":
                continue
            if record.truth is None or not record.truth.is_rtc:
                continue
            flags = active.setdefault(_device_endpoint(record), [False, False])
            flags[record.timestamp >= t_rebind] = True
        affected = sorted(
            endpoint for endpoint, flags in active.items() if flags[0] and flags[1]
        )
        if not affected:
            return records
        used_ports: Set[int] = set()
        for record in records:
            used_ports.add(record.src_port)
            used_ports.add(record.dst_port)
        new_ports: Dict[Tuple[str, int], int] = {}
        if rebind.collide and len(affected) >= 2:
            # Port-reuse collision: socket i adopts socket i+1's old port,
            # steering its post-rebind packets into an already-locked flow.
            for index, endpoint in enumerate(affected):
                new_ports[endpoint] = affected[(index + 1) % len(affected)][1]
        else:
            lo, hi = REBIND_PORT_RANGE
            for endpoint in affected:
                rng = self._root.child(f"rebind/{endpoint[0]}:{endpoint[1]}")
                port = lo + rng.randrange(hi - lo)
                while port in used_ports:
                    port = lo + rng.randrange(hi - lo)
                used_ports.add(port)
                new_ports[endpoint] = port
        out: List[PacketRecord] = []
        for record in records:
            if record.transport != "UDP" or record.timestamp < t_rebind:
                out.append(record)
                continue
            port = new_ports.get(_device_endpoint(record))
            if port is None:
                out.append(record)
            elif record.direction is Direction.OUTBOUND:
                out.append(replace(record, src_port=port))
            else:
                out.append(replace(record, dst_port=port))
        return out


def build_impairer(
    impairment: Union[ImpairmentProfile, str],
    seed: Union[int, str],
    label: str,
) -> Optional[Impairer]:
    """An :class:`Impairer` for *impairment*, or ``None`` when it is a no-op.

    The ``None`` fast path keeps the clean matrix byte-for-byte on its
    historical code path — no transform object, no RNG derivation.
    """
    profile = (
        get_profile(impairment) if isinstance(impairment, str) else impairment
    )
    if profile.is_noop:
        return None
    return Impairer(profile, seed, label)
