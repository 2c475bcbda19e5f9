"""Named network-impairment profiles — the fourth matrix axis.

The paper's matrix runs six apps over three *clean* network
configurations (§3.1.1).  Real RTC traffic additionally survives loss,
reordering, duplication, mid-call NAT rebinding, and networks that block
UDP outright (forcing TURN-over-TCP fallback) — exactly where protocol
behavior diverges from spec and where a compliance pipeline's own
machinery (per-stream validation, online filter, columnar scan) is most
likely to be wrong.  An :class:`ImpairmentProfile` describes one such
path condition; :class:`~repro.netem.impair.Impairer` applies it as a
pure, seeded ``records -> records`` transform.

Profiles are plain frozen dataclasses so they pickle across process
pools and hash.  The named registry
(:data:`PROFILES`) backs the ``--impairment`` CLI axis; arbitrary custom
profiles compose the same knobs freely (the hypothesis parity suite
generates them at random).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov burst-loss model (Gilbert-Elliott).

    Per packet the chain moves GOOD -> BAD with ``p_enter`` and
    BAD -> GOOD with ``p_exit``; packets drop with ``loss_good`` /
    ``loss_bad`` according to the current state.  The classic model for
    clustered radio/queue loss, as opposed to independent random loss.
    """

    p_enter: float = 0.02
    p_exit: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        for name in ("p_enter", "p_exit", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")


@dataclass(frozen=True)
class NatRebind:
    """A mid-call NAT rebinding that rewrites the device-side 5-tuple.

    At ``at_fraction`` of the capture span every active UDP flow's
    device-side port is rewritten — the capture-level view of a NAT
    table expiry / ICE local-socket restart.  ``collide=True`` models
    aggressive port reuse: instead of fresh ports, rebinding flows adopt
    *each other's* original device ports, so post-rebind packets of one
    media stream land on a flow key another stream already carries —
    precisely the case per-stream validation must attribute correctly
    rather than silently mix up.
    """

    at_fraction: float = 0.5
    collide: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"at_fraction must be inside (0, 1), got {self.at_fraction!r}"
            )


@dataclass(frozen=True)
class ImpairmentProfile:
    """One deterministic fault-injection recipe for a record stream.

    All knobs compose; loss, duplication, and reordering apply to UDP
    only (TCP retransmission hides transport loss from a payload-level
    capture).  ``reorder_delay`` bounds how far a delayed packet can
    move, so reordering stays *bounded* — the tolerance the online
    filter and incremental checker are required to have.
    """

    name: str = "custom"
    loss_rate: float = 0.0
    burst: Optional[GilbertElliott] = None
    reorder_rate: float = 0.0
    reorder_delay: float = 0.03
    duplicate_rate: float = 0.0
    rebind: Optional[NatRebind] = None
    udp_blocked: bool = False

    def __post_init__(self) -> None:
        for name in ("loss_rate", "reorder_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.reorder_delay < 0.0:
            raise ValueError(f"reorder_delay must be >= 0, got {self.reorder_delay!r}")

    @property
    def is_noop(self) -> bool:
        """True when applying this profile cannot change any record."""
        return (
            self.loss_rate == 0.0
            and self.burst is None
            and self.reorder_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.rebind is None
            and not self.udp_blocked
        )


#: The named profiles behind ``--impairment``.  ``none`` is the exact
#: historical behavior (no transform object is even constructed).
PROFILES: Dict[str, ImpairmentProfile] = {
    "none": ImpairmentProfile(name="none"),
    # Independent random loss with light reordering and duplication —
    # a congested but unremarkable access link.
    "lossy": ImpairmentProfile(
        name="lossy",
        loss_rate=0.02,
        reorder_rate=0.03,
        reorder_delay=0.04,
        duplicate_rate=0.01,
    ),
    # Clustered Gilbert-Elliott loss — radio fades / queue overflows.
    "burst": ImpairmentProfile(
        name="burst",
        burst=GilbertElliott(p_enter=0.02, p_exit=0.3, loss_good=0.0, loss_bad=0.5),
        reorder_rate=0.01,
        duplicate_rate=0.005,
    ),
    # Mid-call NAT rebinding with colliding port reuse plus light loss:
    # foreign SSRCs appear inside an established stream, and each SSRC
    # group must still be validated on its own.
    "rebind": ImpairmentProfile(
        name="rebind",
        loss_rate=0.005,
        rebind=NatRebind(at_fraction=0.5, collide=True),
    ),
    # UDP blackout: RTC flows fall back to TURN ChannelData over TCP
    # port 443; non-RTC UDP simply dies.
    "udp_blocked": ImpairmentProfile(name="udp_blocked", udp_blocked=True),
}

PROFILE_NAMES: Tuple[str, ...] = tuple(PROFILES)


def get_profile(name: str) -> ImpairmentProfile:
    """Look up a named profile; unknown names list the valid choices."""
    try:
        return PROFILES[name]
    except KeyError:
        choices = ", ".join(PROFILE_NAMES)
        raise ValueError(
            f"unknown impairment profile {name!r}; expected one of: {choices}"
        ) from None
