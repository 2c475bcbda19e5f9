"""Flow-sticky DPI fast path: per-stream signature learning.

Real call streams are extremely stable: once an application settles on a
framing (say "RTP behind a 4-byte proprietary header"), every media
datagram carries an RTP header at the same offset.  The raw candidate
*shape*, however, is not stable — random media bytes surface a dozen
spurious RTP candidates per datagram at ever-changing offsets, and
multiplexed streams round-robin several SSRCs at the real offset — so the
learner keys on the one thing that recurs: ``(offset, SSRC)`` pairs.  A
spurious pair repeats across datagrams with probability ~2^-32 per pair,
so any pair observed in ``K`` distinct datagrams is byte-stable reality.

Byte-stable reality comes in two flavors, and the distinction carries the
correctness argument:

* **dynamic** pairs look like live media: the sequence-number field under
  the trusted SSRC increments like a packet counter between sightings
  (delta in 1..512 mod 2^16 — the same continuity notion stage-two
  validation uses).
* **static** pairs are byte-stable artifacts that merely parse as RTP — a
  header-extension magic, a proprietary field.  Their fake "seq" field
  may well wiggle (it can overlap a real timestamp), but it does not
  count.  They are probed so that stage-two validation sees identical
  samples in both modes, but they can never carry a prediction on their
  own: an artifact keeps matching after the real media moved, which is
  exactly when the fast path must yield.

Once locked (at least one dynamic pair learned), the engine probes only
the learned offsets (plus the cheap anchored STUN/RTCP/QUIC scans)
instead of sweeping RTP over offsets 0..k.  A learned offset may be
absent from a given datagram — ``looks_like_rtp`` fails there, so the
sweep would find nothing either and absence is parity-exact.  A
prediction misses — falling back to the full sweep for that datagram —
when any probed offset parses with an SSRC outside its trusted set, when
no probed candidate is dynamic (nothing live confirms the signature), or
when a guarded SSRC heads an RTP header at an unlearned offset (Zoom's
dual-RTP continuations).  ``K`` consecutive misses reset the learner
entirely, and stage two provides a second net: if validation anomalously
rejects a predicted message, the engine re-sweeps the whole stream.
Output is therefore bit-identical to the always-sweep path (enforced by
the parity tests in ``tests/test_fastpath.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dpi.candidates import Candidate
from repro.dpi.messages import Protocol
from repro.protocols.rtp.header import looks_like_rtp

#: Distinct datagrams an ``(offset, SSRC)`` pair must appear in before it
#: is trusted, and consecutive prediction misses tolerated before the
#: learner resets.
DEFAULT_SIGNATURE_K = 4

#: A pair counts as live media only when its sequence field advances by at
#: most this much between sightings (mirrors stage two's continuity step).
MAX_LIVE_SEQ_STEP = 512


@dataclass(frozen=True)
class StreamSignature:
    """The learned framing of one stream.

    ``rtp_offsets`` lists every offset worth probing; per offset,
    ``rtp_ssrc_sets`` holds the trusted SSRCs and ``rtp_dynamic_sets`` the
    subset whose sequence field advances like a packet counter (live media
    rather than byte-stable artifacts).
    """

    rtp_offsets: Tuple[int, ...]                 # ascending payload offsets
    rtp_ssrc_sets: Tuple[FrozenSet[int], ...]    # trusted SSRCs per offset
    rtp_dynamic_sets: Tuple[FrozenSet[int], ...]  # live subset per offset

    @cached_property
    def trusted_by_offset(self) -> Dict[int, FrozenSet[int]]:
        return dict(zip(self.rtp_offsets, self.rtp_ssrc_sets))

    @cached_property
    def dynamic_by_offset(self) -> Dict[int, FrozenSet[int]]:
        return dict(zip(self.rtp_offsets, self.rtp_dynamic_sets))

    def ssrcs_at(self, offset: int) -> FrozenSet[int]:
        return self.trusted_by_offset[offset]


class SignatureLearner:
    """Per-stream ``(offset, SSRC)`` recurrence tracker.

    Feed it the RTP candidates of every fully swept datagram
    via :meth:`observe`; ``signature`` is non-None (the stream is *locked*)
    once at least one dynamic pair is trusted.  While locked, the engine
    reports prediction outcomes via :meth:`record_hit` /
    :meth:`record_miss`.
    """

    __slots__ = ("k", "signature", "_counts", "_trusted", "_dynamic",
                 "_misses", "_guard_patterns")

    def __init__(self, k: int = DEFAULT_SIGNATURE_K):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = k
        self.signature: Optional[StreamSignature] = None
        # offset -> ssrc -> [datagrams seen, last seq, counter-like seq].
        self._counts: Dict[int, Dict[int, List]] = {}
        # offset -> trusted ssrcs (count reached k), and the live subset.
        self._trusted: Dict[int, Set[int]] = {}
        self._dynamic: Dict[int, Set[int]] = {}
        self._misses = 0
        # Big-endian patterns of every SSRC this stream ever trusted; kept
        # across resets so relearned signatures still guard old SSRCs.
        self._guard_patterns: Set[bytes] = set()

    @property
    def locked(self) -> bool:
        return self.signature is not None

    def observe(self, candidates: Sequence[Candidate]) -> None:
        """Digest one swept datagram's candidates; lock/adjust as needed."""
        changed = False
        for candidate in candidates:
            if candidate.protocol is not Protocol.RTP:
                continue
            offset = candidate.offset
            ssrc = candidate.rtp_ssrc
            seq = candidate.rtp_seq
            per_offset = self._counts.setdefault(offset, {})
            entry = per_offset.get(ssrc)
            if entry is None:
                per_offset[ssrc] = [1, seq, False]
                continue
            entry[0] += 1
            delta = (seq - entry[1]) & 0xFFFF
            entry[1] = seq
            if 1 <= delta <= MAX_LIVE_SEQ_STEP:
                entry[2] = True
            if entry[0] < self.k:
                continue
            trusted_here = self._trusted.setdefault(offset, set())
            if ssrc not in trusted_here:
                trusted_here.add(ssrc)
                self._guard_patterns.add(ssrc.to_bytes(4, "big"))
                changed = True
            if entry[2]:
                dynamic_here = self._dynamic.setdefault(offset, set())
                if ssrc not in dynamic_here:
                    dynamic_here.add(ssrc)
                    changed = True
        if changed:
            self._rebuild()

    def record_hit(self) -> None:
        """A locked prediction matched."""
        self._misses = 0

    def record_miss(self) -> None:
        """A locked prediction failed; relearn from scratch after ``k``
        consecutive misses (the framing clearly changed)."""
        self._misses += 1
        if self._misses >= self.k:
            self._misses = 0
            self._counts.clear()
            self._trusted.clear()
            self._dynamic.clear()
            self.signature = None

    def _rebuild(self) -> None:
        if not any(self._dynamic.values()):
            self.signature = None
            return
        offsets = tuple(sorted(self._trusted))
        empty: FrozenSet[int] = frozenset()
        self.signature = StreamSignature(
            rtp_offsets=offsets,
            rtp_ssrc_sets=tuple(frozenset(self._trusted[o]) for o in offsets),
            rtp_dynamic_sets=tuple(
                frozenset(self._dynamic[o]) if o in self._dynamic else empty
                for o in offsets
            ),
        )
        self._misses = 0

    def continuation_risk(self, payload: bytes, max_offset: int) -> bool:
        """True when a guarded SSRC appears to head an RTP message at an
        offset the signature does not cover.

        This is the Zoom dual-RTP case: the second packet of a two-RTP
        datagram reuses a trusted SSRC at a payload-dependent offset, so a
        locked fixed-offset prediction would silently drop it.  A byte-find
        per guarded SSRC is ~free compared to the sweep it replaces.
        """
        learned = self.signature.rtp_offsets
        limit = min(max_offset, len(payload) - 12)
        for pattern in self._guard_patterns:
            search_start = 0
            while True:
                pos = payload.find(pattern, search_start)
                if pos < 0:
                    break
                search_start = pos + 1
                offset = pos - 8  # SSRC lives at bytes 8..12 of the header
                if offset < 0 or offset > limit or offset in learned:
                    continue
                if looks_like_rtp(payload, offset):
                    return True
        return False


def predicted_rtp_candidates(
    payload: bytes,
    max_offset: int,
    signature: StreamSignature,
    rtp_matcher,
) -> Optional[List[Candidate]]:
    """RTP candidates at the learned offsets, or None on a miss.

    A learned offset that does not parse as RTP contributes nothing — the
    sweep would find nothing there either, so absence is parity-exact.  A
    miss is a real deviation from the signature: an SSRC outside its
    offset's trusted set (not digested yet), or no *dynamic* candidate at
    all — byte constants alone cannot vouch for a prediction, because they
    keep matching after live framing has moved.  Extra RTP elsewhere in
    the payload is the caller's problem (see
    :meth:`SignatureLearner.continuation_risk`).
    """
    candidates = rtp_matcher(payload, max_offset, offsets=signature.rtp_offsets)
    if not candidates:
        return None
    trusted = signature.trusted_by_offset
    dynamic = signature.dynamic_by_offset
    live = False
    for candidate in candidates:
        if candidate.rtp_ssrc not in trusted[candidate.offset]:
            return None
        if not live and candidate.rtp_ssrc in dynamic[candidate.offset]:
            live = True
    if not live:
        return None
    return candidates
