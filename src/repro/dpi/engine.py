"""The DPI engine: candidate extraction → stream-context validation →
byte-ownership resolution → datagram classification (paper §4.1).

The engine works per transport stream because the validation heuristics are
inherently stream-scoped: RTP sequence continuity within an SSRC, STUN
transaction request/response pairing, and QUIC connection-ID consistency.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dpi.candidates import MATCHERS, Candidate, rtp_candidates
from repro.dpi.columnar import ColumnarScanner, ColumnarStats
from repro.dpi.fastpath import (
    DEFAULT_SIGNATURE_K,
    SignatureLearner,
    predicted_rtp_candidates,
)
from repro.dpi.messages import (
    DatagramAnalysis,
    DatagramClass,
    ExtractedMessage,
    Protocol,
)
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.constants import RTCP_TYPE_NAMES
from repro.protocols.rtp.header import RtpPacket, RtpParseError
from repro.protocols.stun.message import ChannelData, StunMessage
from repro.streams.flow import FlowKey, Stream

DEFAULT_MAX_OFFSET = 200

#: Columnar look-ahead while a fast-path learner is still unlocked: large
#: enough to batch the pre-lock sweeps, small enough that the scans wasted
#: when the lock lands stay negligible.
_PRELOCK_LOOKAHEAD = 32

#: An RTP SSRC group must show this many packets with continuous sequence
#: numbers before its candidates are believed.
MIN_RTP_GROUP = 3
#: Fraction of inter-packet sequence deltas that must look consecutive.
MIN_CONTINUITY = 0.5
_MAX_SEQ_STEP = 512


@dataclass
class DpiStats:
    """Instrumentation counters for the extraction layer.

    Per datagram, exactly one of two things happens: its candidates come
    from a locked-signature fast-path probe (``fastpath_hits``) or from a
    full 0..k sweep (``sweeps``).  A ``fastpath_fallbacks`` datagram
    additionally counted one failed probe before its sweep, and a
    ``fastpath_redos`` stream re-swept all of its datagrams after stage two
    rejected a predicted message (those redo sweeps are included in
    ``sweeps``).  ``matcher_calls`` counts actual matcher-function
    invocations per protocol, including targeted fast-path probes — so it
    reflects work really done, not work scheduled.

    ``cache_hits`` and ``cache_misses`` are retired: the engine no longer
    has a payload-dedup cache, so both always read zero.  They stay in the
    counter schema (:meth:`as_dict`) because recorded golden corpora and
    benchmark ledgers carry them.
    """

    datagrams: int = 0
    sweeps: int = 0
    fastpath_hits: int = 0
    fastpath_fallbacks: int = 0
    fastpath_redos: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    matcher_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Retired; always 0.0 (see the class docstring)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def cache_lookups(self) -> int:
        """Retired; always 0 (see the class docstring)."""
        return self.cache_hits + self.cache_misses

    @property
    def fastpath_hit_rate(self) -> float:
        """Fraction of analyzed datagrams served by the fast path."""
        return self.fastpath_hits / self.datagrams if self.datagrams else 0.0

    def invariant_violations(self) -> List[str]:
        """Internal-consistency checks over the counters; empty when sound.

        Every analyzed datagram gets its candidates from exactly one of
        two sources — a locked-signature probe or a full sweep — so those
        two must cover ``datagrams`` exactly, except that a stream redo
        re-sweeps datagrams already counted (making the sum strictly
        larger).  Every fast-path fallback is followed by a sweep, and the
        retired cache counters must read zero.
        """
        problems: List[str] = []
        for name in ("datagrams", "sweeps", "fastpath_hits",
                     "fastpath_fallbacks", "fastpath_redos"):
            if getattr(self, name) < 0:
                problems.append(f"{name} is negative: {getattr(self, name)}")
        if any(count < 0 for count in self.matcher_calls.values()):
            problems.append(f"negative matcher call count: {self.matcher_calls}")
        for name in ("cache_hits", "cache_misses"):
            if getattr(self, name):
                problems.append(
                    f"retired counter {name} is nonzero: {getattr(self, name)}"
                )
        covered = self.fastpath_hits + self.sweeps
        if covered < self.datagrams:
            problems.append(
                f"fast-path hits + sweeps ({covered}) do not cover all "
                f"{self.datagrams} datagrams"
            )
        if self.fastpath_redos == 0 and covered != self.datagrams:
            problems.append(
                f"without redos, fast-path hits + sweeps ({covered}) must "
                f"equal datagrams ({self.datagrams})"
            )
        if self.sweeps < self.fastpath_fallbacks:
            problems.append(
                f"sweeps ({self.sweeps}) fewer than fast-path fallbacks "
                f"({self.fastpath_fallbacks}); every fallback must sweep"
            )
        return problems

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable counter snapshot (golden-corpus schema)."""
        return {
            "datagrams": self.datagrams,
            "sweeps": self.sweeps,
            "fastpath_hits": self.fastpath_hits,
            "fastpath_fallbacks": self.fastpath_fallbacks,
            "fastpath_redos": self.fastpath_redos,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "matcher_calls": dict(sorted(self.matcher_calls.items())),
        }

    def copy(self) -> "DpiStats":
        out = copy.copy(self)
        out.matcher_calls = dict(self.matcher_calls)
        return out

    def since(self, before: "DpiStats") -> "DpiStats":
        """Counter deltas accumulated after the ``before`` snapshot."""
        calls = {
            protocol: count - before.matcher_calls.get(protocol, 0)
            for protocol, count in self.matcher_calls.items()
            if count - before.matcher_calls.get(protocol, 0)
        }
        return DpiStats(
            datagrams=self.datagrams - before.datagrams,
            sweeps=self.sweeps - before.sweeps,
            fastpath_hits=self.fastpath_hits - before.fastpath_hits,
            fastpath_fallbacks=self.fastpath_fallbacks - before.fastpath_fallbacks,
            fastpath_redos=self.fastpath_redos - before.fastpath_redos,
            matcher_calls=calls,
        )

    def merge(self, other: "DpiStats") -> None:
        self.datagrams += other.datagrams
        self.sweeps += other.sweeps
        self.fastpath_hits += other.fastpath_hits
        self.fastpath_fallbacks += other.fastpath_fallbacks
        self.fastpath_redos += other.fastpath_redos
        for protocol, count in other.matcher_calls.items():
            self.matcher_calls[protocol] = (
                self.matcher_calls.get(protocol, 0) + count
            )


@dataclass
class DpiResult:
    """All datagram analyses plus convenience aggregations.

    ``stats`` carries the extraction counters for the ``analyze_records``
    call that produced this result.
    """

    analyses: List[DatagramAnalysis] = field(default_factory=list)
    stats: DpiStats = field(default_factory=DpiStats)

    def messages(self) -> List[ExtractedMessage]:
        out: List[ExtractedMessage] = []
        for analysis in self.analyses:
            out.extend(analysis.messages)
        return out

    def by_class(self) -> Dict[DatagramClass, int]:
        counts: Dict[DatagramClass, int] = {cls: 0 for cls in DatagramClass}
        for analysis in self.analyses:
            counts[analysis.classification] += 1
        return counts

    def protocol_counts(self) -> Dict[Protocol, int]:
        counts: Dict[Protocol, int] = defaultdict(int)
        for message in self.messages():
            counts[message.protocol] += 1
        return dict(counts)


class DpiEngine:
    """Offset-shifting DPI with protocol-specific validation.

    ``fastpath`` enables the flow-sticky fast path (on by default): once a
    stream's ``(offset, SSRC)`` framing has recurred across ``fastpath_k``
    datagrams, later datagrams skip the RTP offset sweep and probe only the
    learned offsets, with per-datagram and per-stream fallbacks keeping the
    output bit-identical to the sweep (see :mod:`repro.dpi.fastpath`).

    ``cache_size`` is retired: the payload-dedup cache it sized cost more
    than it saved, so only ``0`` (the old "no cache" spelling) is still
    accepted, as a no-op.
    """

    def __init__(
        self,
        max_offset: int = DEFAULT_MAX_OFFSET,
        protocols: Iterable[Protocol] = tuple(Protocol),
        cache_size: int = 0,
        fastpath: bool = True,
        fastpath_k: int = DEFAULT_SIGNATURE_K,
        backend: str = "scalar",
    ):
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        if cache_size != 0:
            raise ValueError(
                "cache_size is retired (the payload-dedup cache was "
                "removed); omit it or pass 0"
            )
        if backend not in ("scalar", "columnar"):
            raise ValueError(f"unknown DPI backend: {backend!r}")
        self._max_offset = max_offset
        self._protocols = tuple(protocols)
        # The fast path only skips work for RTP sweeps; without RTP in the
        # protocol set there is nothing to learn.
        self._fastpath = bool(fastpath) and Protocol.RTP in self._protocols
        self._fastpath_k = fastpath_k
        self._backend = backend
        self._columnar = (
            ColumnarScanner(max_offset, self._protocols)
            if backend == "columnar"
            else None
        )
        self.stats = DpiStats()

    @property
    def max_offset(self) -> int:
        return self._max_offset

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def columnar_stats(self) -> Optional[ColumnarStats]:
        """Batch-scanner counters, or None on the scalar backend."""
        return self._columnar.stats if self._columnar is not None else None

    @property
    def fastpath_enabled(self) -> bool:
        return self._fastpath

    @property
    def fastpath_hits(self) -> int:
        """Lifetime fast-path hits across every analysis this engine ran."""
        return self.stats.fastpath_hits

    @property
    def fastpath_fallbacks(self) -> int:
        """Lifetime fast-path prediction misses (each fell back to a sweep)."""
        return self.stats.fastpath_fallbacks

    # -- public API --------------------------------------------------------------

    def analyze_records(self, records: Sequence[PacketRecord]) -> DpiResult:
        """Group UDP records into streams and analyze each.

        Thin batch adapter over :class:`DpiStreamSession`: one feed pass
        plus a flush, so batch and streaming callers share the grouping,
        analysis order, and stats accounting by construction.
        """
        session = self.stream_session()
        for record in records:
            session.feed(record)
        return session.result()

    def analyze_iter(
        self, records: Iterable[PacketRecord]
    ) -> Iterator[DatagramAnalysis]:
        """Yield per-datagram analyses for *records* without building a
        :class:`DpiResult` — consumers that aggregate as they go never hold
        more than one analysis plus the session's open-stream buffers.

        Stream-context validation (RTP sequence continuity, QUIC CID
        learning) is whole-stream-scoped, so analyses for a stream cannot
        be emitted before that stream's last datagram has been seen; a
        capture-shaped input therefore still buffers until the feed ends.
        Live callers that know flow lifetimes should drive a
        :meth:`stream_session` directly and call ``finish_stream`` to
        release per-stream state early.
        """
        session = self.stream_session()
        for record in records:
            session.feed(record)
        yield from session.flush()

    def stream_session(self) -> "DpiStreamSession":
        """An incremental analysis session bound to this engine.

        Sessions share the engine's lifetime stats; a session's stats
        delta is only meaningful while sessions on one engine do not
        interleave.
        """
        return DpiStreamSession(self)

    def analyze_stream(self, stream: Stream) -> List[DatagramAnalysis]:
        """Run both DPI stages over one transport stream."""
        per_datagram, predicted = self._extract_stream(stream)
        accepted, rtp_scores = self._validate_stream(per_datagram)
        if predicted and not self._predictions_accepted(
            predicted, accepted, rtp_scores
        ):
            # Stage two rejected a message the fast path predicted: the
            # signature was wrong in a way the per-datagram checks could not
            # see, so redo the whole stream with unconditional sweeps.
            self.stats.fastpath_redos += 1
            if self._columnar is not None:
                per_datagram = self._resweep_stream(stream)
            else:
                per_datagram = [
                    (record, self._sweep(record.payload))
                    for record in stream.packets
                ]
            accepted, rtp_scores = self._validate_stream(per_datagram)

        analyses: List[DatagramAnalysis] = []
        for (record, _candidates), accepted_list in zip(per_datagram, accepted):
            messages = [self._materialize(c, record) for c in accepted_list]
            messages = [m for m in messages if m is not None]
            analyses.append(DatagramAnalysis.classify(record, messages))
        return analyses

    # -- stage 1 -------------------------------------------------------------------

    def _extract_stream(
        self, stream: Stream
    ) -> Tuple[
        List[Tuple[PacketRecord, List[Candidate]]],
        List[Tuple[int, Tuple[Tuple[int, int, int], ...]]],
    ]:
        """Extract candidates for every datagram, fast path included.

        Returns the per-datagram candidate lists plus, for each fast-path
        hit, its index and the ``(offset, SSRC, end)`` spans it predicted —
        stage two uses those to confirm the predictions after validation.
        """
        if self._columnar is not None:
            return self._extract_stream_columnar(stream)
        stats = self.stats
        learner = (
            SignatureLearner(self._fastpath_k) if self._fastpath else None
        )
        per_datagram: List[Tuple[PacketRecord, List[Candidate]]] = []
        predicted: List[Tuple[int, Tuple[Tuple[int, int, int], ...]]] = []
        for record in stream.packets:
            payload = record.payload
            stats.datagrams += 1
            if learner is not None and learner.locked:
                candidates = self._extract_predicted(payload, learner)
                if candidates is not None:
                    stats.fastpath_hits += 1
                    learner.record_hit()
                    spans = tuple(
                        (c.offset, c.rtp_ssrc, c.end)
                        for c in candidates
                        if c.protocol is Protocol.RTP
                    )
                    predicted.append((len(per_datagram), spans))
                    per_datagram.append((record, candidates))
                    continue
                stats.fastpath_fallbacks += 1
                learner.record_miss()
            candidates = self._sweep(payload)
            if learner is not None:
                learner.observe(candidates)
            per_datagram.append((record, candidates))
        return per_datagram, predicted

    def _extract_stream_columnar(
        self, stream: Stream
    ) -> Tuple[
        List[Tuple[PacketRecord, List[Candidate]]],
        List[Tuple[int, Tuple[Tuple[int, int, int], ...]]],
    ]:
        """``_extract_stream`` with sweeps served by the batch scanner.

        The per-record control flow (fast-path probe, stats accounting) is
        kept byte-for-byte: only the *source* of a sweep's candidate list
        changes, and the batch scan is pure in the payload, so computing it
        ahead of time cannot alter any observable state.
        """
        stats = self.stats
        learner = (
            SignatureLearner(self._fastpath_k) if self._fastpath else None
        )
        sweeper = _StreamSweeper(
            self, [record.payload for record in stream.packets]
        )
        per_datagram: List[Tuple[PacketRecord, List[Candidate]]] = []
        predicted: List[Tuple[int, Tuple[Tuple[int, int, int], ...]]] = []
        for index, record in enumerate(stream.packets):
            payload = record.payload
            stats.datagrams += 1
            locked = False
            if learner is not None and learner.locked:
                locked = True
                candidates = self._extract_predicted(payload, learner)
                if candidates is not None:
                    stats.fastpath_hits += 1
                    learner.record_hit()
                    spans = tuple(
                        (c.offset, c.rtp_ssrc, c.end)
                        for c in candidates
                        if c.protocol is Protocol.RTP
                    )
                    predicted.append((len(per_datagram), spans))
                    per_datagram.append((record, candidates))
                    continue
                stats.fastpath_fallbacks += 1
                learner.record_miss()
            self._count_sweep()
            if locked:
                # Post-lock sweeps are rare fallbacks; look-ahead would
                # scan payloads the fast path will serve.
                budget = 1
            elif learner is not None:
                # The learner usually locks within ~k datagrams, so a full
                # chunk of look-ahead would mostly be wasted.
                budget = _PRELOCK_LOOKAHEAD
            else:
                budget = self._columnar.batch_size
            candidates = sweeper.sweep(index, budget)
            if learner is not None:
                learner.observe(candidates)
            per_datagram.append((record, candidates))
        return per_datagram, predicted

    def _sweep(self, payload: bytes) -> List[Candidate]:
        """Full stage-one scan: every matcher over offsets 0..k."""
        self._count_sweep()
        return self._scan(payload)

    def _count_sweep(self) -> None:
        """Account one full sweep, however its scan is computed.

        The columnar backend counts exactly like the scalar one — a gated
        matcher was still logically invoked — so ``DpiStats`` stays
        bit-identical across backends.
        """
        stats = self.stats
        stats.sweeps += 1
        calls = stats.matcher_calls
        for protocol in self._protocols:
            calls[protocol.value] = calls.get(protocol.value, 0) + 1

    def _scan(self, payload: bytes) -> List[Candidate]:
        """The sweep's pure scan: every matcher, merged and stable-sorted."""
        candidates: List[Candidate] = []
        for protocol in self._protocols:
            candidates.extend(MATCHERS[protocol](payload, self._max_offset))
        candidates.sort(key=lambda c: (c.offset, -c.length))
        return candidates

    def _resweep_stream(
        self, stream: Stream
    ) -> List[Tuple[PacketRecord, List[Candidate]]]:
        """Batched redo: unconditional sweeps for a whole stream."""
        scanner = self._columnar
        payloads = [record.payload for record in stream.packets]
        out: List[Tuple[PacketRecord, List[Candidate]]] = []
        for base in range(0, len(payloads), scanner.batch_size):
            results = scanner.scan_batch(payloads[base:base + scanner.batch_size])
            for step, scanned in enumerate(results):
                index = base + step
                self._count_sweep()
                candidates = (
                    scanned if scanned is not None else self._scan(payloads[index])
                )
                out.append((stream.packets[index], candidates))
        return out

    def _extract_predicted(
        self, payload: bytes, learner: SignatureLearner
    ) -> Optional[List[Candidate]]:
        """Stage-one scan assuming the learned signature; None on a miss.

        Only the RTP sweep is replaced by a targeted probe — the other
        matchers are anchored scans that cost little and must keep running
        so e.g. a STUN message appearing mid-stream is never missed.
        Candidates are assembled in the engine's protocol order so the
        stable sort below yields byte-identical ordering to ``_sweep``.
        """
        signature = learner.signature
        rtp = predicted_rtp_candidates(
            payload, self._max_offset, signature, rtp_candidates
        )
        stats = self.stats
        calls = stats.matcher_calls
        calls[Protocol.RTP.value] = calls.get(Protocol.RTP.value, 0) + 1
        if rtp is None:
            return None
        if learner.continuation_risk(payload, self._max_offset):
            return None
        candidates: List[Candidate] = []
        for protocol in self._protocols:
            if protocol is Protocol.RTP:
                candidates.extend(rtp)
                continue
            calls[protocol.value] = calls.get(protocol.value, 0) + 1
            candidates.extend(MATCHERS[protocol](payload, self._max_offset))
        candidates.sort(key=lambda c: (c.offset, -c.length))
        return candidates

    @staticmethod
    def _predictions_accepted(
        predicted: Sequence[Tuple[int, Tuple[Tuple[int, int, int], ...]]],
        accepted: Sequence[List[Candidate]],
        rtp_scores: Dict[int, float],
    ) -> bool:
        """Did stage two treat the fast path's predictions normally?

        Two kinds of rejection are benign because they play out identically
        in the sweep (a trusted pair's validation samples are collected
        identically in both modes, so stage two sees the same evidence):

        * validation rejection — byte-stable proprietary fields (a constant
          extension magic, say) can earn a spot in the signature and are
          then killed for zero sequence continuity (score 0);
        * overlap loss — shadow candidates inside a stronger message's
          bytes lose the deterministic byte-ownership arbitration.

        What remains is a predicted message with a *valid* SSRC group that
        vanished with nothing accepted in its place: stage two did
        something the fast path's model cannot explain, so the stream is
        redone with unconditional sweeps.
        """
        for index, spans in predicted:
            kept_rtp = {
                (c.offset, c.rtp_ssrc)
                for c in accepted[index]
                if c.protocol is Protocol.RTP
            }
            missing = [
                span for span in spans
                if (span[0], span[1]) not in kept_rtp
                and rtp_scores.get(span[1], 0.0) > 0.0
            ]
            if not missing:
                continue
            for offset, _ssrc, end in missing:
                overlapped = any(
                    c.offset < end and offset < c.end
                    for c in accepted[index]
                )
                if not overlapped:
                    return False
        return True

    # -- stage 2: stream-context validation ------------------------------------------

    def _validate_stream(
        self, per_datagram: Sequence[Tuple[PacketRecord, List[Candidate]]]
    ) -> Tuple[List[List[Candidate]], Dict[int, float]]:
        """Validate and overlap-resolve every datagram's candidates.

        Returns the accepted candidates per datagram plus the RTP group
        scores, which the fast-path redo check consults.
        """
        rtp_scores = self._validate_rtp_groups(per_datagram)
        valid_rtp_ssrcs = frozenset(rtp_scores)
        quic_cids = self._collect_quic_cids(per_datagram)
        accepted: List[List[Candidate]] = []
        for record, candidates in per_datagram:
            validated = [
                c for c in candidates
                if self._validate(c, record, valid_rtp_ssrcs, quic_cids)
            ]
            accepted.append(self._resolve_overlaps(validated, rtp_scores))
        return accepted, rtp_scores

    def _validate_rtp_groups(
        self, per_datagram: Sequence[Tuple[PacketRecord, List[Candidate]]]
    ) -> Dict[int, float]:
        """Score each candidate SSRC by sequence continuity over time.

        This implements the paper's "continuous sequence number within the
        same stream" heuristic and kills false positives surfaced from
        random payload bytes (their SSRC groups are tiny and discontinuous).
        The score — group size weighted by continuity — is also used to
        arbitrate between overlapping RTP candidates: a genuine media stream
        vastly outscores byte patterns that happen to recur inside
        proprietary headers.
        """
        groups: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
        for record, candidates in per_datagram:
            for candidate in candidates:
                if candidate.protocol is Protocol.RTP:
                    groups[candidate.rtp_ssrc].append(
                        (record.timestamp, candidate.rtp_seq)
                    )
        scores: Dict[int, float] = {}
        for ssrc, samples in groups.items():
            if len(samples) < MIN_RTP_GROUP:
                continue
            samples.sort()
            consecutive = 0
            for (_, seq_a), (_, seq_b) in zip(samples, samples[1:]):
                delta = (seq_b - seq_a) & 0xFFFF
                if 1 <= delta <= _MAX_SEQ_STEP:
                    consecutive += 1
            continuity = consecutive / (len(samples) - 1)
            if continuity >= MIN_CONTINUITY:
                scores[ssrc] = len(samples) * continuity
        return scores

    def _collect_quic_cids(
        self, per_datagram: Sequence[Tuple[PacketRecord, List[Candidate]]]
    ) -> frozenset:
        """Connection IDs learned from long headers, for short-header checks."""
        cids = set()
        for _record, candidates in per_datagram:
            for candidate in candidates:
                if candidate.protocol is Protocol.QUIC and candidate.message is not None:
                    header = candidate.message
                    if header.is_long:
                        if header.dcid:
                            cids.add(bytes(header.dcid))
                        if header.scid:
                            cids.add(bytes(header.scid))
        return frozenset(cids)

    def _validate(
        self,
        candidate: Candidate,
        record: PacketRecord,
        valid_rtp_ssrcs: frozenset,
        quic_cids: frozenset,
    ) -> bool:
        if candidate.protocol is Protocol.RTP:
            return candidate.rtp_ssrc in valid_rtp_ssrcs
        if candidate.protocol is Protocol.STUN_TURN:
            return self._validate_stun(candidate)
        if candidate.protocol is Protocol.RTCP:
            return self._validate_rtcp(candidate, valid_rtp_ssrcs)
        if candidate.protocol is Protocol.QUIC:
            header = candidate.message
            if header.is_long:
                if header.is_version_negotiation:
                    # VN packets are structurally weak; require the stream to
                    # have real v1 traffic whose CIDs they reference.
                    return bytes(header.dcid) in quic_cids or bytes(header.scid) in quic_cids
                return True
            return bytes(header.dcid) in quic_cids
        return False

    def _validate_stun(self, candidate: Candidate) -> bool:
        message = candidate.message
        if isinstance(message, ChannelData):
            # Already constrained to offset 0 + exact fit by the matcher.
            return True
        if not message.classic:
            return True  # magic cookie verified by the matcher
        # Classic STUN: accepted only at offset 0 with an exact length fit
        # (checked by the matcher) and a plausible legacy message type.
        return candidate.offset == 0

    def _validate_rtcp(self, candidate: Candidate, valid_rtp_ssrcs: frozenset) -> bool:
        packet = candidate.message
        if candidate.anchor == 0 and packet.packet_type in RTCP_TYPE_NAMES:
            return True
        # Candidates at a non-zero offset (behind proprietary headers) and
        # unknown packet types both need the paper's cross-validation: the
        # sender SSRC must belong to a known RTP stream.  This kills byte
        # patterns inside media payloads that masquerade as RTCP.
        return packet.ssrc is not None and packet.ssrc in valid_rtp_ssrcs

    # -- byte-ownership resolution ------------------------------------------------------

    def _resolve_overlaps(
        self, candidates: List[Candidate], rtp_scores: Dict[int, float]
    ) -> List[Candidate]:
        """Byte-ownership arbitration between overlapping candidates.

        A byte can belong to at most one message (§4.1.1).  Among mutually
        overlapping RTP candidates, the one from the strongest SSRC group
        wins — an earlier offset alone is not evidence, because proprietary
        headers can contain counter bytes that masquerade as weak RTP
        streams.  Across protocols, the earliest offset wins.  The single
        exception is the RTP-continuation rule: an RTP packet whose SSRC
        matches an accepted one and whose sequence number is the successor
        truncates its predecessor instead of being dropped — this is how
        Zoom's two-RTP datagrams are recovered.
        """
        def rank(candidate: Candidate) -> Tuple[float, int]:
            if candidate.protocol is Protocol.RTP:
                score = rtp_scores.get(candidate.rtp_ssrc, 0.0)
            elif candidate.protocol is Protocol.RTCP:
                packet = candidate.message
                if candidate.anchor == 0 and packet.packet_type in RTCP_TYPE_NAMES:
                    # Anchored at the payload start with a registered type:
                    # as reliable as a length-delimited protocol gets.
                    score = float("inf")
                else:
                    # Cross-validated only through its SSRC: exactly as
                    # credible as the RTP group lending that SSRC, so a real
                    # RTP message at an earlier offset wins the overlap.
                    score = rtp_scores.get(packet.ssrc or -1, 0.0)
            else:
                # STUN (cookie-anchored) and QUIC (version-anchored) match
                # random bytes with ~2^-32 probability.
                score = float("inf")
            return (-score, candidate.offset)

        accepted: List[Candidate] = []
        for candidate in sorted(candidates, key=rank):
            overlapping = [a for a in accepted if _overlaps(a, candidate)]
            if not overlapping:
                accepted.append(candidate)
                continue
            last = max(overlapping, key=lambda a: a.offset)
            if (
                candidate.protocol is Protocol.RTP
                and last.protocol is Protocol.RTP
                and len(overlapping) == 1
                and candidate.rtp_ssrc == last.rtp_ssrc
                and (candidate.rtp_seq - last.rtp_seq) & 0xFFFF == 1
                and candidate.offset > last.offset
            ):
                last.length = candidate.offset - last.offset
                accepted.append(candidate)
        accepted.sort(key=lambda c: c.offset)
        return accepted

    # -- materialization -----------------------------------------------------------------

    def _materialize(
        self, candidate: Candidate, record: PacketRecord
    ) -> Optional[ExtractedMessage]:
        message = candidate.message
        if candidate.protocol is Protocol.RTP and message is None:
            try:
                message = RtpPacket.parse(
                    record.payload,
                    strict=False,
                    start=candidate.offset,
                    end=candidate.offset + candidate.length,
                )
            except RtpParseError:
                return None
        return ExtractedMessage(
            protocol=candidate.protocol,
            offset=candidate.offset,
            length=candidate.length,
            message=message,
            record=record,
            trailer=candidate.trailer,
        )


def _overlaps(a: Candidate, b: Candidate) -> bool:
    return a.offset < b.end and b.offset < a.end


class _StreamSweeper:
    """Serves one stream's sweeps from look-ahead columnar batches.

    When a sweep is requested for record *i*, the sweeper batch-scans *i*
    together with the upcoming payloads.  Scanning ahead never changes
    behaviour: a pre-scanned payload the fast path ends up serving is
    simply discarded, because the scan is pure and all stats accounting
    happens at consumption time in the caller.

    Once the fast-path learner locks, sweeps become rare fallbacks, so
    look-ahead would mostly scan payloads the fast path will serve;
    the sweeper then scans just the requested payload.
    """

    __slots__ = ("_engine", "_payloads", "_ready", "_cursor")

    def __init__(self, engine: DpiEngine, payloads: Sequence[bytes]):
        self._engine = engine
        self._payloads = payloads
        self._ready: Dict[int, List[Candidate]] = {}
        self._cursor = 0

    def sweep(self, index: int, budget: int) -> List[Candidate]:
        candidates = self._ready.pop(index, None)
        if candidates is not None:
            return candidates
        self._fill(index, budget)
        candidates = self._ready.pop(index, None)
        if candidates is None:
            # The batch scanner flagged this payload as irregular.
            candidates = self._engine._scan(self._payloads[index])
        return candidates

    def _fill(self, index: int, budget: int) -> None:
        if self._ready:
            # Entries behind the current record were pre-scanned but then
            # served by the fast path; they can never be consumed.
            for stale in [i for i in self._ready if i < index]:
                del self._ready[stale]
        cursor = max(self._cursor, index + 1)
        end = min(cursor + budget - 1, len(self._payloads))
        take = [index, *range(cursor, end)]
        self._cursor = max(cursor, end)
        results = self._engine._columnar.scan_batch(
            [self._payloads[i] for i in take]
        )
        for i, scanned in zip(take, results):
            if scanned is not None:
                self._ready[i] = scanned


class DpiStreamSession:
    """Incremental DPI over an interleaved record feed.

    Records are grouped into streams as they arrive (first-seen order,
    exactly like ``group_streams``); analysis happens per completed
    stream, because every validation heuristic — RTP sequence continuity,
    QUIC connection-ID learning, STUN transaction pairing — needs the
    whole stream as context.  :meth:`flush` analyzes everything still
    open and returns the analyses in global timestamp order, making a
    feed-all-then-flush pass bit-identical to ``analyze_records``.

    For live workloads where flows rotate, :meth:`finish_stream` analyzes
    one flow the moment the caller knows it is done and releases its
    buffered payloads, which is what keeps the session's footprint
    bounded by the number of *concurrently open* flows rather than the
    capture length.
    """

    def __init__(self, engine: DpiEngine):
        self._engine = engine
        self._streams: Dict[FlowKey, Stream] = {}
        self._before = engine.stats.copy()
        self._fed = 0
        self._flushed = False
        # Monotone per-stream serials in first-seen order.  A serial is
        # assigned when a stream is created and *reassigned* if a flow key
        # reopens after eviction, so ``(timestamp, serial, position)`` is
        # a total order over analyses that reproduces the batch flush
        # order exactly (streams concatenate in insertion order, then a
        # stable timestamp sort) — the key the session layer sorts by.
        self._serials: Dict[FlowKey, int] = {}
        self._next_serial = 0
        self._last_seen: Dict[FlowKey, float] = {}

    @property
    def fed(self) -> int:
        """UDP records accepted so far (non-UDP feeds are ignored)."""
        return self._fed

    @property
    def buffered(self) -> int:
        """Datagrams currently held waiting for their stream to complete."""
        return sum(len(s.packets) for s in self._streams.values())

    @property
    def open_streams(self) -> int:
        return len(self._streams)

    def feed(self, record: PacketRecord) -> None:
        """Buffer one record into its stream (non-UDP records are dropped,
        matching the ``analyze_records`` transport filter)."""
        if self._flushed:
            raise RuntimeError("feed() after flush()")
        if record.transport != "UDP":
            return
        self._fed += 1
        key = record.flow_key
        stream = self._streams.get(key)
        if stream is None:
            stream = Stream(key=key)
            self._streams[key] = stream
            self._serials[key] = self._next_serial
            self._next_serial += 1
        stream.add(record)
        last = self._last_seen.get(key)
        if last is None or record.timestamp > last:
            self._last_seen[key] = record.timestamp

    def feed_many(self, records: Iterable[PacketRecord]) -> None:
        """Feed a whole chunk of records (the pipeline's unit of work).

        Grouping is per-record either way; the batch win comes at analysis
        time, when each completed stream's sweeps run through the columnar
        scanner in chunk-sized batches.
        """
        feed = self.feed
        for record in records:
            feed(record)

    def open_keys(self) -> List[FlowKey]:
        """Keys of every open stream, in first-seen (insertion) order."""
        return list(self._streams)

    def serial(self, key: FlowKey) -> Optional[int]:
        """First-seen serial of the stream currently open under *key*.

        Serials survive :meth:`finish_stream` until the key reopens, so
        an order-tracking consumer can still resolve the serial of an
        analysis it receives from an eviction.
        """
        return self._serials.get(key)

    def last_seen(self, key: FlowKey) -> Optional[float]:
        """Timestamp of the newest record fed to *key*'s open stream."""
        return self._last_seen.get(key)

    def finish_stream(self, key: FlowKey) -> List[DatagramAnalysis]:
        """Analyze one stream now and release its buffered payloads.

        The caller asserts the flow is complete; datagrams fed to the same
        key afterwards would start a fresh stream and be validated without
        this one's context.
        """
        stream = self._streams.pop(key, None)
        if stream is None:
            return []
        self._last_seen.pop(key, None)
        stream.sort()
        return self._engine.analyze_stream(stream)

    def evict_idle(self, watermark: float, idle_gap: float) -> List[DatagramAnalysis]:
        """Finish every stream idle for more than *idle_gap* capture-seconds.

        A stream is idle when its newest record's timestamp trails
        *watermark* by more than ``idle_gap``.  Deterministic by
        construction: the decision reads only record timestamps, never
        wall-clock, and candidate streams are finished in first-seen
        order.  The contract is the same as :meth:`finish_stream` — a
        record arriving for an evicted key later starts a fresh stream
        and is validated without the evicted context — so callers pick
        ``idle_gap`` larger than any real intra-flow gap.
        """
        if self._flushed:
            return []
        analyses: List[DatagramAnalysis] = []
        idle = [
            key
            for key, last in self._last_seen.items()
            if watermark - last > idle_gap
        ]
        for key in idle:
            analyses.extend(self.finish_stream(key))
        return analyses

    def flush(self) -> List[DatagramAnalysis]:
        """Analyze every open stream; return analyses in timestamp order."""
        if self._flushed:
            return []
        self._flushed = True
        analyses: List[DatagramAnalysis] = []
        for key in list(self._streams):
            analyses.extend(self.finish_stream(key))
        analyses.sort(key=lambda a: a.record.timestamp)
        return analyses

    def stats(self) -> DpiStats:
        """Extraction-counter deltas accumulated by this session."""
        return self._engine.stats.since(self._before)

    def result(self) -> DpiResult:
        """Flush and package everything as a batch-shaped ``DpiResult``."""
        return DpiResult(analyses=self.flush(), stats=self.stats())
