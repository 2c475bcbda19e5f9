"""The DPI engine: candidate extraction → stream-context validation →
byte-ownership resolution → datagram classification (paper §4.1).

The engine works per transport stream because the validation heuristics are
inherently stream-scoped: RTP sequence continuity within an SSRC, STUN
transaction request/response pairing, and QUIC connection-ID consistency.

On the production (columnar) backend one loop per datagram turns the
stage-one rows into analyses.  Most datagrams of a call are one RTP packet,
bare or behind a proprietary header: no non-RTP candidate and exactly one
RTP row whose SSRC passed stage two.  Such a datagram takes a lane that
parses the row straight into its one :class:`ExtractedMessage` and
classifies it by its offset (0 is standard, anything else a proprietary
header), with no ``Candidate``, validation or overlap resolution, none of
which could change it.  An RTP header that cannot be parsed (padding bit set
but no payload bytes) leaves the datagram fully proprietary, as on the
reference path.  Every other datagram (Zoom's dual-RTP continuations, RTP
beside STUN/RTCP/QUIC candidates) gets ``Candidate`` objects and the
reference's validation and arbitration.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dpi.candidates import MATCHERS, Candidate, sweep
from repro.dpi.columnar import (
    ColumnarScanner,
    ColumnarStats,
    RtpColumns,
    build_rtp_candidates,
)
from repro.dpi.messages import (
    DatagramAnalysis,
    DatagramClass,
    ExtractedMessage,
    Protocol,
)
from repro.packets.batch import DEFAULT_CHUNK_SIZE
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.constants import RTCP_TYPE_NAMES
from repro.protocols.rtp.header import RtpPacket, RtpParseError
from repro.protocols.stun.message import ChannelData
from repro.streams.flow import FlowKey, Stream

DEFAULT_MAX_OFFSET = 200

#: An RTP SSRC group must show this many packets with continuous sequence
#: numbers before its candidates are believed.
MIN_RTP_GROUP = 3
#: Fraction of inter-packet sequence deltas that must look consecutive.
MIN_CONTINUITY = 0.5
_MAX_SEQ_STEP = 512

#: ``DpiStats`` fields kept in the schema that always read zero.
_RETIRED_COUNTERS = (
    "fastpath_hits", "fastpath_fallbacks", "fastpath_redos",
    "cache_hits", "cache_misses",
)


@dataclass
class DpiStats:
    """Instrumentation counters for the extraction layer.

    Every analyzed datagram gets exactly one full 0..k sweep, so
    ``sweeps`` equals ``datagrams``.  ``matcher_calls`` counts matcher
    invocations per protocol; a matcher the columnar scanner proves
    empty and skips still counts as invoked, so the counters are
    bit-identical across backends.

    ``fastpath_hits``, ``fastpath_fallbacks``, ``fastpath_redos``,
    ``cache_hits`` and ``cache_misses`` are retired: the engine no longer
    has a flow-sticky fast path or a payload-dedup cache, so all five
    always read zero.  They stay in the counter schema (:meth:`as_dict`)
    because recorded golden corpora and benchmark ledgers carry them.
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

    def invariant_violations(self) -> List[str]:
        """Internal-consistency checks over the counters; empty when sound.

        Every analyzed datagram is swept exactly once, and the retired
        counters must read zero.
        """
        problems: List[str] = []
        for name in ("datagrams", "sweeps"):
            if getattr(self, name) < 0:
                problems.append(f"{name} is negative: {getattr(self, name)}")
        if any(count < 0 for count in self.matcher_calls.values()):
            problems.append(f"negative matcher call count: {self.matcher_calls}")
        for name in _RETIRED_COUNTERS:
            if getattr(self, name):
                problems.append(
                    f"retired counter {name} is nonzero: {getattr(self, name)}"
                )
        if self.sweeps != self.datagrams:
            problems.append(
                f"sweeps ({self.sweeps}) must equal datagrams "
                f"({self.datagrams}); every datagram is swept once"
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
            matcher_calls=calls,
        )

    def merge(self, other: "DpiStats") -> None:
        self.datagrams += other.datagrams
        self.sweeps += other.sweeps
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

    Stage one sweeps the four matchers (STUN/TURN, RTP, RTCP, QUIC) over
    offsets 0..k of every datagram (Algorithm 1); stage two validates the
    candidates in stream context.
    ``backend`` picks how the two stages are computed; the verdicts and
    :class:`DpiStats` are bit-identical either way:

    * ``"scalar"`` (the default) is the paper's reference: every matcher
      at every anchor, one payload at a time, and every candidate a
      :class:`Candidate` object.  Golden corpora are recorded with it and
      every other configuration is diffed against it.
    * ``"columnar"`` is the production path: a stream's payloads go
      through :class:`~repro.dpi.columnar.ColumnarScanner` in chunks,
      which vectorizes the RTP pass and skips matchers a byte-class
      prefilter proves empty.  RTP candidates stay columns through SSRC
      scoring, and objects are built only for rows whose SSRC passes:
      a row of a rejected SSRC never reaches a verdict.  A lone RTP row
      becomes its message without a ``Candidate`` (see the module
      docstring).  A payload that is not ``bytes`` is scanned as
      ``bytes(payload)``.

    ``fastpath`` and ``cache_size`` are retired: the flow-sticky fast
    path and the payload-dedup cache are gone, so only their old "off"
    spellings (``False`` and ``0``) are still accepted, as no-ops.
    """

    def __init__(
        self,
        max_offset: int = DEFAULT_MAX_OFFSET,
        cache_size: int = 0,
        fastpath: bool = False,
        backend: str = "scalar",
    ):
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        if cache_size != 0:
            raise ValueError(
                "cache_size is retired (the payload-dedup cache was "
                "removed); omit it or pass 0"
            )
        if fastpath is not False:
            raise ValueError(
                "fastpath is retired (the flow-sticky fast path was "
                "removed); omit it or pass False"
            )
        if backend not in ("scalar", "columnar"):
            raise ValueError(f"unknown DPI backend: {backend!r}")
        self._max_offset = max_offset
        self._backend = backend
        self._columnar = (
            ColumnarScanner(max_offset) if backend == "columnar" else None
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

    # -- public API --------------------------------------------------------------

    def analyze_records(self, records: Iterable[PacketRecord]) -> DpiResult:
        """Group UDP records into streams and analyze each.

        One chunk through a :class:`DpiStage` plus its flush, so batch
        and session callers share the grouping, analysis order, and stats
        accounting by construction.
        """
        stage = DpiStage(self)
        stage.process_chunk(records)
        analyses = [analysis for analysis, _ in stage.flush()]
        return DpiResult(analyses=analyses, stats=stage.stats())

    def analyze_stream(self, stream: Stream) -> List[DatagramAnalysis]:
        """Run both DPI stages over one transport stream.

        The columnar backend (:meth:`_columnar_analyses`) builds each
        datagram's analysis in one pass over the stage-one rows: a
        datagram whose only accepted candidate is one RTP row becomes its
        message directly, without a ``Candidate``.  The scalar backend
        validates every datagram's candidates and materializes them.
        """
        if self._columnar is not None:
            return self._columnar_analyses(stream)
        accepted = self._validate_stream(self._extract_stream(stream))
        return [
            self._analysis(record, accepted_list)
            for record, accepted_list in zip(stream.packets, accepted)
        ]

    def _analysis(
        self, record: PacketRecord, accepted: List[Candidate]
    ) -> DatagramAnalysis:
        """One datagram's analysis from its accepted candidates."""
        messages = [self._materialize(c, record) for c in accepted]
        return DatagramAnalysis.classify(
            record, [m for m in messages if m is not None]
        )

    # -- stage 1 -------------------------------------------------------------------

    def _extract_stream(
        self, stream: Stream
    ) -> List[Tuple[PacketRecord, List[Candidate]]]:
        """Sweep every datagram of *stream*: the full 0..k scan each."""
        packets = stream.packets
        max_offset = self._max_offset
        candidates = [sweep(record.payload, max_offset) for record in packets]
        self._count_sweeps(len(packets))
        return list(zip(packets, candidates))

    def _count_sweeps(self, count: int) -> None:
        """Account *count* datagrams, each swept once by every matcher.

        The columnar backend counts exactly like the scalar one — a gated
        matcher was still logically invoked — so ``DpiStats`` stays
        bit-identical across backends.
        """
        stats = self.stats
        stats.datagrams += count
        stats.sweeps += count
        calls = stats.matcher_calls
        for protocol in MATCHERS:
            calls[protocol.value] = calls.get(protocol.value, 0) + count

    # -- both stages on columns (production) -----------------------------------------

    def _columnar_analyses(self, stream: Stream) -> List[DatagramAnalysis]:
        """Stages one and two with RTP candidates kept as columns, then
        each datagram's analysis in the same pass.

        The same analyses as the reference path: SSRC groups are scored
        on the stream's RTP rows (:func:`_score_rtp_columns`), and a row
        of a rejected SSRC never reaches a verdict.  A datagram with no
        non-RTP candidate and exactly one RTP row whose SSRC passed (the
        common case: plain or prefixed media) needs neither validation
        nor arbitration: its row is parsed straight into the one message,
        which ``_materialize`` would build from a ``Candidate``.  Only the
        rest get ``Candidate`` objects (:func:`build_rtp_candidates`) and
        the reference's non-RTP validation, assembly in sweep order and
        overlap resolution.
        """
        scanner = self._columnar
        packets = stream.packets
        payloads = [record.payload for record in packets]
        parts: List[Tuple[List[Candidate], ...]] = []
        chunks: List[RtpColumns] = []
        step = DEFAULT_CHUNK_SIZE
        for base in range(0, len(payloads), step):
            batch = scanner.scan_columns(payloads[base:base + step])
            parts.extend(batch.parts)
            # Chunk-local payload indices made stream-global.
            chunks.append(RtpColumns(batch.rtp.index + base, *batch.rtp[1:]))
        count = len(payloads)
        self._count_sweeps(count)
        if not chunks:
            return []
        rows = RtpColumns(*[np.concatenate(column) for column in zip(*chunks)])

        # Stage two.
        when = np.fromiter(
            (record.timestamp for record in packets), np.float64, count
        )[rows.index]
        rtp_scores = _score_rtp_columns(rows.ssrc, rows.seq, when)
        # Payloads with non-RTP candidates.
        mixed = [i for i, part in enumerate(parts) if part]
        # The offset of each datagram's lone RTP row, or -1.
        lone = np.full(count, -1, dtype=np.int64)
        built: Dict[int, List[Candidate]] = {}
        if rtp_scores:
            passed = np.flatnonzero(np.isin(
                rows.ssrc, np.fromiter(rtp_scores, np.uint32, len(rtp_scores))
            ))
            index = rows.index[passed]
            single = np.bincount(index, minlength=count)[index] == 1
            if mixed:
                has_parts = np.zeros(count, dtype=bool)
                has_parts[mixed] = True
                single &= ~has_parts[index]
            lone[index[single]] = rows.offset[passed[single]]
            passed = passed[~single]
            built = build_rtp_candidates(
                RtpColumns(*[column[passed] for column in rows])
            )
        valid_rtp_ssrcs = frozenset(rtp_scores)
        quic_cids = self._collect_quic_cids(
            [(None, segment) for i in mixed for segment in parts[i]]
        )
        validate = self._validate
        parse = RtpPacket.parse
        rtp = Protocol.RTP
        standard = DatagramClass.STANDARD
        prefixed = DatagramClass.PROPRIETARY_HEADER
        unknown = DatagramClass.FULLY_PROPRIETARY
        analyses: List[DatagramAnalysis] = []
        for i, (record, part, offset) in enumerate(
            zip(packets, parts, lone.tolist())
        ):
            if offset >= 0:
                payload = record.payload
                size = len(payload)
                try:
                    message = parse(payload, False, offset, size)
                except RtpParseError:
                    # Padding bit set but no payload bytes, exactly where
                    # _materialize drops the message.
                    analyses.append(DatagramAnalysis(record, [], unknown))
                    continue
                analyses.append(DatagramAnalysis(
                    record,
                    [ExtractedMessage(rtp, offset, size - offset, message,
                                      record)],
                    prefixed if offset else standard,
                ))
                continue
            candidates = built.get(i)
            if part:
                part = [
                    [
                        c for c in segment
                        if validate(c, record, valid_rtp_ssrcs, quic_cids)
                    ]
                    for segment in part
                ]
            elif candidates is None:
                analyses.append(DatagramAnalysis(record, [], unknown))
                continue
            candidates = scanner.assemble(part, candidates or [])
            # A lone candidate owns its bytes; the arbitration would
            # return it unchanged.
            if len(candidates) != 1:
                candidates = self._resolve_overlaps(candidates, rtp_scores)
            analyses.append(self._analysis(record, candidates))
        return analyses

    # -- stage 2: stream-context validation ------------------------------------------

    def _validate_stream(
        self, per_datagram: Sequence[Tuple[PacketRecord, List[Candidate]]]
    ) -> List[List[Candidate]]:
        """Validate and overlap-resolve every datagram's candidates."""
        rtp_scores = self._validate_rtp_groups(per_datagram)
        valid_rtp_ssrcs = frozenset(rtp_scores)
        quic_cids = self._collect_quic_cids(per_datagram)
        accepted: List[List[Candidate]] = []
        rtp = Protocol.RTP
        for record, candidates in per_datagram:
            # RTP, by far the most common candidate, is checked inline.
            validated = [
                c for c in candidates
                if (
                    c.rtp_ssrc in valid_rtp_ssrcs
                    if c.protocol is rtp
                    else self._validate(c, record, valid_rtp_ssrcs, quic_cids)
                )
            ]
            accepted.append(self._resolve_overlaps(validated, rtp_scores))
        return accepted

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

        Most RTP candidates are one-off reads of random media bytes, so
        SSRCs are counted first and samples are gathered only for groups
        large enough to be scored.
        """
        rtp = Protocol.RTP
        counts = Counter(
            candidate.rtp_ssrc
            for _record, candidates in per_datagram
            for candidate in candidates
            if candidate.protocol is rtp
        )
        groups: Dict[int, List[Tuple[float, int]]] = {
            ssrc: []
            for ssrc, count in counts.items()
            if count >= MIN_RTP_GROUP
        }
        if groups:
            for record, candidates in per_datagram:
                timestamp = record.timestamp
                for candidate in candidates:
                    if candidate.protocol is rtp:
                        samples = groups.get(candidate.rtp_ssrc)
                        if samples is not None:
                            samples.append((timestamp, candidate.rtp_seq))
        scores: Dict[int, float] = {}
        for ssrc, samples in groups.items():
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


def _score_rtp_columns(ssrc, seq, when) -> Dict[int, float]:
    """``DpiEngine._validate_rtp_groups`` on columns; the same scores.

    One row per RTP candidate: its SSRC, sequence number and the capture
    timestamp of its datagram.  SSRCs seen fewer than ``MIN_RTP_GROUP``
    times drop out; the rest are sorted by (group, timestamp, seq), the
    reference's sample order, and the deltas in ``1.._MAX_SEQ_STEP``
    (mod 2^16) counted per group.  Continuity and score are computed
    with Python numbers, exactly as the reference does, so the scores
    are bit-identical.
    """
    if len(ssrc) < MIN_RTP_GROUP:
        return {}
    groups, inverse, counts = np.unique(
        ssrc, return_inverse=True, return_counts=True
    )
    large = counts >= MIN_RTP_GROUP
    if not large.any():
        return {}
    rows = np.nonzero(large[inverse])[0]
    group = inverse[rows]
    order = np.lexsort((seq[rows], when[rows], group))
    group = group[order]
    seqs = seq[rows][order].astype(np.int32)
    delta = (seqs[1:] - seqs[:-1]) & 0xFFFF
    step = (group[1:] == group[:-1]) & (delta >= 1) & (delta <= _MAX_SEQ_STEP)
    consecutive = np.bincount(group[1:][step], minlength=len(groups))
    scores: Dict[int, float] = {}
    for g in np.nonzero(large)[0].tolist():
        size = int(counts[g])
        continuity = int(consecutive[g]) / (size - 1)
        if continuity >= MIN_CONTINUITY:
            scores[int(groups[g])] = size * continuity
    return scores


#: Where an analysis sits in the batch flush order: ``(timestamp, stream
#: serial, position in stream, message count)``.  Sorting by the first
#: three fields restores the batch order; the count lets a consumer slice
#: the analysis's verdicts out of the index-ordered verdict list.
OrderKey = Tuple[float, int, int, int]


class DpiStage:
    """Per-datagram two-stage DPI (§4.1) over an interleaved record feed.

    :meth:`process_chunk` groups UDP records into streams as they arrive
    (first-seen order, exactly like ``group_streams``) and emits nothing:
    every validation heuristic — RTP sequence continuity, QUIC
    connection-ID learning, STUN transaction pairing — needs the whole
    stream as context, so a stream is analyzed only when it finishes.
    :meth:`flush` finishes every open stream and returns its analyses in
    global timestamp order, so one chunk plus a flush is
    ``DpiEngine.analyze_records``.  With ``idle_gap`` set,
    :meth:`evict` finishes the streams idle longer than the gap
    (capture-seconds) before flush, which bounds the stage's footprint by
    the *concurrently open* flows rather than the capture length.

    Both emit ``(analysis, order_key)`` pairs (:data:`OrderKey`).  A
    stream's serial is assigned when it opens, so a flow key that reopens
    after eviction gets a fresh one; the keys are therefore a total order
    that reproduces the batch flush order exactly (streams concatenated
    in first-seen order, then a stable timestamp sort).  The stage holds
    state for open streams only.
    """

    name = "dpi"

    def __init__(self, engine: DpiEngine, idle_gap: Optional[float] = None):
        self._engine = engine
        self._idle_gap = idle_gap
        self._before = engine.stats.copy()
        self._streams: Dict[FlowKey, Stream] = {}
        self._serials: Dict[FlowKey, int] = {}
        self._last_seen: Dict[FlowKey, float] = {}
        self._next_serial = 0
        # Datagrams held in open streams, kept current on every record and
        # finish: the session reads it after every chunk, so a re-sum over
        # open streams would make feeding quadratic in open flows.
        self._buffered = 0
        self._flushed = False

    def process_chunk(self, records: Iterable[PacketRecord]) -> List[DatagramAnalysis]:
        """Buffer records into their streams (non-UDP records are dropped:
        the paper's DPI is UDP-only)."""
        if self._flushed:
            raise RuntimeError("process_chunk() after flush()")
        streams, last_seen = self._streams, self._last_seen
        for record in records:
            if record.transport != "UDP":
                continue
            self._buffered += 1
            key = record.flow_key
            stream = streams.get(key)
            if stream is None:
                stream = Stream(key=key)
                streams[key] = stream
                self._serials[key] = self._next_serial
                self._next_serial += 1
            stream.add(record)
            last = last_seen.get(key)
            if last is None or record.timestamp > last:
                last_seen[key] = record.timestamp
        return []

    def _finish(self, key: FlowKey) -> List[Tuple[DatagramAnalysis, OrderKey]]:
        """Analyze one open stream and drop every trace of it."""
        stream = self._streams.pop(key)
        serial = self._serials.pop(key)
        del self._last_seen[key]
        self._buffered -= len(stream.packets)
        stream.sort()
        return [
            (analysis, (analysis.record.timestamp, serial, position,
                        len(analysis.messages)))
            for position, analysis in enumerate(
                self._engine.analyze_stream(stream)
            )
        ]

    def evict(self, watermark: float) -> List[Tuple[DatagramAnalysis, OrderKey]]:
        """Finish every stream idle for more than ``idle_gap``.

        A stream is idle when its newest record's timestamp trails
        *watermark* by more than the gap.  Deterministic by construction:
        the decision reads only record timestamps, never wall-clock, and
        idle streams finish in first-seen order.  A record arriving for
        an evicted key later starts a fresh stream and is validated
        without the evicted context, so callers pick ``idle_gap`` larger
        than any real intra-flow gap.  Without ``idle_gap`` nothing is
        ever evicted.
        """
        if self._idle_gap is None or self._flushed:
            return []
        gap = self._idle_gap
        idle = [
            key for key, last in self._last_seen.items() if watermark - last > gap
        ]
        out: List[Tuple[DatagramAnalysis, OrderKey]] = []
        for key in idle:
            out.extend(self._finish(key))
        return out

    def flush(self) -> List[Tuple[DatagramAnalysis, OrderKey]]:
        """Finish every open stream; return its analyses in timestamp order."""
        if self._flushed:
            return []
        self._flushed = True
        out: List[Tuple[DatagramAnalysis, OrderKey]] = []
        for key in list(self._streams):
            out.extend(self._finish(key))
        # Streams finish in serial order, so a stable sort on the
        # timestamp alone is the order-key sort.
        out.sort(key=lambda pair: pair[1][0])
        return out

    def buffered(self) -> int:
        """Datagrams currently held waiting for their stream to finish."""
        return self._buffered

    def stats(self) -> DpiStats:
        """Extraction-counter deltas accumulated by this stage.

        A stage shares its engine's lifetime stats, so the delta is only
        meaningful while stages on one engine do not interleave.
        """
        return self._engine.stats.since(self._before)
