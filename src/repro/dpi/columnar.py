"""Columnar batch stage-one scanner: the production 0..k sweep.

The reference sweep (:meth:`repro.dpi.engine.DpiEngine._scan`) runs four
anchored matchers per payload, and per-payload Python call overhead
dominates its cost.  This module computes the same sweep for a whole
chunk of one stream's payloads (up to 256 at a time) at once; it is the
stage one the production engine (``DpiEngine(backend="columnar")``) runs.

Its output is column-shaped (:class:`ColumnBatch`).  RTP — the only
matcher that yields candidates in bulk, most of them one-off reads of
media bytes — stays rows of narrow parallel numpy arrays (payload index,
offset, length, SSRC, sequence number, RTP timestamp); only the other
protocols' candidates are :class:`Candidate` objects.  The engine scores
SSRC groups on those arrays and builds objects only for rows whose SSRC
passes stage two; :meth:`ColumnarScanner.scan_batch` builds every row and
returns the candidate lists the scalar sweep would.

One kernel serves every batch of ``bytes`` payloads, whatever its size
(:meth:`ColumnarScanner._scan_np`):

* the payloads are joined into one buffer with an offset index, so each
  anchor pass is a single C-level scan whose global match positions are
  translated back to ``(payload, offset)`` pairs;
* the RTP pass is fully vectorized with numpy (byte-class masks, one
  gather of the header fields);
* the STUN/RTCP/QUIC matchers are *gated*: a cheap prefilter proves the
  matcher would return nothing for a payload, so it is simply skipped.

Payloads that are not ``bytes``, and any batch the kernel fails on, get
the ungated scalar sweep in the same column form
(:meth:`ColumnarScanner.scalar_columns`).

Every gate is a necessary condition of the corresponding matcher, so a
skipped matcher is exactly one that would have produced zero candidates:

* STUN — a modern candidate needs the magic cookie at bytes ``o+4..o+8``
  with ``0 <= o <= max_offset``; a classic candidate needs
  ``looks_like_stun(payload, 0)`` (inlined below, byte for byte); a
  ChannelData candidate needs ``0x40 <= payload[0] <= 0x4F``.
* RTCP — an anchor only yields candidates when its *first* header fits:
  the anchor byte classes already guarantee version 2 and an in-range
  packet type, and ``RtcpHeader.parse`` cannot fail inside the anchor
  window, so the walk's first iteration can only stop on the length fit
  ``offset + (u16@offset+2 + 1) * 4 <= size``.  No fitting anchor, no
  candidates.
* QUIC — long headers need an anchor match inside the matcher's own
  ``finditer`` window; short headers need ``payload[0] & 0xC0 == 0x40``
  and at least 26 bytes.

Candidate lists come out bit-identical to the scalar sweep: a payload's
other candidates are kept in segments split at RTP's place in the
protocol order, so assembly (:meth:`ColumnarScanner.assemble`) follows
the engine's protocol order before the same stable sort, and an RTP-only
list skips the sort because anchored RTP candidates are already in
ascending ``(offset, -length)`` order (length decreases as offset grows
within one payload).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dpi.candidates import (
    _COOKIE_BYTES,
    Candidate,
    MATCHERS,
    rtp_candidates,
)
from repro.dpi.messages import Protocol
from repro.protocols.quic.header import QUIC_V1, QUIC_V2

_log = logging.getLogger("repro.dpi")

#: Payloads scanned per columnar pass; matches the pipeline chunk unit.
DEFAULT_BATCH_SIZE = 256

#: The three version strings a QUIC long-header anchor can carry at bytes
#: ``o+1..o+5`` (see ``candidates._QUIC_ANCHOR``): v1, v2, version
#: negotiation.
_QUIC_VN_NEEDLE = b"\x00\x00\x00\x00"
_QUIC_VERSION_NEEDLES = (
    QUIC_V1.to_bytes(4, "big"),
    QUIC_V2.to_bytes(4, "big"),
    _QUIC_VN_NEEDLE,
)
#: Finds the end of a zero run.
_NONZERO = re.compile(rb"[^\x00]")


def _sort_key(candidate: Candidate):
    return (candidate.offset, -candidate.length)


def _big_endian(head, lo: int, hi: int, dtype: str):
    """Bytes ``lo:hi`` of each row of a uint8 matrix as big-endian ints."""
    return (
        np.ascontiguousarray(head[:, lo:hi]).view(">" + dtype)[:, 0]
        .astype(dtype)
    )


def _crossed_power_of_two(before: int, after: int) -> bool:
    """Whether a counter moving from *before* to *after* passed 1, 2, 4,
    8, ... — the rate limit for repeated warnings."""
    return after.bit_length() > before.bit_length()


def _classic_stun_gate(payload: bytes, size: int, b0: int) -> bool:
    """Inline ``looks_like_stun(payload, 0)`` — the classic-STUN gate."""
    if size < 20 or b0 & 0xC0:
        return False
    length = payload[2] << 8 | payload[3]
    return not (length & 3) and 20 + length <= size


@dataclass
class ColumnarStats:
    """Batch-scanner instrumentation, separate from :class:`DpiStats`.

    ``DpiStats`` is the golden-corpus schema and must stay bit-identical
    across backends, so columnar-only counters live here.  ``fallbacks``
    counts payloads the batch scanner refused (non-``bytes`` inputs) and
    handed back for a scalar sweep; ``vector_errors`` counts whole batches
    the numpy kernel failed on, which then got the scalar sweep.
    """

    batches: int = 0
    payloads: int = 0
    fallbacks: int = 0
    vector_errors: int = 0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.payloads if self.payloads else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "payloads": self.payloads,
            "fallbacks": self.fallbacks,
            "vector_errors": self.vector_errors,
            "fallback_rate": self.fallback_rate,
        }

    def merge(self, other: "ColumnarStats") -> None:
        self.batches += other.batches
        self.payloads += other.payloads
        self.fallbacks += other.fallbacks
        self.vector_errors += other.vector_errors


#: numpy dtypes of the six :class:`RtpColumns`, in order.
_DTYPES = (np.int32, np.int32, np.int32, np.uint32, np.uint16, np.uint32)


class RtpColumns(NamedTuple):
    """RTP candidates as parallel columns, one row per candidate.

    Rows are ordered by payload index and then offset.  Every column is
    a numpy array: ``index``, ``offset`` and ``length`` int32, ``ssrc``
    and ``timestamp`` uint32, ``seq`` uint16.

    Build instances from explicit arguments or a list, never from a
    generator or ``_replace``: CPython sizes those tuples by resizing a
    larger one, and the resized blocks pile up in the 6-tuple free list
    (up to ~170 KiB per process, which memory gates then measure).
    """

    index: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    ssrc: np.ndarray
    seq: np.ndarray
    timestamp: np.ndarray


def _rtp_columns(rows: Iterable[Tuple[int, ...]]) -> RtpColumns:
    """Typed columns from ``(index, offset, length, ssrc, seq, ts)`` rows."""
    columns = list(zip(*rows)) or [()] * len(_DTYPES)
    return RtpColumns(*[
        np.array(column, dtype) for dtype, column in zip(_DTYPES, columns)
    ])


def build_rtp_candidates(rows: RtpColumns) -> Dict[int, List[Candidate]]:
    """``Candidate`` objects for column rows, grouped by payload index.

    Rows in ``(index, offset)`` order give each payload's list in the
    scalar matcher's order.
    """
    out: Dict[int, List[Candidate]] = {}
    rtp = Protocol.RTP
    for i, offset, length, ssrc, seq, ts in zip(
        *[column.tolist() for column in rows]
    ):
        candidate = Candidate(rtp, offset, length, None, b"", False,
                              ssrc, seq, ts, offset)
        found = out.get(i)
        if found is None:
            out[i] = [candidate]
        else:
            found.append(candidate)
    return out


@dataclass
class ColumnBatch:
    """One chunk's stage-one output in column form.

    ``rtp`` holds every RTP candidate as a row.  ``parts[i]`` holds
    payload *i*'s other candidates in protocol order, split into segments
    at each RTP entry of the protocol order (with the default order: STUN
    before RTP, then RTCP and QUIC), or ``()`` when it has none.
    ``fallbacks`` lists the payloads the batch scan refused (anything not
    ``bytes``); they have no rows and no parts, and need the scalar sweep
    (:meth:`ColumnarScanner.scalar_columns`).
    """

    rtp: RtpColumns
    parts: List[Tuple[List[Candidate], ...]]
    fallbacks: List[int] = field(default_factory=list)


class ColumnarScanner:
    """Batch stage-one scanner, bit-identical to the scalar matchers.

    :meth:`scan_columns` is the production entry point (column output,
    see :class:`ColumnBatch`); :meth:`scan_batch` wraps it and builds
    the candidate lists of the scalar sweep.  Parity with the scalar
    matchers is enforced by the conformance differ and the hypothesis
    tests.
    """

    def __init__(
        self,
        max_offset: int,
        protocols: Sequence[Protocol] = tuple(Protocol),
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._max_offset = max_offset
        self._protocols = tuple(protocols)
        self.batch_size = batch_size
        self.stats = ColumnarStats()
        present = set(self._protocols)
        self._stun_on = Protocol.STUN_TURN in present
        self._rtp_on = Protocol.RTP in present
        self._rtcp_on = Protocol.RTCP in present
        self._quic_on = Protocol.QUIC in present
        # How many times the protocol order lists RTP: the engine scores
        # every listing, and the sorted-RTP-run shortcut assumes one.
        self._rtp_count = sum(1 for p in self._protocols if p is Protocol.RTP)
        self._rtp_once = self._rtp_count <= 1

    @property
    def max_offset(self) -> int:
        return self._max_offset

    @property
    def vectorized(self) -> bool:
        """Always true: numpy is the batch kernel.  Kept because
        ``perfbench/run.py`` records it."""
        return True

    @property
    def rtp_count(self) -> int:
        """How many times the protocol order lists RTP."""
        return self._rtp_count

    # -- public API ---------------------------------------------------------------

    def scan_payload(self, payload: bytes) -> List[Candidate]:
        """Scalar reference scan of one payload (the parity oracle)."""
        out: List[Candidate] = []
        for protocol in self._protocols:
            out.extend(MATCHERS[protocol](payload, self._max_offset))
        out.sort(key=_sort_key)
        return out

    def scan_batch(
        self, batch: Sequence[bytes]
    ) -> List[Optional[List[Candidate]]]:
        """Candidate lists for a chunk of payloads, in input order.

        A ``None`` entry flags a payload the batch scanner cannot handle
        (anything that is not ``bytes``); the caller must fall back to the
        scalar sweep for it.  Results are independent of how payloads are
        grouped into batches.
        """
        columns = self.scan_columns(batch)
        rtp = build_rtp_candidates(columns.rtp)
        out: List[Optional[List[Candidate]]] = [
            self.assemble(part, rtp.get(i, []))
            for i, part in enumerate(columns.parts)
        ]
        for i in columns.fallbacks:
            out[i] = None
        return out

    def scan_columns(self, batch: Sequence[bytes]) -> ColumnBatch:
        """Stage one for a chunk of payloads, in column form.

        A payload that is not ``bytes`` is refused: it gets no rows and no
        parts and is listed in ``fallbacks``, and the caller must sweep it
        with the scalar matchers (:meth:`scalar_columns`).
        """
        stats = self.stats
        stats.batches += 1
        n = len(batch)
        stats.payloads += n
        # C-level homogeneity probe; the isinstance walk below still
        # handles rarities like bytes subclasses or mixed batches.
        if set(map(type, batch)) <= {bytes}:
            return self._scan_regular(batch)
        regular = [i for i, p in enumerate(batch) if isinstance(p, bytes)]
        refused = [i for i, p in enumerate(batch) if not isinstance(p, bytes)]
        before = stats.fallbacks
        stats.fallbacks += len(refused)
        if _crossed_power_of_two(before, stats.fallbacks):
            _log.warning(
                "columnar scan refused %d of %d payloads (%s, not bytes); "
                "they get the scalar sweep (%d refused so far)",
                len(refused), n,
                ", ".join(sorted({type(batch[i]).__name__ for i in refused})),
                stats.fallbacks,
            )
        scanned = self._scan_regular([batch[i] for i in regular])
        parts: List[Tuple[List[Candidate], ...]] = [()] * n
        for position, segments in zip(regular, scanned.parts):
            parts[position] = segments
        index = np.array(regular, dtype=np.int32)[scanned.rtp.index]
        return ColumnBatch(RtpColumns(index, *scanned.rtp[1:]), parts, refused)

    def scalar_columns(self, payloads: Sequence[bytes]) -> ColumnBatch:
        """The scalar sweep in column form: every matcher, no gates.

        This is the sweep for payloads :meth:`scan_columns` refused, and
        for a batch the numpy kernel failed on; it reads payloads only
        through the matchers, as the reference does.
        """
        max_offset = self._max_offset
        needs = (self._stun_on, self._rtcp_on, self._quic_on)
        rows = []
        parts = []
        for i, payload in enumerate(payloads):
            if self._rtp_on:
                rows.extend(
                    (i, c.offset, c.length, c.rtp_ssrc, c.rtp_seq,
                     c.rtp_timestamp)
                    for c in rtp_candidates(payload, max_offset)
                )
            parts.append(self._parts(payload, *needs))
        return ColumnBatch(_rtp_columns(rows), parts)

    def assemble(
        self, parts: Sequence[List[Candidate]], rtp: List[Candidate]
    ) -> List[Candidate]:
        """One payload's candidate list from its parts and RTP candidates.

        Merges in the engine's protocol order, then stable-sorts —
        byte-identical tie order to the scalar sweep.
        """
        if not parts:
            if self._rtp_once:
                return rtp  # anchored RTP candidates are already sorted
            parts = ([],) * (self._rtp_count + 1)
        out = list(parts[0])
        for segment in parts[1:]:
            out += rtp
            out += segment
        out.sort(key=_sort_key)
        return out

    # -- internals ----------------------------------------------------------------

    def _scan_regular(self, batch: Sequence[bytes]) -> ColumnBatch:
        try:
            return self._scan_np(batch)
        except Exception as exc:  # numpy safety net
            stats = self.stats
            stats.vector_errors += 1
            if _crossed_power_of_two(
                stats.vector_errors - 1, stats.vector_errors
            ):
                _log.warning(
                    "numpy columnar scan failed on a %d-payload batch "
                    "(%s: %s); rescanning it with the scalar sweep "
                    "(%d batches so far)",
                    len(batch), type(exc).__name__, exc,
                    stats.vector_errors, exc_info=True,
                )
        return self.scalar_columns(batch)

    def _parts(
        self,
        payload: bytes,
        need_stun: bool,
        need_rtcp: bool,
        need_quic: bool,
    ) -> Tuple[List[Candidate], ...]:
        """The non-RTP candidates in protocol order, split into segments
        at each RTP entry; ``()`` when there are none."""
        if not (need_stun or need_rtcp or need_quic):
            return ()
        need = {
            Protocol.STUN_TURN: need_stun,
            Protocol.RTCP: need_rtcp,
            Protocol.QUIC: need_quic,
        }
        segments: List[List[Candidate]] = [[]]
        for protocol in self._protocols:
            if protocol is Protocol.RTP:
                segments.append([])
            elif need[protocol]:
                segments[-1] += MATCHERS[protocol](payload, self._max_offset)
        return tuple(segments) if any(segments) else ()

    def _scan_np(self, batch: Sequence[bytes]) -> ColumnBatch:
        """Vectorized batch scan over the joined buffer.

        One anchor pass serves both RTP and RTCP: every version-2 first
        byte inside the wider RTCP window ``min(k, size-4)`` is gathered
        once, and one byte-class mask routes each anchor to the RTP header
        checks or the RTCP length-fit prefilter.
        """
        n = len(batch)
        sizes = [len(p) for p in batch]
        joined = b"".join(batch)
        total = len(joined)
        if not total:
            return ColumnBatch(_rtp_columns(()), [()] * n)
        arr = np.frombuffer(joined, dtype=np.uint8)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        sizes_a = starts[1:] - starts[:-1]
        starts_l = starts.tolist()
        max_offset = self._max_offset

        rtp_columns = _rtp_columns(())
        rtcp_flag: set = set()
        if self._rtp_on or self._rtcp_on:
            rtp_lim = np.minimum(max_offset, sizes_a - 12)
            if self._rtcp_on:
                scan_lim = np.minimum(max_offset, sizes_a - 4)
            else:
                scan_lim = rtp_lim
            # Window mask over the joined buffer: anchors confined to each
            # payload's own 0..limit range, so no position can read past
            # its payload (limit <= size-4 keeps +3 lookups in bounds).
            wmask = np.zeros(total, dtype=bool)
            for i, limit in enumerate(scan_lim.tolist()):
                if limit >= 0:
                    lo = starts_l[i]
                    wmask[lo:lo + limit + 1] = True
            pos = np.nonzero(((arr & 0xC0) == 0x80) & wmask)[0]
            if pos.size:
                idx = np.searchsorted(starts, pos, side="right") - 1
                off = pos - starts[idx]
                b1 = arr[pos + 1]
                # The RTP payload-type exclusion range and the RTCP packet
                # -type range are the same byte class, so one mask routes
                # every anchor to exactly one of the two checks.
                rtcp_class = (b1 >= 0xC0) & (b1 <= 0xDF)
                if self._rtcp_on and rtcp_class.any():
                    roff = off[rtcp_class]
                    rpos = pos[rtcp_class]
                    rword = (
                        arr[rpos + 2].astype(np.int64) << 8
                    ) | arr[rpos + 3]
                    rfit = roff + (rword + 1) * 4 <= sizes_a[idx[rtcp_class]]
                    if rfit.any():
                        rtcp_flag = set(idx[rtcp_class][rfit].tolist())
                if self._rtp_on:
                    # looks_like_rtp, vectorized: PT-range exclusion, CSRC
                    # fit, and extension-length fit via masked gathers —
                    # narrowed to the surviving subset before the wider
                    # header checks so the heavy ops touch fewer elements.
                    k0 = (off <= rtp_lim[idx]) & ~rtcp_class
                    pos1 = pos[k0]
                    idx1 = idx[k0]
                    off1 = off[k0]
                    psize = sizes_a[idx1]
                    first = arr[pos1]
                    end_ = off1 + 12 + 4 * (first & 0x0F).astype(np.int64)
                    keep = end_ <= psize
                    ext = (first & 0x10) != 0
                    ext_rows = keep & ext
                    if ext_rows.any():
                        ok_len = end_ + 4 <= psize
                        safe = np.where(ext_rows & ok_len, starts[idx1] + end_, 0)
                        word_len = (
                            arr[safe + 2].astype(np.int64) << 8
                        ) | arr[safe + 3]
                        keep &= ~ext | (
                            ok_len & (end_ + 4 + 4 * word_len <= psize)
                        )
                    kpos = pos1[keep]
                    kidx = idx1[keep]
                    koff = off1[keep]
                    # Header bytes 2..12 (sequence number, timestamp,
                    # SSRC) in one gather, read as big-endian words.
                    head = arr[kpos[:, None] + np.arange(2, 12)]
                    rtp_columns = RtpColumns(
                        kidx.astype(np.int32),
                        koff.astype(np.int32),
                        (sizes_a[kidx] - koff).astype(np.int32),
                        _big_endian(head, 6, 10, "u4"),
                        _big_endian(head, 0, 2, "u2"),
                        _big_endian(head, 2, 6, "u4"),
                    )

        stun_flag: set = set()
        if self._stun_on:
            search = 0
            cookie_hi = max_offset + 4
            while True:
                found = joined.find(_COOKIE_BYTES, search)
                if found < 0:
                    break
                search = found + 1
                i = bisect_right(starts_l, found) - 1
                local = found - starts_l[i]
                # The cookie must lie wholly inside payload i (not straddle
                # a join seam) with its offset-4 anchor inside 0..k.
                if 4 <= local <= cookie_hi and local + 4 <= sizes[i]:
                    stun_flag.add(i)

        quic_flag: set = set()
        if self._quic_on:
            # A long-header anchor at offset ``o`` of payload ``i`` means
            # one of the three version strings sits at ``o+1`` with a
            # 0xC0-0xFF byte before it, and ``o <= min(k, size-7)``.  The
            # window bound alone rejects join-seam straddles (it keeps the
            # needle at least two bytes clear of the payload end), so
            # C-level ``find`` calls over the joined buffer enumerate
            # exactly the payloads whose own regex search would match.
            for needle in _QUIC_VERSION_NEEDLES:
                search = 0
                while True:
                    found = joined.find(needle, search)
                    if found < 0:
                        break
                    i = bisect_right(starts_l, found) - 1
                    local = found - starts_l[i]
                    limit = min(max_offset, sizes[i] - 7)
                    if i in quic_flag or local > limit + 1:
                        # Later finds in payload i are outside its prefix
                        # window too; resume at the next payload.
                        search = starts_l[i + 1]
                    elif local >= 1 and joined[found - 1] >= 0xC0:
                        quic_flag.add(i)
                        search = starts_l[i + 1]
                    elif needle == _QUIC_VN_NEEDLE:
                        # The all-zero needle matches at every position of
                        # a zero run, but only the run's first position can
                        # follow an anchor byte: skip the rest of the run.
                        run_end = _NONZERO.search(joined, found + 4)
                        search = run_end.start() if run_end else total
                    else:
                        search = found + 1

        parts: List[Tuple[List[Candidate], ...]] = []
        stun_on = self._stun_on
        quic_on = self._quic_on
        for i in range(n):
            payload = batch[i]
            size = sizes[i]
            b0 = payload[0] if size else 0
            need_stun = stun_on and (
                i in stun_flag
                or (size >= 4 and 0x40 <= b0 <= 0x4F)
                or _classic_stun_gate(payload, size, b0)
            )
            need_rtcp = i in rtcp_flag
            need_quic = quic_on and (
                i in quic_flag or (size >= 26 and b0 & 0xC0 == 0x40)
            )
            parts.append(
                self._parts(payload, need_stun, need_rtcp, need_quic)
            )
        return ColumnBatch(rtp_columns, parts)
