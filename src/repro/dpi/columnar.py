"""Columnar batch stage-one scanner: the production 0..k sweep.

The reference sweep (:func:`repro.dpi.candidates.sweep`) runs four
anchored matchers per payload, and per-payload Python call overhead
dominates its cost.  This module computes the same sweep for a whole
chunk of one stream's payloads (up to 256 at a time) at once; it is the
stage one of the production engine,
:class:`~repro.dpi.engine.ColumnarEngine`.

Its output is column-shaped (:class:`ColumnBatch`).  RTP — the only
matcher that yields candidates in bulk, most of them one-off reads of
media bytes — stays rows of narrow parallel numpy arrays (payload index,
offset, length, SSRC, sequence number, RTP timestamp); only the other
protocols' candidates are :class:`Candidate` objects.  The engine scores
SSRC groups on those arrays and builds objects only for rows whose SSRC
passes stage two; :meth:`ColumnarScanner.scan_batch` builds every row and
returns the candidate lists the scalar sweep would.

One kernel serves every batch, whatever its size
(:meth:`ColumnarScanner._scan_np`):

* the payloads are joined into one buffer with an offset index, and
  each payload's first ``k+8`` bytes into a second one, so each anchor
  pass is a single C-level scan whose global match positions are
  translated back to ``(payload, offset)`` pairs;
* the RTP/RTCP anchors and the STUN-cookie and QUIC-version needles are
  found in the prefix buffer: an anchor starts at offset ``k`` at most
  and a flagged needle ends by byte ``k+8``;
* the RTP pass is fully vectorized with numpy and reads each anchor's
  bytes once: one lookup of its first two bytes in :data:`_ANCHOR_CODE`
  routes it to RTP or RTCP and gives its header length and X bit, and
  the header fields are single gathers from big-endian u16/u32 views of
  the full joined buffer;
* the STUN/RTCP/QUIC matchers are *gated*: a cheap prefilter proves the
  matcher would return nothing for a payload, so it is simply skipped.
  The first-byte gates are numpy masks over the whole chunk, every
  payload's parts start as ``()``, and the scalar matchers run only for
  the payloads some gate opens (119 of 10,465 on a clean eight-call
  capture).

A batch the kernel fails on gets the ungated scalar sweep in the same
column form (:meth:`ColumnarScanner.scalar_columns`).

Every gate is a necessary condition of the corresponding matcher, so a
skipped matcher is exactly one that would have produced zero candidates
(:attr:`ColumnarStats.gate_empty` counts the matcher runs a gate let
through that returned nothing):

* STUN — a modern candidate needs the magic cookie at bytes ``o+4..o+8``
  with ``0 <= o <= max_offset``, which lie inside the first ``k+8``
  bytes; a classic candidate needs
  ``looks_like_stun(payload, 0)`` (a mask over bytes 0, 2 and 3 and the
  size, term for term); a ChannelData candidate needs at least 4 bytes
  and ``0x40 <= payload[0] <= 0x4F``.
* RTCP — the gate walks every anchor's compound chain in numpy, one
  step per round over the chains still live, exactly as the matcher's
  loop does: a step continues while ``cur + 4 <= size``, the byte at
  ``cur`` has version 2, the next byte is a packet type in 192-223 and
  ``cur + (u16@cur+2 + 1) * 4 <= size``.  ``RtcpHeader.parse`` cannot
  fail once ``cur + 4 <= size``, so these are the walk's only stops.
  The gate opens only when some anchor's chain takes at least one step
  and stops within ``MAX_RTCP_TRAILER`` bytes of the payload end, which
  is exactly when the matcher returns candidates: this gate is
  sufficient as well as necessary.
* QUIC — long headers need an anchor match inside the matcher's own
  ``finditer`` window, whose version needle ends by byte ``k+5``; short
  headers need ``payload[0] & 0xC0 == 0x40`` and at least 26 bytes.

Candidate lists come out bit-identical to the scalar sweep: a payload's
other candidates are kept as its STUN candidates and its RTCP-then-QUIC
candidates, so assembly (:meth:`ColumnarScanner.assemble`) puts them
around the RTP candidates in ``MATCHERS`` order before the same stable
sort, and an RTP-only list skips the sort because anchored RTP
candidates are already in ascending ``(offset, -length)`` order (length
decreases as offset grows within one payload).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.dpi.candidates import (
    _COOKIE_BYTES,
    Candidate,
    MATCHERS,
    MAX_RTCP_TRAILER,
    rtp_candidates,
    sweep_order,
)
from repro.dpi.messages import Protocol
from repro.protocols.quic.header import QUIC_V1, QUIC_V2
from repro.utils.ratelimit import crossed_power_of_two

_log = logging.getLogger("repro.dpi")

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
#: Tiled and repeated into a run-length mask: inside, then outside.
_IN_OUT = np.array([True, False])


def _anchor_codes() -> np.ndarray:
    """The :data:`_ANCHOR_CODE` table."""
    pair = np.arange(1 << 16)
    first, second = pair >> 8, pair & 0xFF
    code = (12 + 4 * (first & 0x0F)) | ((first >> 4) & 1)
    code[(second >= 0xC0) & (second <= 0xDF)] = 0
    return code.astype(np.uint8)


#: ``looks_like_rtp``'s header terms for a version-2 anchor, indexed by
#: the big-endian u16 of its bytes 0-1: 0 when byte 1 is in the RTCP
#: packet-type class 0xC0-0xDF (the RTP payload-type exclusion), else the
#: fixed header plus CSRC list length ``12 + 4*CC`` with the low bit set
#: when the X (extension) bit is.  uint8, so the table is 64 KiB.
_ANCHOR_CODE = _anchor_codes()


def _rtcp_gate(words, cur, end, idx) -> set:
    """Payload indices whose RTCP matcher returns candidates.

    *words* is the big-endian u32 at every position of a batch's joined
    buffer, *cur* holds the absolute positions of its RTCP anchors, *end*
    the absolute end of each anchor's payload and *idx* its payload
    index.  Each round takes one compound step for every chain still
    live, with ``rtcp_candidates``' own stop rules, reading each step's
    header as one word: version 2 and a packet type in 192-223 are
    ``word >> 16 & 0xC0E0 == 0x80C0``, and the length is its low half.
    A chain that stopped after at least one packet flags its payload when
    at most ``MAX_RTCP_TRAILER`` bytes are left.  Reads are clipped to
    the last word (``len(buffer) - 4``): a chain at its payload's last
    bytes would otherwise read past the buffer, and the
    ``cur + 4 <= end`` term already stops it.
    """
    hi = words.size - 1
    hits = []
    first = True
    while cur.size:
        word = words[np.minimum(cur, hi)].astype(np.int64)
        nxt = cur + ((word & 0xFFFF) + 1) * 4
        step = (
            (cur + 4 <= end) & (((word >> 16) & 0xC0E0) == 0x80C0)
            & (nxt <= end)
        )
        if not first:
            flag = ~step & (end - cur <= MAX_RTCP_TRAILER)
            if flag.any():
                hits.append(idx[flag])
        first = False
        cur, end, idx = nxt[step], end[step], idx[step]
    return set(np.concatenate(hits).tolist()) if hits else set()


#: The matchers the numpy kernel gates, keyed in the stats by
#: ``Protocol.value``.
_GATED = (Protocol.STUN_TURN, Protocol.RTCP, Protocol.QUIC)


def _gate_counts() -> Dict[str, int]:
    return {protocol.value: 0 for protocol in _GATED}


@dataclass
class ColumnarStats:
    """Batch-scanner instrumentation, separate from :class:`DpiStats`.

    ``DpiStats`` is the golden-corpus schema and must stay bit-identical
    between the two engines, so columnar-only counters live here.
    ``vector_errors`` counts whole batches the numpy kernel failed on,
    which then got the scalar sweep.
    ``gate_runs`` counts, per gated protocol, the scalar matcher calls the
    numpy kernel's gates let through, and ``gate_empty`` how many of those
    returned nothing (the gate's waste; always 0 for the exact RTCP gate).
    """

    batches: int = 0
    payloads: int = 0
    vector_errors: int = 0
    gate_runs: Dict[str, int] = field(default_factory=_gate_counts)
    gate_empty: Dict[str, int] = field(default_factory=_gate_counts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "payloads": self.payloads,
            "vector_errors": self.vector_errors,
            "gate_runs": dict(self.gate_runs),
            "gate_empty": dict(self.gate_empty),
        }

    def merge(self, other: "ColumnarStats") -> None:
        self.batches += other.batches
        self.payloads += other.payloads
        self.vector_errors += other.vector_errors
        for mine, theirs in (
            (self.gate_runs, other.gate_runs),
            (self.gate_empty, other.gate_empty),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count


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

    ``rtp`` holds every RTP candidate as a row.  ``parts[i]`` is payload
    *i*'s ``(STUN candidates, RTCP-then-QUIC candidates)``, the matchers
    that run before and after RTP in ``MATCHERS``, or ``()`` when it has
    no non-RTP candidate.
    """

    rtp: RtpColumns
    parts: List[Tuple[List[Candidate], ...]]


class ColumnarScanner:
    """Batch stage-one scanner, bit-identical to the scalar matchers.

    :meth:`scan_columns` is the production entry point (column output,
    see :class:`ColumnBatch`); :meth:`scan_batch` wraps it and builds
    the candidate lists of the scalar sweep.  Parity with the scalar
    matchers is enforced by the conformance differ and the hypothesis
    tests.
    """

    def __init__(self, max_offset: int):
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        self._max_offset = max_offset
        self.stats = ColumnarStats()

    @property
    def max_offset(self) -> int:
        return self._max_offset

    @property
    def vectorized(self) -> bool:
        """Always true: numpy is the batch kernel.  Kept because
        ``perfbench/run.py`` records it."""
        return True

    # -- public API ---------------------------------------------------------------

    def scan_batch(self, batch: Sequence[bytes]) -> List[List[Candidate]]:
        """Candidate lists for a chunk of payloads, in input order.

        Results are independent of how payloads are grouped into batches.
        """
        columns = self.scan_columns(batch)
        rtp = build_rtp_candidates(columns.rtp)
        return [
            self.assemble(part, rtp.get(i, []))
            for i, part in enumerate(columns.parts)
        ]

    def scan_columns(self, batch: Sequence[bytes]) -> ColumnBatch:
        """Stage one for a chunk of payloads, in column form.

        A payload that is not ``bytes`` (a ``bytearray``, a
        ``memoryview``) is scanned as ``bytes(payload)``.
        """
        stats = self.stats
        stats.batches += 1
        stats.payloads += len(batch)
        # C-level homogeneity probe: ``bytes`` of a ``bytes`` object is
        # the object itself, so only other buffers are copied.
        if not set(map(type, batch)) <= {bytes}:
            batch = list(map(bytes, batch))
        try:
            return self._scan_np(batch)
        except Exception as exc:  # numpy safety net
            stats.vector_errors += 1
            if crossed_power_of_two(
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

    def scalar_columns(self, payloads: Sequence[bytes]) -> ColumnBatch:
        """The scalar sweep in column form: every matcher, no gates.

        This is the sweep for a batch the numpy kernel failed on; it reads
        payloads only through the matchers, as the reference does.
        """
        max_offset = self._max_offset
        rows = []
        parts = []
        for i, payload in enumerate(payloads):
            rows.extend(
                (i, c.offset, c.length, c.rtp_ssrc, c.rtp_seq, c.rtp_timestamp)
                for c in rtp_candidates(payload, max_offset)
            )
            parts.append(self._parts(payload, True, True, True))
        return ColumnBatch(_rtp_columns(rows), parts)

    @staticmethod
    def assemble(
        parts: Sequence[List[Candidate]], rtp: List[Candidate]
    ) -> List[Candidate]:
        """One payload's candidate list from its parts and RTP candidates.

        Merges in ``MATCHERS`` order, then stable-sorts — byte-identical
        tie order to the scalar sweep.
        """
        if not parts:
            return rtp  # anchored RTP candidates are already sorted
        stun, rest = parts
        out = stun + rtp + rest
        out.sort(key=sweep_order)
        return out

    # -- internals ----------------------------------------------------------------

    def _parts(
        self,
        payload: bytes,
        need_stun: bool,
        need_rtcp: bool,
        need_quic: bool,
        gated: bool = False,
    ) -> Tuple[List[Candidate], ...]:
        """The non-RTP candidates as ``(STUN, RTCP-then-QUIC)`` (see
        :class:`ColumnBatch`); ``()`` when there are none.

        With *gated* (the numpy kernel's calls), each matcher run is
        counted in ``stats.gate_runs`` and, when it finds nothing, in
        ``stats.gate_empty``.
        """
        found: List[List[Candidate]] = []
        for protocol, needed in zip(_GATED, (need_stun, need_rtcp, need_quic)):
            out: List[Candidate] = []
            if needed:
                out = MATCHERS[protocol](payload, self._max_offset)
                if gated:
                    self.stats.gate_runs[protocol.value] += 1
                    if not out:
                        self.stats.gate_empty[protocol.value] += 1
            found.append(out)
        stun, rtcp, quic = found
        return (stun, rtcp + quic) if stun or rtcp or quic else ()

    def _scan_np(self, batch: Sequence[bytes]) -> ColumnBatch:
        """Vectorized batch scan; each anchor's bytes are read once.

        Stage one looks for anchors and needles only in each payload's
        first ``k+8`` bytes, joined into a second buffer.  One anchor
        pass serves both RTP and RTCP: every version-2 first byte inside
        the wider RTCP window ``min(k, size-4)`` is found once, and one
        lookup of its first two bytes in :data:`_ANCHOR_CODE` routes it
        to the RTCP compound-chain walk (:func:`_rtcp_gate`) or gives
        its RTP header length and X bit.  Header fields are single
        gathers from big-endian u16 and u32 views at every byte of the
        full joined buffer.  The STUN-cookie and QUIC-version finds scan
        the prefixes: no match that ends later can be flagged.
        """
        n = len(batch)
        sizes = [len(p) for p in batch]
        joined = b"".join(batch)
        total = len(joined)
        if not total:
            return ColumnBatch(_rtp_columns(()), [()] * n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        sizes_a = starts[1:] - starts[:-1]
        max_offset = self._max_offset

        # Each payload's first k+8 bytes, joined: the only bytes an
        # anchor (offset <= k) or a flagged needle can start in.
        cut = max_offset + 8
        prefix = b"".join([p[:cut] for p in batch])
        window_sizes_a = np.minimum(sizes_a, cut)
        window_starts_a = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(window_sizes_a, out=window_starts_a[1:])

        rtcp_flag: set = set()
        # Anchors: version-2 bytes at offsets 0..min(k, size-4) of each
        # payload, so a +3 read never leaves it.  The window mask is one
        # run of min(k+1, size-3) true bytes at the start of each prefix.
        inside = np.maximum(np.minimum(sizes_a - 3, max_offset + 1), 0)
        runs = np.empty(2 * n, dtype=np.int64)
        runs[0::2] = inside
        runs[1::2] = window_sizes_a - inside
        anchors = (np.frombuffer(prefix, dtype=np.uint8) & 0xC0) == 0x80
        anchors &= np.repeat(np.tile(_IN_OUT, n), runs)
        wpos = np.flatnonzero(anchors)
        if wpos.size:
            bounds = np.searchsorted(wpos, window_starts_a)
            counts = bounds[1:] - bounds[:-1]
            pos = wpos + np.repeat(starts[:-1] - window_starts_a[:-1], counts)
            # An anchor exists only in a payload of at least 4 bytes, so
            # both views of the full buffer are non-empty; every read
            # below stays inside the anchor's payload or is clipped.
            u16 = np.ndarray((total - 1,), ">u2", joined, 0, (1,))
            u32 = np.ndarray((total - 3,), ">u4", joined, 0, (1,))
            idx = np.repeat(np.arange(n, dtype=np.int32), counts)
            pend = np.repeat(starts[1:], counts)
            code = _ANCHOR_CODE[u16[pos]]
            # The RTP payload-type exclusion range and the RTCP packet
            # -type range are the same byte class, so code 0 routes
            # every anchor to exactly one of the two checks.
            rtcp_class = code == 0
            if rtcp_class.any():
                rtcp_flag = _rtcp_gate(
                    u32, pos[rtcp_class], pend[rtcp_class], idx[rtcp_class]
                )
            # looks_like_rtp, term for term: the CSRC list fits (which
            # implies ``off <= size-12``; the window gives ``off <= k``)
            # and, with X set, the extension header and its declared
            # words fit.  The word-length read is clipped to index 0
            # where the extension header itself does not fit.
            hend = pos + (code & 0xFE)
            keep = ~rtcp_class & (hend <= pend)
            ext = (code & 1).astype(bool)
            if (keep & ext).any():
                ext_fits = hend + 4 <= pend
                words = u16[np.where(ext_fits, hend + 2, 0)].astype(np.int64)
                keep &= ~ext | (ext_fits & (hend + 4 + 4 * words <= pend))
            kpos = pos[keep]
            kidx = idx[keep]
            rtp_columns = RtpColumns(
                kidx,
                (kpos - starts[kidx]).astype(np.int32),
                (pend[keep] - kpos).astype(np.int32),
                u32[kpos + 8].astype(np.uint32),
                u16[kpos + 2].astype(np.uint16),
                u32[kpos + 4].astype(np.uint32),
            )
        else:
            rtp_columns = _rtp_columns(())

        # The needle finds run over the prefixes too: a flagged cookie
        # ends by byte k+8 and a flagged QUIC needle by byte k+5, and a
        # find straddling a prefix seam fails the same tests that reject
        # a payload-seam straddle.
        window_sizes = window_sizes_a.tolist()
        window_starts = window_starts_a.tolist()

        stun_flag: set = set()
        search = 0
        cookie_hi = max_offset + 4
        while True:
            found = prefix.find(_COOKIE_BYTES, search)
            if found < 0:
                break
            search = found + 1
            i = bisect_right(window_starts, found) - 1
            local = found - window_starts[i]
            # The cookie must lie wholly inside payload i (not straddle a
            # seam) with its offset-4 anchor inside 0..k.
            if 4 <= local <= cookie_hi and local + 4 <= window_sizes[i]:
                stun_flag.add(i)

        quic_flag: set = set()
        # A long-header anchor at offset ``o`` of payload ``i`` means one
        # of the three version strings sits at ``o+1`` with a 0xC0-0xFF
        # byte before it, and ``o <= min(k, size-7)``.  The window bound
        # alone rejects seam straddles (it keeps the needle at least two
        # bytes clear of the payload end and three clear of the prefix
        # end), so C-level ``find`` calls over the joined prefixes
        # enumerate exactly the payloads whose own regex search would
        # match.
        prefix_total = len(prefix)
        for needle in _QUIC_VERSION_NEEDLES:
            search = 0
            while True:
                found = prefix.find(needle, search)
                if found < 0:
                    break
                i = bisect_right(window_starts, found) - 1
                local = found - window_starts[i]
                limit = min(max_offset, sizes[i] - 7)
                if i in quic_flag or local > limit + 1:
                    # Later finds in payload i are outside its window
                    # too; resume at the next payload.
                    search = window_starts[i + 1]
                elif local >= 1 and prefix[found - 1] >= 0xC0:
                    quic_flag.add(i)
                    search = window_starts[i + 1]
                elif needle == _QUIC_VN_NEEDLE:
                    # The all-zero needle matches at every position of a
                    # zero run, but only the run's first position can
                    # follow an anchor byte: skip the rest of the run.
                    run_end = _NONZERO.search(prefix, found + 4)
                    search = run_end.start() if run_end else prefix_total
                else:
                    search = found + 1

        # The first-byte gates, as masks over the batch: bytes 0, 2 and 3
        # of every payload in one gather each, clipped to the joined
        # buffer; a read past a short payload lands in the next one (or
        # on the last byte) and the size terms mask it out.
        arr = np.frombuffer(joined, dtype=np.uint8)
        heads = starts[:-1]
        last = total - 1
        b0 = arr[np.minimum(heads, last)]
        length = (
            arr[np.minimum(heads + 2, last)].astype(np.int64) << 8
        ) | arr[np.minimum(heads + 3, last)]
        channel_data = (sizes_a >= 4) & (b0 >= 0x40) & (b0 <= 0x4F)
        # looks_like_stun(payload, 0): the classic-STUN gate (the length
        # term also requires the 20-byte header).
        classic = (
            ((b0 & 0xC0) == 0) & ((length & 3) == 0) & (20 + length <= sizes_a)
        )
        stun_open = stun_flag | set(
            np.flatnonzero(channel_data | classic).tolist()
        )
        short_header = (sizes_a >= 26) & ((b0 & 0xC0) == 0x40)
        quic_open = quic_flag | set(np.flatnonzero(short_header).tolist())

        # Only the payloads some gate opens reach the scalar matchers.
        parts: List[Tuple[List[Candidate], ...]] = [()] * n
        for i in sorted(stun_open | rtcp_flag | quic_open):
            parts[i] = self._parts(
                batch[i], i in stun_open, i in rtcp_flag, i in quic_open,
                gated=True,
            )
        return ColumnBatch(rtp_columns, parts)
