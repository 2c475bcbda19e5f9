"""Columnar batch stage-one scanner: the production 0..k sweep.

The reference sweep (:meth:`repro.dpi.engine.DpiEngine._scan`) runs four
anchored matchers per payload, and per-payload Python call overhead
dominates its cost.  This module computes the same sweep for a whole
chunk of one stream's payloads (up to 256 at a time) at once; it is the
stage one every production engine (``DpiEngine(backend="columnar")``)
runs:

* the payloads are joined into one buffer with an offset index, so each
  anchor pass is a single C-level scan whose global match positions are
  translated back to ``(payload, offset)`` pairs;
* the RTP pass — the only matcher that yields candidates in bulk — is
  fully vectorized with numpy (byte-class masks, gathered header fields,
  one ``searchsorted`` to slice per-payload runs); a pure-Python path
  keeps the per-payload anchored scan and serves batches below
  ``_MIN_VECTOR_BATCH``, installs without numpy, and ``use_numpy=False``
  parity checks;
* the STUN/RTCP/QUIC matchers are *gated*: a cheap prefilter proves the
  matcher would return nothing for a payload, so it is simply skipped.

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

Candidate lists come out bit-identical to the scalar sweep: assembly
follows the engine's protocol order before the same stable sort, and an
RTP-only list skips the sort because anchored RTP candidates are already
in ascending ``(offset, -length)`` order (length decreases as offset
grows within one payload).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dpi.candidates import (
    _COOKIE_BYTES,
    _QUIC_ANCHOR,
    _RTCP_ANCHOR,
    Candidate,
    MATCHERS,
    quic_candidates,
    rtcp_candidates,
    rtp_candidates,
    stun_candidates,
)
from repro.dpi.messages import Protocol
from repro.protocols.quic.header import QUIC_V1, QUIC_V2

try:  # a declared dependency; the pure-Python path below is always kept
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

HAVE_NUMPY = _np is not None

#: Payloads scanned per columnar pass; matches the pipeline chunk unit.
DEFAULT_BATCH_SIZE = 256

#: The three version strings a QUIC long-header anchor can carry at bytes
#: ``o+1..o+5`` (see ``_QUIC_ANCHOR``): v1, v2, version negotiation.
_QUIC_VN_NEEDLE = b"\x00\x00\x00\x00"
_QUIC_VERSION_NEEDLES = (
    QUIC_V1.to_bytes(4, "big"),
    QUIC_V2.to_bytes(4, "big"),
    _QUIC_VN_NEEDLE,
)
#: Finds the end of a zero run.
_NONZERO = re.compile(rb"[^\x00]")

#: Below this batch size the numpy fixed costs (buffer join, mask setup)
#: exceed the vector win and the gated pure-Python path is faster.
_MIN_VECTOR_BATCH = 4


def _sort_key(candidate: Candidate):
    return (candidate.offset, -candidate.length)


def _classic_stun_possible(payload: bytes, size: int, b0: int) -> bool:
    """Inline ``looks_like_stun(payload, 0)`` — the classic-STUN gate."""
    if size < 20 or b0 & 0xC0:
        return False
    length = payload[2] << 8 | payload[3]
    return not (length & 3) and 20 + length <= size


def _stun_possible(payload: bytes, size: int, max_offset: int) -> bool:
    b0 = payload[0] if size else 0
    if size >= 4 and 0x40 <= b0 <= 0x4F:
        return True  # ChannelData range
    if _classic_stun_possible(payload, size, b0):
        return True
    # Modern STUN: cookie at bytes o+4..o+8 for some offset o in 0..k, so
    # the cookie itself must sit in [4, max_offset + 4].
    return payload.find(_COOKIE_BYTES, 4, max_offset + 8) >= 0


def _rtcp_possible(payload: bytes, size: int, max_offset: int) -> bool:
    if size < 4:
        return False
    limit = min(max_offset, size - 4)
    for match in _RTCP_ANCHOR.finditer(payload, 0, limit + 2):
        offset = match.start()
        wire = ((payload[offset + 2] << 8 | payload[offset + 3]) + 1) * 4
        if offset + wire <= size:
            return True
    return False


def _quic_possible(payload: bytes, size: int, max_offset: int) -> bool:
    if size >= 26 and payload[0] & 0xC0 == 0x40:
        return True  # tentative short header at offset 0
    if size < 7:
        return False
    limit = min(max_offset, size - 7)
    return _QUIC_ANCHOR.search(payload, 0, min(size, limit + 5)) is not None


@dataclass
class ColumnarStats:
    """Batch-scanner instrumentation, separate from :class:`DpiStats`.

    ``DpiStats`` is the golden-corpus schema and must stay bit-identical
    across backends, so columnar-only counters live here.  ``fallbacks``
    counts payloads the batch scanner refused (non-``bytes`` inputs) and
    handed back for a scalar sweep; ``vector_errors`` counts whole batches
    that dropped from the numpy path to the pure-Python path.
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


class ColumnarScanner:
    """Batch stage-one scanner, bit-identical to the scalar matchers.

    ``use_numpy`` selects the vector path: ``None`` auto-detects, ``True``
    requires numpy (raising if absent), ``False`` forces the pure-Python
    path.  Both paths produce identical output; parity is enforced by the
    conformance differ and the hypothesis tests.
    """

    def __init__(
        self,
        max_offset: int,
        protocols: Sequence[Protocol] = tuple(Protocol),
        use_numpy: Optional[bool] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._max_offset = max_offset
        self._protocols = tuple(protocols)
        if use_numpy is None:
            self._use_numpy = _np is not None
        elif use_numpy and _np is None:
            raise RuntimeError("use_numpy=True but numpy is not importable")
        else:
            self._use_numpy = bool(use_numpy)
        self.batch_size = batch_size
        self.stats = ColumnarStats()
        present = set(self._protocols)
        self._stun_on = Protocol.STUN_TURN in present
        self._rtp_on = Protocol.RTP in present
        self._rtcp_on = Protocol.RTCP in present
        self._quic_on = Protocol.QUIC in present
        # The sorted-RTP-run shortcut assumes RTP contributes once.
        self._rtp_once = (
            sum(1 for p in self._protocols if p is Protocol.RTP) <= 1
        )

    @property
    def max_offset(self) -> int:
        return self._max_offset

    @property
    def vectorized(self) -> bool:
        return self._use_numpy

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
        stats = self.stats
        stats.batches += 1
        n = len(batch)
        stats.payloads += n
        if not n:
            return []
        # C-level homogeneity probe; the isinstance walk below still
        # handles rarities like bytes subclasses or mixed batches.
        if set(map(type, batch)) == {bytes}:
            return self._scan_regular(batch)
        results: List[Optional[List[Candidate]]] = [None] * n
        regular = [i for i, p in enumerate(batch) if isinstance(p, bytes)]
        stats.fallbacks += n - len(regular)
        if regular:
            scanned = self._scan_regular([batch[i] for i in regular])
            for i, res in zip(regular, scanned):
                results[i] = res
        return results

    # -- internals ----------------------------------------------------------------

    def _scan_regular(self, batch: Sequence[bytes]) -> List[List[Candidate]]:
        if self._use_numpy and len(batch) >= _MIN_VECTOR_BATCH:
            try:
                return self._scan_np(batch)
            except Exception:  # pragma: no cover - numpy safety net
                self.stats.vector_errors += 1
        return [self._scan_one(payload) for payload in batch]

    def _scan_one(self, payload: bytes) -> List[Candidate]:
        """Pure-Python scan of one payload: gated matchers, same output."""
        max_offset = self._max_offset
        size = len(payload)
        rtp = rtp_candidates(payload, max_offset) if self._rtp_on else []
        need_stun = self._stun_on and _stun_possible(payload, size, max_offset)
        need_rtcp = self._rtcp_on and _rtcp_possible(payload, size, max_offset)
        need_quic = self._quic_on and _quic_possible(payload, size, max_offset)
        if not (need_stun or need_rtcp or need_quic) and self._rtp_once:
            return rtp
        return self._assemble(payload, rtp, need_stun, need_rtcp, need_quic)

    def _assemble(
        self,
        payload: bytes,
        rtp: List[Candidate],
        need_stun: bool,
        need_rtcp: bool,
        need_quic: bool,
    ) -> List[Candidate]:
        """Merge parts in the engine's protocol order, then stable-sort —
        byte-identical tie order to the scalar sweep."""
        max_offset = self._max_offset
        out: List[Candidate] = []
        for protocol in self._protocols:
            if protocol is Protocol.RTP:
                out.extend(rtp)
            elif protocol is Protocol.STUN_TURN:
                if need_stun:
                    out.extend(stun_candidates(payload, max_offset))
            elif protocol is Protocol.RTCP:
                if need_rtcp:
                    out.extend(rtcp_candidates(payload, max_offset))
            elif protocol is Protocol.QUIC and need_quic:
                out.extend(quic_candidates(payload, max_offset))
        out.sort(key=_sort_key)
        return out

    def _scan_np(self, batch: Sequence[bytes]) -> List[List[Candidate]]:
        """Vectorized batch scan over the joined buffer.

        One anchor pass serves both RTP and RTCP: every version-2 first
        byte inside the wider RTCP window ``min(k, size-4)`` is gathered
        once, with shared loads of the following three bytes feeding the
        RTP sequence field and the RTCP length-fit prefilter alike.
        """
        np = _np
        n = len(batch)
        sizes = [len(p) for p in batch]
        joined = b"".join(batch)
        total = len(joined)
        if not total:
            return [[] for _ in batch]
        arr = np.frombuffer(joined, dtype=np.uint8)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        sizes_a = starts[1:] - starts[:-1]
        starts_l = starts.tolist()
        max_offset = self._max_offset

        flat: List[Candidate] = []
        bounds = [0] * (n + 1)
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
                    lengths = (sizes_a[kidx] - koff).tolist()
                    seq = (
                        (arr[kpos + 2].astype(np.int64) << 8) | arr[kpos + 3]
                    ).tolist()
                    ts = (
                        (arr[kpos + 4].astype(np.int64) << 24)
                        | (arr[kpos + 5].astype(np.int64) << 16)
                        | (arr[kpos + 6].astype(np.int64) << 8)
                        | arr[kpos + 7]
                    ).tolist()
                    ssrc = (
                        (arr[kpos + 8].astype(np.int64) << 24)
                        | (arr[kpos + 9].astype(np.int64) << 16)
                        | (arr[kpos + 10].astype(np.int64) << 8)
                        | arr[kpos + 11]
                    ).tolist()
                    rtp_proto = Protocol.RTP
                    flat = [
                        Candidate(rtp_proto, o, ln, None, b"", False, ss, sq, t, o)
                        for o, ln, ss, sq, t in zip(
                            koff.tolist(), lengths, ssrc, seq, ts
                        )
                    ]
                    bounds = np.searchsorted(kidx, np.arange(n + 1)).tolist()

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

        out: List[List[Candidate]] = []
        rtp_once = self._rtp_once
        stun_on = self._stun_on
        quic_on = self._quic_on
        for i in range(n):
            payload = batch[i]
            size = sizes[i]
            b0 = payload[0] if size else 0
            rtp = flat[bounds[i]:bounds[i + 1]]
            need_stun = stun_on and (
                i in stun_flag
                or (size >= 4 and 0x40 <= b0 <= 0x4F)
                or _classic_stun_possible(payload, size, b0)
            )
            need_rtcp = i in rtcp_flag
            need_quic = quic_on and (
                i in quic_flag or (size >= 26 and b0 & 0xC0 == 0x40)
            )
            if not (need_stun or need_rtcp or need_quic) and rtp_once:
                out.append(rtp)
                continue
            out.append(
                self._assemble(payload, rtp, need_stun, need_rtcp, need_quic)
            )
        return out
