"""Flow-sticky fast-path tests: bit-identical output and learner behavior.

The fast path is a pure optimization — ``analyze_stream`` must produce the
same messages, classifications, and proprietary headers whether it sweeps
every datagram or predicts from a learned signature.  The parity tests
here fingerprint both modes over every app x network cell and over a
hand-built framing-switch stream; the unit tests pin the learner's
trust/liveness/reset semantics.
"""

from __future__ import annotations

import pytest

from repro.apps import APP_NAMES, NetworkCondition
from repro.dpi import (
    DEFAULT_SIGNATURE_K,
    DpiEngine,
    SignatureLearner,
    StreamSignature,
)
from repro.dpi.candidates import rtp_candidates
from repro.dpi.fastpath import MAX_LIVE_SEQ_STEP, predicted_rtp_candidates
from repro.filtering import TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.packets import SenderReport
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage


def udp(t, payload, sport=50000, dport=3478):
    return PacketRecord(
        timestamp=t, src_ip="10.0.0.1", src_port=sport,
        dst_ip="20.0.0.2", dst_port=dport, transport="UDP", payload=payload,
    )


def fingerprint(result):
    """Everything observable about an analysis, in a comparable shape."""
    return [
        (
            analysis.record.timestamp,
            analysis.classification.value,
            bytes(analysis.proprietary_header or b""),
            tuple(
                (m.protocol.value, m.offset, m.length, m.trailer,
                 type(m.message).__name__)
                for m in analysis.messages
            ),
        )
        for analysis in result.analyses
    ]


def rtp_record(t, ssrc, seq, prefix=b"", payload_len=40, pt=96):
    packet = RtpPacket(payload_type=pt, sequence_number=seq,
                       timestamp=1000 + 160 * seq, ssrc=ssrc,
                       payload=bytes(payload_len))
    return udp(t, prefix + packet.build())


class TestCellParity:
    """Fast path on vs off over every simulated app x network cell."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_bit_identical_per_app(self, app, trace_cache):
        for network in NetworkCondition:
            trace = trace_cache(app, network)
            kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
            fast = DpiEngine(fastpath=True).analyze_records(kept)
            slow = DpiEngine(fastpath=False).analyze_records(kept)
            assert fingerprint(fast) == fingerprint(slow), (
                f"fast-path output diverged for {app}/{network.value}"
            )
            assert slow.stats.fastpath_hits == 0
            assert fast.stats.datagrams == slow.stats.datagrams

    def test_fast_path_actually_engages(self, trace_cache):
        trace = trace_cache("whatsapp", NetworkCondition.WIFI_P2P)
        kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
        stats = DpiEngine(fastpath=True).analyze_records(kept).stats
        assert stats.fastpath_hits > 0
        assert stats.fastpath_hits + stats.sweeps == stats.datagrams


class TestFramingSwitch:
    """One stream that changes framing twice: STUN, then RTP behind a
    proprietary header, then RTCP compound.  The learner locks on the RTP
    phase and must yield cleanly when the framing moves on."""

    def _records(self):
        records = []
        t = 1.0
        for i in range(6):
            message = StunMessage(msg_type=0x0001,
                                  transaction_id=bytes([i] * 12),
                                  attributes=[StunAttribute(0x8022, b"probe")])
            records.append(udp(t, message.build()))
            t += 0.02
        for seq in range(100, 140):
            records.append(
                rtp_record(t, ssrc=0xABCD, seq=seq, prefix=b"\x04\x64" + bytes(6))
            )
            t += 0.02
        sr = SenderReport(ssrc=0xABCD, ntp_timestamp=2**40, rtp_timestamp=7,
                          packet_count=40, octet_count=4000)
        for i in range(4):
            records.append(udp(t, sr.to_packet().build()))
            t += 0.05
        return records

    def test_bit_identical_and_falls_back(self):
        records = self._records()
        fast_engine = DpiEngine(fastpath=True)
        fast = fast_engine.analyze_records(records)
        slow = DpiEngine(fastpath=False).analyze_records(records)
        assert fingerprint(fast) == fingerprint(slow)
        # The RTP phase is long enough to lock; the RTCP tail must not be
        # swallowed by the locked signature.
        assert fast.stats.fastpath_hits > 0
        rtcp = [a for a in fast.analyses
                if any(m.protocol.value == "rtcp" for m in a.messages)]
        assert len(rtcp) == 4

    def test_accounting_invariant(self):
        records = self._records()
        stats = DpiEngine(fastpath=True).analyze_records(records).stats
        assert stats.fastpath_redos == 0
        assert stats.fastpath_hits + stats.sweeps == stats.datagrams
        # Every fallback also swept.
        assert stats.sweeps >= stats.fastpath_fallbacks


class TestSignatureLearner:
    def _observe_stream(self, learner, ssrc=0x1111, offset=0, count=None,
                        start_seq=50):
        count = learner.k if count is None else count
        for i in range(count):
            payload = RtpPacket(payload_type=96, sequence_number=start_seq + i,
                                timestamp=160 * i, ssrc=ssrc,
                                payload=bytes(20)).build()
            candidates = rtp_candidates(bytes(offset) + payload, 200)
            learner.observe([c for c in candidates if c.offset == offset])

    def test_locks_after_k_live_sightings(self):
        learner = SignatureLearner()
        self._observe_stream(learner, count=DEFAULT_SIGNATURE_K - 1)
        assert not learner.locked
        self._observe_stream(learner, count=1,
                             start_seq=50 + DEFAULT_SIGNATURE_K - 1)
        assert learner.locked
        assert learner.signature.rtp_offsets == (0,)
        assert learner.signature.ssrcs_at(0) == frozenset({0x1111})

    def test_static_pair_never_locks(self):
        # Byte-stable artifact: same SSRC recurs but its "seq" field jumps
        # wildly (it overlaps a real timestamp) — not live media.
        learner = SignatureLearner()
        for i in range(learner.k * 3):
            payload = RtpPacket(payload_type=96,
                                sequence_number=(i * 7919) % 65536,
                                timestamp=0, ssrc=0xBEDE0001,
                                payload=bytes(20)).build()
            learner.observe(rtp_candidates(payload, 200))
        assert not learner.locked

    def test_seq_step_boundary(self):
        # A delta of exactly MAX_LIVE_SEQ_STEP is live; one beyond is not.
        for step, locks in ((MAX_LIVE_SEQ_STEP, True),
                            (MAX_LIVE_SEQ_STEP + 1, False)):
            learner = SignatureLearner()
            for i in range(learner.k):
                payload = RtpPacket(payload_type=96,
                                    sequence_number=(i * step) % 65536,
                                    timestamp=0, ssrc=0x2222,
                                    payload=bytes(20)).build()
                learner.observe(rtp_candidates(payload, 200))
            assert learner.locked is locks

    def test_k_misses_reset(self):
        learner = SignatureLearner()
        self._observe_stream(learner)
        assert learner.locked
        for _ in range(learner.k - 1):
            learner.record_miss()
        assert learner.locked
        learner.record_miss()
        assert not learner.locked

    def test_hit_clears_miss_streak(self):
        learner = SignatureLearner()
        self._observe_stream(learner)
        for _ in range(learner.k - 1):
            learner.record_miss()
        learner.record_hit()
        for _ in range(learner.k - 1):
            learner.record_miss()
        assert learner.locked

    def test_ssrc_rotation_extends_signature(self):
        learner = SignatureLearner()
        self._observe_stream(learner, ssrc=0x1111)
        self._observe_stream(learner, ssrc=0x2222, start_seq=500)
        assert learner.signature.ssrcs_at(0) == frozenset({0x1111, 0x2222})

    def test_guards_survive_reset(self):
        learner = SignatureLearner()
        self._observe_stream(learner, ssrc=0x55667788)
        for _ in range(learner.k):
            learner.record_miss()
        assert not learner.locked
        # Relearn at a different offset; the old SSRC at offset 0 must
        # still trip the continuation guard.
        self._observe_stream(learner, ssrc=0x99AABBCC, offset=8)
        payload = RtpPacket(payload_type=96, sequence_number=1, timestamp=2,
                            ssrc=0x55667788, payload=bytes(20)).build()
        assert learner.continuation_risk(payload, 200)

    def test_continuation_risk_ignores_learned_offset(self):
        learner = SignatureLearner()
        self._observe_stream(learner, ssrc=0x55667788)
        payload = RtpPacket(payload_type=96, sequence_number=60,
                            timestamp=100, ssrc=0x55667788,
                            payload=bytes(20)).build()
        assert not learner.continuation_risk(payload, 200)
        assert learner.continuation_risk(b"\x00" * 4 + payload, 200)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            SignatureLearner(k=1)


class TestPredictedCandidates:
    def _signature(self, offset=0, ssrc=0x1111, dynamic=True):
        live = frozenset({ssrc}) if dynamic else frozenset()
        return StreamSignature(
            rtp_offsets=(offset,),
            rtp_ssrc_sets=(frozenset({ssrc}),),
            rtp_dynamic_sets=(live,),
        )

    def _payload(self, ssrc=0x1111, prefix=b""):
        return prefix + RtpPacket(payload_type=96, sequence_number=9,
                                  timestamp=10, ssrc=ssrc,
                                  payload=bytes(20)).build()

    def test_trusted_live_prediction(self):
        out = predicted_rtp_candidates(
            self._payload(), 200, self._signature(), rtp_candidates
        )
        assert out is not None and out[0].rtp_ssrc == 0x1111

    def test_untrusted_ssrc_misses(self):
        out = predicted_rtp_candidates(
            self._payload(ssrc=0x9999), 200, self._signature(), rtp_candidates
        )
        assert out is None

    def test_static_only_signature_misses(self):
        out = predicted_rtp_candidates(
            self._payload(), 200, self._signature(dynamic=False), rtp_candidates
        )
        assert out is None

    def test_nothing_at_learned_offset_misses(self):
        # No candidate at all is a miss (the datagram deviates entirely).
        out = predicted_rtp_candidates(
            b"\x11" * 40, 200, self._signature(), rtp_candidates
        )
        assert out is None
