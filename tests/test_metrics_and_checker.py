"""Tests for the compliance checker orchestration and the two metrics."""

from repro.core import ComplianceChecker, ComplianceSummary
from repro.core.metrics import (
    MAX_EXAMPLE_VIOLATIONS,
    StreamingSummary,
    VolumeCompliance,
    merge_type_entries,
)
from repro.core.verdict import Criterion, MessageVerdict, Violation
from repro.dpi.messages import ExtractedMessage, Protocol
from repro.packets.packet import PacketRecord
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage


def extract(message, protocol, raw=None):
    if raw is None:
        raw = message.build()
    record = PacketRecord(
        timestamp=1.0, src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2",
        dst_port=2, transport="UDP", payload=raw,
    )
    return ExtractedMessage(protocol=protocol, offset=0, length=len(raw),
                            message=message, record=record)


def rtp_message(pt=96, ext=None):
    return extract(
        RtpPacket(payload_type=pt, sequence_number=1, timestamp=2, ssrc=3,
                  payload=b"x", extension=ext),
        Protocol.RTP,
    )


def stun_message(msg_type=0x0001, attrs=()):
    return extract(
        StunMessage(msg_type=msg_type, transaction_id=bytes(12),
                    attributes=list(attrs)),
        Protocol.STUN_TURN,
    )


class TestChecker:
    def test_mixed_session(self):
        messages = [
            rtp_message(),
            stun_message(),
            stun_message(0x0800),  # undefined type
        ]
        verdicts = ComplianceChecker().check(messages)
        assert [v.compliant for v in verdicts] == [True, True, False]

    def test_check_one(self):
        [verdict] = ComplianceChecker().check([stun_message(0x0801)])
        assert not verdict.compliant
        assert verdict.failed_criterion is Criterion.MESSAGE_TYPE

    def test_non_sequential_mode(self):
        message = stun_message(0x0800, [StunAttribute(0x4000, b"x")])
        verdicts = ComplianceChecker(sequential=False).check([message])
        assert len(verdicts[0].violations) == 2


class TestVolumeMetric:
    def _summary(self):
        return ComplianceSummary.from_verdicts("test", ComplianceChecker().check([
            rtp_message(), rtp_message(), stun_message(0x0800),
        ]))

    def test_overall(self):
        volume = self._summary().volume
        assert (volume.compliant, volume.total) == (2, 3)
        assert abs(volume.ratio - 2 / 3) < 1e-9

    def test_per_protocol(self):
        by_protocol = self._summary().volume_by_protocol
        assert list(by_protocol) == ["stun_turn", "rtp"]  # Protocol order
        assert by_protocol["rtp"] == VolumeCompliance(2, 2)
        assert by_protocol["stun_turn"] == VolumeCompliance(0, 1)

    def test_empty_is_fully_compliant(self):
        summary = ComplianceSummary.from_verdicts("test", [])
        assert summary.volume.ratio == 1.0
        assert summary.volume_by_protocol == {} and summary.types == {}

    def test_addition(self):
        total = VolumeCompliance(1, 2) + VolumeCompliance(3, 4)
        assert (total.compliant, total.total) == (4, 6)


class TestTypeMetric:
    def test_type_compliant_only_if_all_instances_are(self):
        from repro.protocols.rtp.extensions import HeaderExtension
        verdicts = ComplianceChecker().check([
            rtp_message(pt=96),
            rtp_message(pt=96, ext=HeaderExtension(0x8001, bytes(4))),
            rtp_message(pt=97),
        ])
        entries = ComplianceSummary.from_verdicts("test", verdicts).types
        assert list(entries) == [("rtp", "96"), ("rtp", "97")]
        assert not entries[("rtp", "96")].compliant
        assert entries[("rtp", "96")].total == 2
        assert entries[("rtp", "97")].compliant

    def test_examples_recorded(self):
        verdicts = ComplianceChecker().check([stun_message(0x0800)])
        entries = ComplianceSummary.from_verdicts("test", verdicts).types
        entry = entries[("stun_turn", "0x0800")]
        assert entry.example_violations
        assert "undefined-message-type" in entry.example_violations[0]

    def test_first_examples_kept_and_only_they_are_formatted(self, monkeypatch):
        formatted = []
        original = Violation.__str__

        def counting(violation):
            formatted.append(violation.detail)
            return original(violation)

        monkeypatch.setattr(Violation, "__str__", counting)
        count = MAX_EXAMPLE_VIOLATIONS + 5
        verdicts = [
            MessageVerdict(
                message=stun_message(0x0800),
                violations=(Violation(Criterion.MESSAGE_TYPE, "x", f"m{i}"),),
            )
            for i in range(count)
        ]
        entry = ComplianceSummary.from_verdicts("test", verdicts).types[
            ("stun_turn", "0x0800")
        ]
        kept = [f"m{i}" for i in range(MAX_EXAMPLE_VIOLATIONS)]
        assert (entry.total, entry.non_compliant) == (count, count)
        assert entry.example_violations == [f"[C1:x] {m}" for m in kept]
        assert formatted == kept


class TestSummary:
    def _summary(self, app="test"):
        verdicts = ComplianceChecker().check([
            rtp_message(), stun_message(), stun_message(0x0800),
        ])
        return ComplianceSummary.from_verdicts(app, verdicts)

    def test_from_verdicts(self):
        summary = self._summary()
        assert summary.volume.total == 3
        assert summary.volume_by_protocol["rtp"].ratio == 1.0
        assert summary.type_ratio() == (2, 3)
        assert summary.type_ratio("stun_turn") == (1, 2)

    def test_observed_types(self):
        summary = self._summary()
        stun_types = summary.observed_types("stun_turn")
        assert set(stun_types) == {"0x0001", "0x0800"}

    def test_merge_type_entries_counts_per_app(self):
        a = self._summary("a")
        b = self._summary("b")
        compliant, total = merge_type_entries([a, b], "stun_turn")
        assert (compliant, total) == (2, 4)  # same types, counted per app

    def test_streaming_result_is_a_snapshot(self):
        # A summary taken mid-fold must not change when more verdicts are
        # folded in later: its type entries agree with its volume.
        [verdict] = ComplianceChecker().check([stun_message(0x0800)])
        folding = StreamingSummary("test")
        folding.add(verdict)
        first = folding.result()
        folding.add(verdict)
        second = folding.result()
        key = ("stun_turn", "0x0800")
        assert first.volume.total == first.types[key].total == 1
        assert first.types[key].non_compliant == 1
        assert len(first.types[key].example_violations) == 1
        assert second.volume.total == second.types[key].total == 2
        assert len(second.types[key].example_violations) == 2


class TestVerdictModel:
    def test_violation_str(self):
        violation = Violation(Criterion.ATTRIBUTE_TYPES, "undefined-attribute", "x")
        assert str(violation).startswith("[C3:undefined-attribute]")

    def test_verdict_properties(self):
        verdict = MessageVerdict(message=None, violations=[])
        assert verdict.compliant
        assert verdict.first_violation is None
        assert verdict.failed_criterion is None
