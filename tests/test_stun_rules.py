"""Tests for the STUN/TURN compliance rules (five criteria)."""

import pytest

from repro.core.checker import ComplianceChecker
from repro.core.stun_rules import StunSessionContext, check_stun
from repro.core.verdict import Criterion
from repro.dpi.messages import ExtractedMessage, Protocol
from repro.packets.packet import PacketRecord
from repro.protocols.stun.attributes import (
    StunAttribute,
    channel_number_value,
    encode_error_code,
    encode_xor_address,
    requested_transport_value,
)
from repro.protocols.stun.constants import AttributeType
from repro.protocols.stun.message import ChannelData, StunMessage, build_with_fingerprint

_A = AttributeType


def extract(message, timestamp=1.0, port=50000, raw=None, trailer=b""):
    if raw is None:
        raw = message.build() if isinstance(message, StunMessage) else message.build()
    record = PacketRecord(
        timestamp=timestamp, src_ip="10.0.0.1", src_port=port,
        dst_ip="20.0.0.2", dst_port=3478, transport="UDP", payload=raw,
    )
    parsed = (
        StunMessage.parse(raw, strict=False)
        if not isinstance(message, ChannelData)
        else message
    )
    return ExtractedMessage(
        protocol=Protocol.STUN_TURN, offset=0, length=len(raw) - len(trailer),
        message=parsed, record=record, trailer=trailer,
    )


def judge(message, **kwargs):
    extracted = extract(message, **kwargs)
    context = StunSessionContext([extracted])
    return check_stun(extracted, context)


def stun(msg_type, attrs=(), classic=False, txid=None):
    txid = txid if txid is not None else bytes(16 if classic else 12)
    return StunMessage(msg_type=msg_type, transaction_id=txid,
                       attributes=list(attrs), classic=classic)


class TestCriterion1:
    def test_binding_request_compliant(self):
        assert judge(stun(0x0001)) == []

    @pytest.mark.parametrize("msg_type", [0x0800, 0x0801, 0x0805, 0x0ABC])
    def test_undefined_types_fail(self, msg_type):
        violations = judge(stun(msg_type))
        assert violations[0].criterion is Criterion.MESSAGE_TYPE

    def test_goog_ping_defined(self):
        assert judge(stun(0x0200)) == []
        assert judge(stun(0x0300)) == []

    def test_classic_shared_secret_defined(self):
        assert judge(stun(0x0002, classic=True)) == []

    def test_turn_types_defined(self):
        for msg_type in (0x0003, 0x0103, 0x0113, 0x0004, 0x0008, 0x0009,
                         0x0016, 0x0017, 0x0104, 0x0108, 0x0109, 0x0118):
            attrs = []
            if msg_type == 0x0016 or msg_type == 0x0017:
                attrs = [
                    StunAttribute(int(_A.XOR_PEER_ADDRESS),
                                  encode_xor_address("1.2.3.4", 5, bytes(12))),
                    StunAttribute(int(_A.DATA), b"d"),
                ]
            assert judge(stun(msg_type, attrs)) == [], hex(msg_type)


class TestCriterion3:
    @pytest.mark.parametrize("attr_type", [0x0101, 0x0103, 0x4000, 0x4003,
                                           0x4004, 0x8007, 0x8008])
    def test_undefined_attributes_fail(self, attr_type):
        violations = judge(stun(0x0001, [StunAttribute(attr_type, b"\x00" * 4)]))
        assert violations[0].criterion is Criterion.ATTRIBUTE_TYPES
        assert violations[0].code == "undefined-attribute"

    def test_defined_attributes_pass(self):
        message = stun(0x0001, [
            StunAttribute(int(_A.USERNAME), b"u:p"),
            StunAttribute(int(_A.PRIORITY), bytes(4)),
            StunAttribute(int(_A.SOFTWARE), b"lib"),
        ])
        assert judge(message) == []


class TestCriterion4:
    def test_reservation_token_length(self):
        message = stun(0x0003, [
            StunAttribute(int(_A.REQUESTED_TRANSPORT), requested_transport_value()),
            StunAttribute(int(_A.RESERVATION_TOKEN), b"\x00" * 5),
        ])
        violations = judge(message)
        assert violations[0].code == "bad-attribute-length"
        assert violations[0].criterion is Criterion.ATTRIBUTE_VALUES

    def test_alternate_server_family_zero(self):
        # FaceTime's 0x00 family in ALTERNATE-SERVER (§5.2.1).
        import struct
        value = struct.pack("!BBH", 0, 0x00, 3478) + bytes(4)
        message = stun(0x0101, [StunAttribute(int(_A.ALTERNATE_SERVER), value)])
        violations = judge(message)
        assert violations[0].code == "bad-address-family"

    def test_channel_number_zero_value(self):
        # FaceTime's CHANNEL-NUMBER 0x00000000 in Data Indications.
        message = stun(0x0017, [
            StunAttribute(int(_A.XOR_PEER_ADDRESS),
                          encode_xor_address("1.2.3.4", 5, bytes(12))),
            StunAttribute(int(_A.DATA), b"d"),
            StunAttribute(int(_A.CHANNEL_NUMBER), bytes(4)),
        ])
        violations = judge(message)
        assert violations[0].code == "bad-channel-number"

    def test_data_indication_closed_set(self):
        message = stun(0x0017, [
            StunAttribute(int(_A.XOR_PEER_ADDRESS),
                          encode_xor_address("1.2.3.4", 5, bytes(12))),
            StunAttribute(int(_A.DATA), b"d"),
            StunAttribute(int(_A.LIFETIME), bytes(4)),
        ])
        violations = judge(message)
        assert violations[0].code == "attribute-not-allowed"

    def test_priority_in_success_response(self):
        # The paper's own criterion-4 example.
        message = stun(0x0101, [StunAttribute(int(_A.PRIORITY), bytes(4))])
        violations = judge(message)
        assert violations[0].code == "attribute-not-allowed"

    def test_bad_error_class(self):
        message = stun(0x0113, [
            StunAttribute(int(_A.ERROR_CODE), encode_error_code(701, "?")),
        ])
        violations = judge(message)
        assert violations[0].code == "bad-error-code"

    def test_valid_error_passes(self):
        message = stun(0x0113, [
            StunAttribute(int(_A.ERROR_CODE), encode_error_code(401, "Unauthorized")),
        ])
        assert judge(message) == []

    def test_fingerprint_crc_verified(self):
        good = build_with_fingerprint(stun(0x0001, [StunAttribute(int(_A.USERNAME), b"u")]))
        parsed = StunMessage.parse(good)
        extracted = extract(parsed, raw=good)
        assert check_stun(extracted, StunSessionContext([extracted])) == []
        # Corrupt the CRC.
        bad = good[:-1] + bytes([good[-1] ^ 0xFF])
        parsed_bad = StunMessage.parse(bad)
        extracted_bad = extract(parsed_bad, raw=bad)
        violations = check_stun(extracted_bad, StunSessionContext([extracted_bad]))
        assert violations[0].code == "bad-fingerprint"

    def test_fingerprint_must_be_last(self):
        message = stun(0x0001, [
            StunAttribute(int(_A.FINGERPRINT), bytes(4)),
            StunAttribute(int(_A.USERNAME), b"u"),
        ])
        violations = judge(message)
        assert violations[0].code == "bad-fingerprint"


class TestCriterion5:
    def _messages(self, builder, count, spacing=1.0, start=0.0):
        extracted = []
        for i in range(count):
            extracted.append(extract(builder(i), timestamp=start + i * spacing))
        return extracted

    def test_unanswered_retransmissions_flagged(self):
        txid = bytes(12)
        messages = self._messages(lambda i: stun(0x0001, txid=txid), 10)
        context = StunSessionContext(messages)
        violations = check_stun(messages[0], context)
        assert violations[0].code == "unanswered-retransmission"

    def test_answered_transaction_not_flagged(self):
        txid = bytes(12)
        messages = self._messages(lambda i: stun(0x0001, txid=txid), 10)
        messages.append(extract(stun(0x0101, txid=txid), timestamp=11.0))
        context = StunSessionContext(messages)
        assert check_stun(messages[0], context) == []

    def test_few_retransmissions_not_flagged(self):
        # Normal STUN retransmits a handful of times over ~few seconds.
        txid = bytes(12)
        messages = self._messages(lambda i: stun(0x0001, txid=txid), 3)
        context = StunSessionContext(messages)
        assert check_stun(messages[0], context) == []

    @staticmethod
    def _random_txid(i):
        # Distinct but non-sequential IDs, so only the ping-pong rule fires.
        import hashlib
        return hashlib.sha1(f"txid-{i}".encode()).digest()[:12]

    def test_allocate_pingpong_flagged(self):
        def build(i):
            return stun(0x0003, [
                StunAttribute(int(_A.REQUESTED_TRANSPORT), requested_transport_value()),
            ], txid=self._random_txid(i))
        messages = self._messages(build, 20, spacing=1.0)
        context = StunSessionContext(messages)
        violations = check_stun(messages[5], context)
        assert violations[0].code == "allocate-pingpong"

    def test_sparse_allocates_not_flagged(self):
        def build(i):
            return stun(0x0003, [
                StunAttribute(int(_A.REQUESTED_TRANSPORT), requested_transport_value()),
            ], txid=self._random_txid(i))
        messages = self._messages(build, 3, spacing=20.0)
        context = StunSessionContext(messages)
        assert check_stun(messages[0], context) == []


class TestChannelDataRules:
    def test_valid_frame_compliant(self):
        frame = ChannelData(channel=0x4005, data=b"media")
        extracted = extract(frame, raw=frame.build())
        assert check_stun(extracted, StunSessionContext([])) == []

    def test_reserved_channel_flagged(self):
        frame = ChannelData(channel=0x5001, data=b"media")
        extracted = extract(frame, raw=frame.build())
        violations = check_stun(extracted, StunSessionContext([]))
        assert violations[0].code == "bad-channel-number"
        assert violations[0].criterion is Criterion.HEADER_FIELDS

    def test_padding_over_udp_flagged(self):
        frame = ChannelData(channel=0x4005, data=b"media")
        raw = frame.build() + b"\x00\x00"
        extracted = extract(frame, raw=raw, trailer=b"\x00\x00")
        violations = check_stun(extracted, StunSessionContext([]))
        assert violations[0].code == "channeldata-padding"
        assert violations[0].criterion is Criterion.SEMANTICS


class TestSequentialMode:
    def test_stops_at_first_criterion(self):
        # Undefined type AND undefined attribute: sequential reports only C1.
        message = stun(0x0800, [StunAttribute(0x4000, b"x")])
        extracted = extract(message)
        sequential = check_stun(extracted, StunSessionContext([extracted]), True)
        assert len(sequential) == 1
        exhaustive = check_stun(extracted, StunSessionContext([extracted]), False)
        assert len(exhaustive) == 2
        assert {v.criterion for v in exhaustive} == {
            Criterion.MESSAGE_TYPE, Criterion.ATTRIBUTE_TYPES,
        }


# ---------------------------------------------------------------------------
# Sequential transaction IDs (the FaceTime finding, paper §5.3)
# ---------------------------------------------------------------------------


def extract_stun(message, t, stream_port=50000):
    raw = message.build()
    record = PacketRecord(timestamp=t, src_ip="10.0.0.1", src_port=stream_port,
                          dst_ip="20.0.0.2", dst_port=3478, transport="UDP",
                          payload=raw)
    return ExtractedMessage(protocol=Protocol.STUN_TURN, offset=0,
                            length=len(raw), message=message, record=record)


class TestSequentialTxidRule:
    def test_incrementing_txids_flagged(self):
        messages = [
            extract_stun(
                StunMessage(msg_type=0x0001,
                            transaction_id=(1000 + i).to_bytes(12, "big")),
                t=float(i),
            )
            for i in range(8)
        ]
        # Answer each so the retransmission rule stays quiet.
        messages += [
            extract_stun(
                StunMessage(msg_type=0x0101,
                            transaction_id=(1000 + i).to_bytes(12, "big")),
                t=float(i) + 0.1,
            )
            for i in range(8)
        ]
        context = StunSessionContext(messages)
        violations = check_stun(messages[3], context)
        assert violations[0].code == "sequential-transaction-id"
        assert violations[0].criterion is Criterion.HEADER_FIELDS

    def test_random_txids_not_flagged(self):
        import random
        rng = random.Random(1)
        messages = [
            extract_stun(
                StunMessage(msg_type=0x0001,
                            transaction_id=bytes(rng.randrange(256)
                                                 for _ in range(12))),
                t=float(i),
            )
            for i in range(20)
        ]
        context = StunSessionContext(messages)
        assert not context.sequential_txids

    def test_short_run_not_flagged(self):
        messages = [
            extract_stun(
                StunMessage(msg_type=0x0001,
                            transaction_id=(500 + i).to_bytes(12, "big")),
                t=float(i),
            )
            for i in range(3)
        ]
        context = StunSessionContext(messages)
        assert not context.sequential_txids

    def test_simulated_apps_unaffected(self, pipeline_cache):
        """No simulator emits sequential IDs; the rule must stay silent."""
        from repro.apps import NetworkCondition
        for app in ("whatsapp", "messenger", "meet"):
            _t, _f, _d, verdicts = pipeline_cache(app, NetworkCondition.WIFI_RELAY)
            assert not any(
                v.first_violation and v.first_violation.code == "sequential-transaction-id"
                for v in verdicts
            )
