"""The per-record dataclasses keep their dataclass behavior under the
hand-written ``__init__`` that writes slots through member descriptors.

``PacketRecord`` (built by the batch decoder) and ``RtpPacket`` (built by
``RtpPacket.parse``) are compared with twins built by keyword from plain
``bytes``: equality, hashing, ``repr``, pickling, copying,
``dataclasses.replace``, frozenness and slot-only storage must all be the
dataclass's own, and a parsed packet's ``repr`` must equal its twin's.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.packets import write_pcap
from repro.packets.batch import BatchPcapReader
from repro.packets.packet import Direction, PacketRecord, TrafficCategory, Truth
from repro.protocols.rtp.extensions import HeaderExtension
from repro.protocols.rtp.header import RtpPacket


def _bytes_twin(obj):
    """The same field values, payload as ``bytes``, built by keyword."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    values["payload"] = bytes(values["payload"])
    return type(obj)(**values)


def _dataclass_repr(obj):
    fields = ", ".join(
        f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(obj)
    )
    return f"{type(obj).__qualname__}({fields})"


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # an RtpPacket holds its CSRC list
        return str(exc)


def _assert_dataclass_behavior(obj, changed_field, changed_value):
    twin = _bytes_twin(obj)
    assert obj == twin and twin == obj
    assert _hash_or_error(obj) == _hash_or_error(twin)
    # A parsed packet's payload is a memoryview; it shows as its bytes.
    assert repr(obj) == repr(twin)
    assert repr(twin) == _dataclass_repr(twin)
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        copy.copy(obj),
        copy.deepcopy(obj),
        dataclasses.replace(obj),
    ):
        assert type(clone) is type(obj)
        assert clone == obj
        assert _hash_or_error(clone) == _hash_or_error(obj)
    changed = dataclasses.replace(obj, **{changed_field: changed_value})
    assert getattr(changed, changed_field) == changed_value
    assert changed != obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, changed_field, changed_value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, changed_field)
    assert not hasattr(obj, "__dict__")


@pytest.fixture(scope="module")
def decoded(tmp_path_factory):
    """Batch-decoded records of a short call with TCP and UDP traffic."""
    config = CallConfig(
        network=NetworkCondition.WIFI_RELAY, seed=3, call_duration=3.0,
        media_scale=0.2,
    )
    path = tmp_path_factory.mktemp("construction") / "call.pcap"
    write_pcap(path, list(get_simulator("zoom").iter_records(config)))
    with BatchPcapReader(path) as reader:
        records = list(reader.records())
        # A few IPv6 background frames take the scalar decode.
        assert reader.stats.fast_path > 0.9 * len(records)
    assert {r.transport for r in records} == {"UDP", "TCP"}
    return records


class TestPacketRecord:
    def test_batch_decoded_records_match_keyword_twins(self, decoded):
        for record in decoded[:400]:
            _assert_dataclass_behavior(record, "src_port", record.src_port + 1)

    def test_positional_equals_keyword(self):
        truth = Truth(TrafficCategory.RTC_MEDIA, app="zoom")
        positional = PacketRecord(
            2.5, "10.0.0.1", 5000, "8.8.8.8", 443, "TCP", b"abc",
            Direction.INBOUND, truth,
        )
        keyword = PacketRecord(
            timestamp=2.5, src_ip="10.0.0.1", src_port=5000, dst_ip="8.8.8.8",
            dst_port=443, transport="TCP", payload=b"abc",
            direction=Direction.INBOUND, truth=truth,
        )
        assert positional == keyword
        _assert_dataclass_behavior(positional, "direction", Direction.OUTBOUND)

    def test_defaults(self):
        record = PacketRecord(1.0, "a", 1, "b", 2, "UDP", b"")
        assert record.direction is Direction.OUTBOUND
        assert record.truth is None

    def test_unsupported_transport_raises(self, decoded):
        with pytest.raises(ValueError, match="unsupported transport 'SCTP'"):
            PacketRecord(1.0, "a", 1, "b", 2, "SCTP", b"")
        with pytest.raises(ValueError, match="unsupported transport"):
            dataclasses.replace(decoded[0], transport="SCTP")

    def test_signature_is_the_fields(self):
        parameters = list(inspect.signature(PacketRecord).parameters)
        assert parameters == [f.name for f in dataclasses.fields(PacketRecord)]


_rtp_packets = st.builds(
    RtpPacket,
    payload_type=st.integers(0, 127),
    sequence_number=st.integers(0, 0xFFFF),
    timestamp=st.integers(0, 0xFFFFFFFF),
    ssrc=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=40),
    marker=st.booleans(),
    csrcs=st.lists(st.integers(0, 0xFFFFFFFF), max_size=15),
    extension=st.one_of(
        st.none(),
        st.builds(
            HeaderExtension,
            profile=st.integers(0, 0xFFFF),
            data=st.integers(0, 3).map(lambda words: bytes(4 * words)),
        ),
    ),
    padding_length=st.integers(0, 8),
)


class TestRtpPacket:
    @given(_rtp_packets)
    def test_parsed_packets_match_bytes_twins(self, built):
        parsed = RtpPacket.parse(built.build())
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(parsed)
        assert isinstance(parsed.payload, memoryview)
        assert parsed == built
        _assert_dataclass_behavior(parsed, "ssrc", (parsed.ssrc + 1) & 0xFFFFFFFF)

    def test_non_strict_padding_flag_survives(self):
        raw = bytearray(RtpPacket(96, 1, 2, 3, b"media", padding_length=2).build())
        raw[-1] = 200  # pad count larger than the payload
        parsed = RtpPacket.parse(bytes(raw), strict=False)
        assert parsed.invalid_padding and parsed.padding_length == 0
        _assert_dataclass_behavior(parsed, "invalid_padding", False)

    def test_default_csrcs_are_fresh_lists(self):
        first = RtpPacket(96, 1, 2, 3)
        second = RtpPacket(96, 1, 2, 3)
        assert first.csrcs == [] and first.csrcs is not second.csrcs
        assert first.payload == b"" and first.extension is None

    def test_signature_is_the_fields(self):
        parameters = list(inspect.signature(RtpPacket).parameters)
        assert parameters == [f.name for f in dataclasses.fields(RtpPacket)]
