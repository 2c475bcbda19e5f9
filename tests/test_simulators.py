"""Structural tests for the six application simulators.

These assert the byte-level quirks the paper documents, *directly on the
synthesized traffic* (no DPI in the loop), so emulator regressions are
caught independently of the analysis pipeline.
"""

import pytest

from repro.apps import (
    APP_NAMES,
    CallConfig,
    NetworkCondition,
    TransmissionMode,
    get_simulator,
)
from repro.apps.facetime import CELLULAR_BEACON_PREFIX
from repro.apps.zoom import INBOUND_SSRCS, OUTBOUND_SSRCS
from repro.packets.packet import Direction, TrafficCategory
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.message import StunMessage


def rtc_udp(trace):
    return [r for r in trace.records
            if r.transport == "UDP" and r.truth is not None and r.truth.is_rtc]


class TestCommon:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_deterministic(self, app):
        config = CallConfig(network=NetworkCondition.WIFI_P2P, seed=9,
                            call_duration=6.0, media_scale=0.2)
        a = get_simulator(app).simulate(config)
        b = get_simulator(app).simulate(config)
        assert len(a.records) == len(b.records)
        assert all(
            (x.timestamp, x.payload) == (y.timestamp, y.payload)
            for x, y in zip(a.records, b.records)
        )

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_seeds_differ(self, app):
        base = dict(network=NetworkCondition.WIFI_P2P, call_duration=6.0,
                    media_scale=0.2)
        a = get_simulator(app).simulate(CallConfig(seed=1, **base))
        b = get_simulator(app).simulate(CallConfig(seed=2, **base))
        assert [r.payload for r in a.records] != [r.payload for r in b.records]

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_records_sorted_and_in_capture_window(self, app, trace_cache):
        trace = trace_cache(app, NetworkCondition.WIFI_RELAY)
        timestamps = [r.timestamp for r in trace.records]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] >= trace.window.capture_start
        assert timestamps[-1] <= trace.window.capture_end + 1.0

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_media_confined_to_call_window(self, app, trace_cache):
        trace = trace_cache(app, NetworkCondition.WIFI_RELAY)
        for record in trace.records:
            if record.truth and record.truth.category is TrafficCategory.RTC_MEDIA:
                assert trace.window.call_start <= record.timestamp <= trace.window.call_end

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_background_present(self, app, trace_cache):
        trace = trace_cache(app, NetworkCondition.WIFI_RELAY)
        assert any(
            r.truth and r.truth.category is TrafficCategory.BACKGROUND
            for r in trace.records
        )

    def test_background_can_be_disabled(self):
        trace = get_simulator("discord").simulate(
            CallConfig(network=NetworkCondition.WIFI_P2P, seed=1,
                       call_duration=5.0, media_scale=0.2,
                       include_background=False)
        )
        assert not any(
            r.truth and r.truth.category is TrafficCategory.BACKGROUND
            for r in trace.records
        )

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            get_simulator("skype")

    @pytest.mark.parametrize("field", ["media_scale", "call_duration"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_unusable_scale_or_duration_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            CallConfig(network=NetworkCondition.WIFI_RELAY, **{field: value})


class TestZoom:
    def test_every_media_datagram_has_proprietary_header(self, trace_cache):
        trace = trace_cache("zoom", NetworkCondition.WIFI_RELAY)
        for record in rtc_udp(trace):
            detail = record.truth.detail
            if detail.startswith("rtp") or detail == "rtcp":
                # Proprietary header: direction byte then 0x64 marker.
                assert record.payload[0] in (0x00, 0x01, 0x04, 0x05)
                assert record.payload[1] == 0x64

    def test_fixed_ssrcs_per_network(self, trace_cache):
        for network in NetworkCondition:
            trace = trace_cache("zoom", network)
            expected = set(OUTBOUND_SSRCS[network]) | set(INBOUND_SSRCS)
            seen = set()
            for record in rtc_udp(trace):
                if record.truth.detail.startswith("rtp"):
                    # RTP starts right after the 24-byte header (unwrapped).
                    if record.payload[16] in (15, 16):
                        seen.add(int.from_bytes(record.payload[24 + 8:24 + 12], "big"))
            assert seen <= expected
            assert len(seen) >= 2

    def test_filler_datagrams_1000_identical_bytes(self, trace_cache):
        trace = trace_cache("zoom", NetworkCondition.WIFI_RELAY)
        fillers = [r for r in trace.records
                   if r.truth and r.truth.detail == "filler"]
        assert fillers
        for record in fillers:
            assert len(record.payload) == 1000
            assert len(set(record.payload)) == 1

    def test_launch_stun_is_precall(self, trace_cache):
        trace = trace_cache("zoom", NetworkCondition.CELLULAR)
        launch = [r for r in trace.records
                  if r.truth and r.truth.detail == "stun-launch"]
        assert launch
        assert all(r.timestamp < trace.window.call_start for r in launch)
        message = StunMessage.parse(launch[0].payload)
        assert message.classic  # RFC 3489 framing, no magic cookie
        assert message.attribute(0x0101).value == b"12345678901234567890"

    def test_midcall_stun_only_in_wifi_p2p(self, trace_cache):
        for network in NetworkCondition:
            trace = trace_cache("zoom", network)
            midcall = [r for r in trace.records
                       if r.truth and r.truth.detail == "stun-midcall"]
            if network is NetworkCondition.WIFI_P2P:
                assert midcall
            else:
                assert not midcall

    def test_mode_by_network(self, trace_cache):
        assert trace_cache("zoom", NetworkCondition.CELLULAR).mode_timeline[0][1] \
            is TransmissionMode.RELAY
        assert trace_cache("zoom", NetworkCondition.WIFI_P2P).mode_timeline[0][1] \
            is TransmissionMode.P2P


class TestFaceTime:
    def test_every_rtp_has_undefined_extension(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.WIFI_P2P)
        rtp_records = [r for r in rtc_udp(trace) if r.truth.detail.startswith("rtp")]
        assert rtp_records
        for record in rtp_records[:100]:
            packet = RtpPacket.parse(record.payload, strict=False)
            assert packet.extension is not None
            assert packet.extension.profile in (0x8001, 0x8500, 0x8D00)

    def test_relay_mode_prepends_0x6000(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.WIFI_RELAY)
        rtp_records = [r for r in rtc_udp(trace) if r.truth.detail.startswith("rtp")]
        headered = [r for r in rtp_records if r.payload[:2] == b"\x60\x00"]
        assert len(headered) / len(rtp_records) > 0.8

    def test_p2p_mode_has_under_50_headers(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.WIFI_P2P)
        rtp_records = [r for r in rtc_udp(trace) if r.truth.detail.startswith("rtp")]
        headered = [r for r in rtp_records if r.payload[:2] == b"\x60\x00"]
        assert len(headered) < 50

    def test_cellular_beacons(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.CELLULAR)
        beacons = [r for r in trace.records
                   if r.payload.startswith(CELLULAR_BEACON_PREFIX)]
        assert beacons
        assert all(len(r.payload) == 36 for r in beacons)
        # Exactly 20 packets/second per direction.
        outbound = sorted(r.timestamp for r in beacons
                          if r.direction is Direction.OUTBOUND)
        intervals = [b - a for a, b in zip(outbound, outbound[1:])]
        assert all(abs(i - 0.05) < 1e-6 for i in intervals)

    def test_no_beacons_on_wifi(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.WIFI_P2P)
        assert not any(r.payload.startswith(CELLULAR_BEACON_PREFIX)
                       for r in trace.records)

    def test_repeated_binding_requests_same_txid(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.WIFI_P2P)
        txids = []
        for record in trace.records:
            if record.truth and record.truth.detail == "stun" and \
                    record.direction is Direction.OUTBOUND:
                try:
                    message = StunMessage.parse(record.payload)
                except Exception:
                    continue
                if message.msg_type == 0x0001:
                    txids.append(message.transaction_id)
        assert len(txids) >= 5
        assert len(set(txids)) == 1  # unchanged transaction ID

    def test_facetime_always_p2p_on_cellular(self, trace_cache):
        trace = trace_cache("facetime", NetworkCondition.CELLULAR)
        assert trace.mode_timeline[0][1] is TransmissionMode.P2P


class TestMetaApps:
    @pytest.mark.parametrize("app,end_count", [("whatsapp", 4), ("messenger", 6)])
    def test_call_end_0800_messages(self, app, end_count, trace_cache):
        trace = trace_cache(app, NetworkCondition.WIFI_RELAY)
        found = []
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            if message.msg_type == 0x0800:
                found.append(record)
        assert len(found) == end_count
        assert all(
            trace.window.call_end - 2.0 <= r.timestamp <= trace.window.call_end
            for r in found
        )

    @pytest.mark.parametrize("app", ["whatsapp", "messenger"])
    def test_burst_0801_0802(self, app, trace_cache):
        trace = trace_cache(app, NetworkCondition.WIFI_RELAY)
        requests = {}
        responses = {}
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            if message.msg_type == 0x0801:
                requests[message.transaction_id] = record
            elif message.msg_type == 0x0802:
                responses[message.transaction_id] = record
        assert len(requests) == 16
        assert set(requests) == set(responses)  # shared transaction IDs
        assert all(len(r.payload) == 500 for r in requests.values())
        assert all(len(r.payload) == 40 for r in responses.values())
        times = sorted(r.timestamp for r in requests.values())
        assert times[-1] - times[0] < 0.005  # ~2.2 ms burst

    @pytest.mark.parametrize("app", ["whatsapp", "messenger"])
    def test_cellular_relay_then_p2p(self, app, trace_cache):
        trace = trace_cache(app, NetworkCondition.CELLULAR)
        modes = [mode for _t, mode in trace.mode_timeline]
        assert modes == [TransmissionMode.RELAY, TransmissionMode.P2P]

    def test_whatsapp_0803_0805_probes(self, trace_cache):
        trace = trace_cache("whatsapp", NetworkCondition.WIFI_RELAY)
        types = set()
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            types.add(message.msg_type)
        assert {0x0803, 0x0804, 0x0805} <= types

    def test_messenger_turn_control_plane(self, trace_cache):
        trace = trace_cache("messenger", NetworkCondition.WIFI_RELAY)
        types = set()
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            types.add(message.msg_type)
        # Allocate/401/Refresh/CreatePermission(+403)/ChannelBind/indications.
        assert {0x0003, 0x0113, 0x0103, 0x0004, 0x0104, 0x0008, 0x0118,
                0x0108, 0x0009, 0x0109, 0x0016, 0x0017} <= types


class TestDiscord:
    def test_always_relay(self, trace_cache):
        for network in NetworkCondition:
            trace = trace_cache("discord", network)
            assert trace.mode_timeline[0][1] is TransmissionMode.RELAY

    def test_no_stun_at_all(self, trace_cache):
        from repro.protocols.stun.constants import MAGIC_COOKIE
        trace = trace_cache("discord", NetworkCondition.WIFI_RELAY)
        cookie = MAGIC_COOKIE.to_bytes(4, "big")
        for record in rtc_udp(trace):
            assert record.payload[4:8] != cookie

    def test_rtcp_trailer_direction_byte(self, trace_cache):
        trace = trace_cache("discord", NetworkCondition.CELLULAR)
        rtcp = [r for r in trace.records if r.truth and r.truth.detail == "rtcp"]
        assert rtcp
        for record in rtcp:
            last = record.payload[-1]
            if record.direction is Direction.OUTBOUND:
                assert last == 0x80
            else:
                assert last == 0x00

    def test_rtcp_trailer_counter_monotonic(self, trace_cache):
        trace = trace_cache("discord", NetworkCondition.CELLULAR)
        counters = [
            int.from_bytes(r.payload[-3:-1], "big")
            for r in trace.records
            if r.truth and r.truth.detail == "rtcp"
            and r.direction is Direction.OUTBOUND
        ]
        assert counters == sorted(counters)

    def test_ssrc_zero_only_in_205(self, trace_cache):
        from repro.protocols.rtcp.packets import RtcpHeader
        trace = trace_cache("discord", NetworkCondition.WIFI_RELAY)
        zero_types = set()
        for record in trace.records:
            if not (record.truth and record.truth.detail == "rtcp"):
                continue
            header = RtcpHeader.parse(record.payload)
            ssrc = int.from_bytes(record.payload[4:8], "big")
            if ssrc == 0:
                zero_types.add(header.packet_type)
        assert zero_types <= {205}
        assert 205 in zero_types


class TestGoogleMeet:
    def test_goog_ping_pairs(self, trace_cache):
        trace = trace_cache("meet", NetworkCondition.WIFI_P2P)
        pings = pongs = 0
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            if message.msg_type == 0x0200:
                pings += 1
            elif message.msg_type == 0x0300:
                pongs += 1
        assert pings > 0 and pongs > 0

    def test_srtcp_tagless_only_relay_wifi(self, trace_cache):
        from repro.protocols.rtcp.packets import RtcpHeader

        def tagless_share(network):
            trace = trace_cache("meet", network)
            tagless = total = 0
            for record in trace.records:
                if not (record.truth and record.truth.detail == "srtcp"):
                    continue
                header = RtcpHeader.parse(record.payload)
                leftover = len(record.payload) - header.wire_length
                total += 1
                if leftover == 4:
                    tagless += 1
                else:
                    assert leftover == 14
            return tagless / total if total else 0.0

        assert tagless_share(NetworkCondition.WIFI_RELAY) > 0.7
        assert tagless_share(NetworkCondition.WIFI_P2P) == 0.0
        assert tagless_share(NetworkCondition.CELLULAR) == 0.0

    def test_relay_audio_rides_channeldata(self, trace_cache):
        trace = trace_cache("meet", NetworkCondition.WIFI_RELAY)
        audio = [r for r in trace.records
                 if r.truth and r.truth.detail == "rtp-audio"]
        assert audio
        assert all(r.payload[0] == 0x40 for r in audio)  # channel 0x4000

    def test_allocate_pingpong_present(self, trace_cache):
        trace = trace_cache("meet", NetworkCondition.WIFI_RELAY)
        allocate_times = []
        for record in trace.records:
            try:
                message = StunMessage.parse(record.payload)
            except Exception:
                continue
            if message.msg_type == 0x0003:
                allocate_times.append(record.timestamp)
        assert len(allocate_times) >= 10
