"""Tests for the two-stage unrelated-traffic filter."""

import pytest

from repro.filtering import (
    DEFAULT_EXCLUDED_PORTS,
    LocalIpFilter,
    PortFilter,
    SniFilter,
    ThreeTupleFilter,
    TimespanFilter,
    TwoStageFilter,
)
from repro.packets.packet import PacketRecord
from repro.protocols.tls.client_hello import build_client_hello
from repro.streams.flow import group_streams
from repro.streams.timeline import CallWindow

WINDOW = CallWindow(capture_start=0, call_start=60, call_end=360, capture_end=420)


def record(t, src=("10.0.0.9", 40000), dst=("93.184.216.34", 443),
           transport="UDP", payload=b"x"):
    return PacketRecord(
        timestamp=t, src_ip=src[0], src_port=src[1],
        dst_ip=dst[0], dst_port=dst[1], transport=transport, payload=payload,
    )


def one_stream(records):
    streams = group_streams(records)
    assert len(streams) == 1
    return next(iter(streams.values()))


class TestTimespanFilter:
    def test_keeps_enclosed(self):
        stream = one_stream([record(61.0), record(359.0)])
        assert TimespanFilter(WINDOW).keeps(stream)

    def test_removes_pre_call_start(self):
        stream = one_stream([record(10.0), record(100.0)])
        assert not TimespanFilter(WINDOW).keeps(stream)

    def test_removes_post_call_end(self):
        stream = one_stream([record(100.0), record(400.0)])
        assert not TimespanFilter(WINDOW).keeps(stream)

    def test_removes_spanning(self):
        stream = one_stream([record(10.0), record(400.0)])
        assert not TimespanFilter(WINDOW).keeps(stream)

    def test_margin_tolerance(self):
        stream = one_stream([record(58.5), record(361.5)])
        assert TimespanFilter(WINDOW).keeps(stream)

    def test_split(self):
        good = [record(100.0)]
        bad = [record(10.0, dst=("1.1.1.1", 53))]
        kept, removed = TimespanFilter(WINDOW).split(group_streams(good + bad).values())
        assert len(kept) == 1 and len(removed) == 1


class TestThreeTupleFilter:
    # The filter gets the endpoints seen outside the call window; which
    # records count as outside is pinned on ``TwoStageFilter.apply`` below.

    def test_rebinding_detected(self):
        # Same destination 3-tuple outside and inside the window with
        # different source ports: the in-window stream must be removed.
        outside = {("10.0.0.9", 40001, "TCP"), ("17.5.7.9", 5223, "TCP")}
        inside = record(100.0, src=("10.0.0.9", 40002), dst=("17.5.7.9", 5223),
                        transport="TCP")
        filt = ThreeTupleFilter(outside)
        assert not filt.keeps(one_stream([inside]))

    def test_unrelated_stream_kept(self):
        outside = {("10.0.0.9", 40000, "TCP"), ("17.5.7.9", 5223, "TCP")}
        inside = record(100.0, dst=("99.99.99.99", 3478))
        filt = ThreeTupleFilter(outside)
        assert filt.keeps(one_stream([inside]))

    def test_transport_distinguishes(self):
        outside = {("10.0.0.9", 40000, "TCP"), ("17.5.7.9", 443, "TCP")}
        inside = record(100.0, dst=("17.5.7.9", 443), transport="UDP")
        filt = ThreeTupleFilter(outside)
        assert filt.keeps(one_stream([inside]))


class TestSniFilter:
    def _tls_stream(self, domain):
        hello = build_client_hello(domain)
        return one_stream([record(100.0, transport="TCP", payload=hello)])

    def test_blocklisted_removed(self):
        filt = SniFilter({"oauth2.googleapis.com"})
        assert not filt.keeps(self._tls_stream("oauth2.googleapis.com"))

    def test_other_domain_kept(self):
        filt = SniFilter({"oauth2.googleapis.com"})
        assert filt.keeps(self._tls_stream("turn.example.net"))

    def test_udp_ignored(self):
        filt = SniFilter({"oauth2.googleapis.com"})
        stream = one_stream([record(100.0)])
        assert filt.keeps(stream)

    def test_non_tls_tcp_kept(self):
        filt = SniFilter({"x.y"})
        stream = one_stream([record(100.0, transport="TCP", payload=b"GET /")])
        assert filt.keeps(stream)


class TestSniProbeOnTurnOverTcp:
    """With UDP blocked, media rides TURN over TCP: long TCP streams with
    no ClientHello.  The SNI filter may parse only records that open a
    TLS handshake record, and must decide every stream as a full parse of
    every record would."""

    @pytest.fixture(scope="class")
    def trace(self):
        from types import SimpleNamespace

        from repro.apps import CallConfig, NetworkCondition, get_simulator

        # ``iter_records`` is where the impairment is applied.
        config = CallConfig(
            network=NetworkCondition.WIFI_RELAY, seed=1, call_duration=6.0,
            media_scale=0.3, impairment="udp_blocked",
        )
        return SimpleNamespace(
            window=config.window(),
            records=list(get_simulator("zoom").iter_records(config)),
        )

    def test_parses_only_handshake_records(self, trace, monkeypatch):
        from repro.protocols.tls import client_hello

        parses = []
        real_parse = client_hello.parse_client_hello

        def counting_parse(data):
            parses.append(data)
            return real_parse(data)

        monkeypatch.setattr(client_hello, "parse_client_hello", counting_parse)
        TwoStageFilter(trace.window).apply(trace.records)
        tcp = [r for r in trace.records if r.transport == "TCP"]
        handshake = sum(1 for r in tcp if r.payload[:1] == b"\x16")
        # 3 parses for 9 handshake records among 842 TCP records; parsing
        # every record of each stream without an SNI would make 640.
        assert len(tcp) > 50 * handshake
        assert 0 < len(parses) <= handshake

    def test_decisions_match_full_parse(self, trace, monkeypatch):
        from repro.filtering import heuristics
        from repro.protocols.tls.client_hello import (
            TlsParseError,
            parse_client_hello,
        )

        def full_parse_sni(data):
            try:
                return parse_client_hello(data).sni
            except TlsParseError:
                return None

        probed = TwoStageFilter(trace.window).apply(trace.records)
        monkeypatch.setattr(heuristics, "extract_sni", full_parse_sni)
        parsed = TwoStageFilter(trace.window).apply(trace.records)
        def removals(result):
            return {
                name: sorted(stream.key for stream in streams)
                for name, streams in result.removed_by.items()
            }

        for counts in ("raw", "stage1_removed", "stage2_removed", "kept"):
            assert getattr(probed, counts) == getattr(parsed, counts)
        assert removals(probed) == removals(parsed)
        assert probed.kept_records == parsed.kept_records


class TestLocalIpFilter:
    # The filter gets the IP pairs seen before the call start; which
    # records count as pre-call is pinned on ``TwoStageFilter.apply`` below.

    def test_precall_local_pair_removed(self):
        precall = {frozenset(("192.168.1.5", "224.0.0.251"))}
        incall = record(100.0, src=("192.168.1.5", 5353), dst=("224.0.0.251", 5353))
        filt = LocalIpFilter(precall)
        assert not filt.keeps(one_stream([incall]))

    def test_p2p_media_preserved(self):
        # Two private endpoints whose pair never appears pre-call: legit P2P.
        media = record(100.0, src=("192.168.1.5", 50000), dst=("192.168.1.7", 50001))
        filt = LocalIpFilter(set())
        assert filt.keeps(one_stream([media]))

    def test_public_pair_ignored(self):
        # Note: documentation ranges (203.0.113.0/24 etc.) count as private
        # in modern Python, so use an unambiguous global address.
        precall = {frozenset(("52.10.20.30", "93.184.216.34"))}
        incall = record(100.0, src=("52.10.20.30", 40000))
        filt = LocalIpFilter(precall)
        assert filt.keeps(one_stream([incall]))


class TestPortFilter:
    @pytest.mark.parametrize("port", sorted(DEFAULT_EXCLUDED_PORTS))
    def test_excluded_ports_removed(self, port):
        stream = one_stream([record(100.0, dst=("1.2.3.4", port))])
        assert not PortFilter().keeps(stream)

    def test_media_port_kept(self):
        stream = one_stream([record(100.0, dst=("1.2.3.4", 3478))])
        assert PortFilter().keeps(stream)

    def test_custom_port_set(self):
        stream = one_stream([record(100.0, dst=("1.2.3.4", 9999))])
        assert not PortFilter({9999}).keeps(stream)


def _stage2_removed_ports(records, heuristic):
    """Source ports of the streams *heuristic* removed in a full apply."""
    result = TwoStageFilter(WINDOW, enabled_heuristics=(heuristic,)).apply(records)
    return sorted(
        stream.packets[0].src_port for stream in result.removed_by[heuristic]
    )


class TestTwoStageFilter:
    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            TwoStageFilter(WINDOW, enabled_heuristics=("bogus",))

    def test_three_tuple_window_boundaries(self):
        # A record marks its 3-tuples only strictly outside the extended
        # window [58, 362]: each sighting below pairs with an in-window
        # stream (source port + 100) to the same destination.
        sightings = {40001: 57.9, 40002: 58.0, 40003: 362.0, 40004: 362.1}
        records = []
        for port, t in sightings.items():
            dst = ("17.5.7.9", 5000 + port % 10)
            records.append(record(t, src=("10.0.0.9", port), dst=dst,
                                  transport="TCP"))
            records.append(record(100.0, src=("10.0.0.9", port + 100), dst=dst,
                                  transport="TCP"))
        assert _stage2_removed_ports(records, "3tuple") == [40101, 40104]

    def test_local_ip_call_start_boundary(self):
        # Only records strictly before the call start (60) are pre-call.
        group = {50001: (59.9, "224.0.0.251"), 50002: (60.0, "239.255.255.250")}
        records = []
        for port, (t, dst_ip) in group.items():
            records.append(record(t, src=("192.168.1.5", port), dst=(dst_ip, 9)))
            records.append(
                record(100.0, src=("192.168.1.5", port + 100), dst=(dst_ip, 9))
            )
        assert _stage2_removed_ports(records, "local_ip") == [50001, 50101]

    def test_accounting_consistent(self, trace_cache):
        from repro.apps import NetworkCondition

        trace = trace_cache("whatsapp", NetworkCondition.WIFI_RELAY)
        result = TwoStageFilter(trace.window).apply(trace.records)
        assert (
            result.raw.udp_packets
            == result.stage1_removed.udp_packets
            + result.stage2_removed.udp_packets
            + result.kept.udp_packets
        )
        assert (
            result.raw.tcp_packets
            == result.stage1_removed.tcp_packets
            + result.stage2_removed.tcp_packets
            + result.kept.tcp_packets
        )

    def test_full_pipeline_quality(self, pipeline_cache):
        from repro.apps import NetworkCondition

        _trace, result, _dpi, _verdicts = pipeline_cache(
            "whatsapp", NetworkCondition.WIFI_RELAY
        )
        assert result.evaluation.precision > 0.95
        assert result.evaluation.recall > 0.97

    def test_disabling_heuristics_leaks_background(self, trace_cache):
        from repro.apps import NetworkCondition

        trace = trace_cache("meet", NetworkCondition.WIFI_P2P)
        full = TwoStageFilter(trace.window).apply(trace.records)
        partial = TwoStageFilter(trace.window, enabled_heuristics=()).apply(trace.records)
        assert partial.evaluation.kept_non_rtc >= full.evaluation.kept_non_rtc
        assert partial.kept.udp_packets + partial.kept.tcp_packets >= (
            full.kept.udp_packets + full.kept.tcp_packets
        )

    def test_kept_records_sorted(self, pipeline_cache):
        from repro.apps import NetworkCondition

        _trace, result, _dpi, _verdicts = pipeline_cache(
            "whatsapp", NetworkCondition.WIFI_RELAY
        )
        kept = result.kept_records
        assert all(a.timestamp <= b.timestamp for a, b in zip(kept, kept[1:]))
