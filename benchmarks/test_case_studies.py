"""§5.2/§5.3 case studies: paper claim vs measured value, per behaviour."""

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import ColumnarEngine
from repro.experiments.case_studies import (
    detect_call_end_0800,
    detect_direction_byte,
    detect_dual_rtp,
    detect_extension_abuse,
    detect_facetime_beacons,
    detect_facetime_headers,
    detect_meta_burst,
    detect_srtcp_tags,
    detect_ssrc_zero,
    detect_zoom_filler,
    observed_rtp_ssrcs,
)
from repro.filtering import TwoStageFilter


@pytest.fixture(scope="module")
def analyzed():
    cache = {}

    def get(app, network, seed=0, call_index=0):
        key = (app, network, seed, call_index)
        if key not in cache:
            trace = get_simulator(app).simulate(
                CallConfig(network=network, seed=seed, call_index=call_index,
                           call_duration=40.0, media_scale=0.5)
            )
            kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
            engine = ColumnarEngine()
            cache[key] = (trace, engine.analyze_records(kept))
        return cache[key]

    return get


def test_zoom_filler_bursts(analyzed, benchmark):
    _trace, dpi = analyzed("zoom", NetworkCondition.WIFI_RELAY)
    report = benchmark.pedantic(detect_zoom_filler, args=(dpi.analyses,),
                                rounds=3, iterations=1)
    print(f"\n  filler share of fully-proprietary: {report.filler_share * 100:.0f}% "
          f"(paper: 53%)  peak {report.peak_rate_pps:.0f} pkt/s (paper: <=500)")
    assert 0.25 < report.filler_share < 0.85
    assert report.peak_rate_pps > 50
    assert report.shares_media_stream


def test_zoom_dual_rtp(analyzed, benchmark):
    dual = rtp = 0
    for call_index in range(3):
        _trace, dpi = analyzed("zoom", NetworkCondition.WIFI_RELAY,
                               call_index=call_index)
        report = detect_dual_rtp(dpi.analyses)
        dual += report.dual_datagrams
        rtp += report.rtp_datagrams
    rate = dual / rtp
    print(f"\n  dual-RTP datagrams: {rate * 100:.2f}% (paper: 0.21%)")
    assert 0.0003 < rate < 0.01
    _trace, dpi = analyzed("zoom", NetworkCondition.WIFI_RELAY)
    report = benchmark.pedantic(detect_dual_rtp, args=(dpi.analyses,),
                                rounds=2, iterations=1)
    if report.dual_datagrams:
        assert report.all_first_short
        assert report.all_same_ssrc_timestamp


def test_zoom_ssrc_reuse_across_calls(analyzed, benchmark):
    sets = []
    for call_index in range(2):
        _trace, dpi = analyzed("zoom", NetworkCondition.CELLULAR,
                               call_index=call_index)
        sets.append(observed_rtp_ssrcs(dpi.messages()))
    _trace, dpi = analyzed("zoom", NetworkCondition.CELLULAR)
    benchmark.pedantic(observed_rtp_ssrcs, args=(dpi.messages(),),
                       rounds=2, iterations=1)
    print(f"\n  SSRC sets across calls identical: {sets[0] == sets[1]} "
          f"(paper: never change)")
    assert sets[0] == sets[1]
    assert len(sets[0]) == 4  # exactly four per network setting


def test_discord_ssrc_zero(analyzed, benchmark):
    _trace, dpi = analyzed("discord", NetworkCondition.WIFI_RELAY)
    report = benchmark.pedantic(detect_ssrc_zero, args=(dpi.messages(),),
                                rounds=2, iterations=1)
    print(f"\n  SSRC=0 in type-205: {report.rate * 100:.0f}% (paper: ~25%)")
    assert 0.1 < report.rate < 0.45


def test_discord_direction_byte(analyzed, benchmark):
    _trace, dpi = analyzed("discord", NetworkCondition.CELLULAR)
    report = benchmark.pedantic(detect_direction_byte, args=(dpi.messages(),),
                                rounds=2, iterations=1)
    print(f"\n  direction byte correlated: {report.perfectly_correlated} "
          f"(paper: perfect correlation)")
    assert report.perfectly_correlated


def test_discord_extension_abuse(analyzed, benchmark):
    _trace, dpi = analyzed("discord", NetworkCondition.WIFI_RELAY)
    report = benchmark.pedantic(detect_extension_abuse, args=(dpi.messages(),),
                                rounds=2, iterations=1)
    print(f"\n  ID=0 elements: {report.id_zero_rate * 100:.2f}% (paper: 4.91%)  "
          f"undefined profiles: {report.undefined_profile_rate * 100:.2f}% "
          f"(paper: 2.58%, PT 120 only)")
    assert 0.02 < report.id_zero_rate < 0.09
    assert 0.01 < report.undefined_profile_rate < 0.05
    assert report.undefined_profile_payload_types == {120}


def test_facetime_cellular_beacons(analyzed, benchmark):
    _trace, dpi = analyzed("facetime", NetworkCondition.CELLULAR)
    cellular = benchmark.pedantic(detect_facetime_beacons, args=(dpi.analyses,),
                                  rounds=2, iterations=1)
    _trace, dpi = analyzed("facetime", NetworkCondition.WIFI_P2P)
    wifi = detect_facetime_beacons(dpi.analyses)
    print(f"\n  beacon share cellular: {cellular.share * 100:.1f}% (paper: ~10%)  "
          f"wifi: {wifi.share * 100:.1f}% (paper: <1%)")
    assert cellular.share > 0.05
    assert wifi.share < 0.01
    assert cellular.all_36_bytes and cellular.counters_monotonic
    assert abs(cellular.median_interval - 0.05) < 0.005  # 20 pkt/s even


def test_facetime_relay_headers(analyzed, benchmark):
    _trace, dpi = analyzed("facetime", NetworkCondition.WIFI_RELAY)
    relay = benchmark.pedantic(detect_facetime_headers, args=(dpi.analyses,),
                               rounds=2, iterations=1)
    _trace, dpi = analyzed("facetime", NetworkCondition.WIFI_P2P)
    p2p = detect_facetime_headers(dpi.analyses)
    print(f"\n  relay-mode headered: {relay.share * 100:.1f}% (paper: 89.2%)  "
          f"p2p count: {p2p.headered} (paper: <50)")
    assert relay.share > 0.75
    assert relay.all_start_0x6000
    assert relay.length_range[0] >= 8 and relay.length_range[1] <= 19
    assert p2p.headered < 50


def test_meta_bursts_and_call_end(analyzed, benchmark):
    for app, end_count in (("whatsapp", 4), ("messenger", 6)):
        trace, dpi = analyzed(app, NetworkCondition.WIFI_RELAY)
        if app == "whatsapp":
            burst = benchmark.pedantic(detect_meta_burst, args=(dpi.messages(),),
                                       rounds=2, iterations=1)
        else:
            burst = detect_meta_burst(dpi.messages())
        end = detect_call_end_0800(dpi.messages(), trace.window.call_end)
        print(f"\n  {app}: burst {burst.pairs} pairs in "
              f"{burst.burst_span * 1000:.1f} ms (paper: 16 in ~2.2 ms); "
              f"call-end 0x0800 x{end.count} (paper: {end_count})")
        assert burst.pairs == 16
        assert burst.burst_span < 0.005
        assert burst.request_sizes == frozenset({500})
        assert burst.response_sizes == frozenset({40})
        assert end.count == end_count
        assert end.near_call_end and end.carry_relayed_address


def test_meet_srtcp_auth_tags(analyzed, benchmark):
    shares = {}
    for network in NetworkCondition:
        _trace, dpi = analyzed("meet", network)
        shares[network] = detect_srtcp_tags(dpi.messages()).tagless_share
    _trace, dpi = analyzed("meet", NetworkCondition.WIFI_RELAY)
    benchmark.pedantic(detect_srtcp_tags, args=(dpi.messages(),),
                       rounds=2, iterations=1)
    print("\n  tagless SRTCP share: " + "  ".join(
        f"{network.value}={share * 100:.0f}%" for network, share in shares.items()
    ) + "  (paper: most tagless in relay Wi-Fi only)")
    assert shares[NetworkCondition.WIFI_RELAY] > 0.7
    assert shares[NetworkCondition.WIFI_P2P] == 0.0
    assert shares[NetworkCondition.CELLULAR] == 0.0
