"""§4.1 motivation: conventional DPI vs the paper's offset-shifting engine.

The paper argues existing DPI tools (offset-zero, strict-spec parsers with
Peafowl's payload-type whitelist) cannot observe exactly the traffic this
study targets.  This bench quantifies that: per application, how many
messages the baseline recovers relative to the custom engine, and times
both engines on the same records.
"""

import pytest

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.dpi.baseline import BaselineDpi, compare_engines
from repro.filtering import TwoStageFilter


@pytest.fixture(scope="module")
def kept_by_app():
    out = {}
    for app in APP_NAMES:
        trace = get_simulator(app).simulate(
            CallConfig(network=NetworkCondition.WIFI_RELAY, seed=0,
                       call_duration=20.0, media_scale=0.4)
        )
        out[app] = TwoStageFilter(trace.window).apply(trace.records).kept_records
    return out


def test_baseline_vs_custom(kept_by_app, benchmark):
    print(f"\n  {'app':<11} {'custom msgs':>11} {'baseline':>9} "
          f"{'recall gain':>11} {'blind datagrams':>15}")
    results = {}
    for app, kept in kept_by_app.items():
        comparison = compare_engines(kept)
        results[app] = comparison
        print(f"  {app:<11} {comparison.custom_messages:>11} "
              f"{comparison.baseline_messages:>9} "
              f"{comparison.message_recall_gain:>10.1%} "
              f"{comparison.baseline_blind_share:>14.1%}")

    # Zoom: the baseline sees essentially nothing (proprietary headers).
    assert results["zoom"].message_recall_gain > 0.95
    # FaceTime: undefined extensions survive parsing, but dynamic payload
    # types and relay headers blind the baseline to most RTP.
    assert results["facetime"].message_recall_gain > 0.5
    # Discord uses only dynamic payload types: Peafowl's whitelist fails.
    assert results["discord"].message_recall_gain > 0.5
    # Even the best-behaved apps use dynamic payload types, so the baseline
    # still misses the bulk of their media.
    for app in APP_NAMES:
        assert results[app].custom_messages >= results[app].baseline_messages

    baseline = BaselineDpi()
    benchmark(baseline.analyze_records, kept_by_app["zoom"])

