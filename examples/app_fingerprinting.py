#!/usr/bin/env python3
"""Identify an RTC application from its protocol-compliance fingerprint.

The paper notes proprietary deviations blind conventional traffic
classifiers; this example turns the finding around — the deviations
themselves are a reliable classifier.  We synthesize traces for every
(app, network) cell, strip the labels, and let the fingerprinting engine
name the application from DPI output alone (no IPs, no ports, no SNI).
"""

from repro.analysis.classifier import classify_application
from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.dpi import ColumnarEngine
from repro.filtering import TwoStageFilter


def main() -> None:
    correct = total = 0
    print(f"{'actual':<11} {'network':<11} {'classified as':<14} "
          f"{'confident':<9} top evidence")
    print("-" * 90)
    for app in APP_NAMES:
        for network in NetworkCondition:
            trace = get_simulator(app).simulate(
                CallConfig(network=network, seed=13,
                           call_duration=15.0, media_scale=0.35)
            )
            kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
            dpi = ColumnarEngine().analyze_records(kept)
            scores = classify_application(dpi.analyses)
            verdict = scores.best or "?"
            evidence = scores.evidence.get(verdict, ["-"])[0]
            marker = "yes" if scores.confident else "no"
            total += 1
            if verdict == app:
                correct += 1
            print(f"{app:<11} {network.value:<11} {verdict:<14} "
                  f"{marker:<9} {evidence}")
    print(f"\naccuracy: {correct}/{total}")


if __name__ == "__main__":
    main()
