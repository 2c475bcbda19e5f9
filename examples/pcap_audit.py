#!/usr/bin/env python3
"""Audit a pcap capture for RTC protocol compliance.

This is the downstream-operator workflow: given any packet capture (here we
synthesize one and write it to a real .pcap file first, since the sandbox
has no live traffic), extract all RTC protocol messages and produce a
per-message compliance report — the same analysis the paper runs on its
iPhone captures.

Usage::

    python examples/pcap_audit.py [existing.pcap]
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro import ColumnarEngine, ComplianceChecker, ComplianceSummary
from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.packets.pcap import read_pcap, write_pcap


def synthesize_capture(path: Path) -> None:
    """Write a Discord relay call (background noise included) as a pcap."""
    simulator = get_simulator("discord")
    trace = simulator.simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=11,
                   call_duration=15.0, media_scale=0.4)
    )
    count = write_pcap(path, trace.records)
    print(f"synthesized {count} packets into {path}")


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.gettempdir()) / "rtc_audit_demo.pcap"
        synthesize_capture(path)

    records = read_pcap(path)
    print(f"loaded {len(records)} packets from {path}")

    engine = ColumnarEngine()
    result = engine.analyze_records(records)
    messages = result.messages()
    print(f"extracted {len(messages)} RTC protocol messages")

    verdicts = ComplianceChecker().check(messages)
    summary = ComplianceSummary.from_verdicts(path.name, verdicts)

    print(f"\nvolume compliance: {summary.volume.ratio * 100:.2f}%")
    print("top violations:")
    codes = Counter(
        str(v.first_violation).split("]")[0] + "]"
        for v in verdicts if not v.compliant
    )
    for code, count in codes.most_common(5):
        print(f"  {count:6d}  {code}")

    print("\nnon-compliant message types:")
    for entry in sorted(summary.types.values(),
                        key=lambda e: (e.protocol, e.type_label)):
        if entry.compliant:
            continue
        print(f"  {entry.protocol} type {entry.type_label}: "
              f"{entry.non_compliant}/{entry.total} messages violate")
        for example in entry.example_violations[:1]:
            print(f"    {example}")


if __name__ == "__main__":
    main()
