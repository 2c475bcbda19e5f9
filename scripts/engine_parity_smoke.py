#!/usr/bin/env python3
"""Smoke check: the production DPI engine matches the reference on one cell.

Runs one (app, network, impairment) cell through the full pipeline twice:
once with the production engine every entry point builds (batched
columnar sweeps) and once with the reference scalar sweep of Algorithm 1
(``DpiEngine()``).  Every datagram's class and messages (protocol,
offset, length, trailer), every verdict, the per-stage record counts and
the extraction counters must be identical.

Usage::

    python scripts/engine_parity_smoke.py --app zoom --network wifi_relay \\
        --duration 10 --scale 0.3 [--seed 1] [--impairment rebind]

Exit status 0 means the two engines agreed.
"""

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.apps import APP_NAMES, NetworkCondition  # noqa: E402
from repro.dpi import DpiEngine  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentConfig,
    run_cell_pipeline,
)
from repro.netem import PROFILE_NAMES  # noqa: E402


def facts(run):
    return {
        "datagrams": [
            (a.record.timestamp, a.classification.value,
             tuple((m.protocol.value, m.offset, m.length, m.trailer)
                   for m in a.messages))
            for a in run.dpi.analyses
        ],
        "verdicts": [
            (v.message.timestamp, v.compliant, tuple(v.violation_keys()))
            for v in run.verdicts
        ],
        "stages": {
            name: (stat.records_in, stat.records_out)
            for name, stat in run.stage_stats.items()
        },
        "dpi_stats": run.dpi.stats.as_dict(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", choices=APP_NAMES, default="zoom")
    parser.add_argument("--network", type=NetworkCondition,
                        default=NetworkCondition.WIFI_RELAY)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--impairment", choices=PROFILE_NAMES, default="none")
    args = parser.parse_args()

    config = ExperimentConfig(
        call_duration=args.duration, media_scale=args.scale, seed=args.seed,
        impairment=args.impairment,
    )
    production = facts(run_cell_pipeline(args.app, args.network, config))
    reference = facts(run_cell_pipeline(
        args.app, args.network, config,
        engine=DpiEngine(max_offset=config.max_offset),
    ))
    diverged = [key for key in reference if production[key] != reference[key]]
    if diverged:
        print(f"engine parity smoke FAILED: production diverged in "
              f"{', '.join(diverged)}", file=sys.stderr)
        return 1
    print(f"engine parity smoke OK: {args.app}/{args.network.value} "
          f"impairment={args.impairment}, "
          f"{len(reference['datagrams'])} datagrams, "
          f"{len(reference['verdicts'])} verdicts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
