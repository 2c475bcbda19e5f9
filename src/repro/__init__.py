"""rtc-compliance: protocol-compliance measurement for RTC applications.

A full reproduction of "Protocol Compliance in Popular RTC Applications"
(IMC 2025): traffic synthesis for six RTC apps, a two-stage unrelated-traffic
filter, an offset-shifting DPI engine, and a five-criterion compliance model
for STUN/TURN, RTP, RTCP and QUIC.

Typical use::

    from repro import run_experiment, ExperimentConfig, NetworkCondition

    aggregate = run_experiment("zoom", NetworkCondition.WIFI_RELAY,
                               ExperimentConfig(call_duration=30.0))
    print(aggregate.summary.volume.ratio)

Layer by layer:

- :mod:`repro.packets` — pcap/pcapng I/O and L2-L4 decoding
- :mod:`repro.protocols` — STUN/TURN, RTP, RTCP, QUIC, TLS codecs
- :mod:`repro.apps` — per-application call-traffic simulators
- :mod:`repro.filtering` — the two-stage unrelated-traffic filter (§3.2)
- :mod:`repro.dpi` — offset-shifting DPI with validation (§4.1)
- :mod:`repro.core` — the five-criterion compliance model (§4.2)
- :mod:`repro.experiments` — the experiment matrix and table/figure generators
"""

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker, ComplianceSummary
from repro.dpi import ColumnarEngine, DpiEngine, Protocol
from repro.experiments import ExperimentConfig, run_experiment, run_matrix
from repro.filtering import TwoStageFilter

__version__ = "1.0.0"

__all__ = [
    "APP_NAMES",
    "CallConfig",
    "NetworkCondition",
    "get_simulator",
    "ComplianceChecker",
    "ComplianceSummary",
    "ColumnarEngine",
    "DpiEngine",
    "Protocol",
    "ExperimentConfig",
    "run_experiment",
    "run_matrix",
    "TwoStageFilter",
    "__version__",
]
