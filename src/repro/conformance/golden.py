"""Golden conformance corpus: record and load per-cell expected outputs.

A *golden cell* captures everything the pipeline concludes about one
(app, network) emulator cell under the **reference engine** — the plain
scalar 0..k sweep of Algorithm 1 (``DpiEngine()``):

- the datagram class of every analyzed datagram, in timestamp order;
- every extracted message (timestamp, protocol, byte offset, length,
  trailer) and its per-message verdict as ``(criterion, code)`` pairs;
- both compliance metrics (volume and message-type, §5.1);
- the reference engine's :class:`~repro.dpi.engine.DpiStats` counters.

Cells are serialized as compact versioned JSON under
``tests/golden/conformance/`` together with a manifest of content
digests, so any optimization that silently changes a verdict is caught
by :mod:`repro.conformance.differ` with a pointer at the first divergent
message rather than a bare assertion failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, NetworkCondition
from repro.core import ComplianceChecker
from repro.core.metrics import ComplianceSummary
from repro.core.verdict import MessageVerdict
from repro.dpi import DatagramClass, DpiEngine
from repro.dpi.engine import DpiResult
from repro.packets.packet import PacketRecord

#: Bump when the golden-file layout changes; loaders refuse other versions.
SCHEMA_VERSION = 1

#: Actionable hint embedded in every mismatch error and drift report.
RERECORD_HINT = "re-record with `rtc-compliance conformance record`"

_CLASS_CHARS = {
    DatagramClass.STANDARD: "S",
    DatagramClass.PROPRIETARY_HEADER: "P",
    DatagramClass.FULLY_PROPRIETARY: "F",
}


class GoldenMismatchError(Exception):
    """A golden file is missing, stale, or from another schema version."""

    def __init__(self, message: str):
        super().__init__(f"{message} — {RERECORD_HINT}")


@dataclass(frozen=True)
class CorpusConfig:
    """Simulation parameters baked into a recorded corpus.

    Short calls at reduced media scale keep the corpus compact (a few
    hundred KB across all 18 cells) while still exercising every
    protocol, datagram class, and violation family the full matrix does.
    """

    call_duration: float = 8.0
    media_scale: float = 0.3
    seed: int = 1
    max_offset: int = 200
    include_background: bool = True
    impairment: str = "none"

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CorpusConfig":
        # Manifests recorded before the impairment axis simply lack the
        # key and load as clean-path corpora.
        return cls(**data)


#: The impaired golden corpora: profile -> the single network condition
#: each one is recorded under.  ``lossy`` (random loss + reorder + dup)
#: rides the TURN relay path; ``rebind`` (mid-call NAT port rotation)
#: rides the P2P path where media flows are longest-lived.
IMPAIRED_CORPORA: Dict[str, NetworkCondition] = {
    "lossy": NetworkCondition.WIFI_RELAY,
    "rebind": NetworkCondition.WIFI_P2P,
}


def default_corpus_dir() -> Path:
    """``tests/golden/conformance`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "conformance"


def impaired_corpus_dir(profile: str, base: Optional[Path] = None) -> Path:
    """``<base>/impaired-<profile>`` — a sibling corpus per impairment."""
    root = Path(base) if base is not None else default_corpus_dir()
    return root / f"impaired-{profile}"


def cell_name(app: str, network: NetworkCondition) -> str:
    return f"{app}__{network.value}"


def reference_engine(config: CorpusConfig) -> DpiEngine:
    """The engine whose output defines ground truth: the scalar sweep."""
    return DpiEngine(max_offset=config.max_offset)


def experiment_config(config: CorpusConfig) -> "ExperimentConfig":
    """The runner-layer equivalent of a corpus config.

    Conformance tooling drives the same ``filter_cell``/
    ``run_cell_pipeline`` entry points the experiments use, so there is
    exactly one place that wires simulation → filtering → DPI.
    """
    from repro.experiments.runner import ExperimentConfig

    return ExperimentConfig(
        call_duration=config.call_duration,
        media_scale=config.media_scale,
        seed=config.seed,
        max_offset=config.max_offset,
        include_background=config.include_background,
        impairment=config.impairment,
    )


def cell_records(
    app: str, network: NetworkCondition, config: CorpusConfig
) -> List[PacketRecord]:
    """Simulate one cell and return its filtered records (engine-agnostic).

    The differ calls this once per cell and feeds the same records to
    every engine configuration, so engines — not simulations — are the
    only variable under test.
    """
    from repro.experiments.runner import filter_cell

    return filter_cell(app, network, experiment_config(config)).kept_records


def build_facts(
    app: str,
    network: NetworkCondition,
    dpi: DpiResult,
    verdicts: Sequence[MessageVerdict],
) -> Dict[str, object]:
    """Reduce one cell's pipeline output to its JSON-serializable facts.

    Violations are stored as ``(criterion, code)`` pairs — not their
    human-readable details — so rewording a message never invalidates a
    corpus (see :meth:`repro.core.verdict.Violation.key`).
    """
    classes = "".join(_CLASS_CHARS[a.classification] for a in dpi.analyses)
    messages = [
        [
            verdict.message.timestamp,
            verdict.message.protocol.value,
            verdict.message.offset,
            verdict.message.length,
            verdict.message.trailer.hex(),
            verdict.message.type_key()[1],
            [list(key) for key in verdict.violation_keys()],
        ]
        for verdict in verdicts
    ]
    summary = ComplianceSummary.from_verdicts(app, verdicts)
    return {
        "app": app,
        "network": network.value,
        "classes": classes,
        "class_counts": {
            cls.value: count for cls, count in sorted(
                dpi.by_class().items(), key=lambda kv: kv[0].value
            )
        },
        "messages": messages,
        "volume": [summary.volume.compliant, summary.volume.total],
        "volume_by_protocol": {
            protocol: [volume.compliant, volume.total]
            for protocol, volume in sorted(summary.volume_by_protocol.items())
        },
        "types": {
            f"{key[0]}|{key[1]}": [entry.total, entry.non_compliant]
            for key, entry in sorted(summary.types.items())
        },
        "dpi_stats": dpi.stats.as_dict(),
    }


def facts_digest(facts: Dict[str, object]) -> str:
    """Content digest over the canonical JSON encoding of a cell's facts."""
    canonical = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def record_cell(
    app: str, network: NetworkCondition, config: CorpusConfig
) -> Dict[str, object]:
    """Run one cell under the reference engine and return its facts."""
    from repro.experiments.runner import run_cell_pipeline

    run = run_cell_pipeline(
        app,
        network,
        experiment_config(config),
        engine=reference_engine(config),
        checker=ComplianceChecker(),
    )
    return build_facts(app, network, run.dpi, run.verdicts)


def record_corpus(
    directory: Path,
    config: CorpusConfig = CorpusConfig(),
    apps: Sequence[str] = APP_NAMES,
    networks: Sequence[NetworkCondition] = tuple(NetworkCondition),
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Record every (app × network) cell and write goldens + manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digests: Dict[str, str] = {}
    for app in apps:
        for network in networks:
            name = cell_name(app, network)
            facts = record_cell(app, network, config)
            digest = facts_digest(facts)
            digests[name] = digest
            _write_json(
                directory / f"{name}.json",
                {"schema_version": SCHEMA_VERSION, "digest": digest, "facts": facts},
            )
            if progress is not None:
                progress(f"{name}: {len(facts['messages'])} messages, "
                         f"digest {digest[:12]}")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config.as_dict(),
        "cells": digests,
    }
    _write_json(directory / "manifest.json", manifest)
    return manifest


def record_impaired_corpora(
    base: Optional[Path] = None,
    config: CorpusConfig = CorpusConfig(),
    apps: Sequence[str] = APP_NAMES,
    profiles: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, object]]:
    """Record the standard impaired corpora (one sibling dir per profile).

    Each profile gets its own self-contained corpus — manifest included —
    under ``impaired-<profile>/``, recorded with the reference engine on
    the impaired record stream.  The clean corpus is never touched.
    """
    from dataclasses import replace as dc_replace

    manifests: Dict[str, Dict[str, object]] = {}
    for profile in profiles if profiles is not None else IMPAIRED_CORPORA:
        network = IMPAIRED_CORPORA[profile]
        directory = impaired_corpus_dir(profile, base)
        if progress is not None:
            progress(f"impaired-{profile} ({network.value}):")
        manifests[profile] = record_corpus(
            directory,
            dc_replace(config, impairment=profile),
            apps=apps,
            networks=(network,),
            progress=progress,
        )
    return manifests


def load_manifest(directory: Path) -> Dict[str, object]:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise GoldenMismatchError(f"no conformance manifest at {path}")
    manifest = json.loads(path.read_text())
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GoldenMismatchError(
            f"manifest {path} has schema version {version}, "
            f"this code expects {SCHEMA_VERSION}"
        )
    return manifest


def load_cell(directory: Path, name: str) -> Dict[str, object]:
    """Load one golden cell, verifying schema version and content digest."""
    path = Path(directory) / f"{name}.json"
    if not path.exists():
        raise GoldenMismatchError(f"no golden cell file at {path}")
    payload = json.loads(path.read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GoldenMismatchError(
            f"golden cell {path} has schema version {version}, "
            f"this code expects {SCHEMA_VERSION}"
        )
    facts = payload.get("facts")
    stored = payload.get("digest")
    if not isinstance(facts, dict) or stored != facts_digest(facts):
        raise GoldenMismatchError(
            f"golden cell {path} digest {stored!r} does not match its contents "
            f"(corpus hash drift)"
        )
    return facts


def corpus_cells(
    manifest: Dict[str, object],
    apps: Optional[Iterable[str]] = None,
    networks: Optional[Iterable[NetworkCondition]] = None,
) -> List[Tuple[str, NetworkCondition]]:
    """The (app, network) pairs recorded in a manifest, optionally filtered."""
    wanted_apps = set(apps) if apps is not None else None
    wanted_networks = set(networks) if networks is not None else None
    cells: List[Tuple[str, NetworkCondition]] = []
    for name in manifest.get("cells", {}):
        app, _, network_value = name.rpartition("__")
        network = NetworkCondition(network_value)
        if wanted_apps is not None and app not in wanted_apps:
            continue
        if wanted_networks is not None and network not in wanted_networks:
            continue
        cells.append((app, network))
    return cells


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    # Compact separators keep the corpus small; a trailing newline keeps
    # the files friendly to line-oriented diff tooling.
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
