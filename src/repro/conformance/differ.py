"""Differential conformance checker: replay goldens through every engine.

The recorded corpus (see :mod:`repro.conformance.golden`) defines ground
truth under the reference sweep engine.  This module replays the exact
same filtered records through every engine configuration — the scalar
reference sweep, the production columnar batch sweep, and the production
engine driven through the streaming pipeline core (chunked feed,
incremental checker) — and demands bit-identical verdicts, datagram
classes, metrics and ``DpiStats`` from each.  On mismatch it renders a
drift report that names the first divergent message: its index,
timestamp, protocol, byte offset, and the ``(criterion, code)`` pairs on
each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps import NetworkCondition
from repro.core import ComplianceChecker
from repro.dpi import DpiEngine
from repro.conformance.golden import (
    IMPAIRED_CORPORA,
    RERECORD_HINT,
    CorpusConfig,
    GoldenMismatchError,
    build_facts,
    cell_name,
    cell_records,
    corpus_cells,
    facts_digest,
    impaired_corpus_dir,
    load_cell,
    load_manifest,
)

#: Facts keys that must match the golden for *every* engine configuration.
_VERDICT_KEYS = (
    "classes", "class_counts", "messages", "volume",
    "volume_by_protocol", "types",
)


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration the differ exercises.

    ``streaming=True`` drives the engine through the streaming pipeline
    core (``repro.pipeline.run_streaming``: per-record DPI session feed,
    incremental checker) instead of the batch
    ``analyze_records``/``check`` calls — the execution shape most likely
    to reorder or drop context.
    """

    name: str
    streaming: bool = False
    backend: str = "scalar"

    def build(self, max_offset: int) -> DpiEngine:
        return DpiEngine(max_offset=max_offset, backend=self.backend)


#: ``sweep`` is the reference configuration the corpus was recorded with;
#: ``columnar`` and ``streaming`` are the production engine in its batch
#: and streaming shapes.  Every datagram is swept once in all three, so
#: each one's DpiStats must match the golden exactly, not just its verdicts.
ENGINE_SPECS: Tuple[EngineSpec, ...] = (
    EngineSpec("sweep"),
    EngineSpec("columnar", backend="columnar"),
    EngineSpec("streaming", streaming=True, backend="columnar"),
)


@dataclass(frozen=True)
class Drift:
    """One divergence between a golden cell and a live engine run."""

    cell: str
    engine: str
    kind: str
    detail: str

    def render(self) -> str:
        return f"[{self.cell} / {self.engine}] {self.kind}: {self.detail}"


@dataclass
class DriftReport:
    """Outcome of a full differential check."""

    cells_checked: int = 0
    engines: Tuple[str, ...] = ()
    drifts: List[Drift] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifts

    def render(self) -> str:
        lines = [
            f"conformance check: {self.cells_checked} cells x "
            f"{len(self.engines)} engine configs ({', '.join(self.engines)})"
        ]
        if self.ok:
            lines.append("OK: all engine configurations match the golden corpus")
        else:
            lines.append(f"DRIFT: {len(self.drifts)} divergence(s); {RERECORD_HINT} "
                         f"only if the new behavior is intended")
            lines.extend(f"  {drift.render()}" for drift in self.drifts)
        return "\n".join(lines)


def _message_label(entry: Sequence[object]) -> str:
    timestamp, protocol, offset, length, trailer_hex, type_label, keys = entry
    violations = (
        ", ".join(f"C{c}:{code}" for c, code in keys) if keys else "compliant"
    )
    return (
        f"t={timestamp:.6f} {protocol}/{type_label} at byte offset {offset} "
        f"(length {length}, trailer {len(trailer_hex) // 2}B) -> {violations}"
    )


def _compare_messages(golden: List, actual: List) -> Optional[str]:
    """Human-readable description of the first divergent message, if any."""
    for index, (want, got) in enumerate(zip(golden, actual)):
        if want != got:
            return (
                f"first divergent message at index {index}: "
                f"expected {_message_label(want)}; got {_message_label(got)}"
            )
    if len(golden) != len(actual):
        return (
            f"message count changed: expected {len(golden)}, got {len(actual)} "
            f"(first {min(len(golden), len(actual))} messages identical)"
        )
    return None


def _compare_facts(
    golden: Dict[str, object], actual: Dict[str, object]
) -> List[Tuple[str, str]]:
    """(kind, detail) pairs for every way ``actual`` diverges from ``golden``."""
    problems: List[Tuple[str, str]] = []
    if golden["classes"] != actual["classes"]:
        want, got = golden["classes"], actual["classes"]
        index = next(
            (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
            min(len(want), len(got)),
        )
        problems.append((
            "datagram-classes",
            f"first divergent datagram at index {index}: "
            f"expected {want[index:index + 1] or '<none>'}, "
            f"got {got[index:index + 1] or '<none>'} "
            f"({len(want)} vs {len(got)} datagrams)",
        ))
    message_drift = _compare_messages(golden["messages"], actual["messages"])
    if message_drift is not None:
        problems.append(("verdicts", message_drift))
    for key in ("class_counts", "volume", "volume_by_protocol", "types"):
        if golden[key] != actual[key]:
            problems.append((key, f"expected {golden[key]}, got {actual[key]}"))
    golden_stats = golden["dpi_stats"]
    actual_stats = actual["dpi_stats"]
    if golden_stats["datagrams"] != actual_stats["datagrams"]:
        problems.append((
            "dpi-stats",
            f"datagram count: expected {golden_stats['datagrams']}, "
            f"got {actual_stats['datagrams']}",
        ))
    elif golden_stats != actual_stats:
        problems.append((
            "dpi-stats",
            f"extraction counters drifted: expected {golden_stats}, "
            f"got {actual_stats}",
        ))
    return problems


def check_corpus(
    directory: Path,
    apps: Optional[Iterable[str]] = None,
    networks: Optional[Iterable[NetworkCondition]] = None,
    specs: Sequence[EngineSpec] = ENGINE_SPECS,
) -> DriftReport:
    """Replay the golden corpus through every engine spec and diff outputs."""
    report = DriftReport(engines=tuple(spec.name for spec in specs))
    manifest = load_manifest(directory)
    config = CorpusConfig.from_dict(manifest["config"])
    checker = ComplianceChecker()
    for app, network in corpus_cells(manifest, apps, networks):
        name = cell_name(app, network)
        try:
            golden = load_cell(directory, name)
        except GoldenMismatchError as exc:
            report.drifts.append(Drift(name, "-", "golden-file", str(exc)))
            continue
        stored = manifest["cells"][name]
        if stored != facts_digest(golden):
            report.drifts.append(Drift(
                name, "-", "manifest-digest",
                f"manifest digest {stored} does not match cell file — "
                f"{RERECORD_HINT}",
            ))
            continue
        report.cells_checked += 1
        records = cell_records(app, network, config)
        for spec in specs:
            engine = spec.build(config.max_offset)
            if spec.streaming:
                from repro.pipeline import run_streaming

                dpi, verdicts, _stage_stats = run_streaming(
                    records, engine, checker
                )
            else:
                dpi = engine.analyze_records(records)
                verdicts = checker.check(dpi.messages())
            actual = build_facts(app, network, dpi, verdicts)
            for kind, detail in _compare_facts(golden, actual):
                report.drifts.append(Drift(name, spec.name, kind, detail))
            for problem in dpi.stats.invariant_violations():
                report.drifts.append(
                    Drift(name, spec.name, "stats-invariant", problem)
                )
    return report


def check_impaired_corpora(
    base: Optional[Path] = None,
    apps: Optional[Iterable[str]] = None,
    profiles: Optional[Iterable[str]] = None,
    specs: Sequence[EngineSpec] = ENGINE_SPECS,
) -> DriftReport:
    """Run :func:`check_corpus` over every impaired sibling corpus.

    Each ``impaired-<profile>/`` directory carries its own manifest whose
    ``config.impairment`` re-applies the profile at replay time, so every
    engine configuration is diffed against goldens recorded from the same
    deterministic impaired stream.  Cell names are prefixed with the
    profile in the merged report so drift stays attributable.
    """
    from repro.conformance.golden import default_corpus_dir

    root = Path(base) if base is not None else default_corpus_dir()
    merged = DriftReport(engines=tuple(spec.name for spec in specs))
    for profile in profiles if profiles is not None else IMPAIRED_CORPORA:
        directory = impaired_corpus_dir(profile, root)
        try:
            report = check_corpus(directory, apps=apps, specs=specs)
        except GoldenMismatchError as exc:
            merged.drifts.append(
                Drift(f"impaired-{profile}", "-", "golden-file", str(exc))
            )
            continue
        merged.cells_checked += report.cells_checked
        merged.drifts.extend(
            Drift(f"{profile}/{drift.cell}", drift.engine, drift.kind,
                  drift.detail)
            for drift in report.drifts
        )
    return merged
