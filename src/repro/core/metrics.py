"""The two compliance metrics of §5.1.

- **volume metric**: share of compliant messages over all messages;
- **message-type metric**: each distinct (protocol, message type) pair is
  one unit, compliant only if *every* observed instance is compliant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.verdict import MessageVerdict
from repro.dpi.messages import Protocol

TypeKey = Tuple[str, str]  # (protocol value, message-type label)


@dataclass(frozen=True)
class VolumeCompliance:
    """Compliant/total message counts."""

    compliant: int
    total: int

    @property
    def ratio(self) -> float:
        return self.compliant / self.total if self.total else 1.0

    def __add__(self, other: "VolumeCompliance") -> "VolumeCompliance":
        return VolumeCompliance(
            compliant=self.compliant + other.compliant,
            total=self.total + other.total,
        )


@dataclass
class TypeComplianceEntry:
    """All observations of one message type."""

    protocol: str
    type_label: str
    total: int = 0
    non_compliant: int = 0
    example_violations: List[str] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return self.non_compliant == 0


def volume_metric(
    verdicts: Sequence[MessageVerdict],
    protocol: Optional[Protocol] = None,
) -> VolumeCompliance:
    """Volume-based compliance, optionally restricted to one protocol."""
    compliant = total = 0
    for verdict in verdicts:
        if protocol is not None and verdict.message.protocol is not protocol:
            continue
        total += 1
        if verdict.compliant:
            compliant += 1
    return VolumeCompliance(compliant=compliant, total=total)


def message_type_metric(
    verdicts: Sequence[MessageVerdict],
) -> Dict[TypeKey, TypeComplianceEntry]:
    """Message-type-based compliance: one entry per observed type."""
    entries: Dict[TypeKey, TypeComplianceEntry] = {}
    for verdict in verdicts:
        key = verdict.message.type_key()
        entry = entries.get(key)
        if entry is None:
            entry = TypeComplianceEntry(protocol=key[0], type_label=key[1])
            entries[key] = entry
        entry.total += 1
        if not verdict.compliant:
            entry.non_compliant += 1
            if len(entry.example_violations) < 3:
                entry.example_violations.append(str(verdict.first_violation))
    return entries


@dataclass
class ComplianceSummary:
    """Aggregated compliance for one application (or any message set)."""

    app: str
    volume: VolumeCompliance
    volume_by_protocol: Dict[str, VolumeCompliance]
    types: Dict[TypeKey, TypeComplianceEntry]

    @classmethod
    def from_verdicts(cls, app: str, verdicts: Sequence[MessageVerdict]):
        by_protocol: Dict[str, VolumeCompliance] = {}
        for protocol in Protocol:
            volume = volume_metric(verdicts, protocol)
            if volume.total:
                by_protocol[protocol.value] = volume
        return cls(
            app=app,
            volume=volume_metric(verdicts),
            volume_by_protocol=by_protocol,
            types=message_type_metric(verdicts),
        )

    def type_ratio(self, protocol: Optional[str] = None) -> Tuple[int, int]:
        """(compliant types, total types), optionally for one protocol."""
        compliant = total = 0
        for entry in self.types.values():
            if protocol is not None and entry.protocol != protocol:
                continue
            total += 1
            if entry.compliant:
                compliant += 1
        return compliant, total

    def observed_types(self, protocol: str) -> Dict[str, TypeComplianceEntry]:
        return {
            entry.type_label: entry
            for entry in self.types.values()
            if entry.protocol == protocol
        }


class StreamingSummary:
    """Build a :class:`ComplianceSummary` from verdicts as they stream.

    Accepts verdicts one at a time — in any order — without ever holding
    the verdict list: pass the verdict's global message index (as emitted
    by :class:`repro.core.checker.CheckStage`) and the finished
    summary is *identical* to ``ComplianceSummary.from_verdicts`` over
    the index-ordered batch, including type-entry insertion order and
    the first-three example-violation cap, both of which are defined by
    message order rather than arrival order.  Memory is O(distinct
    message types), not O(messages).
    """

    _EXAMPLE_CAP = 3

    def __init__(self, app: str):
        self.app = app
        self._added = 0
        self._volume = [0, 0]  # [compliant, total]
        self._by_protocol: Dict[str, List[int]] = {}
        self._entries: Dict[TypeKey, TypeComplianceEntry] = {}
        self._first_seen: Dict[TypeKey, int] = {}
        #: per type: up to three (index, text) examples, smallest indices win.
        self._examples: Dict[TypeKey, List[Tuple[int, str]]] = {}

    @property
    def added(self) -> int:
        return self._added

    def add(self, verdict: MessageVerdict, index: Optional[int] = None) -> None:
        """Fold one verdict in; *index* defaults to arrival order."""
        if index is None:
            index = self._added
        self._added += 1
        compliant = verdict.compliant
        self._volume[1] += 1
        proto = verdict.message.protocol.value
        proto_counts = self._by_protocol.setdefault(proto, [0, 0])
        proto_counts[1] += 1
        if compliant:
            self._volume[0] += 1
            proto_counts[0] += 1

        key = verdict.message.type_key()
        entry = self._entries.get(key)
        if entry is None:
            entry = TypeComplianceEntry(protocol=key[0], type_label=key[1])
            self._entries[key] = entry
            self._first_seen[key] = index
        elif index < self._first_seen[key]:
            self._first_seen[key] = index
        entry.total += 1
        if not compliant:
            entry.non_compliant += 1
            examples = self._examples.setdefault(key, [])
            examples.append((index, str(verdict.first_violation)))
            examples.sort(key=lambda pair: pair[0])
            del examples[self._EXAMPLE_CAP:]

    def result(self) -> ComplianceSummary:
        """The finished summary, bit-identical to the batch construction."""
        by_protocol = {
            protocol.value: VolumeCompliance(*self._by_protocol[protocol.value])
            for protocol in Protocol
            if self._by_protocol.get(protocol.value, (0, 0))[1]
        }
        types: Dict[TypeKey, TypeComplianceEntry] = {}
        for key in sorted(self._entries, key=self._first_seen.__getitem__):
            entry = self._entries[key]
            entry.example_violations = [
                text for _, text in self._examples.get(key, [])
            ]
            types[key] = entry
        return ComplianceSummary(
            app=self.app,
            volume=VolumeCompliance(*self._volume),
            volume_by_protocol=by_protocol,
            types=types,
        )


def merge_type_entries(
    summaries: Iterable[ComplianceSummary], protocol: str
) -> Tuple[int, int]:
    """Protocol-centric type metric across apps (Table 3's bottom row).

    A type used by multiple applications counts once *per application*,
    because each vendor interprets the same protocol element independently.
    """
    compliant = total = 0
    for summary in summaries:
        c, t = summary.type_ratio(protocol)
        compliant += c
        total += t
    return compliant, total
