"""The two compliance metrics of §5.1.

- **volume metric**: share of compliant messages over all messages;
- **message-type metric**: each distinct (protocol, message type) pair is
  one unit, compliant only if *every* observed instance is compliant.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.verdict import MessageVerdict
from repro.dpi.messages import Protocol

TypeKey = Tuple[str, str]  # (protocol value, message-type label)

#: Example violations a summary keeps per (protocol, type) entry.
MAX_EXAMPLE_VIOLATIONS = 3


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


@dataclass
class ComplianceSummary:
    """Aggregated compliance for one application (or any message set)."""

    app: str
    volume: VolumeCompliance
    volume_by_protocol: Dict[str, VolumeCompliance]
    types: Dict[TypeKey, TypeComplianceEntry]

    @classmethod
    def from_verdicts(
        cls, app: str, verdicts: Iterable[MessageVerdict]
    ) -> "ComplianceSummary":
        """Fold *verdicts*, in message order, through :class:`StreamingSummary`."""
        folding = StreamingSummary(app)
        for verdict in verdicts:
            folding.add(verdict)
        return folding.result()

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
    by :class:`repro.core.checker.CheckStage`) and the finished summary
    is the one the index-ordered fold builds, including type-entry
    insertion order and the first :data:`MAX_EXAMPLE_VIOLATIONS` examples
    per type, both of which are defined by message order rather than
    arrival order.  Memory is O(distinct message types), not O(messages).
    Every :meth:`result` is a snapshot: folding more verdicts in later
    leaves a summary already handed out unchanged.
    """

    def __init__(self, app: str):
        self.app = app
        self._added = 0
        self._volume = [0, 0]  # [compliant, total]
        self._by_protocol: Dict[str, List[int]] = {}
        #: per type: [total, non_compliant].
        self._types: Dict[TypeKey, List[int]] = {}
        self._first_seen: Dict[TypeKey, int] = {}
        #: per type: the (index, text) examples with the smallest indices.
        self._examples: Dict[TypeKey, List[Tuple[int, str]]] = {}

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
        type_counts = self._types.get(key)
        if type_counts is None:
            type_counts = self._types[key] = [0, 0]
            self._first_seen[key] = index
        elif index < self._first_seen[key]:
            self._first_seen[key] = index
        type_counts[0] += 1
        if not compliant:
            type_counts[1] += 1
            examples = self._examples.setdefault(key, [])
            # Format the violation only if it is kept, so an in-order
            # fold formats at most the cap per type.
            if len(examples) < MAX_EXAMPLE_VIOLATIONS or index < examples[-1][0]:
                insort(examples, (index, str(verdict.first_violation)))
                del examples[MAX_EXAMPLE_VIOLATIONS:]

    def result(self) -> ComplianceSummary:
        """The finished summary, the same whatever order verdicts came in."""
        by_protocol = {
            protocol.value: VolumeCompliance(*self._by_protocol[protocol.value])
            for protocol in Protocol
            if self._by_protocol.get(protocol.value, (0, 0))[1]
        }
        types = {
            key: TypeComplianceEntry(
                *key, *self._types[key],
                [text for _, text in self._examples.get(key, [])],
            )
            for key in sorted(self._types, key=self._first_seen.__getitem__)
        }
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
