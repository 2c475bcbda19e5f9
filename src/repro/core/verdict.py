"""Verdict data model for the compliance checker."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dpi.messages import ExtractedMessage


class Criterion(enum.IntEnum):
    """The five sequential criteria of the compliance model (§4.2)."""

    MESSAGE_TYPE = 1
    HEADER_FIELDS = 2
    ATTRIBUTE_TYPES = 3
    ATTRIBUTE_VALUES = 4
    SEMANTICS = 5


@dataclass(frozen=True, slots=True)
class Violation:
    """One compliance violation found in a message."""

    criterion: Criterion
    code: str     # stable machine-readable identifier, e.g. "undefined-attribute"
    detail: str   # human-readable specifics

    def __str__(self) -> str:
        return f"[C{int(self.criterion)}:{self.code}] {self.detail}"

    def key(self) -> tuple:
        """Stable ``(criterion, code)`` pair for golden-file serialization.

        The human-readable ``detail`` is deliberately excluded so rewording
        a message does not invalidate recorded conformance corpora.
        """
        return (int(self.criterion), self.code)


@dataclass(slots=True)
class MessageVerdict:
    """The checker's decision for one extracted message."""

    message: ExtractedMessage
    violations: Tuple[Violation, ...] = ()

    @property
    def compliant(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    @property
    def failed_criterion(self) -> Optional[Criterion]:
        return self.violations[0].criterion if self.violations else None

    def violation_keys(self) -> List[tuple]:
        """``(criterion, code)`` pairs in evaluation order."""
        return [violation.key() for violation in self.violations]
