"""Transport-stream grouping and call-timeline models (paper §3.2)."""

from repro.streams.flow import Stream, group_streams
from repro.streams.timeline import CallWindow, Phase

__all__ = ["Stream", "group_streams", "CallWindow", "Phase"]
