"""The stage contract a tracer relies on.

A tracer times the session's stage calls by replacing
``cls.__dict__[name]`` on each stage class, and checks its spans against
the session's ``StageStats``.  That works only if every traced method is
defined on the stage class itself, if ``repro.pipeline.stages`` names the
very classes the session drives, and if no traced method calls another
one (a nested span would be counted twice).
"""

import functools

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core.checker import CheckStage
from repro.dpi.engine import DpiStage
from repro.filtering.online import FilterStage
from repro.pipeline import stages
from repro.service import AnalysisSession, EvictionPolicy

#: Every stage method a tracer wraps, per class.
TRACED = {
    FilterStage: ("process_chunk", "flush"),
    DpiStage: ("process_chunk", "flush", "evict"),
    CheckStage: ("process_chunk", "flush"),
}


def test_traced_methods_are_defined_on_the_stage_class():
    for cls, names in TRACED.items():
        for name in names:
            assert name in cls.__dict__, f"{cls.__name__}.{name}"


def test_stages_module_names_exactly_the_three_classes():
    assert sorted(stages.__all__) == ["CheckStage", "DpiStage", "FilterStage"]
    assert stages.FilterStage is FilterStage
    assert stages.DpiStage is DpiStage
    assert stages.CheckStage is CheckStage


def test_no_traced_method_calls_another(monkeypatch):
    """Wrap every traced method as a tracer would and run a filtered and
    an idle-evicting filterless session: spans never nest, and every
    traced method runs."""
    depth = [0]
    nested = []
    calls = {}

    def wrap(label, method):
        @functools.wraps(method)
        def traced(*args, **kwargs):
            if depth[0]:
                nested.append(label)
            calls[label] = calls.get(label, 0) + 1
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1

        return traced

    for cls, names in TRACED.items():
        for name in names:
            label = f"{cls.__name__}.{name}"
            monkeypatch.setattr(cls, name, wrap(label, cls.__dict__[name]))

    trace = get_simulator("meet").simulate(
        CallConfig(
            network=NetworkCondition.CELLULAR,
            seed=3,
            call_duration=5.0,
            media_scale=0.3,
        )
    )
    for session in (
        AnalysisSession(window=trace.window, eviction=EvictionPolicy("idle")),
        AnalysisSession(
            eviction=EvictionPolicy("idle", idle_gap=1.0, sweep_interval=0.5),
        ),
    ):
        session.feed(trace.records)
        session.close()
    assert nested == []
    assert set(calls) == {
        f"{cls.__name__}.{name}" for cls, names in TRACED.items() for name in names
    }
