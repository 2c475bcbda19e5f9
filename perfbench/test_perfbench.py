"""The benchmark's own checks, at a tiny input size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench
"""

import threading

import pytest

import hostspeed
import ledger
import workloads
from repro.pipeline.stage import StageStats


def _ticks(*values):
    clock = iter(values)
    return lambda: next(clock)


def test_self_time_excludes_enclosed_spans_and_glue_closes_the_ledger():
    tracer = ledger.Tracer(clock=_ticks(0.0, 1.0, 3.0, 4.0))
    tracer.begin("service.session")
    tracer.begin("dpi.flush")
    tracer.end()
    tracer.end()
    trace = tracer.threads[threading.get_ident()]
    assert trace.self_s == {"service.session": 2.0, "dpi.flush": 2.0}
    assert trace.total_s == {"service.session": 4.0, "dpi.flush": 2.0}

    rows = ledger.thread_ledger(5.0, trace)
    assert rows == {"service.session_self_s": 2.0, "dpi.flush_s": 2.0, "glue_s": 1.0}
    assert ledger.ledger_problems("main", 5.0, rows) == []


def test_negative_glue_and_unbalanced_ledgers_are_reported():
    assert "glue_s is negative" in ledger.ledger_problems(
        "main", 1.5, {"dpi.feed_s": 2.0, "glue_s": -0.5}
    )[0]
    assert "sums to" in ledger.ledger_problems(
        "main", 3.0, {"dpi.feed_s": 2.0, "glue_s": 0.5}
    )[0]


def test_spans_must_agree_with_stage_stats():
    tracer = ledger.Tracer(clock=_ticks(0.0, 0.5))
    tracer.begin("dpi.feed")
    tracer.end()
    agreeing = {"dpi": StageStats(name="dpi", wall_seconds=0.5)}
    assert ledger.stage_problems(agreeing, tracer.threads) == []
    disagreeing = {"dpi": StageStats(name="dpi", wall_seconds=1.0)}
    assert ledger.stage_problems(disagreeing, tracer.threads) == [
        "dpi: spans total 0.500000s, StageStats 1.000000s"
    ]


def _session_around_a_dpi_feed(cpu_clock):
    tracer = ledger.Tracer(clock=_ticks(0.0, 1.0, 1.5, 3.0), cpu_clock=cpu_clock)
    tracer.begin("service.session")
    tracer.begin("dpi.feed")
    tracer.end()
    tracer.end()
    return tracer


def test_time_off_the_cpu_around_a_stage_span_may_widen_the_stage_timer():
    # Another thread held the CPU for the whole session: 2.5 s of its
    # self time was waiting, which the pipeline's timer may have caught.
    waiting = _session_around_a_dpi_feed(cpu_clock=lambda: 0.0)
    assert waiting.threads[threading.get_ident()].self_wait_s == {
        "service.session": 2.5, "dpi.feed": 0.5,
    }
    stats = {"dpi": StageStats(name="dpi", wall_seconds=1.0)}
    assert ledger.stage_problems(stats, waiting.threads) == []

    busy = _session_around_a_dpi_feed(cpu_clock=_ticks(0.0, 1.0, 1.5, 3.0))
    assert busy.threads[threading.get_ident()].self_wait_s == {
        "service.session": 0.0, "dpi.feed": 0.0,
    }
    assert ledger.stage_problems(stats, busy.threads) == [
        "dpi: spans total 0.500000s, StageStats 1.000000s"
    ]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cache = tmp_path_factory.mktemp("bench-cache")
    return {
        workload: workloads.prepare(workload, 7, cache, workloads.TINY)
        for workload in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_the_oracle_and_its_ledger_balances(tiny, workload):
    inputs = tiny[workload]
    expected = workloads.reference(inputs, "test")
    tracer = ledger.Tracer()
    with tracer.installed():
        outcome = workloads.run_pass(inputs, workloads.new_session(inputs))

    facts = workloads.output_facts(inputs, outcome.result)
    assert workloads.gate(inputs, facts, expected) == []
    ledgers, problems = ledger.analyse(tracer, outcome, threading.get_ident())
    assert problems == []
    assert outcome.records == inputs.record["frames"]
    if workload == "rotating-captures":
        assert set(ledgers) == {"main", "producer"}
        assert "packets.decode_s" in ledgers["producer"]
    metrics = ledger.per_layer(outcome, ledgers, tracer)
    assert metrics["packets.frames"] == inputs.record["frames"]


def test_the_tracer_leaves_the_program_as_it_found_it():
    from repro.pipeline.stages import DpiStage

    original = DpiStage.process_chunk
    with ledger.Tracer().installed():
        assert DpiStage.process_chunk is not original
    assert DpiStage.process_chunk is original


def test_the_gate_rejects_changed_output(tiny):
    inputs = tiny["clean-call"]
    expected = workloads.reference(inputs, "test")
    result = workloads.run_pass(inputs, workloads.new_session(inputs)).result
    result.verdicts.pop()
    problems = workloads.gate(inputs, workloads.output_facts(inputs, result), expected)
    assert problems == ["output differs from the sweep oracle in digest, verdicts"]


def test_udp_blocked_verdicts_fail_the_gate(tiny):
    inputs = tiny["udp-blocked-call"]
    facts = {"digest": "x", "verdicts": 3, "by_class": {}, "filter": None}
    assert workloads.gate(inputs, facts, facts) == [
        "3 verdicts where media rides TCP; expected none"
    ]


def test_reference_work_is_fixed_and_slowdown_is_relative_to_nominal():
    work = hostspeed.ReferenceWork()
    assert work.run() == hostspeed.ReferenceWork().run()
    assert hostspeed.slowdown(hostspeed.NOMINAL_S, hostspeed.NOMINAL_S) == 1.0
    assert hostspeed.slowdown(hostspeed.NOMINAL_S, 3 * hostspeed.NOMINAL_S) == 2.0


def test_inputs_are_reused_and_reproducible(tiny, tmp_path):
    inputs = tiny["rotating-captures"]
    again = workloads.prepare("rotating-captures", 7, inputs.directory.parent, workloads.TINY)
    assert again.directory == inputs.directory
    fresh = workloads.prepare("rotating-captures", 7, tmp_path, workloads.TINY)
    assert [p.read_bytes() for p in fresh.captures] == [p.read_bytes() for p in inputs.captures]
    assert fresh.record == inputs.record
