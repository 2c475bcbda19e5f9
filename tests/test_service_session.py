"""Session-vs-batch parity and lifecycle tests for the service layer.

The contract under test: an :class:`~repro.service.AnalysisSession` fed
incrementally — arbitrary chunk sizes, eviction enabled — produces
bit-identical artifacts (verdict order, analysis order, compliance
summary, filter accounting) to the batch ``run_cell_pipeline`` adapter,
for every cell of the golden corpus.  Plus the memory story: eviction
finalizes state mid-feed, and rotated sessions hold memory flat over a
tracemalloc soak.
"""

import gc
import os
import random
import threading
import tracemalloc
from dataclasses import replace

import pytest

from repro.apps import APP_NAMES, NetworkCondition, get_simulator
from repro.conformance.golden import CorpusConfig, cell_records, experiment_config
from repro.core import ComplianceChecker, ComplianceSummary
from repro.dpi import DpiEngine
from repro.experiments.runner import _cell_config, run_cell_pipeline
from repro.service import AnalysisSession, EvictionPolicy

CELLS = [(app, network) for app in APP_NAMES for network in NetworkCondition]

_CORPUS = CorpusConfig()


def _verdict_fingerprint(verdicts):
    return [
        (
            v.message.protocol.value,
            v.message.type_key(),
            v.message.offset,
            v.message.length,
            v.compliant,
            tuple(map(tuple, v.violation_keys())),
        )
        for v in verdicts
    ]


def _analysis_fingerprint(dpi):
    return [
        (
            a.record.timestamp,
            a.record.flow_key,
            a.classification.value,
            tuple((m.protocol.value, m.offset, m.length) for m in a.messages),
        )
        for a in dpi.analyses
    ]


def _feed_in_random_chunks(session, records, rng):
    index = 0
    while index < len(records):
        step = rng.randint(1, 400)
        session.feed(records[index:index + step])
        index += step


def test_cells_cover_full_matrix():
    assert len(CELLS) == 18


@pytest.mark.parametrize("app,network", CELLS, ids=lambda v: getattr(v, "value", v))
def test_session_matches_batch_bit_identical(app, network):
    """All 18 golden cells, randomized chunks, idle eviction on."""
    config = experiment_config(_CORPUS)
    batch = run_cell_pipeline(
        app,
        network,
        config,
        engine=DpiEngine(max_offset=_CORPUS.max_offset),
        checker=ComplianceChecker(),
    )

    call_config = _cell_config(network, config, 0)
    records = list(get_simulator(app).iter_records(call_config))
    rng = random.Random(f"{app}:{network.value}")
    session = AnalysisSession(
        window=call_config.window(),
        engine=DpiEngine(max_offset=_CORPUS.max_offset),
        checker=ComplianceChecker(),
        eviction=EvictionPolicy(mode="idle", sweep_interval=0.5),
    )
    _feed_in_random_chunks(session, records, rng)
    result = session.close()

    assert _verdict_fingerprint(result.verdicts) == _verdict_fingerprint(
        batch.verdicts
    )
    assert _analysis_fingerprint(result.dpi) == _analysis_fingerprint(batch.dpi)
    assert result.summary(app) == ComplianceSummary.from_verdicts(
        app, batch.verdicts
    )
    assert result.filter_result is not None
    assert (
        result.filter_result.kept_records == batch.filter_result.kept_records
    )
    assert result.filter_result.kept == batch.filter_result.kept
    assert result.filter_result.raw == batch.filter_result.raw
    assert (
        result.filter_result.stage1_removed == batch.filter_result.stage1_removed
    )
    assert (
        result.filter_result.stage2_removed == batch.filter_result.stage2_removed
    )


def test_idle_evicting_filterless_session_matches_one_without_eviction():
    """Pre-filtered feed (no window) in random chunks with idle eviction
    reproduces a filterless session fed at once without eviction."""
    records = cell_records("meet", NetworkCondition.WIFI_RELAY, _CORPUS)
    plain = AnalysisSession(
        engine=DpiEngine(max_offset=_CORPUS.max_offset),
        checker=ComplianceChecker(),
    )
    plain.feed(records)
    want = plain.close()
    session = AnalysisSession(
        engine=DpiEngine(max_offset=_CORPUS.max_offset),
        checker=ComplianceChecker(),
        # idle_gap longer than any intra-flow gap in an 8 s call: exact.
        eviction=EvictionPolicy(mode="idle", idle_gap=60.0),
    )
    rng = random.Random(7)
    _feed_in_random_chunks(session, records, rng)
    result = session.close()
    assert result.filter_result is None
    assert _verdict_fingerprint(result.verdicts) == _verdict_fingerprint(
        want.verdicts
    )
    assert _analysis_fingerprint(result.dpi) == _analysis_fingerprint(want.dpi)


def test_idle_eviction_finalizes_flows_mid_feed():
    """With a small idle gap, verdicts appear before close.

    The facetime P2P cell is the corpus cell whose STUN flow goes
    quiet longest before capture end (~2.6 s), so a 1 s idle gap
    finalizes it mid-feed while the media flow keeps streaming.
    """
    records = cell_records("facetime", NetworkCondition.WIFI_P2P, _CORPUS)
    session = AnalysisSession(
        engine=DpiEngine(),
        checker=ComplianceChecker(),
        eviction=EvictionPolicy(mode="idle", idle_gap=1.0, sweep_interval=0.5),
    )
    session.feed(records)
    before_close = session.snapshot()
    assert before_close.verdicts_ready > 0, "idle eviction never fired"
    assert not before_close.closed
    result = session.close()
    # Every record still got analyzed exactly once.
    udp_records = [r for r in records if r.transport == "UDP"]
    assert len(result.dpi.analyses) == len(udp_records)
    assert len(result.verdicts) == session.snapshot().verdicts_ready


def test_filtered_idle_session_drains_doomed_streams():
    """In a filtered session idle sweeps drain the filter's doomed
    streams while feeding: the filter holds fewer records at its peak
    than with eviction off, and the verdicts do not change."""
    call = _cell_config(NetworkCondition.WIFI_RELAY, experiment_config(_CORPUS), 0)
    records = list(get_simulator("zoom").iter_records(call))

    def run(mode):
        session = AnalysisSession(
            window=call.window(), eviction=EvictionPolicy(mode=mode)
        )
        _feed_in_random_chunks(session, records, random.Random(3))
        return session.close()

    plain, idle = run("none"), run("idle")
    assert plain.stage_stats["filter"].peak_buffered == len(records)
    assert (
        idle.stage_stats["filter"].peak_buffered
        < plain.stage_stats["filter"].peak_buffered
    )
    assert _verdict_fingerprint(idle.verdicts) == _verdict_fingerprint(
        plain.verdicts
    )


def test_snapshot_is_detached_and_progresses():
    records = cell_records("meet", NetworkCondition.CELLULAR, _CORPUS)
    call = _cell_config(
        NetworkCondition.CELLULAR, experiment_config(_CORPUS), 0
    )
    session = AnalysisSession(window=call.window())
    half = len(records) // 2
    session.feed(records[:half])
    snap = session.snapshot()
    assert snap.records_fed == half
    assert snap.watermark == max(r.timestamp for r in records[:half])
    assert not snap.closed
    names = [stat.name for stat in snap.stages]
    assert names == ["filter", "dpi", "check"]
    # Detached copies: mutating the snapshot cannot touch live counters.
    snap.stages[0].records_in = -1
    session.feed(records[half:])
    assert session.snapshot().stages[0].records_in == len(records)
    session.close()
    assert session.snapshot().closed
    payload = session.snapshot().to_json()
    assert payload["records_fed"] == len(records)
    assert [s["name"] for s in payload["stages"]] == names


def test_feed_after_close_raises():
    session = AnalysisSession()
    session.close()
    with pytest.raises(RuntimeError):
        session.feed([])


def test_close_is_idempotent():
    records = cell_records("facetime", NetworkCondition.WIFI_P2P, _CORPUS)
    session = AnalysisSession()
    session.feed(records)
    assert session.close() is session.close()


def test_eviction_policy_validation():
    with pytest.raises(ValueError):
        EvictionPolicy(mode="sometimes")
    with pytest.raises(ValueError):
        EvictionPolicy(mode="deadline")
    with pytest.raises(ValueError):
        EvictionPolicy(idle_gap=0.0)
    with pytest.raises(ValueError):
        EvictionPolicy(sweep_interval=-1.0)


def _rotated_records(base, iteration):
    """Shift a record list in time and across flows: fresh flows per pass."""
    offset = 100.0 * iteration
    port_shift = (iteration * 7) % 2000
    return [
        replace(
            record,
            timestamp=record.timestamp + offset,
            src_port=record.src_port + port_shift,
            dst_port=record.dst_port + port_shift,
        )
        for record in base
    ]


def test_soak_concurrent_sessions_flat_memory():
    """Satellite (d) soak: concurrent rotated sessions, flat tracemalloc.

    Budget defaults to ~30 s; ``RTC_SOAK_SECONDS`` overrides (CI can
    shorten or lengthen it).  Each worker loops full session lifecycles
    over rotating flows, so live memory after N iterations should match
    live memory after one warmup pass — growth means a session leaks
    state past ``close``.
    """
    budget = float(os.environ.get("RTC_SOAK_SECONDS", "30"))
    base = cell_records("meet", NetworkCondition.WIFI_P2P, _CORPUS)
    deadline = threading.Event()
    errors = []
    iterations = [0] * 3

    def worker(slot):
        iteration = 0
        while not deadline.is_set():
            try:
                session = AnalysisSession(
                    eviction=EvictionPolicy(mode="idle", idle_gap=2.0),
                )
                session.feed(_rotated_records(base, iteration * 3 + slot))
                result = session.close()
                assert result.verdicts, "soak session produced no verdicts"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return
            iteration += 1
            iterations[slot] = iteration

    gc.collect()
    tracemalloc.start()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    # Warmup: let every worker finish at least one full lifecycle before
    # taking the baseline, so steady-state allocations are in the base.
    baseline = None
    timer = threading.Event()
    elapsed = 0.0
    while elapsed < budget:
        timer.wait(0.25)
        elapsed += 0.25
        if baseline is None and all(n >= 1 for n in iterations):
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
    deadline.set()
    for thread in threads:
        thread.join(timeout=30.0)
    gc.collect()
    final = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()

    assert not errors, errors
    assert baseline is not None, "soak budget too small for one warmup pass"
    assert sum(iterations) >= 3
    # Flat memory: the live heap after the soak stays within a fixed
    # slack of the post-warmup baseline, independent of iteration count.
    slack = 8 * 1024 * 1024
    assert final <= baseline + slack, (
        f"memory grew {final - baseline} bytes over {sum(iterations)} "
        f"session lifecycles (baseline {baseline})"
    )
