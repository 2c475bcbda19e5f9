"""Production DPI engine vs the Algorithm 1 reference, datagram by datagram.

Every production entry point runs ``ColumnarEngine``: the batched
columnar sweep.  The reference, ``DpiEngine``, is the scalar sweep the
golden corpora are recorded with.  The conformance differ compares the two on
the fixture-scale golden cells; these tests compare them on full-scale
calls and on a seeded grid of cells the corpus does not cover.
"""

import pytest

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.conformance.golden import CorpusConfig, reference_engine
from repro.dpi import ColumnarEngine, ColumnarScanner, DpiEngine
from repro.dpi.candidates import sweep
from repro.filtering import TwoStageFilter
from repro.service import AnalysisSession


def _datagram_facts(analysis):
    return (
        analysis.record.timestamp,
        analysis.classification.value,
        tuple(
            (m.protocol.value, m.offset, m.length, m.trailer)
            for m in analysis.messages
        ),
    )


def _first_divergence(want, got):
    for index, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"datagram {index}: reference {a}, production {b}"
    return f"datagram counts differ: {len(want)} vs {len(got)}"


def test_zoom_cellular_cell_matches_reference():
    """Zoom over cellular, seed 0, call 0: 40 s at media scale 0.5.

    Datagram 3622 carries a proprietary header with RTP at offset 24.  A
    one-byte-shifted read at offset 23 forms a weak SSRC group; the full
    sweep surfaces enough of its samples for stage two to reject it, so
    the datagram stays fully proprietary.  An extractor that samples
    that group only partially lets it pass the continuity check and
    relabels the datagram.
    """
    trace = get_simulator("zoom").simulate(CallConfig(
        network=NetworkCondition.CELLULAR, seed=0, call_index=0,
        call_duration=40.0, media_scale=0.5,
    ))
    session = AnalysisSession(window=trace.window)
    session.feed(trace.records)
    production = session.close().dpi
    kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
    reference = reference_engine(CorpusConfig()).analyze_records(kept)

    want = [_datagram_facts(a) for a in reference.analyses]
    got = [_datagram_facts(a) for a in production.analyses]
    assert len(want) == 6923
    assert got == want, _first_divergence(want, got)


@pytest.mark.parametrize("call_index", [0, 1])
@pytest.mark.parametrize("network", list(NetworkCondition), ids=lambda n: n.value)
@pytest.mark.parametrize("app", APP_NAMES)
def test_seeded_cells_match_reference(app, network, call_index):
    trace = get_simulator(app).simulate(CallConfig(
        network=network, seed=0, call_index=call_index,
        call_duration=10.0, media_scale=0.3,
    ))
    kept = TwoStageFilter(trace.window).apply(trace.records).kept_records
    reference = DpiEngine().analyze_records(kept)
    production = ColumnarEngine().analyze_records(kept)

    want = [_datagram_facts(a) for a in reference.analyses]
    got = [_datagram_facts(a) for a in production.analyses]
    assert want, "the cell must carry UDP datagrams"
    assert got == want, _first_divergence(want, got)
    assert production.stats.as_dict() == reference.stats.as_dict()

    scanner = ColumnarScanner(200)
    payloads = [record.payload for record in kept
                if record.transport == "UDP"]
    batches = scanner.scan_batch(payloads)
    for index, (payload, got) in enumerate(zip(payloads, batches)):
        assert got == sweep(payload, 200), (
            f"batch scan differs from the scalar matchers on payload {index}"
        )
