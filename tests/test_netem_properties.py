"""Property tests for the network-impairment layer (:mod:`repro.netem`).

Two families of invariants, driven by hypothesis-generated profiles:

- **Determinism**: the impairer is a pure function of (profile, seed,
  label, input) — applying it twice yields byte-identical streams, and
  a different seed or label draws an independent one.
- **Engine parity**: whatever a generated profile does to the record
  stream, every execution shape — the production columnar engine in
  batch and streaming shape — produces bit-identical verdicts, datagram
  classes, metrics and extraction counters to the reference scalar
  sweep.

The generated profiles deliberately exceed the named presets (loss up to
30%, heavy duplication, arbitrary rebind fractions) so parity is not an
artifact of the shipped configurations.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.conformance.golden import build_facts, facts_digest
from repro.core import ComplianceChecker
from repro.dpi import DpiEngine
from repro.netem import (
    GilbertElliott,
    Impairer,
    ImpairmentProfile,
    NatRebind,
    PROFILES,
    build_impairer,
)
from repro.service import AnalysisSession

APP = "zoom"
NETWORK = NetworkCondition.WIFI_P2P
MAX_OFFSET = 200


@lru_cache(maxsize=1)
def base_records():
    """One small clean cell, simulated once for the whole module."""
    config = CallConfig(
        network=NETWORK, seed=3, call_duration=5.0, media_scale=0.25
    )
    return tuple(get_simulator(APP).simulate(config).records)


def probabilities(upper):
    return st.floats(min_value=0.0, max_value=upper, allow_nan=False)


burst_chains = st.builds(
    GilbertElliott,
    p_enter=st.floats(min_value=0.001, max_value=0.2),
    p_exit=st.floats(min_value=0.05, max_value=0.9),
    loss_good=probabilities(0.05),
    loss_bad=st.floats(min_value=0.1, max_value=0.9),
)

rebinds = st.builds(
    NatRebind,
    at_fraction=st.floats(min_value=0.2, max_value=0.8),
    collide=st.booleans(),
)

profiles = st.builds(
    ImpairmentProfile,
    name=st.just("hyp"),
    loss_rate=probabilities(0.3),
    burst=st.none() | burst_chains,
    reorder_rate=probabilities(0.3),
    reorder_delay=st.floats(min_value=0.005, max_value=0.05),
    duplicate_rate=probabilities(0.2),
    rebind=st.none() | rebinds,
    udp_blocked=st.booleans(),
)


def impaired(profile, seed=0, label="prop"):
    return Impairer(profile, seed=seed, label=label).apply(base_records())


class TestDeterminism:
    @settings(max_examples=25)
    @given(profile=profiles, seed=st.integers(min_value=0, max_value=2**31))
    def test_same_seed_same_sequence(self, profile, seed):
        first = impaired(profile, seed=seed)
        second = impaired(profile, seed=seed)
        assert first == second

    @settings(max_examples=25)
    @given(profile=profiles)
    def test_input_not_mutated_and_output_sorted(self, profile):
        original = base_records()
        snapshot = tuple(original)
        out = Impairer(profile, seed=7, label="prop").apply(original)
        assert base_records() == snapshot
        assert all(
            a.timestamp <= b.timestamp for a, b in zip(out, out[1:])
        )

    @settings(max_examples=10)
    @given(profile=profiles)
    def test_distinct_labels_draw_independent_streams(self, profile):
        # Lossless noop-like draws can coincide; only require that the
        # label changes the stream when the profile actually randomizes.
        if profile.is_noop:
            return
        a = impaired(profile, seed=1, label="cell-a")
        b = impaired(profile, seed=1, label="cell-b")
        assert a == impaired(profile, seed=1, label="cell-a")
        assert b == impaired(profile, seed=1, label="cell-b")

    def test_noop_profile_returns_equal_records(self):
        out = Impairer(PROFILES["none"], seed=0).apply(base_records())
        assert out == list(base_records())

    def test_build_impairer_noop_fast_path(self):
        assert build_impairer("none", 0, "x") is None
        assert build_impairer("lossy", 0, "x") is not None


def _facts_digest(dpi, verdicts):
    return facts_digest(build_facts(APP, NETWORK, dpi, verdicts))


def _reference_digest(records):
    engine = DpiEngine(max_offset=MAX_OFFSET)
    dpi = engine.analyze_records(records)
    verdicts = ComplianceChecker().check(dpi.messages())
    return _facts_digest(dpi, verdicts)


def _shape_digests(records):
    """Digest of every non-reference execution shape over *records*."""
    checker = ComplianceChecker()
    digests = {}

    engine = DpiEngine(max_offset=MAX_OFFSET, backend="columnar")
    dpi = engine.analyze_records(records)
    digests["columnar"] = _facts_digest(dpi, checker.check(dpi.messages()))

    session = AnalysisSession(
        engine=DpiEngine(max_offset=MAX_OFFSET, backend="columnar"),
        checker=ComplianceChecker(),
    )
    session.feed(records)
    result = session.close()
    digests["streaming"] = _facts_digest(result.dpi, result.verdicts)
    return digests


class TestEngineParity:
    @settings(max_examples=8)
    @given(profile=profiles, seed=st.integers(min_value=0, max_value=999))
    def test_all_shapes_match_scalar_sweep(self, profile, seed):
        records = impaired(profile, seed=seed)
        want = _reference_digest(records)
        for shape, digest in _shape_digests(records).items():
            assert digest == want, f"{shape} diverged from scalar sweep"

    @pytest.mark.parametrize("name", sorted(set(PROFILES) - {"none"}))
    def test_named_profiles_parity(self, name):
        records = Impairer(PROFILES[name], seed=11, label="named").apply(
            base_records()
        )
        want = _reference_digest(records)
        for shape, digest in _shape_digests(records).items():
            assert digest == want, f"{shape} diverged under profile {name}"
