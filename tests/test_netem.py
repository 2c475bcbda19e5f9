"""Unit and regression tests for the network-impairment layer.

Complements the hypothesis suite (``test_netem_properties.py``) with
pinned-behavior tests: profile validation and volume-factor cost math, the
exact rewrite semantics of NAT rebinding and the UDP-blackout TCP
fallback, the fast-path relearn regression for a mid-lock port
collision, the ``netem-*`` fuzzer mutators, and a spot check of the
impaired golden corpora.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.conformance import check_impaired_corpora
from repro.conformance.fuzzer import (
    MUTATORS,
    builtin_seeds,
    fuzz,
    run_oracle,
)
from repro.core import ComplianceChecker
from repro.dpi import DpiEngine
from repro.dpi.tcp import analyze_tcp_records
from repro.netem import (
    GilbertElliott,
    Impairer,
    ImpairmentProfile,
    NatRebind,
    PROFILES,
    get_profile,
)
from repro.netem.profiles import MIN_VOLUME_FACTOR, REBIND_COST_FACTOR
from repro.netem.impair import (
    FALLBACK_PORT_BASE,
    REBIND_PORT_RANGE,
    TURN_TCP_PORT,
    _device_endpoint,
)
from repro.packets.packet import Direction, PacketRecord, TrafficCategory, Truth
from repro.protocols.stun.message import ChannelData
from repro.protocols.rtp.header import RtpPacket
from repro.utils.rand import DeterministicRandom

APP = "zoom"
NETWORK = NetworkCondition.WIFI_P2P


@lru_cache(maxsize=1)
def base_records():
    """One small clean cell, simulated once for the whole module."""
    config = CallConfig(
        network=NETWORK, seed=3, call_duration=5.0, media_scale=0.25
    )
    return tuple(get_simulator(APP).iter_records(config))


def rebind_span(records):
    """(t0, t1, t_rebind) for ``at_fraction=0.5`` over *records*."""
    timestamps = [r.timestamp for r in records]
    t0, t1 = min(timestamps), max(timestamps)
    return t0, t1, t0 + 0.5 * (t1 - t0)


class TestProfiles:
    def test_get_profile_unknown_name(self):
        with pytest.raises(ValueError, match="udp_blocked"):
            get_profile("packet-storm")

    def test_named_profiles_round_trip(self):
        for name, profile in PROFILES.items():
            assert get_profile(name) is profile
            assert profile.name == name

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(loss_rate=1.5)
        with pytest.raises(ValueError):
            ImpairmentProfile(reorder_delay=-0.1)
        with pytest.raises(ValueError):
            GilbertElliott(p_enter=-0.01)
        with pytest.raises(ValueError):
            NatRebind(at_fraction=1.0)

    def test_gilbert_elliott_stationary_loss(self):
        chain = GilbertElliott(p_enter=0.1, p_exit=0.3, loss_good=0.0,
                               loss_bad=0.4)
        # pi_bad = 0.1 / 0.4 = 0.25 -> loss = 0.25 * 0.4 = 0.1
        assert chain.stationary_loss() == pytest.approx(0.1)
        # Degenerate chain that never moves: loss_good is all there is.
        frozen = GilbertElliott(p_enter=0.0, p_exit=0.0, loss_good=0.02)
        assert frozen.stationary_loss() == pytest.approx(0.02)

    def test_is_noop(self):
        assert PROFILES["none"].is_noop
        assert ImpairmentProfile().is_noop
        for name in ("lossy", "burst", "rebind", "udp_blocked"):
            assert not PROFILES[name].is_noop

    def test_volume_factor_math(self):
        profile = ImpairmentProfile(loss_rate=0.1, duplicate_rate=0.05)
        assert profile.volume_factor() == pytest.approx(0.9 * 1.05)
        rebinding = ImpairmentProfile(rebind=NatRebind())
        assert rebinding.volume_factor() == pytest.approx(REBIND_COST_FACTOR)
        # cost_scale overrides the derived factor outright.
        assert PROFILES["udp_blocked"].volume_factor() == pytest.approx(0.5)
        # A near-total blackout still pays the bookkeeping floor.
        wipeout = ImpairmentProfile(loss_rate=1.0)
        assert wipeout.volume_factor() == pytest.approx(MIN_VOLUME_FACTOR)

    def test_clean_profile_volume_factor_is_one(self):
        assert PROFILES["none"].volume_factor() == pytest.approx(1.0)


class TestRebindRewrite:
    def test_fresh_port_rewrite_semantics(self):
        records = base_records()
        profile = ImpairmentProfile(
            name="t", rebind=NatRebind(at_fraction=0.5, collide=False)
        )
        out = Impairer(profile, seed=5, label="t").apply(records)
        assert len(out) == len(records)
        _t0, _t1, t_rebind = rebind_span(records)
        rewritten = 0
        for before, after in zip(records, out):
            assert after.payload == before.payload
            assert after.timestamp == before.timestamp
            if before == after:
                continue
            # Only the device-side port of a post-rebind RTC UDP packet
            # may change — everything else passes through verbatim.
            rewritten += 1
            assert before.transport == "UDP"
            assert before.timestamp >= t_rebind
            assert before.truth is not None and before.truth.is_rtc
            old_ip, old_port = _device_endpoint(before)
            new_ip, new_port = _device_endpoint(after)
            assert new_ip == old_ip
            assert new_port != old_port
            assert REBIND_PORT_RANGE[0] <= new_port < REBIND_PORT_RANGE[1]
        assert rewritten > 0, "expected the cell to have an active RTC socket"

    def test_background_sockets_never_rebind(self):
        records = base_records()
        out = Impairer(PROFILES["rebind"], seed=5, label="t").apply(records)
        clean = [r for r in records
                 if r.truth is None or not r.truth.is_rtc]
        kept = [r for r in out
                if r.truth is None or not r.truth.is_rtc]
        # rebind's light random loss may drop some, but survivors are
        # byte-for-byte untouched.
        survivors = {(r.timestamp, r.payload): r for r in clean}
        for record in kept:
            assert survivors[(record.timestamp, record.payload)] == record

    def test_rebind_empty_and_flat_streams_pass_through(self):
        impairer = Impairer(
            ImpairmentProfile(name="t", rebind=NatRebind()), seed=0, label="t"
        )
        assert impairer.apply([]) == []
        record = base_records()[0]
        assert impairer.apply([record]) == [record]


def _rtp_flow_record(t, sport, ssrc, seq):
    payload = RtpPacket(payload_type=96, sequence_number=seq,
                        timestamp=1000 + 160 * seq, ssrc=ssrc,
                        payload=bytes(40)).build()
    return PacketRecord(
        timestamp=t, src_ip="10.0.0.1", src_port=sport,
        dst_ip="20.0.0.2", dst_port=3478, transport="UDP",
        payload=payload, direction=Direction.OUTBOUND,
        truth=Truth(category=TrafficCategory.RTC_MEDIA, app="synthetic"),
    )


class TestCollideRebindMidLock:
    """The fast-path learner's worst case, pinned as a regression.

    Two media sockets talk to the same relay; a colliding rebind rotates
    their device ports mid-call, so each stream's post-rebind packets
    land on the flow key the *other* stream already locked, carrying a
    foreign SSRC.  The learner must fall back and relearn — and the
    fast-path output must stay bit-identical to the unconditional sweep.
    """

    @staticmethod
    def _collision_records():
        records = []
        for i in range(120):
            records.append(_rtp_flow_record(i * 0.02, 50001, 0x11111111, i))
            records.append(
                _rtp_flow_record(i * 0.02 + 0.01, 50002, 0x22222222, i)
            )
        profile = ImpairmentProfile(
            name="t", rebind=NatRebind(at_fraction=0.5, collide=True)
        )
        return records, Impairer(profile, seed=0, label="t").apply(records)

    def test_collide_rotates_ports_among_affected_sockets(self):
        records, impaired = self._collision_records()
        _t0, _t1, t_rebind = rebind_span(records)
        assert {r.src_port for r in impaired} == {50001, 50002}
        for before, after in zip(records, impaired):
            if before.timestamp < t_rebind:
                assert after == before
            else:
                assert after.src_port != before.src_port

    def test_production_output_matches_sweep_across_rebind(self):
        _records, impaired = self._collision_records()
        production = DpiEngine(max_offset=200, backend="columnar")
        reference = DpiEngine(max_offset=200)
        checker = ComplianceChecker()

        def facts(engine):
            dpi = engine.analyze_records(impaired)
            return (
                [(a.record.timestamp, a.classification.value,
                  tuple((m.protocol.value, m.offset, m.length)
                        for m in a.messages))
                 for a in dpi.analyses],
                [v.compliant for v in checker.check(dpi.messages())],
            )

        assert facts(production) == facts(reference)


class TestUdpBlocked:
    @staticmethod
    @lru_cache(maxsize=1)
    def _blackout():
        records = base_records()
        out = Impairer(PROFILES["udp_blocked"], seed=0, label="t").apply(records)
        return records, out

    def test_no_udp_survives(self):
        _records, out = self._blackout()
        assert out, "fallback must re-emit the call's media"
        assert all(r.transport == "TCP" for r in out)

    def test_fallback_connections_hit_turn_tcp_port(self):
        records, out = self._blackout()
        original_tcp = {(r.timestamp, r.payload) for r in records
                        if r.transport == "TCP"}
        fallback = [r for r in out
                    if (r.timestamp, r.payload) not in original_tcp]
        assert fallback
        for record in fallback:
            device_ip, device_port = _device_endpoint(record)
            remote_port = (record.dst_port
                           if (record.src_ip, record.src_port)
                           == (device_ip, device_port)
                           else record.src_port)
            assert remote_port == TURN_TCP_PORT
            assert device_port >= FALLBACK_PORT_BASE
            # RFC 8656 s12.4: ChannelData over TCP pads to 4 bytes.
            assert len(record.payload) % 4 == 0

    def test_channeldata_recovery_round_trips_media(self):
        records, out = self._blackout()
        rtc_payloads = [r.payload for r in records
                        if r.transport == "UDP"
                        and r.truth is not None and r.truth.is_rtc]
        analyses = analyze_tcp_records(out)
        recovered = [
            message.message.data
            for analysis in analyses
            for message in analysis.messages
            if isinstance(message.message, ChannelData)
        ]
        assert len(recovered) == len(rtc_payloads)
        assert sorted(recovered) == sorted(rtc_payloads)

    def test_non_rtc_udp_is_dropped_not_rehomed(self):
        records, out = self._blackout()
        background = [r for r in records if r.transport == "UDP"
                      and (r.truth is None or not r.truth.is_rtc)]
        assert background, "cell must have background UDP for this test"
        survivors = {(r.timestamp, r.payload) for r in out}
        for record in background:
            assert (record.timestamp, record.payload) not in survivors


NETEM_MUTATORS = [m for m in MUTATORS if m.name.startswith("netem-")]


class TestNetemMutators:
    def test_all_three_registered(self):
        names = {m.name for m in NETEM_MUTATORS}
        assert names == {"netem-drop-response", "netem-duplicate-answered",
                         "netem-reorder-response-first"}
        benign = {m.name for m in NETEM_MUTATORS if m.expect_compliant}
        assert benign == {"netem-duplicate-answered",
                          "netem-reorder-response-first"}

    @pytest.mark.parametrize(
        "mutator", NETEM_MUTATORS, ids=lambda m: m.name
    )
    def test_oracle_passes_on_builtin_seeds(self, mutator):
        checker = ComplianceChecker()
        seeds = [s for s in builtin_seeds() if s.kind in mutator.kinds]
        assert seeds
        for index, seed in enumerate(seeds):
            rng = DeterministicRandom(index)
            mutated = mutator.apply(seed, rng)
            if mutated is None:
                continue
            result = run_oracle(mutator, mutated, checker)
            assert result.ok, (
                f"{mutator.name} on {seed.kind}: "
                f"expected {result.expected}, got {result.got}"
            )

    def test_netem_only_fuzz_campaign(self):
        report = fuzz(iterations=90, seed=7, mutators=NETEM_MUTATORS)
        assert report.ok, [
            (f.mutator, f.expected, f.got) for f in report.failures
        ]
        assert report.executed > 0
        assert set(report.per_mutator) == {m.name for m in NETEM_MUTATORS}


class TestImpairedGoldens:
    def test_impaired_corpora_replay_clean_for_one_app(self):
        report = check_impaired_corpora(apps=[APP])
        assert report.cells_checked == 2  # one cell per impaired profile
        assert report.ok, [d for d in report.drifts]
