"""Tests for the parallel matrix executor and summary merging."""

import pytest

from repro.apps import NetworkCondition
from repro.core.metrics import TypeComplianceEntry, VolumeCompliance
from repro.core import ComplianceSummary
from repro.experiments import (
    ExperimentConfig,
    matrix_cells,
    run_matrix,
    run_matrix_parallel,
)
from repro.experiments.runner import MAX_EXAMPLE_VIOLATIONS, merge_summaries

CONFIG = ExperimentConfig(call_duration=6.0, media_scale=0.25, seed=7)
APPS = ("whatsapp", "discord")
NETWORKS = (NetworkCondition.WIFI_RELAY, NetworkCondition.CELLULAR)


class TestParallelParity:
    def test_parallel_matches_serial(self):
        serial = run_matrix(APPS, NETWORKS, config=CONFIG, workers=1)
        parallel = run_matrix(APPS, NETWORKS, config=CONFIG, workers=4)
        assert set(serial.per_app) == set(parallel.per_app)
        assert list(serial.per_app) == list(parallel.per_app)  # app order
        for app in APPS:
            s, p = serial.per_app[app], parallel.per_app[app]
            assert p.summary == s.summary
            assert p.class_counts == s.class_counts
            assert p.protocol_counts == s.protocol_counts
            assert p.raw == s.raw and p.kept == s.kept
            assert p.filter_precision == s.filter_precision
            assert p.filter_recall == s.filter_recall

    def test_repeats_parity(self):
        config = ExperimentConfig(call_duration=5.0, media_scale=0.25,
                                  seed=2, repeats=2)
        serial = run_matrix(("discord",), (NetworkCondition.WIFI_RELAY,),
                            config=config, workers=1)
        parallel = run_matrix(("discord",), (NetworkCondition.WIFI_RELAY,),
                              config=config, workers=2)
        assert parallel.per_app["discord"].summary == serial.per_app["discord"].summary

    def test_cell_enumeration_order(self):
        cells = matrix_cells(("a", "b"), (NetworkCondition.WIFI_RELAY,
                                          NetworkCondition.CELLULAR), 2)
        assert cells[0] == ("a", NetworkCondition.WIFI_RELAY, 0)
        assert cells[1] == ("a", NetworkCondition.WIFI_RELAY, 1)
        assert cells[2] == ("a", NetworkCondition.CELLULAR, 0)
        assert cells[-1] == ("b", NetworkCondition.CELLULAR, 1)
        assert len(cells) == 8

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_matrix_parallel(APPS, NETWORKS, CONFIG, workers=0)


class TestMergeSummaryCap:
    @staticmethod
    def _summary(examples):
        entry = TypeComplianceEntry(
            protocol="stun_turn", type_label="0x0801", total=len(examples),
            non_compliant=len(examples), example_violations=list(examples),
        )
        return ComplianceSummary(
            app="x", volume=VolumeCompliance(0, len(examples)),
            volume_by_protocol={}, types={("stun_turn", "0x0801"): entry},
        )

    def test_wholesale_copy_is_capped(self):
        a = self._summary([])
        a.types.clear()  # "a" has no entry for the key: copy branch
        b = self._summary([f"violation-{i}" for i in range(5)])
        merged = merge_summaries(a, b)
        entry = merged.types[("stun_turn", "0x0801")]
        assert len(entry.example_violations) == MAX_EXAMPLE_VIOLATIONS

    def test_extend_branch_is_capped(self):
        a = self._summary(["a1", "a2"])
        b = self._summary([f"b{i}" for i in range(5)])
        merged = merge_summaries(a, b)
        entry = merged.types[("stun_turn", "0x0801")]
        assert len(entry.example_violations) == MAX_EXAMPLE_VIOLATIONS
        assert entry.example_violations[:2] == ["a1", "a2"]

    def test_merge_does_not_mutate_inputs(self):
        a = self._summary(["a1"])
        b = self._summary(["b1", "b2"])
        merge_summaries(a, b)
        assert a.types[("stun_turn", "0x0801")].example_violations == ["a1"]


class TestCliWorkers:
    def test_matrix_workers_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["matrix", "--workers", "2"])
        assert args.workers == 2
        args = build_parser().parse_args(["matrix"])
        assert args.workers is None

    def test_report_workers_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report", "--workers", "1"])
        assert args.workers == 1
