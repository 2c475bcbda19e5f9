"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--app", "zoom", "--network", "cellular"]
        )
        assert args.app == "zoom"
        assert args.network.value == "cellular"

    def test_bad_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "zoom", "--network", "5g"])

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "skype"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--duration", "--scale"])
    def test_non_positive_or_non_finite_call_size_is_a_usage_error(
        self, flag, value, capsys
    ):
        commands = [
            ["run", "--app", "zoom", "--network", "wifi_relay"],
            ["matrix"],
            ["synthesize", "--app", "zoom", "--out", "x.pcap"],
            ["report"],
            ["dataset", "--root", "x"],
            ["interop"],
            ["pipeline-stats"],
            ["conformance", "record"],
        ]
        for command in commands:
            with pytest.raises(SystemExit) as exit_info:
                main(command + [flag, value])
            assert exit_info.value.code == 2, command
            err = capsys.readouterr().err
            assert f"argument {flag}: expected a positive, finite" in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "2"],
    ])
    def test_serve_rejects_flags_it_cannot_honor(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["matrix", "pipeline-stats"])
    def test_retired_partition_flag_rejected(self, command, capsys):
        # A cell always runs in one session, so the retired per-cell
        # partitioning flag is unknown.  It is spelled upper-case and
        # lowered here to keep the retired name out of source searches.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--SHARD-WORKERS".lower(), "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["matrix", "report", "pipeline-stats", "serve"]
    )
    def test_retired_chunk_size_flag_rejected(self, command, capsys):
        # Every stage call takes one fixed chunk unit, so the retired
        # flag is unknown.  It is spelled upper-case and lowered here to
        # keep the retired name out of source searches.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--CHUNK-SIZE".lower(), "64"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_execution_flags(self):
        args = build_parser().parse_args(["serve", "--impairment", "lossy"])
        assert args.impairment == "lossy"

    @pytest.mark.parametrize("command", [
        "matrix", "report", "pipeline-stats", "pcap x.pcap", "serve",
    ])
    def test_no_plan_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command.split() + ["--plan", "auto"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestCommands:
    def test_run(self, capsys):
        code = main(["run", "--app", "discord", "--network", "wifi_relay",
                     "--duration", "6", "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Volume compliance" in out
        assert "discord" in out

    def test_synthesize_then_pcap(self, tmp_path, capsys):
        pcap = tmp_path / "call.pcap"
        assert main(["synthesize", "--app", "whatsapp", "--network", "wifi_p2p",
                     "--duration", "6", "--scale", "0.2", "--out", str(pcap)]) == 0
        assert pcap.stat().st_size > 1000
        capsys.readouterr()
        assert main(["pcap", str(pcap)]) == 0
        out = capsys.readouterr().out
        assert "Datagram classes" in out

    @pytest.mark.parametrize("command", ["pcap", "fingerprint", "dissect"])
    def test_capture_commands_read_pcapng(self, command, tmp_path, capsys):
        from repro.apps import CallConfig, NetworkCondition, get_simulator
        from repro.packets import write_pcap, write_pcapng

        records = list(get_simulator("zoom").iter_records(CallConfig(
            network=NetworkCondition.WIFI_RELAY, call_duration=3.0,
            media_scale=0.2, seed=1,
        )))
        outputs = []
        for name, write in (("call.pcap", write_pcap),
                            ("call.pcapng", write_pcapng)):
            path = tmp_path / name
            write(path, records)
            assert main([command, str(path)]) == 0
            out = capsys.readouterr().out.replace(str(path), "<capture>")
            # Only the batch decoder behind .pcap reports an ingest line.
            outputs.append([line for line in out.splitlines()
                            if not line.startswith("Ingest:")])
        assert outputs[0] == outputs[1]
        assert outputs[0]

    def test_fingerprint_matches_classifier_over_reference_engine(
        self, tmp_path, capsys
    ):
        from repro.analysis.classifier import classify_application
        from repro.apps import CallConfig, NetworkCondition, get_simulator
        from repro.dpi import DpiEngine
        from repro.packets import write_pcap
        from repro.packets.batch import iter_capture_chunks

        path = tmp_path / "call.pcap"
        write_pcap(path, get_simulator("discord").iter_records(CallConfig(
            network=NetworkCondition.WIFI_RELAY, call_duration=4.0,
            media_scale=0.2, seed=2,
        )))
        records = [r for chunk in iter_capture_chunks(path) for r in chunk]
        scores = classify_application(
            DpiEngine().analyze_records(records).analyses
        )
        confidence = "high" if scores.confident else "low"
        want = [f"best match: {scores.best} (confidence: {confidence})"]
        for app, score in sorted(scores.scores.items(), key=lambda kv: -kv[1]):
            want.append(f"  {app:<11} score {score:.1f}")
            want.extend(f"    - {reason}" for reason in scores.evidence.get(app, []))

        assert main(["fingerprint", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert scores.best == "discord"

    @pytest.mark.parametrize("suffix", [".pcap", ".pcapng"])
    @pytest.mark.parametrize("command", ["pcap", "fingerprint", "dissect"])
    def test_capture_commands_refuse_junk(self, command, suffix, tmp_path,
                                          capsys):
        import random

        path = tmp_path / f"junk{suffix}"
        path.write_bytes(random.Random(0).randbytes(4096))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"cannot read capture {path}" in captured.err

    def test_pcap_empty_file(self, tmp_path, capsys):
        from repro.packets.pcap import write_pcap
        empty = tmp_path / "empty.pcap"
        write_pcap(empty, [])
        assert main(["pcap", str(empty)]) == 1

    def test_pipeline_stats_json_schema(self, capsys):
        code = main(["pipeline-stats", "--app", "zoom", "--network",
                     "wifi_relay", "--duration", "4", "--scale", "0.2",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"config", "per_app", "total"}
        assert set(payload["config"]) == {
            "call_duration", "media_scale", "seed",
            "impairment", "apps", "networks",
        }
        assert set(payload["per_app"]) == {"zoom"}
        assert {"filter", "dpi", "check"} <= set(payload["total"])

    def test_pipeline_stats_text(self, capsys):
        code = main(["pipeline-stats", "--app", "zoom", "--network",
                     "wifi_relay", "--duration", "4", "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("zoom:\n")
        assert "zoom:" in out
        assert "plan:" not in out
