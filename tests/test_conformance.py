"""Golden conformance corpus: recording, loading, and differential checks.

The committed corpus under ``tests/golden/conformance`` is the contract:
every engine configuration must reproduce it bit-identically, and any
schema or content drift must fail with an actionable re-record hint.
"""

import json
import shutil

import pytest

from repro.apps import NetworkCondition
from repro.cli import main as cli_main
from repro.conformance import (
    ENGINE_SPECS,
    RERECORD_HINT,
    SCHEMA_VERSION,
    CorpusConfig,
    GoldenMismatchError,
    check_corpus,
    default_corpus_dir,
    load_cell,
    load_manifest,
)
from repro.conformance.golden import cell_records, corpus_cells
from repro.dpi import DpiEngine


@pytest.fixture(scope="module")
def corpus_dir():
    directory = default_corpus_dir()
    if not (directory / "manifest.json").exists():
        pytest.fail(f"committed conformance corpus missing from {directory} "
                    f"— {RERECORD_HINT}")
    return directory


@pytest.fixture(scope="module")
def corpus_report(corpus_dir):
    """One full differential check, shared by every test that reads it."""
    return check_corpus(corpus_dir)


class TestDifferentialCheck:
    def test_every_engine_config_matches_goldens(self, corpus_report):
        drifts = "\n".join(d.render() for d in corpus_report.drifts)
        assert corpus_report.ok, f"engine drift against golden corpus:\n{drifts}"

    def test_all_cells_and_engines_covered(self, corpus_report):
        assert corpus_report.cells_checked == 18
        assert corpus_report.engines == tuple(s.name for s in ENGINE_SPECS)
        assert {"sweep", "columnar", "streaming"} == set(corpus_report.engines)


class TestSchemaStability:
    def test_manifest_records_current_schema_version(self, corpus_dir):
        manifest = load_manifest(corpus_dir)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert len(manifest["cells"]) == 18

    def test_schema_version_drift_names_rerecord_command(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GoldenMismatchError) as excinfo:
            load_manifest(tmp_path)
        assert RERECORD_HINT in str(excinfo.value)
        assert f"expects {SCHEMA_VERSION}" in str(excinfo.value)

    def test_corpus_hash_drift_names_rerecord_command(self, corpus_dir, tmp_path):
        name = "zoom__wifi_p2p"
        payload = json.loads((corpus_dir / f"{name}.json").read_text())
        payload["facts"]["volume"][0] += 1
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        with pytest.raises(GoldenMismatchError) as excinfo:
            load_cell(tmp_path, name)
        message = str(excinfo.value)
        assert RERECORD_HINT in message
        assert "corpus hash drift" in message

    def test_missing_cell_file_names_rerecord_command(self, tmp_path):
        with pytest.raises(GoldenMismatchError) as excinfo:
            load_cell(tmp_path, "zoom__wifi_p2p")
        assert RERECORD_HINT in str(excinfo.value)

    def test_manifest_digest_mismatch_is_reported_as_drift(self, corpus_dir, tmp_path):
        name = "zoom__wifi_p2p"
        shutil.copy(corpus_dir / f"{name}.json", tmp_path / f"{name}.json")
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["cells"] = {name: "0" * 32}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        report = check_corpus(tmp_path)
        assert not report.ok
        assert report.cells_checked == 0
        assert report.drifts[0].kind == "manifest-digest"
        assert RERECORD_HINT in report.drifts[0].detail


class TestDpiStatsInvariants:
    def test_counters_consistent_across_all_cells(self, corpus_dir):
        """The production engine never loses or double-counts a datagram.

        One shared production engine (the ``run_matrix`` shape) replays
        all 18 cells; each cell's stats count exactly its own analyses.
        """
        manifest = load_manifest(corpus_dir)
        config = CorpusConfig.from_dict(manifest["config"])
        cells = corpus_cells(manifest)
        assert len(cells) == 18
        engine = DpiEngine(max_offset=config.max_offset, backend="columnar")
        for app, network in cells:
            dpi = engine.analyze_records(cell_records(app, network, config))
            assert dpi.stats.datagrams == len(dpi.analyses), (app, network)


class TestConformanceCli:
    NETWORK = NetworkCondition.WIFI_P2P.value

    def _record(self, tmp_path):
        return cli_main([
            "conformance", "record", "--dir", str(tmp_path),
            "--duration", "4", "--scale", "0.2",
            "--apps", "zoom", "--networks", self.NETWORK,
        ])

    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / f"zoom__{self.NETWORK}.json").exists()
        assert cli_main(["conformance", "check", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK: all engine configurations match the golden corpus" in out

    def test_check_fails_and_writes_report_on_tampered_cell(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        cell_path = tmp_path / f"zoom__{self.NETWORK}.json"
        payload = json.loads(cell_path.read_text())
        payload["facts"]["volume"][0] += 1
        cell_path.write_text(json.dumps(payload))
        report_path = tmp_path / "drift.txt"
        code = cli_main([
            "conformance", "check", "--dir", str(tmp_path),
            "--report-out", str(report_path),
        ])
        capsys.readouterr()
        assert code == 1
        assert "DRIFT" in report_path.read_text()

    def test_fuzz_smoke_without_corpus(self, capsys):
        code = cli_main([
            "conformance", "fuzz", "--iterations", "60", "--seed", "9",
            "--no-corpus",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: every mutation was attributed" in out
