"""Command-line interface: exit codes, output files, metadata."""

import json
import math

import pytest

import crchains.cli as cli
from crchains import __version__
from crchains.cli import main


class TestCartanCommand:
    def test_quarter_pi(self, capsys):
        code = main(["cartan", "inf", "0", "0", "0", "1", "0", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{math.pi / 4:.6f}"[:8] in out

    def test_degenerate_note(self, capsys):
        code = main(
            ["cartan", "0", "0", "0", "0", "0", "0", "1", "0", "0"]
        )
        assert code == 0
        assert "degenerate" in capsys.readouterr().out

    def test_usage_error(self, capsys):
        code = main(["cartan", "inf", "0", "0"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_trailing_arguments(self, capsys):
        code = main(
            ["cartan", "inf", "0", "0", "0", "1", "0", "1", "9"]
        )
        assert code == 2


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "phase_lo": math.pi,
                    "phase_hi": 4.0,
                    "n_phases": 4,
                    "word_length": 6,
                }
            )
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        data = json.loads((out / "sweep.json").read_text())
        assert len(data["rows"]) == 4
        meta = data["metadata"]
        assert meta["version"] == __version__
        assert "seed" not in meta
        assert set(meta["tolerances"]) == {
            "null", "lox", "trace", "eigvec", "lift", "arc", "endpoint"
        }
        assert len(meta["config_hash"]) == 64

    def test_empty_phase_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase_lo": 4.0, "phase_hi": 3.5}))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_resume_skips_done(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "phase_lo": math.pi,
                    "phase_hi": 4.0,
                    "n_phases": 3,
                    "word_length": 6,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--resume"]
        )
        assert code == 0
        assert "resume: 3 phases already complete" in capsys.readouterr().out
        assert len(json.loads((out / "sweep.json").read_text())["rows"]) == 3
        assert len((out / "sweep.csv").read_text().splitlines()) == 4

    def test_resume_computes_missing_rows(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"phase_lo": math.pi, "phase_hi": 4.0, "n_phases": 3, "word_length": 6}
            )
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        full = json.loads((out / "sweep.json").read_text())
        full_csv = (out / "sweep.csv").read_text()
        # an interrupted run: the phase with index 1 never finished
        partial = dict(full, rows=[row for row in full["rows"] if row["index"] != 1])
        (out / "sweep.json").write_text(json.dumps(partial))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert "resume: 2 phases already complete" in capsys.readouterr().out
        resumed = json.loads((out / "sweep.json").read_text())
        assert resumed["rows"] == full["rows"]
        assert (out / "sweep.csv").read_text() == full_csv

    def test_resume_refuses_other_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_phases": 2, "word_length": 4}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        before = (out / "sweep.json").read_text()
        cfg.write_text(json.dumps({"n_phases": 3, "word_length": 4}))
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err
        assert (out / "sweep.json").read_text() == before

    def test_jobs_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--jobs", "2", "--out", str(tmp_path)])


class TestCrownCommand:
    def test_embedded_crown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"word_length": 2}))
        out = tmp_path / "out"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "crown_report.json").read_text())
        assert report["status"] == "EMBEDDED"
        assert report["min_margin"] > 0
        bundle = json.loads((out / "crown.json").read_text())
        assert bundle["report"]["status"] == "EMBEDDED"
        assert "EMBEDDED" in capsys.readouterr().out

    def test_non_loxodromic_core(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_word": "1", "word_length": 2}))
        code = main(["crown", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "precondition failure" in capsys.readouterr().err

    def test_crossing_exit_code(self, tmp_path, capsys, monkeypatch):
        from crchains.crowns import EmbeddednessReport

        monkeypatch.setattr(
            cli,
            "embeddedness",
            lambda crown: EmbeddednessReport(
                "CROSSING", None, ("", "121"), None, 2
            ),
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"word_length": 0}))
        out = tmp_path / "out"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "certification failure" in capsys.readouterr().err
        # the report file is still written, the bundle is not
        assert (out / "crown_report.json").exists()
        assert not (out / "crown.json").exists()


class TestFoliationCommand:
    def test_rcircle_leaf(self, capsys):
        code = main(["foliation", "rcircle", "0", "1", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "endpoints" in out and "residual" in out

    def test_writes_leaf_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["foliation", "rcircle", "0", "1", "0", "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "leaf.json").read_text())
        assert len(data["polyline"]) > 0
        assert data["residual"] < 1e-8
        assert "config_hash" in data["metadata"]

    def test_bent_leaf(self, capsys):
        code = main(
            ["foliation", "bent", "0.5", "0.5", "0.2", "--theta", "2.35"]
        )
        assert code == 0

    def test_point_on_real_axis_rejected(self, capsys):
        # the point is on the shared singular locus: no unique leaf
        code = main(["foliation", "rcircle", "1", "0", "0"])
        assert code == 3
        assert "precondition failure" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        code = main(["foliation", "rcircle", "1", "0"])
        assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
