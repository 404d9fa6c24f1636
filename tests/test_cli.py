"""Command-line interface: exit codes, output files, metadata."""

import inspect
import json
import math

import pytest

import crchains.cli as cli
from crchains import __version__
from crchains.boundary import BoundaryPoint
from crchains.circles import bent_leaf
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

    @pytest.mark.parametrize("point", [["1e200", "0", "0"], ["nan", "0", "0"], ["0", "0", "inf"]])
    def test_point_without_finite_lift(self, capsys, point):
        code = main(["cartan", *point, "0", "0", "0", "1", "0", "1"])
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
        assert list(data) == [
            "word_length", "dedup_eps", "runtime_seconds", "rows", "metadata",
        ]
        assert len(data["rows"]) == 4
        assert [list(row) for row in data["rows"]] == 4 * [
            [
                "phase", "tau", "n_points", "sup_estimate", "argmax", "error",
                "n_words", "n_skipped", "n_rejected", "n_duplicates", "n_scanned",
                "index",
            ]
        ]
        meta = data["metadata"]
        assert meta["version"] == __version__
        assert "seed" not in meta
        assert set(meta["tolerances"]) == {
            "null", "lox", "lift", "arc", "endpoint",
            "proportional", "dedup", "limit",
        }
        assert len(meta["config_hash"]) == 64
        assert list(meta["environment"]) == ["python", "numpy", "scipy", "cpu_count"]

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

    def test_failed_rows_are_strict_json(self, tmp_path, capsys):
        """A failed phase writes null, not NaN, for its tau and supremum, so
        an RFC 8259 parser reads sweep.json; --resume recomputes that row."""

        def strict(text):
            def refuse(name):
                raise ValueError(f"{name} is not JSON")

            return json.loads(text, parse_constant=refuse)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"phase_lo": 3.14159, "phase_hi": 6.0, "n_phases": 3, "word_length": 3})
        )
        out = tmp_path / "out"
        for argv in ([], ["--resume"]):
            assert main(["sweep", "--config", str(cfg), "--out", str(out), *argv]) == 0
            rows = strict((out / "sweep.json").read_text())["rows"]
            failed = [row for row in rows if row["error"] is not None]
            assert [row["index"] for row in failed] == [2]  # the phase 6.0
            assert failed[0]["tau"] == [None, None] and failed[0]["sup_estimate"] is None
            assert all(math.isfinite(row["sup_estimate"]) for row in rows if row not in failed)
            assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert "resume: 2 phases already complete" in capsys.readouterr().out

    def test_word_length_below_one_is_a_config_error(self, tmp_path, capsys):
        # every phase would fail: refused before an output directory is made
        for n in (0, -1):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"word_length": n, "n_phases": 2}))
            out = tmp_path / f"o{n}"
            code = main(["sweep", "--config", str(cfg), "--out", str(out)])
            assert code == 2
            assert f"config error: word_length {n} is below 1" in capsys.readouterr().err
            assert not out.exists()

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

    def test_limit_radius_defaults_read_the_table(self, tmp_path, monkeypatch):
        from crchains.groups import _limit_sample, limit_set
        from crchains.slimness import SweepResult, sweep

        for f, name in ((_limit_sample, "eps"), (limit_set, "eps"), (sweep, "dedup_eps")):
            assert inspect.signature(f).parameters[name].default is cli.hermitian.TOL_LIMIT
        # the CLI's dedup_eps setting reads the table when it runs
        monkeypatch.setattr(cli.hermitian, "TOL_LIMIT", 2e-3)
        monkeypatch.setattr(cli, "sweep", lambda *a: SweepResult([], a[-2], a[-1]))
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "sweep.json").read_text())["dedup_eps"] == 2e-3


class TestCrownCommand:
    def test_embedded_crown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"word_length": 2}))
        out = tmp_path / "out"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "crown_report.json").read_text())
        assert list(report) == [
            "status", "min_margin", "witness", "arcs_tested", "pairs_screened",
            "pairs_exact", "metadata",
        ]
        assert report["status"] == "EMBEDDED"
        assert report["min_margin"] > 0
        env = report["metadata"]["environment"]
        assert list(env) == ["python", "numpy", "scipy", "cpu_count"]
        assert env["cpu_count"] >= 1
        bundle = json.loads((out / "crown.json").read_text())
        assert bundle["report"]["status"] == "EMBEDDED"
        assert "EMBEDDED" in capsys.readouterr().out

    @pytest.mark.parametrize("target", [3.2, 4.82842712474619])
    def test_target_tau(self, tmp_path, capsys, target):
        # 4.82842712474619 = 2 + 2 sqrt 2, the R-Fuchsian end of the family
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_tau": target, "word_length": 2}))
        code = main(["crown", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "EMBEDDED" in capsys.readouterr().out

    def test_target_tau_outside_family(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_tau": 4.9, "word_length": 2}))
        code = main(["crown", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "admissible interval (2, 4.82842712474619]" in capsys.readouterr().err

    def test_parabolic_end_is_a_precondition_failure(self, tmp_path, capsys):
        # at tau = 3 the core word is unipotent; rounding reads it as a
        # loxodromic with a degenerate axis, whose arc has no support; at
        # 3 + 1e-9 rounding swamps the distance from the end in the same way
        for k, target in enumerate((3.0, 3.0 + 1e-9)):
            cfg = tmp_path / f"cfg{k}.json"
            cfg.write_text(json.dumps({"target_tau": target, "word_length": 6}))
            out = tmp_path / f"o{k}"
            code = main(["crown", "--config", str(cfg), "--out", str(out)])
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("precondition failure:") and "Traceback" not in err
            assert not (out / "crown_report.json").exists()
            assert not (out / "crown.json").exists()

    def test_just_past_the_parabolic_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_tau": 3.0 + 1e-7, "word_length": 6}))
        out = tmp_path / "o"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith("EMBEDDED: 24 arcs")
        report = json.loads((out / "crown_report.json").read_text())
        assert report["status"] == "EMBEDDED" and report["arcs_tested"] == 24
        assert report["min_margin"] == pytest.approx(0.0466, abs=5e-5)
        assert (out / "crown.json").exists()

    def test_word_length_below_one_is_a_config_error(self, tmp_path, capsys):
        # a crown of no arcs certified nothing, with the margin inf
        for n in (0, -1):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"word_length": n}))
            out = tmp_path / f"o{n}"
            code = main(["crown", "--config", str(cfg), "--out", str(out)])
            assert code == 2
            assert f"config error: word_length {n} is below 1" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_phase_is_a_precondition_failure(self, tmp_path, capsys):
        # Python's json reads NaN; the Gram phase refuses it
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"phase": NaN, "word_length": 2}')
        out = tmp_path / "o"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failure: Gram phase nan is not finite")
        assert "Traceback" not in err
        assert not out.exists()

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
        cfg.write_text(json.dumps({"word_length": 1}))
        out = tmp_path / "out"
        code = main(["crown", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "certification failure" in capsys.readouterr().err
        # the report file is still written, the bundle is not
        assert (out / "crown_report.json").exists()
        assert not (out / "crown.json").exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("crown", {"p": "x"}),
        ("crown", {"word_length": "abc"}),
        ("crown", {"gamma_word": "3215"}),
        ("crown", {"gamma_word": "0"}),
        ("crown", {"target_tau": None}),
        ("crown", [1, 2]),
        ("sweep", {"p": "x"}),
        ("sweep", {"word_length": "abc"}),
        ("sweep", {"n_phases": None}),
        ("crown", {"word_length": 2.9}),  # int() would truncate it to 2
        ("sweep", {"n_phases": True}),  # int() would read it as 1
        ("sweep", {"phase_lo": False}),  # float() would read it as 0.0
        ("sweep", {"phase_lo": math.nan}),  # every phase would be NaN
        ("sweep", {"phase_hi": math.inf}),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
        # the endpoints read back exactly, here on a bent leaf
        argv = ["foliation", "bent", "0.5", "0.5", "0.2", "--theta", "2.35"]
        assert main(argv + ["--out", str(out)]) == 0
        leaf = bent_leaf(BoundaryPoint(0.5 + 0.5j, 0.2), 2.35)
        ends = json.loads((out / "leaf.json").read_text())["endpoints"]
        assert [BoundaryPoint.from_json(e) for e in ends] == [leaf.start, leaf.end]

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

    def test_point_without_finite_lift(self, capsys):
        code = main(["foliation", "rcircle", "1e200", "1", "0"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_sweep_and_crown_load_no_scipy_submodule(tmp_path):
    """The sweep and crown paths, and random_form_preserving, run on numpy
    alone; scipy's solvers load on the first call that needs one."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import crchains

    # the child imports the same crchains as this process
    path = [str(Path(crchains.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = f"""
import contextlib, io, json, sys
import numpy
import crchains
from crchains import cli
from crchains.boundary import BoundaryPoint
from crchains.hermitian import random_form_preserving
out = {str(tmp_path)!r}
with open(out + "/sweep_cfg.json", "w") as fh:
    json.dump({{"n_phases": 2, "word_length": 4}}, fh)
with open(out + "/crown_cfg.json", "w") as fh:
    json.dump({{"word_length": 2}}, fh)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sweep", "--config", out + "/sweep_cfg.json", "--out", out + "/s"]) == 0
    assert cli.main(["crown", "--config", out + "/crown_cfg.json", "--out", out + "/c"]) == 0
random_form_preserving(numpy.random.default_rng(0))
subs = ("spatial", "optimize", "linalg", "sparse")
loaded = [m for m in sys.modules if m.split(".")[:2] in [["scipy", s] for s in subs]]
assert not loaded, loaded
leaf = crchains.bent_leaf(BoundaryPoint(0.5 + 0.5j, 0.3), 3.0)
assert leaf.contains(BoundaryPoint(0.5 + 0.5j, 0.3), tol=1e-6)
assert "scipy.optimize" in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
