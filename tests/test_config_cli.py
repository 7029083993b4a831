"""Configuration parsing, serialization round trips, and the CLI surface."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaah.bath import ResiduePrescription, SigmaMode
from gaah.cli import main
from gaah.config import (
    REGISTRY,
    apply_overrides,
    default_values,
    parse_config,
    parse_config_text,
    registry_help,
    serialize_values,
)
from gaah.errors import ConfigError
from gaah.dynamics import TimeGrid, Trajectory
from gaah.output import fmt, sha256_of, write_trajectory_csv


def _read_csv(path):
    """Split a self-describing CSV into (header params, columns, rows)."""
    header, cols, rows = {}, None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[2:].partition(" = ")
                header[key] = value
            elif cols is None:
                cols = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, cols, rows


FAST_EVOLVE = ["--set", "model.N=7", "--set", "grid.dt=0.02",
               "--set", "grid.t_max=2"]


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == default_values()

    def test_assignments_comments_blanks(self):
        text = "\n# leading comment\nmodel.Delta = 6.0  # trailing\n\nbath.eta=0.5\n"
        values = parse_config_text(text)
        assert values["model.Delta"] == 6.0
        assert values["bath.eta"] == 0.5
        assert values["model.N"] == 21  # untouched default

    def test_unknown_key_names_location(self):
        with pytest.raises(ConfigError, match=r"my\.conf:3: unknown config key 'bogus\.key'"):
            parse_config_text("\n\nbogus.key = 1\n", source="my.conf")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate config key 'bath.eta'"):
            parse_config_text("bath.eta = 0.1\nbath.eta = 0.2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="model.N: expected an integer"):
            parse_config_text("model.N = 21.0\n")
        with pytest.raises(ConfigError, match="bath.eta: expected a number"):
            parse_config_text("bath.eta = strong\n")
        with pytest.raises(ConfigError, match="solver.markovian: expected true or false"):
            parse_config_text("solver.markovian = maybe\n")

    def test_constraint_errors_name_the_key(self):
        with pytest.raises(ConfigError, match=r"model.a: must satisfy \|a\| < 1"):
            parse_config_text("model.a = 1.2\n")
        with pytest.raises(ConfigError, match="grid.dt: must be > 0"):
            parse_config_text("grid.dt = -0.01\n")

    def test_choice_errors_list_alternatives(self):
        with pytest.raises(ConfigError,
                           match="solver.kernel_rule: must be one of product, trapezoid"):
            parse_config_text("solver.kernel_rule = simpson\n")

    def test_special_values(self):
        values = parse_config_text(
            "solver.memory_window = none\n"
            "solver.kernel_omega_max = inf\n"
            "sweep.values = 1, 2.5, 6\n")
        assert values["solver.memory_window"] is None
        assert values["solver.kernel_omega_max"] == math.inf
        assert values["sweep.values"] == (1.0, 2.5, 6.0)

    def test_overrides(self):
        values = apply_overrides(default_values(), ["model.Delta=6", "bath.eta=0.5"])
        assert values["model.Delta"] == 6.0
        assert values["bath.eta"] == 0.5
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(default_values(), ["bogus=1"])
        with pytest.raises(ConfigError, match="expected key=value"):
            apply_overrides(default_values(), ["model.Delta"])


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        values = default_values()
        values["model.Delta"] = 6.0
        values["solver.memory_window"] = 12.5
        text = serialize_values(values)
        assert parse_config_text(text) == values

    def test_serialization_idempotent(self):
        text = serialize_values(default_values())
        again = serialize_values(parse_config_text(text))
        assert again == text

    def test_full_key_set_emitted(self):
        text = serialize_values(default_values())
        emitted = {line.split(" = ")[0] for line in text.splitlines() if line}
        assert emitted == set(REGISTRY)

    @given(
        delta=st.floats(-1e6, 1e6),
        lam=st.floats(-1e3, 1e3),
        beta=st.floats(0.0, 10.0),
        phi=st.floats(-10.0, 10.0),
        eta=st.floats(0.0, 1e3),
        dt=st.floats(1e-9, 1e3),
        t_max=st.floats(1e-6, 1e6),
        window=st.one_of(st.none(), st.floats(1e-9, 1e3)),
        n_sites=st.integers(2, 10 ** 6),
    )
    def test_random_values_survive_round_trip(self, delta, lam, beta, phi, eta,
                                              dt, t_max, window, n_sites):
        values = default_values()
        values.update({
            "model.Delta": delta, "model.lam": lam, "model.beta": beta,
            "model.phi": phi, "bath.eta": eta, "grid.dt": dt,
            "grid.t_max": t_max, "solver.memory_window": window,
            "model.N": n_sites,
        })
        assert parse_config_text(serialize_values(values)) == values


class TestRunConfig:
    def test_typed_views(self):
        cfg = parse_config("model.Delta = 6\nbath.eta = 0.5\n"
                           "grid.dt = 0.02\ngrid.t_max = 10\n")
        assert cfg.model.Delta == 6.0
        assert cfg.bath.eta == 0.5
        assert cfg.grid.steps == 500
        assert cfg.prescription is ResiduePrescription.HALF
        assert cfg.sigma_mode is SigmaMode.AUTO
        assert cfg.evolve_kwargs() == {
            "kernel_rule": "product", "markovian": False,
            "memory_window": None, "kernel_omega_max": math.inf,
        }

    def test_initial_state_variants(self, es_state):
        assert np.allclose(parse_config("").initial_state(), es_state, atol=0)
        uniform = parse_config("init.state = uniform\n").initial_state()
        assert np.allclose(uniform, 1.0 / math.sqrt(21), atol=1e-15)
        site = parse_config("init.state = site:5\nmodel.N = 9\n").initial_state()
        assert site[4] == 1.0 and np.count_nonzero(site) == 1

    def test_init_state_validation(self):
        with pytest.raises(ConfigError, match="site index 12 outside 1..9"):
            parse_config("init.state = site:12\nmodel.N = 9\n")
        with pytest.raises(ConfigError, match="site index must be an integer"):
            parse_config("init.state = site:abc\n")
        with pytest.raises(ConfigError, match="expected es, uniform"):
            parse_config("init.state = ground\n")

    def test_pole_window_cross_checks(self):
        with pytest.raises(ConfigError, match="set both or neither"):
            parse_config("poles.re_min = 2.0\n")
        with pytest.raises(ConfigError, match="must be below poles.re_max"):
            parse_config("poles.re_min = 3.0\nporaise.re_max = 2.0\n"
                         .replace("poraise", "poles"))
        with pytest.raises(ConfigError, match="must be below poles.im_max"):
            parse_config("poles.im_min = -0.1\npoles.im_max = -0.2\n")

    def test_overrides_through_parse_config(self):
        cfg = parse_config("model.Delta = 1\n", overrides=["model.Delta=6"])
        assert cfg.model.Delta == 6.0


class TestRegistryHelp:
    def test_mentions_every_key(self):
        text = registry_help()
        for key in REGISTRY:
            assert key in text

    def test_cli_help_lists_exactly_the_registry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"^  ([a-z]+\.[A-Za-z_]+) {2,}", out, re.M))
        assert listed == set(REGISTRY)


class TestFmt:
    def test_values(self):
        assert fmt(True) == "true"
        assert fmt(False) == "false"
        assert fmt(0.1) == "0.1"
        assert fmt(1.0 / 3.0) == repr(1.0 / 3.0)
        assert fmt(7) == "7"
        assert float(fmt(math.pi)) == math.pi  # round trip


class TestTrajectoryCsv:
    def test_rows_are_fmt_of_every_value(self, tmp_path):
        # More rows than one formatting chunk, with the special floats.
        grid = TimeGrid(dt=0.01, steps=5000)
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((5, grid.steps + 1))
        cols[0, :3] = [-0.0, math.nan, math.inf]
        traj = Trajectory(grid=grid, sp=cols[0], ipr=cols[1], norm=cols[2],
                          variance=cols[3], collective=cols[4] * (1.0 - 1e-3j),
                          params={"model.N": 7, "grid.dt": 0.01})
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, str(path), {"note": True})
        expected = ["# model.N = 7", "# grid.dt = 0.01", "# note = true",
                    "t,SP,IPR,norm,variance,Re S,Im S"]
        for i, t in enumerate(grid.times()):
            s = traj.collective[i]
            expected.append(",".join(fmt(v) for v in (
                t, cols[0, i], cols[1, i], cols[2, i], cols[3, i], s.real, s.imag)))
        assert path.read_text() == "\n".join(expected) + "\n"


class TestCliEvolve:
    def test_writes_trajectory_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--out", str(out)] + FAST_EVOLVE) == 0
        assert "SP:" in capsys.readouterr().out

        header, cols, rows = _read_csv(out / "trajectory.csv")
        assert cols == ["t", "SP", "IPR", "norm", "variance", "Re S", "Im S"]
        assert len(rows) == 101  # t = 0 .. 2 at dt = 0.02
        assert header["model.N"] == "7"
        assert header["solver.kernel_rule"] == "product"

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["status"] == "ok"
        assert manifest["tool_version"] == "0.1.0"
        (entry,) = manifest["files"]
        assert entry["path"] == "trajectory.csv"
        assert entry["sha256"] == sha256_of(str(out / "trajectory.csv"))
        # the embedded config snapshot is itself parseable and complete
        assert parse_config_text(manifest["config"])["model.N"] == 7

    def test_deterministic_output_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--out", str(out1)] + FAST_EVOLVE) == 0
        assert main(["evolve", "--out", str(out2)] + FAST_EVOLVE) == 0
        assert sha256_of(str(out1 / "trajectory.csv")) == \
            sha256_of(str(out2 / "trajectory.csv"))

    def test_decoupled_run_keeps_sp_at_one(self, tmp_path):
        out = tmp_path / "closed"
        assert main(["evolve", "--out", str(out), "--set", "bath.eta=0"]
                    + FAST_EVOLVE) == 0
        _, cols, rows = _read_csv(out / "trajectory.csv")
        sp = np.array([float(r[cols.index("SP")]) for r in rows])
        assert np.max(np.abs(sp - 1.0)) <= 1e-8

    def test_config_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("model.N = 7\ngrid.dt = 0.02\ngrid.t_max = 1\n"
                        "model.Delta = 6.0\n")
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("GAAH_OUT", str(env_dir))
        assert main(["evolve", "--config", str(conf)]) == 0
        capsys.readouterr()
        header, _, _ = _read_csv(env_dir / "trajectory.csv")
        assert header["model.Delta"] == "6.0"

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAAH_OUT", str(tmp_path / "env"))
        out = tmp_path / "flag"
        assert main(["evolve", "--out", str(out)] + FAST_EVOLVE) == 0
        assert (out / "trajectory.csv").exists()
        assert not (tmp_path / "env").exists()


class TestCliErrors:
    def test_unknown_override_is_config_error(self, tmp_path, capsys):
        assert main(["evolve", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "nope.conf")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("model.a = 3\n")
        assert main(["evolve", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "model.a" in err

    def test_non_numeric_sweep_parameter(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path),
                     "--set", "sweep.parameter=init.state"]) == 2
        assert "not numeric" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    def test_empty_pole_window_is_numeric_failure(self, tmp_path, capsys):
        rc = main(["poles", "--out", str(tmp_path),
                   "--set", "poles.re_min=50", "--set", "poles.re_max=60",
                   "--set", "poles.re_points=16", "--set", "poles.im_points=8"])
        assert rc == 3
        assert "no poles" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "numeric-failure"


class TestCliOracle:
    def test_pass(self, tmp_path, capsys):
        rc = main(["oracle", "--out", str(tmp_path),
                   "--set", "model.N=7", "--set", "grid.dt=0.002",
                   "--set", "oracle.t_max=20", "--set", "oracle.modes=1000"])
        assert rc == 0
        assert "max |dSP|" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tasks"][0]["status"] == "ok"

    def test_mismatch_exit_code(self, tmp_path, capsys):
        rc = main(["oracle", "--out", str(tmp_path),
                   "--set", "model.N=7", "--set", "grid.dt=0.01",
                   "--set", "oracle.t_max=10", "--set", "oracle.modes=200",
                   "--set", "oracle.omega_max=40",
                   "--set", "oracle.threshold=1e-5"])
        assert rc == 4
        assert "validation failure" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "validation-failure"


class TestCliSpectrumPolesSweepFig:
    def test_spectrum(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path)]) == 0
        assert "top energy: 2.9655906334675954" in capsys.readouterr().out
        _, cols, rows = _read_csv(tmp_path / "spectrum.csv")
        assert cols == ["index", "energy", "IPR", "collective_weight"]
        assert len(rows) == 21
        weights = [float(r[3]) for r in rows]
        assert sum(weights) == pytest.approx(21.0, rel=1e-9)

    def test_poles_reports_reference_doublet(self, tmp_path, capsys):
        assert main(["poles", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("E = ") == 2
        header, cols, rows = _read_csv(tmp_path / "poles.csv")
        assert cols == ["Re E", "Im E", "residual", "overlap", "iterations"]
        assert header["poles.prescription"] == "half"
        assert float(rows[0][0]) == pytest.approx(2.952238, abs=1e-6)
        assert float(rows[0][1]) == pytest.approx(-5.062298e-6, rel=1e-3)
        assert float(rows[0][3]) == pytest.approx(0.498776, abs=1e-4)
        assert float(rows[1][0]) == pytest.approx(2.882305, abs=1e-6)

    def test_sweep_names_files_by_value(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--set", "sweep.values=1,2.5", "--set", "model.N=7",
                   "--set", "grid.dt=0.02", "--set", "grid.t_max=2"])
        assert rc == 0
        assert (tmp_path / "sweep_Delta1.csv").exists()
        assert (tmp_path / "sweep_Delta2.5.csv").exists()
        _, cols, rows = _read_csv(tmp_path / "sweep_summary.csv")
        assert cols == ["Delta", "t_end", "SP_end", "IPR_end", "norm_end"]
        assert [r[0] for r in rows] == ["1.0", "2.5"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["files"]) == 3
        assert capsys.readouterr().out.count("SP(2)") == 2

    def test_figdata_bundle(self, tmp_path, capsys):
        assert main(["figdata", "--out", str(tmp_path),
                     "--set", "fig.bundle=figA2"]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["figA2_Delta1.csv", "figA2_Delta2.5.csv",
                         "figA2_Delta6.csv", "manifest.json"]
        capsys.readouterr()
