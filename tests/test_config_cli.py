"""Configuration parsing, serialization round trips, and the CLI surface."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaah.bath import ResiduePrescription, SigmaMode
from gaah import cli, config, figures, oracle, spectrum
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
from gaah.model import diagonalize
from gaah.output import fmt, sha256_of, write_summary_csv, write_trajectory_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        with pytest.raises(ConfigError, match="poles.report_all: expected true or false"):
            parse_config_text("poles.report_all = maybe\n")
        with pytest.raises(ConfigError, match="poles.re_min: expected a number or 'none'"):
            parse_config_text("poles.re_min = low\n")

    def test_constraint_errors_name_the_key(self):
        # The text parser checks types; the range rules are the types' own,
        # checked as parse_config builds them.
        assert parse_config_text("model.a = 1.2\n")["model.a"] == 1.2
        with pytest.raises(ConfigError, match=r"^model.a: must satisfy \|a\| < 1; got 1.2$"):
            parse_config("model.a = 1.2\n")
        with pytest.raises(ConfigError, match=r"^grid.dt: must be > 0; got -0.01$"):
            parse_config("grid.dt = -0.01\n")

    def test_choice_errors_list_alternatives(self):
        with pytest.raises(
                ConfigError,
                match="poles.sigma_mode: must be one of auto, real-axis, continued"):
            parse_config_text("poles.sigma_mode = imaginary\n")

    def test_special_values(self):
        values = parse_config_text(
            "poles.re_min = none\n"
            "poles.re_max = inf\n"
            "sweep.values = 1, 2.5, 6\n")
        assert values["poles.re_min"] is None
        assert values["poles.re_max"] == math.inf
        assert values["sweep.values"] == (1.0, 2.5, 6.0)

    @pytest.mark.parametrize("line", [
        "grid.t_max = inf", "grid.dt = inf", "bath.eta = inf", "bath.omega_c = inf",
        "model.beta = nan", "model.lam = -inf", "oracle.threshold = inf",
        "sweep.values = 1, nan",
    ])
    def test_non_finite_numbers_are_rejected(self, line):
        key = line.partition(" = ")[0]
        with pytest.raises(ConfigError, match=rf"{re.escape(key)}: must be finite"):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize("key", [
        "solver.kernel_rule", "solver.markovian", "solver.memory_window",
        "solver.kernel_omega_max", "oracle.consistent_truncation", "oracle.method",
        "poles.re_points", "poles.im_points",
    ])
    def test_removed_keys_are_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
            parse_config_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
            apply_overrides(default_values(), [f"{key}=1"])

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
        values["poles.re_min"] = 12.5
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
            "grid.t_max": t_max, "poles.re_min": window,
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

    def test_pole_window_view(self):
        auto = parse_config("")
        assert auto.pole_region == spectrum.default_search_region(auto.model, dec=auto.dec)
        set_ = parse_config("poles.re_min = 2.8\npoles.re_max = 3\npoles.im_min = -0.1\n")
        assert set_.pole_region == spectrum.PoleSearchRegion(2.8, 3.0, -0.1, 0.0)

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


    def test_subcommand_help_survives_optimized_bytecode(self):
        # python -OO strips docstrings, so no help text may come from one.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-OO", "-m", "gaah.cli", "--help"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        listed = dict(re.findall(r"^    ([a-z]+) +(\S.*)$", done.stdout, re.M))
        assert listed == {name: blurb for name, (_, blurb) in cli._HANDLERS.items()}


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
                          variance=cols[3], collective=cols[4] * (1.0 - 1e-3j))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, str(path), {"model.N": 7, "grid.dt": 0.01, "note": True})
        expected = ["# model.N = 7", "# grid.dt = 0.01", "# note = true",
                    "t,SP,IPR,norm,variance,Re S,Im S"]
        for i, t in enumerate(grid.times()):
            s = traj.collective[i]
            expected.append(",".join(fmt(v) for v in (
                t, cols[0, i], cols[1, i], cols[2, i], cols[3, i], s.real, s.imag)))
        assert path.read_text() == "\n".join(expected) + "\n"


#: Each run of ``test_every_header_is_the_config_of_its_run``: its output
#: directory, command and settings beyond model.N=9.
_HEADED_RUNS = {
    "evolve": ("evolve", ["grid.t_max=5", "init.state=site:3"]),
    "sweep": ("sweep", ["sweep.values=1,6", "grid.t_max=5", "init.state=uniform"]),
    "fig3": ("figdata", ["fig.bundle=fig3"]),
    "figA2": ("figdata", ["fig.bundle=figA2"]),
    "figA1": ("figdata", ["fig.bundle=figA1", "poles.prescription=full"]),
    "poles": ("poles", ["poles.report_all=true"]),
    "spectrum": ("spectrum", ["model.a=0.5"]),
}
#: The keys a file name sets, and the time step each trajectory bundle sets.
_NAME_KEYS = {"a": "model.a", "Delta": "model.Delta", "eta": "bath.eta"}
_BUNDLE_DT = {"fig3": 0.005, "figA2": 0.02}


class TestHeaders:
    """Every CSV is headed by the complete config of the run that wrote it,
    and nothing else."""

    def test_every_header_is_the_config_of_its_run(self, tmp_path, capsys):
        trajectories = []
        for out, (command, sets) in _HEADED_RUNS.items():
            sets = ["model.N=9", *sets]
            argv = [arg for item in sets for arg in ("--set", item)]
            assert main([command, "--out", str(tmp_path / out), *argv]) == 0
            values = parse_config("", overrides=sets).values
            for path in sorted((tmp_path / out).glob("*.csv")):
                lines = path.read_text().splitlines()
                header = [line[2:] for line in lines if line.startswith("# ")]
                assert [line.partition(" = ")[0] for line in header] == list(REGISTRY)
                # A run of a sweep or a bundle sets the keys its file names.
                point = {_NAME_KEYS[key]: float(value) for key, value in
                         re.findall(r"_(a|Delta|eta)(-?[0-9.]+?)(?=_|\.csv)", path.name)}
                if out in _BUNDLE_DT and "summary" not in path.name:
                    point["grid.dt"] = _BUNDLE_DT[out]
                assert parse_config_text("\n".join(header)) == {**values, **point}, path.name
                if lines[len(header)] == "t,SP,IPR,norm,variance,Re S,Im S":
                    trajectories.append((path, "\n".join(header) + "\n"))
        assert len(trajectories) == 1 + 2 + 6 + 3
        # The header alone reproduces the file.
        for i, (path, header) in enumerate(trajectories):
            conf = tmp_path / f"{i}.conf"
            conf.write_text(header)
            assert main(["evolve", "--config", str(conf),
                         "--out", str(tmp_path / f"again{i}")]) == 0
            again = tmp_path / f"again{i}" / "trajectory.csv"
            assert again.read_bytes() == path.read_bytes(), path.name
        capsys.readouterr()


class TestSummaryCsv:
    def test_columns_follow_the_first_row(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv([{"panel": "a", "Delta": 1.0, "n": 3, "ok": True},
                           {"panel": "b", "Delta": 0.1, "n": 4, "ok": False}],
                          str(path))
        assert path.read_text() == "panel,Delta,n,ok\na,1.0,3,true\nb,0.1,4,false\n"


class TestCliEvolve:
    def test_writes_trajectory_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--out", str(out)] + FAST_EVOLVE) == 0
        assert "SP:" in capsys.readouterr().out

        header, cols, rows = _read_csv(out / "trajectory.csv")
        assert cols == ["t", "SP", "IPR", "norm", "variance", "Re S", "Im S"]
        assert len(rows) == 101  # t = 0 .. 2 at dt = 0.02
        assert list(header) == list(REGISTRY)
        assert header["model.N"] == "7"

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


def _config_error_manifest(out_dir) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["files"] == []
    [task] = manifest["tasks"]
    assert task["status"] == "config-error"
    return manifest


class TestCliErrors:
    def test_unknown_override_is_config_error(self, tmp_path, capsys):
        assert main(["evolve", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err
        manifest = _config_error_manifest(tmp_path)
        assert manifest["command"] == "evolve"
        assert manifest["config"] == ""
        assert "bogus" in manifest["tasks"][0]["detail"]

    @pytest.mark.parametrize("key, sets", [
        ("model.N", ["model.N=1"]),
        ("model.a", ["model.a=1.2"]),
        ("bath.eta", ["bath.eta=-1"]),
        ("bath.omega_c", ["bath.omega_c=0"]),
        ("bath.s", ["bath.s=0"]),
        ("grid.dt", ["grid.dt=0"]),
        ("grid.t_max", ["grid.t_max=-1"]),
        ("poles.im_min", ["poles.im_min=0"]),
        ("poles.im_max", ["poles.im_max=0.1"]),
        ("poles.im_min", ["poles.im_min=-0.1", "poles.im_max=-0.2"]),
        ("poles.re_min", ["poles.re_min=3", "poles.re_max=2"]),
        ("poles.re_min", ["poles.re_min=nan", "poles.re_max=1"]),
        # A horizon the grid would round to another.
        ("grid.t_max", ["grid.dt=0.3", "grid.t_max=1"]),
        ("grid.t_max", ["grid.t_max=1e-9"]),
        ("oracle.t_max", ["oracle.t_max=0.005"]),
    ])
    def test_every_range_rule_is_checked_at_parse(self, tmp_path, capsys, key, sets):
        # The rules the library types state, checked as the config is
        # parsed, even by a command that does not use the value.
        argv = [arg for item in sets for arg in ("--set", item)]
        assert main(["evolve", "--out", str(tmp_path), *argv]) == 2
        err = capsys.readouterr().err
        detail = _config_error_manifest(tmp_path)["tasks"][0]["detail"]
        assert detail.startswith(f"{key}: ") and f"config error: {detail}\n" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("dt, t_max", [(0.01, 1200.0), (0.002, 50.0), (0.005, 200.0),
                                           (0.02, 400.0), (0.3, 0.9), (0.1, 0.3)])
    def test_horizons_on_the_grid_pass(self, dt, t_max):
        # t_max / dt is 2.9999999999999996 at (0.1, 0.3): whole to within
        # rounding.
        cfg = parse_config("", overrides=[f"grid.dt={dt}", f"grid.t_max={t_max}",
                                          f"oracle.t_max={t_max}"])
        assert cfg.grid.t_max == pytest.approx(t_max, rel=1e-12)

    def test_parse_time_range_error_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "new"  # made by the failing run itself
        assert main(["evolve", "--out", str(out), "--set", "model.N=1"]) == 2
        err = capsys.readouterr().err
        manifest = _config_error_manifest(out)
        assert manifest["tasks"][0]["detail"] in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "nope.conf")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_config_file_in_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAAH_OUT", str(tmp_path / "env"))
        assert main(["evolve", "--config", str(tmp_path / "nope.conf")]) == 2
        capsys.readouterr()
        manifest = _config_error_manifest(tmp_path / "env")
        assert "cannot read config" in manifest["tasks"][0]["detail"]

    def test_config_error_records_the_text_as_read(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("model.N = 7\noutput.dir = elsewhere\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(conf), "--out", str(out),
                     "--set", "grid.dt=-1"]) == 2
        capsys.readouterr()
        assert _config_error_manifest(out)["config"] == conf.read_text()

    def test_config_error_without_a_named_directory_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # The directory would come from output.dir, in the config that failed.
        monkeypatch.delenv("GAAH_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--set", "bogus=1"]) == 2
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_line(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("model.a = 3\n")
        assert main(["evolve", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "model.a" in err

    def test_non_numeric_sweep_parameter(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path),
                     "--set", "sweep.parameter=init.state"]) == 2
        err = capsys.readouterr().err
        assert "sweep.parameter: must be one of model.N, " in err and "got 'init.state'" in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    @pytest.mark.parametrize("key", ["oracle.modes", "poles.im_min", "oracle.t_max"])
    def test_sweep_parameter_no_trajectory_reads(self, tmp_path, capsys, key):
        # Swept, such a key wrote identical trajectories under distinct names.
        rc = main(["sweep", "--out", str(tmp_path), "--set", "model.N=7",
                   "--set", f"sweep.parameter={key}", "--set", "sweep.values=1,2",
                   "--set", "grid.dt=0.02", "--set", "grid.t_max=2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep.parameter: must be one of model.N, " in err and f"got {key!r}" in err
        assert not list(tmp_path.glob("sweep_*.csv"))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    def test_unexpected_exception_writes_manifest_and_propagates(
            self, tmp_path, monkeypatch):
        def broken(cfg, out_dir, manifest):
            raise RuntimeError("disk vanished")

        monkeypatch.setitem(cli._HANDLERS, "spectrum", (broken, "fails"))
        with pytest.raises(RuntimeError, match="disk vanished"):
            main(["spectrum", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["tasks"][0]["detail"] == "RuntimeError: disk vanished"

    def test_empty_pole_window_is_numeric_failure(self, tmp_path, capsys):
        rc = main(["poles", "--out", str(tmp_path),
                   "--set", "poles.re_min=50", "--set", "poles.re_max=60"])
        assert rc == 3
        assert "no poles" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "numeric-failure"

    def test_continued_mode_off_ohmic_is_a_config_error(self, tmp_path, capsys):
        # Not "no poles converged": the mode is refused before any seed.
        rc = main(["poles", "--out", str(tmp_path),
                   "--set", "poles.sigma_mode=continued", "--set", "bath.s=0.5"])
        assert rc == 2
        assert "continued self-energy requires s = 1" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert manifest["tasks"][0]["status"] == "config-error"

    @pytest.mark.parametrize("re_min, re_max", [("-6", "-1"), ("-10", "4")])
    def test_window_the_mode_cannot_evaluate_is_a_config_error(self, tmp_path, capsys,
                                                               re_min, re_max):
        # Not "no poles converged", nor the poles at Re E > 0 alone: the
        # continued Sigma is refused on the window's edge, before any seed.
        rc = main(["poles", "--out", str(tmp_path),
                   "--set", f"poles.re_min={re_min}", "--set", f"poles.re_max={re_max}"])
        assert rc == 2
        message = f"continued self-energy needs Re(E) > 0, got Re(E) = {float(re_min)}"
        assert message in capsys.readouterr().err
        assert message in _config_error_manifest(tmp_path)["tasks"][0]["detail"]
        assert not (tmp_path / "poles.csv").exists()


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

    def test_non_ohmic_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact side ran at s != 1")

        monkeypatch.setattr(oracle, "arrowhead_eig", refuse)
        rc = main(["oracle", "--out", str(tmp_path), "--set", "bath.s=2"])
        assert rc == 2
        assert "closed-form for s = 1 only" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"


    def test_secular_failure_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # One model step per root leaves the secular solve unconverged.
        monkeypatch.setattr(oracle, "_SECULAR_MAX_ITER", 1)
        rc = main(["oracle", "--out", str(tmp_path),
                   "--set", "model.N=7", "--set", "oracle.t_max=5",
                   "--set", "oracle.modes=200"])
        assert rc == 3
        assert "secular equation" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "numeric-failure"
        assert manifest["tasks"][0]["status"] == "numeric-failure"
        assert "did not converge" in manifest["tasks"][0]["detail"]


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

    @pytest.mark.parametrize("window", [[], ["--set", "poles.re_min=2.8",
                                             "--set", "poles.re_max=3.0"]])
    def test_poles_diagonalizes_once(self, tmp_path, capsys, monkeypatch, window):
        # The default window and the search share one eigendecomposition.
        calls = []

        def counted(H):
            calls.append(H.shape)
            return diagonalize(H)

        for module in (cli, config, spectrum):
            monkeypatch.setattr(module, "diagonalize", counted)
        assert main(["poles", "--out", str(tmp_path), *window]) == 0
        assert calls == [(21, 21)]
        capsys.readouterr()

    @pytest.mark.parametrize("sets", [
        [],
        ["poles.re_min=2.8", "poles.re_max=3.0", "sweep.values=0.5,2,7.25"],
    ])
    def test_config_headers_parse_back(self, tmp_path, capsys, sets):
        # The header lines of a file written from the config are config lines.
        argv = [arg for item in sets for arg in ("--set", item)]
        expected = parse_config("", overrides=sets).values
        for command in ("poles", "spectrum"):
            assert main([command, "--out", str(tmp_path), *argv]) == 0
            lines = (tmp_path / f"{command}.csv").read_text().splitlines()
            header = "\n".join(line[2:] for line in lines if line.startswith("# "))
            assert parse_config_text(header) == expected
        capsys.readouterr()

    def test_poles_non_ohmic_default_window(self, tmp_path, capsys):
        # Non-integer s takes the real-axis self-energy down to the window's
        # clipped edge at Re E = 1e-6.
        rc = main(["poles", "--out", str(tmp_path), "--set", "bath.s=0.5"])
        assert rc == 0
        assert capsys.readouterr().out.count("E = ") == 2

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

    def test_sweep_rejects_values_that_share_a_file(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--set", "sweep.values=1,1.0000001", "--set", "model.N=7",
                   "--set", "grid.dt=0.02", "--set", "grid.t_max=2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep.values" in err and "sweep_Delta1.csv" in err
        assert not list(tmp_path.glob("sweep_*.csv"))   # rejected before any run
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    @pytest.mark.parametrize("key, values, bad", [
        ("model.N", "7,7.5", "7.5"),       # not an integer: N=7 ran as "7.5"
        ("bath.eta", "0.1,-1", "-1.0"),    # breaks the key's own constraint
    ])
    def test_sweep_rejects_a_bad_value_before_any_run(self, tmp_path, capsys,
                                                      key, values, bad):
        rc = main(["sweep", "--out", str(tmp_path), "--set", "model.N=7",
                   "--set", f"sweep.parameter={key}", "--set", f"sweep.values={values}",
                   "--set", "grid.dt=0.02", "--set", "grid.t_max=2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"sweep.values: {bad}: {key}" in err
        assert not list(tmp_path.glob("sweep_*.csv"))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    def test_sweep_with_an_unstable_point_is_a_numeric_failure(self, tmp_path, capsys):
        # The worker's UnstableEvolutionError reaches the parent as itself,
        # not as a BrokenProcessPool: exit 3, as gaah evolve gives.
        rc = main(["sweep", "--out", str(tmp_path), "--set", "model.N=7",
                   "--set", "sweep.parameter=bath.eta", "--set", "sweep.values=50,0.1,0.2",
                   "--set", "grid.dt=0.5", "--set", "grid.t_max=20"])
        assert rc == 3
        assert "numeric failure: norm^2 = " in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "numeric-failure"
        assert manifest["tasks"][0]["status"] == "numeric-failure"

    def test_sweep_over_the_horizon_reports_each_point_s_own(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--set", "model.N=7",
                   "--set", "grid.dt=0.02", "--set", "sweep.parameter=grid.t_max",
                   "--set", "sweep.values=2,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid.t_max = 1: SP(1) = " in out and "grid.t_max = 2: SP(2) = " in out
        _, cols, rows = _read_csv(tmp_path / "sweep_summary.csv")
        assert cols == ["t_max", "t_end", "SP_end", "IPR_end", "norm_end"]
        assert [(r[0], r[1]) for r in rows] == [("1.0", "1.0"), ("2.0", "2.0")]
        for name, row in (("sweep_t_max1.csv", rows[0]), ("sweep_t_max2.csv", rows[1])):
            _, _, data = _read_csv(tmp_path / name)
            assert data[-1][0] == row[1] and data[-1][1:4] == row[2:5]

    def test_sweep_header_records_the_initial_state(self, tmp_path, capsys):
        # A sweep point's file is the evolve file of its configuration: the
        # sweep's, with the swept key set.
        base = ["--set", "model.N=7", "--set", "grid.dt=0.02",
                "--set", "grid.t_max=2", "--set", "init.state=uniform"]
        assert main(["sweep", "--out", str(tmp_path / "sweep"), *base,
                     "--set", "sweep.values=1.5"]) == 0
        assert main(["evolve", "--out", str(tmp_path / "evolve"), *base,
                     "--set", "sweep.values=1.5", "--set", "model.Delta=1.5"]) == 0
        capsys.readouterr()
        header, _, _ = _read_csv(tmp_path / "sweep" / "sweep_Delta1.5.csv")
        assert header["init.state"] == "uniform"
        assert header["sweep.parameter"] == "model.Delta"
        assert (tmp_path / "sweep" / "sweep_Delta1.5.csv").read_bytes() == \
            (tmp_path / "evolve" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("bundle", ["fig1", "fig2", "fig3", "figA2", "all"])
    def test_figdata_refuses_an_initial_state_it_would_ignore(
            self, tmp_path, capsys, monkeypatch, bundle):
        def refuse(*args):
            raise AssertionError("a bundle ran with init.state=site:1")

        monkeypatch.setattr(figures, "evolve", refuse)
        rc = main(["figdata", "--out", str(tmp_path), "--set", f"fig.bundle={bundle}",
                   "--set", "init.state=site:1"])
        assert rc == 2
        assert "init.state" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    @pytest.mark.parametrize("bundle", ["figA2", "figA1"])
    @pytest.mark.parametrize("setting", ["grid.dt=0.5", "grid.t_max=2"])
    def test_figdata_refuses_a_grid_it_would_ignore(
            self, tmp_path, capsys, monkeypatch, bundle, setting):
        def refuse(*args, **kwargs):
            raise AssertionError(f"a bundle ran with {setting}")

        monkeypatch.setattr(figures, "evolve", refuse)
        monkeypatch.setattr(figures, "scan_grid", refuse)
        rc = main(["figdata", "--out", str(tmp_path), "--set", f"fig.bundle={bundle}",
                   "--set", setting])
        assert rc == 2
        key = setting.partition("=")[0]
        assert f"config error: {key}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert key in manifest["tasks"][0]["detail"]

    def test_figA1_takes_any_initial_state(self, tmp_path, capsys):
        assert main(["figdata", "--out", str(tmp_path), "--set", "fig.bundle=figA1",
                     "--set", "init.state=site:1"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("figA1_*.csv"))) == 2

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        assert main(["evolve", "--out", str(tmp_path), "--set", "grid.t_max=inf"]) == 2
        assert "grid.t_max: must be finite" in capsys.readouterr().err

    def test_unrepresentable_step_count_is_a_config_error(self, tmp_path, capsys):
        # Both values are finite, but t_max / dt overflows.
        assert main(["evolve", "--out", str(tmp_path), "--set", "grid.t_max=1e300",
                     "--set", "grid.dt=1e-10"]) == 2
        assert "grid.t_max / grid.dt = inf steps" in capsys.readouterr().err

    def test_figdata_bundle(self, tmp_path, capsys):
        assert main(["figdata", "--out", str(tmp_path),
                     "--set", "fig.bundle=figA2"]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["figA2_Delta1.csv", "figA2_Delta2.5.csv",
                         "figA2_Delta6.csv", "manifest.json"]
        capsys.readouterr()
