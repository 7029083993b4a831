"""Figure-data bundles: which runs each bundle makes, and what it writes.

``evolve`` is replaced by a cheap fake that records its arguments, so the
bundle table (points, grids, file names, header lines, summary columns) is
pinned without running the integrator.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gaah import figures
from gaah.bath import BathParams
from gaah.config import parse_config
from gaah.dynamics import TimeGrid, Trajectory, _run_metadata
from gaah.errors import ParameterError
from gaah.model import ModelParams
from gaah.spectrum import DeterminantGrid

SCALED, FULL = (0.02, 10000), (0.01, 120000)

#: bundle -> (runs, scaled (dt, steps), summary columns or None), a run being
#: (file name, extra header lines, a, Delta, eta or None for bath.eta).
_FIG1 = [(f"fig1_{p}_Delta{d}.csv", [f"# fig.panel = {p}"], 0.0, float(d), None)
         for p, ds in (("a", ("1", "2", "2.5")), ("b", ("3", "4", "6", "10")))
         for d in ds]
_FIG2 = [(f"fig2_{p}_Delta{d}.csv", [f"# fig.panel = {p}"], 0.5, float(d), None)
         for p, ds in (("a", ("0.5", "0.76", "1.5", "2")), ("b", ("3", "6", "10")))
         for d in ds]
_FIG3 = [(f"fig3_{case}_a{a}_Delta{d}_eta{eta}.csv", [f"# fig.case = {case}"],
          float(a), float(d), float(eta))
         for case, a, d in (("weak", "0.5", "1"), ("steady", "0", "2.5"),
                            ("strong", "0", "6"))
         for eta in ("0.1", "0.5")]
_FIGA2 = [(f"figA2_Delta{d}.csv", [], 0.0, float(d), None) for d in ("1", "2.5", "6")]
_SCAN_COLUMNS = ["panel", "Delta", "t_end", "SP_end", "IPR_end", "norm_end"]
EXPECTED = {
    "fig1": (_FIG1, SCALED, _SCAN_COLUMNS),
    "fig2": (_FIG2, SCALED, _SCAN_COLUMNS),
    "fig3": (_FIG3, (0.005, 40000),
             ["case", "a", "Delta", "eta", "t_end", "SP_end", "IPR_end"]),
    "figA2": (_FIGA2, SCALED, None),
}


def _config(*overrides):
    return parse_config("", overrides=list(overrides))


@pytest.fixture
def fake_evolve(monkeypatch):
    """Record (model, bath, dt, steps) of each run; return a two-row
    trajectory with no parameter lines of its own."""
    runs = []

    def fake(model, bath, init, grid):
        runs.append((model, bath, grid.dt, grid.steps))
        assert init.shape == (model.N,)
        short = TimeGrid(dt=grid.dt, steps=1)
        ones = np.ones(2)
        return Trajectory(grid=short, sp=0.5 * ones, ipr=0.25 * ones, norm=ones,
                          variance=ones, collective=0.5 * ones + 0j)

    monkeypatch.setattr(figures, "evolve", fake)
    return runs


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundle_table_is_pinned(name, full, fake_evolve, tmp_path):
    cfg = _config("model.N=9", "model.phi=1", "bath.eta=0.2", "bath.s=0.75")
    table, scaled, summary_columns = EXPECTED[name]
    dt, steps = FULL if full else scaled
    files = figures.build_bundle(name, cfg, str(tmp_path), full)

    names = [f for f, *_ in table]
    summary = [f"{name}_summary.csv"] if summary_columns else []
    assert [p.rpartition("/")[2] for p in files] == names + summary
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + summary)
    want_runs = [(a, Delta, 0.2 if eta is None else eta, dt, steps)
                 for _, _, a, Delta, eta in table]
    got_runs = [(m.a, m.Delta, b.eta, dt_, steps_) for m, b, dt_, steps_ in fake_evolve]
    assert got_runs == want_runs
    for model, bath, *_ in fake_evolve:  # every other parameter is the config's
        assert dataclasses.replace(model, a=cfg.model.a, Delta=cfg.model.Delta) == cfg.model
        assert dataclasses.replace(bath, eta=cfg.bath.eta) == cfg.bath
    for file_name, extra, *_ in table:
        lines = (tmp_path / file_name).read_text().splitlines()
        assert [line for line in lines if line.startswith("#")] == extra
        assert lines[len(extra)] == "t,SP,IPR,norm,variance,Re S,Im S"
    if summary_columns:
        lines = (tmp_path / summary[0]).read_text().splitlines()
        assert lines[0].split(",") == summary_columns
        assert len(lines) == 1 + len(table)
        assert all(line.split(",")[summary_columns.index("SP_end")] == "0.5"
                   for line in lines[1:])


def test_all_is_every_bundle_in_order(fake_evolve, tmp_path, monkeypatch):
    monkeypatch.setattr(figures, "scan_grid", _fake_scan)
    files = figures.build_bundle("all", _config("model.N=9"), str(tmp_path))
    prefixes = [p.rpartition("/")[2].partition("_")[0] for p in files]
    assert list(dict.fromkeys(prefixes)) == list(figures.BUNDLES)
    assert len(files) == 8 + 8 + 7 + 2 + 3


def test_unknown_bundle_is_a_parameter_error(tmp_path):
    with pytest.raises(ParameterError, match="unknown bundle 'fig9'"):
        figures.build_bundle("fig9", _config(), str(tmp_path))


def _fake_scan(model, bath, region, n_re, n_im, prescription, sigma_mode):
    re = np.linspace(region.re_min, region.re_max, n_re)
    im = np.linspace(region.im_min, region.im_max, n_im)
    return DeterminantGrid(re=re, im=im, log_abs=np.zeros((n_im, n_re)),
                           phase=np.zeros((n_im, n_re)))


def _header(path):
    params = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[2:].partition(" = ")
        params[key] = value
    return params


#: The model and bath lines of a trajectory header, in their order.
TRAJECTORY_KEYS = [key for key in _run_metadata(ModelParams(), BathParams(),
                                                TimeGrid(dt=1.0, steps=1), 0.0)
                   if key.startswith(("model.", "bath."))]


def test_figA1_header_names_every_model_and_bath_parameter(tmp_path):
    cfg = _config("model.N=9", "model.phi=1", "model.lam=0.9", "bath.s=0.75",
                  "bath.omega_c=12", "bath.eta=0.2")
    files = figures.build_bundle("figA1", cfg, str(tmp_path))
    assert len(files) == 2
    for path in files:
        header = _header(tmp_path / path.rpartition("/")[2])
        assert list(header) == TRAJECTORY_KEYS + ["poles.prescription", "poles.sigma_mode"]
        model = ModelParams(N=int(header["model.N"]), **{
            k[6:]: float(v) for k, v in header.items()
            if k.startswith("model.") and k != "model.N"})
        bath = BathParams(**{k[5:]: float(v) for k, v in header.items()
                             if k.startswith("bath.")})
        assert model == dataclasses.replace(cfg.model, a=model.a, Delta=model.Delta)
        assert (model.a, model.Delta) in {(0.0, 2.5), (0.5, 1.0)}
        assert bath == cfg.bath
        assert header["poles.prescription"] == cfg.values["poles.prescription"]
        assert header["poles.sigma_mode"] == cfg.values["poles.sigma_mode"]
