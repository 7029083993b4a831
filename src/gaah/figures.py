"""Named figure-data bundles.

Each bundle emits the plot-ready CSV files for one figure of the study.
Four of them are trajectory bundles, rows of the table ``_TRAJECTORIES``:

* ``fig1``  -- survival probability and participation ratio at a = 0 for
  weak (panel a: Delta 1, 2, 2.5) and strong (panel b: Delta 3, 4, 6, 10)
  modulation, plus a summary of the end-of-run readings.
* ``fig2``  -- the same layout at a = 0.5 (panel a: Delta 0.5, 0.76, 1.5,
  2; panel b: Delta 3, 6, 10), where the deformed potential carries a
  mobility edge.
* ``fig3``  -- coupling-strength comparison: the weakly localized
  (a=0.5, Delta=1), steady-beat (a=0, Delta=2.5), and strongly localized
  (a=0, Delta=6) cases, each at eta 0.1 and 0.5.
* ``figA2`` -- position-variance traces at a = 0 for Delta 1 (irregular),
  2.5 (regular oscillation), and 6 (frozen by strong localization).

A row gives the bundle's scaled time step, the end readings its summary
file collects (none for figA2) and its runs.  A run names its file, the
header lines of its panel or case, its summary labels and the point
(a, Delta, eta) it sets; an eta of None keeps ``bath.eta``, and every other
parameter is the configuration's.  Every run starts from the highest
excited state of its own lattice, so these bundles refuse any other
``init.state`` with a ConfigError before they write a file.  Every bundle
sets its own time grid, so all five refuse a ``grid.dt`` or ``grid.t_max``
other than the default the same way.

``write_run`` evolves one run, writes its trajectory CSV (all series, the
parameter header plus the extra lines) and returns its end readings;
``_trajectories`` calls it per run, then writes the summary, and
``gaah sweep`` calls it per sweep point in its worker processes.

The fifth bundle, ``figA1``, holds determinant landscapes near the two
highest resonance poles for (a=0, Delta=2.5) and (a=0.5, Delta=1), with
sign columns for the zero-contour crossing view.  Its headers carry every
model and bath parameter and the two pole-search settings.  It takes no
initial state.

Scaled runs use t = 200, dt = 0.02: every bundle at once
(``fig.bundle=all``) takes about 2-2.5 s as a whole command, on one core of
a 2-core Xeon VM.  The ``full`` flag switches to the long-horizon runs
(t = 1200, dt = 0.01).
The strong-coupling comparisons of fig3 use dt = 0.005 in scaled mode
because eta = 0.5 needs the finer step for quantitative accuracy.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .bath import BathParams
from .config import REGISTRY, RunConfig
from .dynamics import TimeGrid, evolve, prefixed
from .errors import ConfigError, ParameterError
from .model import ModelParams, build_hamiltonian, diagonalize, highest_excited_state
from .output import write_determinant_grid_csv, write_summary_csv, write_trajectory_csv
from .spectrum import PoleSearchRegion, scan_grid

BUNDLES = ("fig1", "fig2", "fig3", "figA1", "figA2")


def _panels(name: str, a: float, panels: dict[str, tuple[float, ...]]) -> tuple:
    return tuple((f"{name}_{panel}_Delta{Delta:g}.csv", {"fig.panel": panel},
                  {"panel": panel, "Delta": Delta}, a, Delta, None)
                 for panel, deltas in panels.items() for Delta in deltas)


#: bundle -> (scaled dt, summary columns of end readings or None, runs), a run
#: being (file name, extra header lines, summary labels, a, Delta, eta or
#: None for bath.eta).
_TRAJECTORIES = {
    "fig1": (0.02, ("t_end", "SP_end", "IPR_end", "norm_end"),
             _panels("fig1", 0.0, {"a": (1.0, 2.0, 2.5), "b": (3.0, 4.0, 6.0, 10.0)})),
    "fig2": (0.02, ("t_end", "SP_end", "IPR_end", "norm_end"),
             _panels("fig2", 0.5, {"a": (0.5, 0.76, 1.5, 2.0), "b": (3.0, 6.0, 10.0)})),
    "fig3": (0.005, ("t_end", "SP_end", "IPR_end"), tuple(
        (f"fig3_{case}_a{a:g}_Delta{Delta:g}_eta{eta:g}.csv", {"fig.case": case},
         {"case": case, "a": a, "Delta": Delta, "eta": eta}, a, Delta, eta)
        for case, a, Delta in (("weak", 0.5, 1.0), ("steady", 0.0, 2.5),
                               ("strong", 0.0, 6.0))
        for eta in (0.1, 0.5))),
    "figA2": (0.02, None, tuple((f"figA2_Delta{Delta:g}.csv", {}, {}, 0.0, Delta, None)
                                for Delta in (1.0, 2.5, 6.0))),
}

#: (a, Delta) -> determinant window bracketing the two highest poles.
_DET_WINDOWS = {
    (0.0, 2.5): PoleSearchRegion(2.85, 3.0, -1e-4, 0.0),
    (0.5, 1.0): PoleSearchRegion(2.55, 2.75, -1e-4, 0.0),
}


def write_run(path: str, header: dict, model: ModelParams, bath: BathParams,
              init: np.ndarray, grid: TimeGrid) -> dict:
    """Evolve one run, write its trajectory CSV with the extra ``header``
    lines, and return its end readings: t_end, SP_end, IPR_end, norm_end."""
    traj = evolve(model, bath, init, grid)
    write_trajectory_csv(traj, path, header)
    return {"t_end": grid.t_max, "SP_end": float(traj.sp[-1]),
            "IPR_end": float(traj.ipr[-1]), "norm_end": float(traj.norm[-1])}


def _trajectories(name: str, cfg: RunConfig, out_dir: str, full: bool) -> list[str]:
    dt, columns, runs = _TRAJECTORIES[name]
    grid = TimeGrid.from_t_max(0.01, 1200.0) if full else TimeGrid.from_t_max(dt, 200.0)
    files, rows = [], []
    for file_name, header, labels, a, Delta, eta in runs:
        model = replace(cfg.model, a=a, Delta=Delta)
        bath = cfg.bath if eta is None else replace(cfg.bath, eta=eta)
        init = highest_excited_state(diagonalize(build_hamiltonian(model)))
        files.append(os.path.join(out_dir, file_name))
        ends = write_run(files[-1], header, model, bath, init, grid)
        rows.append({**labels, **{column: ends[column] for column in columns or ()}})
    if columns:
        files.append(os.path.join(out_dir, f"{name}_summary.csv"))
        write_summary_csv(rows, files[-1])
    return files


def _landscapes(cfg: RunConfig, out_dir: str, full: bool) -> list[str]:
    n_re, n_im = (240, 96) if full else (120, 48)
    files = []
    for (a, Delta), region in _DET_WINDOWS.items():
        model = replace(cfg.model, a=a, Delta=Delta)
        grid = scan_grid(model, cfg.bath, region, n_re=n_re, n_im=n_im,
                         prescription=cfg.prescription, sigma_mode=cfg.sigma_mode)
        params = {**prefixed("model", model), **prefixed("bath", cfg.bath),
                  "poles.prescription": cfg.values["poles.prescription"],
                  "poles.sigma_mode": cfg.values["poles.sigma_mode"]}
        files.append(os.path.join(out_dir, f"figA1_a{a:g}_Delta{Delta:g}.csv"))
        write_determinant_grid_csv(grid, files[-1], params)
    return files


def build_bundle(name: str, cfg: RunConfig, out_dir: str,
                 full: bool = False) -> list[str]:
    """Emit one named bundle (or all of them) into out_dir."""
    if name not in (*BUNDLES, "all"):
        raise ParameterError(
            f"unknown bundle {name!r}; expected one of {', '.join(BUNDLES)} or all")
    state = cfg.values["init.state"]
    if name != "figA1" and state != "es":
        raise ConfigError(f"init.state: {name} starts its runs from the highest "
                          f"excited state, es; got {state!r}")
    for key in ("grid.dt", "grid.t_max"):
        if cfg.values[key] != REGISTRY[key].default:
            raise ConfigError(f"{key}: figure bundles set their own time grid; "
                              f"got {cfg.values[key]!r}")
    if name == "all":
        return [path for bundle in BUNDLES
                for path in build_bundle(bundle, cfg, out_dir, full)]
    if name == "figA1":
        return _landscapes(cfg, out_dir, full)
    return _trajectories(name, cfg, out_dir, full)
