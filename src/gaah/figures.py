"""Named figure-data bundles.

Each bundle emits the plot-ready CSV files for one figure of the study:

* ``fig1``  -- survival probability and participation ratio at a = 0 for
  weak (panel a: Delta 1, 2, 2.5) and strong (panel b: Delta 3, 4, 6, 10)
  modulation, plus a summary of the end-of-run readings.
* ``fig2``  -- the same layout at a = 0.5 (panel a: Delta 0.5, 0.76, 1.5,
  2; panel b: Delta 3, 6, 10), where the deformed potential carries a
  mobility edge.
* ``fig3``  -- coupling-strength comparison: the weakly localized
  (a=0.5, Delta=1), steady-beat (a=0, Delta=2.5), and strongly localized
  (a=0, Delta=6) cases, each at eta 0.1 and 0.5.
* ``figA1`` -- determinant landscapes near the two highest resonance
  poles for (a=0, Delta=2.5) and (a=0.5, Delta=1), with sign columns for
  the zero-contour crossing view.
* ``figA2`` -- position-variance traces at a = 0 for Delta 1 (irregular),
  2.5 (regular oscillation), and 6 (frozen by strong localization).

Scaled runs (t = 200, dt = 0.02) keep a full bundle under a minute; the
``full`` flag switches to the long-horizon runs (t = 1200, dt = 0.01).
The strong-coupling comparisons of fig3 use dt = 0.005 in scaled mode
because eta = 0.5 needs the finer step for quantitative accuracy.

Every trajectory file is written by the standard CSV writer, so SP, IPR,
norm, variance, and the collective amplitude are always all present;
panel membership and the modulation strength are encoded in file names.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .config import RunConfig
from .dynamics import TimeGrid, Trajectory, evolve
from .errors import ParameterError
from .model import build_hamiltonian, diagonalize, highest_excited_state
from .output import (
    write_determinant_grid_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from .spectrum import PoleSearchRegion, scan_grid

BUNDLES = ("fig1", "fig2", "fig3", "figA1", "figA2")

#: (a, Delta) -> determinant window bracketing the two highest poles.
_DET_WINDOWS = {
    (0.0, 2.5): PoleSearchRegion(2.85, 3.0, -1e-4, 0.0),
    (0.5, 1.0): PoleSearchRegion(2.55, 2.75, -1e-4, 0.0),
}


def _slug(value: float) -> str:
    return f"{value:g}"


def _grid(full: bool, dt_scaled: float = 0.02) -> TimeGrid:
    if full:
        return TimeGrid.from_t_max(0.01, 1200.0)
    return TimeGrid.from_t_max(dt_scaled, 200.0)


def _run(cfg: RunConfig, a: float, Delta: float, eta: float,
         grid: TimeGrid) -> Trajectory:
    model = replace(cfg.model, a=a, Delta=Delta)
    bath = replace(cfg.bath, eta=eta)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    return evolve(model, bath, init, grid)


def _delta_scan_bundle(cfg: RunConfig, out_dir: str, name: str, a: float,
                       panels: dict[str, tuple[float, ...]], full: bool) -> list[str]:
    grid = _grid(full)
    files = []
    rows = []
    for panel, deltas in panels.items():
        for Delta in deltas:
            traj = _run(cfg, a, Delta, cfg.bath.eta, grid)
            path = os.path.join(out_dir, f"{name}_{panel}_Delta{_slug(Delta)}.csv")
            write_trajectory_csv(traj, path, {"fig.panel": panel})
            files.append(path)
            rows.append({
                "panel": panel,
                "Delta": Delta,
                "t_end": grid.t_max,
                "SP_end": traj.sp[-1],
                "IPR_end": traj.ipr[-1],
                "norm_end": traj.norm[-1],
            })
    summary = os.path.join(out_dir, f"{name}_summary.csv")
    write_summary_csv(rows, summary)
    files.append(summary)
    return files


def build_fig1(cfg: RunConfig, out_dir: str, full: bool = False) -> list[str]:
    return _delta_scan_bundle(cfg, out_dir, "fig1", a=0.0,
                              panels={"a": (1.0, 2.0, 2.5),
                                      "b": (3.0, 4.0, 6.0, 10.0)},
                              full=full)


def build_fig2(cfg: RunConfig, out_dir: str, full: bool = False) -> list[str]:
    return _delta_scan_bundle(cfg, out_dir, "fig2", a=0.5,
                              panels={"a": (0.5, 0.76, 1.5, 2.0),
                                      "b": (3.0, 6.0, 10.0)},
                              full=full)


def build_fig3(cfg: RunConfig, out_dir: str, full: bool = False) -> list[str]:
    cases = (
        ("weak", 0.5, 1.0),
        ("steady", 0.0, 2.5),
        ("strong", 0.0, 6.0),
    )
    grid = _grid(full, dt_scaled=0.005)
    files = []
    rows = []
    for label, a, Delta in cases:
        for eta in (0.1, 0.5):
            traj = _run(cfg, a, Delta, eta, grid)
            path = os.path.join(
                out_dir,
                f"fig3_{label}_a{_slug(a)}_Delta{_slug(Delta)}_eta{_slug(eta)}.csv")
            write_trajectory_csv(traj, path, {"fig.case": label})
            files.append(path)
            rows.append({
                "case": label,
                "a": a,
                "Delta": Delta,
                "eta": eta,
                "t_end": grid.t_max,
                "SP_end": traj.sp[-1],
                "IPR_end": traj.ipr[-1],
            })
    summary = os.path.join(out_dir, "fig3_summary.csv")
    write_summary_csv(rows, summary)
    files.append(summary)
    return files


def build_figA1(cfg: RunConfig, out_dir: str, full: bool = False) -> list[str]:
    n_re, n_im = (240, 96) if full else (120, 48)
    files = []
    for (a, Delta), region in _DET_WINDOWS.items():
        model = replace(cfg.model, a=a, Delta=Delta)
        grid = scan_grid(model, cfg.bath, region, n_re=n_re, n_im=n_im,
                         prescription=cfg.prescription, sigma_mode=cfg.sigma_mode)
        params = {
            "model.a": a, "model.Delta": Delta, "bath.eta": cfg.bath.eta,
            "poles.prescription": cfg.values["poles.prescription"],
            "poles.sigma_mode": cfg.values["poles.sigma_mode"],
        }
        path = os.path.join(out_dir, f"figA1_a{_slug(a)}_Delta{_slug(Delta)}.csv")
        write_determinant_grid_csv(grid, path, params)
        files.append(path)
    return files


def build_figA2(cfg: RunConfig, out_dir: str, full: bool = False) -> list[str]:
    grid = _grid(full)
    files = []
    for Delta in (1.0, 2.5, 6.0):
        traj = _run(cfg, 0.0, Delta, cfg.bath.eta, grid)
        path = os.path.join(out_dir, f"figA2_Delta{_slug(Delta)}.csv")
        write_trajectory_csv(traj, path)
        files.append(path)
    return files


_BUILDERS = {
    "fig1": build_fig1,
    "fig2": build_fig2,
    "fig3": build_fig3,
    "figA1": build_figA1,
    "figA2": build_figA2,
}


def build_bundle(name: str, cfg: RunConfig, out_dir: str,
                 full: bool = False) -> list[str]:
    """Emit one named bundle (or all of them) into out_dir."""
    if name == "all":
        files = []
        for bundle in BUNDLES:
            files.extend(_BUILDERS[bundle](cfg, out_dir, full))
        return files
    if name not in _BUILDERS:
        raise ParameterError(
            f"unknown bundle {name!r}; expected one of {', '.join(BUNDLES)} or all")
    return _BUILDERS[name](cfg, out_dir, full)
