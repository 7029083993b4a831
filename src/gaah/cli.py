"""Command-line front end.

    gaah <spectrum|evolve|poles|oracle|sweep|figdata>
         [--config <path>] [--out <dir>] [--set key=value ...] [--full]

Subcommands:

* ``spectrum`` -- diagonalize the closed lattice; eigenlevel table with
  per-state participation ratio and collective bath weight.
* ``evolve``   -- one memory-kernel trajectory; trajectory CSV.
* ``poles``    -- locate the complex resonance poles; pole report CSV.
* ``oracle``   -- cross-validate the solver against the discrete-bath
  reference; fails (exit 4) when the deviation exceeds the threshold.
* ``sweep``    -- run trajectories over a swept parameter in parallel;
  per-value trajectory files plus a summary table.
* ``figdata``  -- emit a named plot-data bundle (fig1, fig2, fig3, figA1,
  figA2, or all).

Every subcommand accepts the same configuration keys (listed at the end
of ``--help``); unknown keys are rejected.  The output directory is taken
from ``--out``, else the ``GAAH_OUT`` environment variable, else the
``output.dir`` key.  Each run writes a ``manifest.json`` inventory with a
sha256 per output file.

Exit codes: 0 success, 2 configuration or parameter error, 3 numerical
failure, 4 validation mismatch.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys

import numpy as np

from .config import REGISTRY, RunConfig, parse_config, registry_help
from .dynamics import TimeGrid, evolve
from .errors import (
    ConfigError,
    NumericsError,
    OracleMismatchError,
    ParameterError,
)
from .figures import build_bundle
from .model import (
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
    mobility_edge,
    state_ipr,
)
from .oracle import validate_against_oracle
from .output import (
    ManifestBuilder,
    fmt,
    write_pole_csv,
    write_spectrum_csv,
    write_trajectory_csv,
)
from .spectrum import (
    PoleSearchRegion,
    collective_weights,
    default_search_region,
    find_poles,
)

ENV_OUT_DIR = "GAAH_OUT"

_SUBCOMMANDS = {
    "spectrum": "closed-system eigenlevels, participation, and bath weights",
    "evolve": "integrate one trajectory of the memory-kernel dynamics",
    "poles": "find complex resonance poles of the dressed lattice",
    "oracle": "cross-validate the solver against the discrete-bath reference",
    "sweep": "run trajectories over a parameter sweep in parallel",
    "figdata": "emit plot-ready data bundles",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaah",
        description="Open-system dynamics of a quasi-periodic lattice with "
                    "collective Ohmic coupling.",
        epilog=registry_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, blurb in _SUBCOMMANDS.items():
        p = sub.add_parser(
            name, help=blurb, description=blurb, epilog=registry_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (omit to use defaults)")
        p.add_argument("--out", metavar="DIR", help="output directory "
                       f"(overrides ${ENV_OUT_DIR} and output.dir)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append",
                       default=[], dest="overrides",
                       help="override one config key (repeatable)")
        p.add_argument("--full", action="store_true",
                       help="long-horizon figure runs (same as --set fig.full=true)")
    return parser


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, "r") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        source = args.config
    else:
        text = ""
        source = "<defaults>"
    overrides = list(args.overrides)
    if args.full:
        overrides.append("fig.full=true")
    return parse_config(text, source=source, overrides=overrides)


def _resolve_out_dir(args, cfg: RunConfig) -> str:
    out = args.out or os.environ.get(ENV_OUT_DIR) or str(cfg.values["output.dir"])
    os.makedirs(out, exist_ok=True)
    return out


# --- subcommand handlers -----------------------------------------------


def _cmd_spectrum(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    dec = diagonalize(build_hamiltonian(cfg.model))
    weights = collective_weights(dec)
    iprs = np.array([state_ipr(dec.states[:, i]) for i in range(cfg.model.N)])
    path = os.path.join(out_dir, "spectrum.csv")
    write_spectrum_csv(dec, weights, iprs, path, cfg.values)
    manifest.add_file(path)
    manifest.add_task("spectrum", "ok")
    edge = mobility_edge(cfg.model)
    edge_text = fmt(edge) if edge is not None else "none"
    print(f"levels: {cfg.model.N}  top energy: {fmt(dec.energies[-1])}  "
          f"mobility edge: {edge_text}")
    return 0


def _cmd_evolve(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    traj = evolve(cfg.model, cfg.bath, cfg.initial_state(), cfg.grid,
                  **cfg.evolve_kwargs())
    path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(traj, path, {"init.state": cfg.values["init.state"]})
    manifest.add_file(path)
    manifest.add_task("evolve", "ok")
    print(f"t_end: {fmt(cfg.grid.t_max)}  SP: {fmt(traj.sp[-1])}  "
          f"IPR: {fmt(traj.ipr[-1])}  norm: {fmt(traj.norm[-1])}")
    return 0


def _pole_region(cfg: RunConfig) -> PoleSearchRegion:
    v = cfg.values
    if v["poles.re_min"] is None:
        base = default_search_region(cfg.model)
        return PoleSearchRegion(base.re_min, base.re_max,
                                v["poles.im_min"], v["poles.im_max"])
    return PoleSearchRegion(v["poles.re_min"], v["poles.re_max"],
                            v["poles.im_min"], v["poles.im_max"])


def _cmd_poles(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    poles = find_poles(cfg.model, cfg.bath, _pole_region(cfg),
                       n_re=cfg.values["poles.re_points"],
                       n_im=cfg.values["poles.im_points"],
                       prescription=cfg.prescription, sigma_mode=cfg.sigma_mode)
    if not poles:
        raise NumericsError("no poles converged in the search window")
    if not cfg.values["poles.report_all"]:
        poles = poles[:2]
    path = os.path.join(out_dir, "poles.csv")
    write_pole_csv(poles, path, cfg.values)
    manifest.add_file(path)
    manifest.add_task("poles", "ok", f"{len(poles)} reported")
    for pole in poles:
        print(f"E = {fmt(pole.energy.real)} {pole.energy.imag:+.6e}j  "
              f"overlap = {fmt(pole.overlap)}  residual = {pole.residual:.2e}")
    return 0


def _cmd_oracle(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    v = cfg.values
    grid = TimeGrid.from_t_max(cfg.grid.dt, v["oracle.t_max"])
    report = validate_against_oracle(
        cfg.model, cfg.bath, cfg.initial_state(), grid,
        modes=v["oracle.modes"], omega_max=v["oracle.omega_max"],
        threshold=v["oracle.threshold"],
        consistent_truncation=v["oracle.consistent_truncation"],
        method=v["oracle.method"], **cfg.evolve_kwargs())
    status = "ok" if report.passed else "mismatch"
    manifest.add_task("oracle", status,
                      f"max |dSP| = {report.max_sp_deviation:.3e}")
    print(f"max |dSP| over t <= {fmt(grid.t_max)}: "
          f"{report.max_sp_deviation:.3e} (threshold {report.threshold:.1e}, "
          f"modes {report.modes}, recurrence {report.recurrence_time:.1f})")
    if not report.passed:
        raise OracleMismatchError(
            f"solver vs reference deviation {report.max_sp_deviation:.3e} "
            f"exceeds {report.threshold:.1e}")
    return 0


def _sweep_point(serialized: str, key: str, value: float, out_dir: str) -> dict:
    """Run one sweep point in a worker process and write its trajectory."""
    raw = str(int(value)) if REGISTRY[key].kind == "int" else repr(float(value))
    cfg = parse_config(serialized, source="<sweep>", overrides=[f"{key}={raw}"])
    traj = evolve(cfg.model, cfg.bath, cfg.initial_state(), cfg.grid,
                  **cfg.evolve_kwargs())
    short = key.split(".", 1)[1]
    path = os.path.join(out_dir, f"sweep_{short}{value:g}.csv")
    write_trajectory_csv(traj, path, {"sweep.parameter": key})
    return {
        "path": path,
        "value": value,
        "SP_end": float(traj.sp[-1]),
        "IPR_end": float(traj.ipr[-1]),
        "norm_end": float(traj.norm[-1]),
    }


def _cmd_sweep(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    key = cfg.values["sweep.parameter"]
    if key not in REGISTRY:
        raise ConfigError(f"sweep.parameter: unknown config key {key!r}")
    if REGISTRY[key].kind not in ("float", "int"):
        raise ConfigError(f"sweep.parameter: {key!r} is not numeric")
    values = cfg.values["sweep.values"]
    workers = cfg.values["sweep.workers"] or min(len(values), os.cpu_count() or 1)
    serialized = cfg.serialize()
    rows = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_point, serialized, key, v, out_dir)
                   for v in values]
        for future in futures:
            rows.append(future.result())
    rows.sort(key=lambda r: r["value"])
    short = key.split(".", 1)[1]
    summary_lines = [f"{short},t_end,SP_end,IPR_end,norm_end"]
    for row in rows:
        manifest.add_file(row["path"])
        summary_lines.append(",".join((
            fmt(row["value"]), fmt(cfg.grid.t_max), fmt(row["SP_end"]),
            fmt(row["IPR_end"]), fmt(row["norm_end"]))))
        print(f"{key} = {row['value']:g}: SP({cfg.grid.t_max:g}) = "
              f"{fmt(row['SP_end'])}")
    summary = os.path.join(out_dir, "sweep_summary.csv")
    from .output import _atomic_write
    _atomic_write(summary, ["\n".join(summary_lines) + "\n"])
    manifest.add_file(summary)
    manifest.add_task("sweep", "ok", f"{len(rows)} points over {key}")
    return 0


def _cmd_figdata(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    bundle = cfg.values["fig.bundle"]
    full = cfg.values["fig.full"]
    files = build_bundle(bundle, cfg, out_dir, full=full)
    for path in files:
        manifest.add_file(path)
    manifest.add_task(f"figdata:{bundle}", "ok", f"{len(files)} files")
    print(f"{bundle}: wrote {len(files)} files to {out_dir}")
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "poles": _cmd_poles,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "figdata": _cmd_figdata,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = _resolve_out_dir(args, cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest = ManifestBuilder(command=args.command, config_text=cfg.serialize(),
                               out_dir=out_dir)
    try:
        code = _HANDLERS[args.command](cfg, out_dir, manifest)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        manifest.add_task(args.command, "config-error", str(exc))
        manifest.write(status="config-error")
        return 2
    except OracleMismatchError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        manifest.write(status="validation-failure")
        return 4
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        manifest.add_task(args.command, "numeric-failure", str(exc))
        manifest.write(status="numeric-failure")
        return 3
    manifest.write(status="ok")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
