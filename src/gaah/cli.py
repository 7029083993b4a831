"""Command-line front end.

    gaah <spectrum|evolve|poles|oracle|sweep|figdata>
         [--config <path>] [--out <dir>] [--set key=value ...]

Commands:

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

One parser serves every command: the command is its first positional
argument, and ``--help`` lists the commands and every configuration key.
Every setting has one path, its configuration key; ``--set`` overrides a
key of the file, and unknown keys are rejected.  The output directory is
taken from ``--out``, else the ``GAAH_OUT`` environment variable, else the
``output.dir`` key.  Each run writes a ``manifest.json`` inventory with a
sha256 per output file; a configuration that fails to parse writes one
(status ``config-error``) only when ``--out`` or ``GAAH_OUT`` names the
directory.

Exit codes: 0 success, 2 configuration or parameter error, 3 numerical
failure, 4 validation mismatch.  Any other exception propagates after the
manifest is written with status ``error``.
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
from .figures import build_bundle, write_run
from .model import (
    EigenDecomposition,
    build_hamiltonian,
    diagonalize,
    mobility_edge,
    state_ipr,
)
from .oracle import validate_against_oracle
from .output import (
    ManifestBuilder,
    fmt,
    write_pole_csv,
    write_spectrum_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from .spectrum import (
    PoleSearchRegion,
    collective_weights,
    default_search_region,
    find_poles,
)

ENV_OUT_DIR = "GAAH_OUT"

def _build_parser() -> argparse.ArgumentParser:
    commands = "\n".join(f"    {name:<10}{blurb}" for name, (_, blurb) in _HANDLERS.items())
    parser = argparse.ArgumentParser(
        prog="gaah",
        description="Open-system dynamics of a quasi-periodic lattice with "
                    f"collective Ohmic coupling.\n\ncommands:\n{commands}",
        epilog=registry_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_HANDLERS, metavar="command",
                        help="one of the commands above")
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (omit to use defaults)")
    parser.add_argument("--out", metavar="DIR", help="output directory "
                        f"(overrides ${ENV_OUT_DIR} and output.dir)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (repeatable)")
    return parser


def _read_config(args) -> str:
    if args.config is None:
        return ""
    try:
        with open(args.config, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc


# --- command handlers -------------------------------------------------


def _cmd_spectrum(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    dec = diagonalize(build_hamiltonian(cfg.model))
    weights = collective_weights(dec)
    iprs = np.array([state_ipr(dec.states[:, i]) for i in range(cfg.model.N)])
    path = os.path.join(out_dir, "spectrum.csv")
    write_spectrum_csv(dec, weights, iprs, path, cfg.values)
    manifest.add_file(path)
    manifest.add_task("spectrum", "ok")
    print(f"levels: {cfg.model.N}  top energy: {fmt(dec.energies[-1])}  "
          f"mobility edge: {fmt(mobility_edge(cfg.model))}")
    return 0


def _cmd_evolve(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    traj = evolve(cfg.model, cfg.bath, cfg.initial_state(), cfg.grid)
    path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(traj, path, {"init.state": cfg.values["init.state"]})
    manifest.add_file(path)
    manifest.add_task("evolve", "ok")
    print(f"t_end: {fmt(cfg.grid.t_max)}  SP: {fmt(traj.sp[-1])}  "
          f"IPR: {fmt(traj.ipr[-1])}  norm: {fmt(traj.norm[-1])}")
    return 0


def _pole_region(cfg: RunConfig, dec: EigenDecomposition) -> PoleSearchRegion:
    v = cfg.values
    re_min, re_max = v["poles.re_min"], v["poles.re_max"]
    if re_min is None:
        base = default_search_region(cfg.model, dec=dec)
        re_min, re_max = base.re_min, base.re_max
    return PoleSearchRegion(re_min, re_max, v["poles.im_min"], v["poles.im_max"])


def _cmd_poles(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    dec = diagonalize(build_hamiltonian(cfg.model))
    poles = find_poles(cfg.model, cfg.bath, _pole_region(cfg, dec),
                       prescription=cfg.prescription, sigma_mode=cfg.sigma_mode, dec=dec)
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
        threshold=v["oracle.threshold"])
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


def _sweep_config(serialized: str, key: str, value: float) -> RunConfig:
    """The configuration of one sweep point.  An int key is handed an
    integral value as an integer and any other value as written, which its
    parse then rejects."""
    integral = REGISTRY[key].kind == "int" and value.is_integer()
    raw = str(int(value)) if integral else repr(value)
    try:
        return parse_config(serialized, source="<sweep>", overrides=[f"{key}={raw}"])
    except ConfigError as exc:
        raise ConfigError(f"sweep.values: {value!r}: {exc}") from None


def _cmd_sweep(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    key = cfg.values["sweep.parameter"]
    short = key.partition(".")[2]
    serialized = cfg.serialize()
    # Every point is checked before any runs.  Values that print alike
    # would write one file and lose a trajectory.
    points: dict[str, tuple[float, RunConfig]] = {}  # file name -> (value, config)
    for value in sorted(cfg.values["sweep.values"]):
        point = _sweep_config(serialized, key, value)
        name = f"sweep_{short}{value:g}.csv"
        if name in points:
            raise ConfigError(f"sweep.values: {points[name][0]!r} and {value!r} "
                              f"both write {name}")
        points[name] = value, point
    header = {"init.state": cfg.values["init.state"], "sweep.parameter": key}
    workers = min(len(points), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {name: pool.submit(write_run, os.path.join(out_dir, name), header,
                                     p.model, p.bath, p.initial_state(), p.grid)
                   for name, (_, p) in points.items()}
        rows = []
        for name, future in futures.items():
            value, end = points[name][0], future.result()
            manifest.add_file(os.path.join(out_dir, name))
            rows.append({short: value, **end})
            print(f"{key} = {value:g}: SP({end['t_end']:g}) = {fmt(end['SP_end'])}")
    summary = os.path.join(out_dir, "sweep_summary.csv")
    write_summary_csv(rows, summary)
    manifest.add_file(summary)
    manifest.add_task("sweep", "ok", f"{len(points)} points over {key}")
    return 0


def _cmd_figdata(cfg: RunConfig, out_dir: str, manifest: ManifestBuilder) -> int:
    bundle = cfg.values["fig.bundle"]
    files = build_bundle(bundle, cfg, out_dir, full=cfg.values["fig.full"])
    for path in files:
        manifest.add_file(path)
    manifest.add_task(f"figdata:{bundle}", "ok", f"{len(files)} files")
    print(f"{bundle}: wrote {len(files)} files to {out_dir}")
    return 0


#: Each command's handler and its one-line help.  The help lives here,
#: not in the handler's docstring, which ``python -OO`` strips.
_HANDLERS = {
    "spectrum": (_cmd_spectrum, "closed-system eigenlevels, participation, and bath weights"),
    "evolve": (_cmd_evolve, "integrate one trajectory of the memory-kernel dynamics"),
    "poles": (_cmd_poles, "find complex resonance poles of the dressed lattice"),
    "oracle": (_cmd_oracle, "cross-validate the solver against the discrete-bath reference"),
    "sweep": (_cmd_sweep, "run trajectories over a parameter sweep in parallel"),
    "figdata": (_cmd_figdata, "emit plot-ready data bundles"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Until the config parses, the manifest holds the text as read and only
    # --out or $GAAH_OUT can name its directory: output.dir would come from
    # the config that failed.
    manifest = ManifestBuilder(command=args.command, config_text="",
                               out_dir=args.out or os.environ.get(ENV_OUT_DIR))
    try:
        manifest.config_text = _read_config(args)
        cfg = parse_config(manifest.config_text, source=args.config or "<defaults>",
                           overrides=args.overrides)
        manifest.config_text = cfg.serialize()
        manifest.out_dir = manifest.out_dir or str(cfg.values["output.dir"])
        os.makedirs(manifest.out_dir, exist_ok=True)
        code = _HANDLERS[args.command][0](cfg, manifest.out_dir, manifest)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if manifest.out_dir:
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
    except BaseException as exc:
        # Unmapped (OSError, BrokenProcessPool, KeyboardInterrupt, ...): record
        # the run, then let the exception end it as it would have.
        if manifest.out_dir:
            manifest.add_task(args.command, "error", f"{type(exc).__name__}: {exc}")
            manifest.write(status="error")
        raise
    manifest.write(status="ok")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
