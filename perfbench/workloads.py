"""Workload definitions: seeded inputs, the operations, and their output checks.

Every operation goes through gaah's public API or its in-process CLI
(``gaah.cli.main``).  Module attributes are looked up at call time
(``dynamics.evolve``, ``cli.main``) so that the traced run, which rebinds
those names, sees every call.

An operation fails when it raises, when the CLI exits non-zero, or when its
output check fails.  Two failures of the current code are documented defects
(see ``known_failure``); they are counted as failed like any other, but they
do not make the run incorrect as long as they fail exactly as documented.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
from typing import Callable

import numpy as np

from gaah import bath as gbath
from gaah import cli, dynamics, model, output, spectrum
from gaah.config import parse_config
from gaah.reference import (
    REFERENCE_BEAT_PERIOD,
    REFERENCE_POLES,
    REFERENCE_SP_MAX,
)

#: (a, Delta) analysed in depth by the paper; traj_long draws one per op.
DEEP_POINTS = ((0.0, 2.5), (0.5, 1.0))
#: Crest tolerances of the acceptance gate (criterion 4).
CREST_TOL = {(0.0, 2.5): 0.02, (0.5, 1.0): 0.03}
#: Beat-period tolerance of the acceptance gate (criterion 3).
PERIOD_REL_TOL = 0.15
#: Pole tolerances of the acceptance gate (criterion 1).
RE_TOL = 5e-4
IM_FACTOR = 2.0
#: Agreement demanded between find_poles and self_consistent_pole.
CROSS_TOL = 1e-9
#: Round-off slack on norm <= 1 and 0 <= SP <= norm in trajectory CSVs.
NORM_SLACK = 1e-12
#: eta = 0.1 table points searched with the real-axis self-energy.  Each
#: search costs 2.7-2.9 s on a 2-core VM; the other three eta = 0.1 points
#: cost 1.6-2.5 s, and with them the slowest ops would differ by 2x.
REAL_AXIS_POINTS = ((0.0, 1.0, 0.1), (0.5, 0.5, 0.1), (0.5, 1.0, 0.1))
#: Non-integer bath exponents for the non-Ohmic pole probe.
NON_OHMIC_S = (0.5, 0.75, 1.5)
#: Worst max|dSP| seen for the documented oracle defect (1.4e-3 at phi=2.0);
#: a larger deviation is a new failure, not the known one.
ORACLE_KNOWN_CEILING = 2e-3

_DSP_LINE = re.compile(r"max \|dSP\| over t <= \S+: (\S+)")


@dataclasses.dataclass
class Op:
    """One operation: ``call(out_dir)`` is timed, ``check`` is not.

    ``check(result, out_dir)`` returns None or the name of the failed check.
    ``timed`` is False for probes of known defects whose cost would jump when
    the defect is fixed; they are attempted and checked, not timed.
    """

    kind: str
    label: str
    call: Callable[[str], object]
    check: Callable[[object, str], str | None]
    timed: bool = True


@dataclasses.dataclass
class Outcome:
    kind: str
    label: str
    latency_s: float
    ref_s: float
    error: str | None
    known: str | None
    timed: bool
    detail: dict


def known_failure(op: Op, error: str, detail: dict) -> str | None:
    """Name of the documented defect this failure matches, else None.

    (a) nonohmic-window: any non-integer bath.s with the default pole window
        dies in the real-axis quadrature with an uncaught TypeError (the
        window clips re_min to 1e-6 and the curvature stencil evaluates the
        spectral-density slope at a negative frequency).
    (b) oracle-threshold: at phases other than the default, the N=7,
        dt=0.002 oracle check misses the 1e-3 threshold (exit 4), with
        max|dSP| up to about 1.4e-3.
    """
    if op.kind == "nonohmic" and error.startswith("TypeError"):
        return "nonohmic-window"
    dsp = detail.get("max_dsp")
    if (op.kind == "oracle" and error.startswith("exit 4") and dsp is not None
            and dsp < ORACLE_KNOWN_CEILING):
        return "oracle-threshold"
    return None


# --- CLI and file helpers --------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gaah's CLI in process, as a user's shell would see it: exit code and
    stdout.  Stderr is discarded; an uncaught exception propagates."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _assign(**values) -> list[str]:
    """Config assignments; ``model__N=7`` stands for ``model.N=7``."""
    return [f"{key.replace('__', '.')}={value}" for key, value in values.items()]


def _sets(**values) -> list[str]:
    return [arg for item in _assign(**values) for arg in ("--set", item)]


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a gaah CSV (comment lines skipped)."""
    with open(path, newline="") as handle:
        rows = csv.reader(line for line in handle if not line.startswith("#"))
        header = next(rows)
        data = np.array([[float(x) for x in row] for row in rows], dtype=float)
    return header, data


def check_manifest(out_dir: str) -> str | None:
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    if manifest["status"] != "ok":
        return f"manifest status {manifest['status']}"
    for entry in manifest["files"]:
        with open(os.path.join(out_dir, entry["path"]), "rb") as handle:
            if hashlib.sha256(handle.read()).hexdigest() != entry["sha256"]:
                return f"sha256 mismatch {entry['path']}"
    return None


def check_trajectory_csv(path: str) -> str | None:
    header, data = read_csv(path)
    sp, norm = data[:, header.index("SP")], data[:, header.index("norm")]
    if np.any(norm > 1.0 + NORM_SLACK):
        return f"norm > 1 in {os.path.basename(path)}"
    if np.any(sp < 0.0) or np.any(sp > norm + NORM_SLACK):
        return f"SP outside [0, norm] in {os.path.basename(path)}"
    return None


def corrupt_outputs(out_dir: str) -> None:
    """Self-test hook: damage the first CSV an operation wrote."""
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
    if names:
        with open(os.path.join(out_dir, names[0]), "a") as handle:
            handle.write("corrupted,row\n")


# --- workloads ------------------------------------------------------------


class Workload:
    """Seeded op generator.  ``setup`` does the input generation a user's run
    would do before its first operation; ``round_ops(r)`` is the fixed list of
    operations of round r."""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.cache_hits = self.cache_misses = 0
        self._seen = (0, 0)

    def tally_cache(self, clear: bool = False) -> None:
        """Add the quadrature cache's new hits and misses to the totals;
        ``clear`` then empties it, as a fresh CLI process would find it."""
        info = gbath._dispersive_part.cache_info()
        self.cache_hits += info.hits - self._seen[0]
        self.cache_misses += info.misses - self._seen[1]
        self._seen = (info.hits, info.misses)
        if clear:
            gbath._dispersive_part.cache_clear()
            self._seen = (0, 0)

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def setup(self) -> None:
        pass

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def cli_call(self, argv: list[str], cold: bool = False):
        """Op body running one CLI command into the op's output directory.
        ``cold`` empties the quadrature cache first, as every real CLI run
        starts with a cold cache."""
        def call(out_dir):
            if cold:
                self.tally_cache(clear=True)
            return run_cli([argv[0], "--out", out_dir] + argv[1:])
        return call


class TrajLong(Workload):
    """One evolve plus write_trajectory_csv at the paper's full horizon."""

    def setup(self):
        self.grid = (dynamics.TimeGrid.from_t_max(0.02, 400.0) if self.tiny
                     else dynamics.TimeGrid.from_t_max(0.01, 1200.0))
        self.bath = gbath.BathParams()
        self.inputs = {}
        for a, delta in DEEP_POINTS:
            m = model.ModelParams(a=a, Delta=delta)
            init = model.highest_excited_state(
                model.diagonalize(model.build_hamiltonian(m)))
            self.inputs[(a, delta)] = (m, init)

    def round_ops(self, r):
        point = DEEP_POINTS[int(self.rng(r).integers(len(DEEP_POINTS)))]
        m, init = self.inputs[point]

        def call(out_dir):
            traj = dynamics.evolve(m, self.bath, init, self.grid)
            path = os.path.join(out_dir, "trajectory.csv")
            output.write_trajectory_csv(traj, path)
            return path

        def check(path, _out_dir):
            header, data = read_csv(path)
            if data.shape[0] != self.grid.steps + 1:
                return "row count"
            t, sp = data[:, header.index("t")], data[:, header.index("SP")]
            smoothed = dynamics.beat_envelope(sp, self.grid.dt)
            crest = float(np.max(smoothed[t > 5.0]))
            if abs(crest - REFERENCE_SP_MAX[point]) > CREST_TOL[point]:
                return f"beat crest {crest:.4f}"
            period = dynamics.dominant_period(t, smoothed, min_separation=40.0)
            ref = REFERENCE_BEAT_PERIOD[point]
            if abs(period - ref) > PERIOD_REL_TOL * ref:
                return f"beat period {period:.1f}"
            return check_trajectory_csv(path)

        return [Op("evolve", f"a={point[0]:g},Delta={point[1]:g}", call, check)]


class TrajBatch(Workload):
    """``gaah figdata`` for the scaled fig1 or fig2 bundle, one per round.

    Both bundles are seven t = 200 trajectories, so every op costs the same
    and the round's median and tail are those of like ops.  figA2 (three
    trajectories, no summary CSV) is left out: mixed into the rounds, it
    would put the median on the boundary between two op sizes.
    """

    def setup(self):
        self.bundles = ("figA2",) if self.tiny else ("fig1", "fig2")
        parse_config("", overrides=_assign(fig__bundle=self.bundles[0]))

    def round_ops(self, r):
        rng = self.rng(r)
        bundle = self.bundles[int(rng.integers(len(self.bundles)))]
        argv = ["figdata"] + _sets(fig__bundle=bundle,
                                   model__phi=repr(float(rng.uniform(0, 2 * math.pi))))
        return [Op("figdata", f"{bundle} {argv[-1]}", self.cli_call(argv), self._check)]

    @staticmethod
    def _check(result, out_dir):
        code, _ = result
        if code != 0:
            return f"exit {code}"
        bad = check_manifest(out_dir)
        if bad:
            return bad
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv") and not name.endswith("_summary.csv"):
                bad = check_trajectory_csv(os.path.join(out_dir, name))
                if bad:
                    return bad
        return None


class PolesOracle(Workload):
    """``gaah poles`` at every REFERENCE_POLES point with the default
    (continued) self-energy and at REAL_AXIS_POINTS with the real-axis
    self-energy, and one ``gaah oracle`` at the criterion-7 setting with a
    seeded phase, in seeded order; plus one non-Ohmic probe per round.

    The op set is fixed and the seed only orders it and sets the oracle's
    phase, so a round's time does not depend on the seed.  The three
    real-axis searches are the slowest pole ops and sit just below the
    oracle op: the median falls among the continued ops and the 90th
    percentile on the real-axis ops, not on one extreme.
    """

    def setup(self):
        keys = sorted(REFERENCE_POLES)
        real_axis = REAL_AXIS_POINTS
        self.oracle_base = _assign(model__N=7, grid__dt=0.002)
        if self.tiny:
            keys = real_axis = [(0.0, 2.5, 0.1)]
            self.oracle_base += _assign(oracle__t_max=10.0, oracle__modes=400)
        self.points = [(key, "continued") for key in keys]
        self.points += [(key, "real-axis") for key in real_axis]
        parse_config("", overrides=_assign(poles__sigma_mode="real-axis"))
        parse_config("", overrides=self.oracle_base)

    def round_ops(self, r):
        rng = self.rng(r)
        ops = [self._pole_op(*point) for point in self.points]
        phi = repr(float(rng.uniform(0, 2 * math.pi)))
        argv = ["oracle"] + [a for item in self.oracle_base for a in ("--set", item)] \
            + _sets(model__phi=phi)
        ops.append(Op("oracle", f"phi={phi}", self.cli_call(argv), self._oracle_check))
        ops = [ops[i] for i in rng.permutation(len(ops))]
        s = float(rng.choice(NON_OHMIC_S))
        ops.append(Op("nonohmic", f"s={s:g}",
                      self.cli_call(["poles"] + _sets(bath__s=s), cold=True),
                      self._cross_check(model.ModelParams(), gbath.BathParams(s=s)),
                      timed=False))
        return ops

    def _pole_op(self, key, mode):
        a, delta, eta = key
        argv = ["poles"] + _sets(model__a=a, model__Delta=delta, bath__eta=eta)
        if mode == "real-axis":
            argv += _sets(poles__sigma_mode=mode)
        check = (self._table_check(key) if mode == "continued"
                 else self._cross_check(model.ModelParams(a=a, Delta=delta),
                                        gbath.BathParams(eta=eta)))
        return Op(mode, f"a={a:g},Delta={delta:g},eta={eta:g}",
                  self.cli_call(argv, cold=True), check)

    @staticmethod
    def _top_poles(result, out_dir) -> list[complex] | str:
        code, _ = result
        if code != 0:
            return f"exit {code}"
        header, data = read_csv(os.path.join(out_dir, "poles.csv"))
        if data.shape[0] < 2:
            return "fewer than two poles"
        re_i, im_i = header.index("Re E"), header.index("Im E")
        return [complex(row[re_i], row[im_i]) for row in data[:2]]

    def _table_check(self, key):
        def check(result, out_dir):
            top = self._top_poles(result, out_dir)
            if isinstance(top, str):
                return top
            for rank, (found, ref) in enumerate(zip(top, REFERENCE_POLES[key]), 1):
                ratio = found.imag / ref.imag
                if (abs(found.real - ref.real) > RE_TOL
                        or not 1.0 / IM_FACTOR <= ratio <= IM_FACTOR):
                    return f"pole {rank} off table"
            return None
        return check

    def _cross_check(self, m, b):
        def check(result, out_dir):
            top = self._top_poles(result, out_dir)
            if isinstance(top, str):
                return top
            for rank, found in enumerate(top, 1):
                other = spectrum.self_consistent_pole(
                    m, b, found, sigma_mode=gbath.SigmaMode.REAL_AXIS)
                if abs(other - found) > CROSS_TOL * (1.0 + abs(found)):
                    return f"pole {rank} cross-check"
            return None
        return check

    @staticmethod
    def _oracle_check(result, _out_dir):
        code, _ = result
        if code == 0:
            return None
        return f"exit {code} (max|dSP| {op_detail(result).get('max_dsp')})"


def op_detail(result) -> dict:
    """Facts an op reports besides pass/fail (the oracle's max|dSP|)."""
    if isinstance(result, tuple):
        match = _DSP_LINE.search(result[1])
        if match:
            return {"max_dsp": float(match.group(1))}
    return {}


WORKLOADS = {
    "traj_long": TrajLong,
    "traj_batch": TrajBatch,
    "poles_oracle": PolesOracle,
}
