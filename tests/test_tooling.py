"""Names and commands the benchmark harness depends on.

The benchmark's traced run (``perfbench/worker.py``) rebinds gaah functions
by ``module:attribute`` name to time them.  A rename or deletion in
``src/`` would make that run fail, or silently stop measuring a layer, so
every name it patches must keep resolving.  Likewise every CLI command its
workloads (``perfbench/workloads.py``) run must keep parsing, so that a
removed option fails here rather than as benchmark failures, and
``cli.main`` must build one parser per call, not one per command, so that
every in-process op keeps its cost.  The far
history of ``evolve`` must stay block-sized, and its block solve free of
direct sums of block length, so that a long trajectory, the benchmark's
largest op, keeps its cost; its CSV must be formatted in
chunks, so that it keeps its memory; an Ohmic pole search must evaluate
no dispersive integral, and its Newton slope no exponential integral, a
non-Ohmic search or landscape must run no quadrature, build its table of
bath modes once and sum over it per array of points, not point by point,
and any search must evaluate Sigma once per Newton round for all its
seeds together, not once per seed, so that the pole ops keep their cost;
the oracle must never form the (N + M)-square full Hamiltonian, and its secular solve
must sum each block of roots over the poles near it alone, so that the
oracle op keeps its cost.  No ``gaah`` command may load ``scipy.signal``,
which brings ``scipy.stats`` and ``scipy.interpolate`` and most of the
package's import time, so that every process keeps its start-up.  The
names the ``gaah`` package exports are pinned, so that adding or removing
one is a visible diff here.  The
configuration registry's defaults are held to the library's (the
``ModelParams`` and ``BathParams`` fields, the pole-search depth, the
oracle's keyword defaults), and the package version to ``pyproject.toml``'s,
so that neither copy can drift.  The three scripts under ``scripts/`` must
run and print the figures their docstrings give, since they import names
that the package keeps reshaping.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.linalg

import gaah
from gaah import cli, dynamics, oracle, output, spectrum
from gaah._floatfmt import format_rows
from gaah.bath import BathParams, SigmaMode
from gaah.config import REGISTRY
from gaah.model import ModelParams, build_hamiltonian, diagonalize, highest_excited_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_worker():
    # The worker imports its sibling modules by plain name.
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_worker", os.path.join(PERFBENCH, "worker.py"))
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        sys.path.remove(PERFBENCH)
    return worker


def test_every_traced_target_resolves():
    targets = [t for names, *_ in _load_worker()._PATCHES for t in names]
    assert len(targets) > 30
    missing = []
    for target in targets:
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        try:
            for part in attr_path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(target)
        else:
            if not callable(owner):
                missing.append(target)
    assert missing == []


def test_every_benchmark_command_parses(tmp_path, monkeypatch):
    workloads = _load_worker().workloads
    commands = []
    monkeypatch.setattr(workloads, "run_cli",
                        lambda argv: commands.append(argv) or (0, ""))
    for workload in workloads.WORKLOADS.values():
        for tiny in (False, True):  # the benchmark's and the self-test's sizes
            wl = workload(seed=1, tiny=tiny)
            wl.setup()
            for op in wl.round_ops(0):
                if op.kind != "evolve":  # traj_long calls the library, not the CLI
                    op.call(str(tmp_path))
    assert {argv[0] for argv in commands} == {"figdata", "oracle", "poles"}
    keys = set()
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        cli.parse_config("", overrides=args.overrides)
        keys.update(item.partition("=")[0] for item in args.overrides)
    assert len(keys) >= 11


def test_one_parser_per_call(tmp_path, monkeypatch, capsys):
    # A parser per command, six subparsers under a top-level one, took
    # 0.7 ms more of every in-process call than one parser does.
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["spectrum", "--out", str(tmp_path), "--set", "model.N=7"]) == 0
    assert built == ["gaah"]


def test_traced_layers_are_called_through_their_bindings(monkeypatch):
    # The traced counters read these module globals: an evolve that called
    # the model layer by another route would count 0 diagonalizations.
    model = ModelParams(N=7)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    calls = collections.Counter()

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("diagonalize", "build_hamiltonian"):
        counted(dynamics, name)
    counted(oracle, "evolve_full")
    grid = dynamics.TimeGrid(dt=0.01, steps=2 * dynamics.HISTORY_BLOCK + 1)
    for bath in (BathParams(), BathParams(eta=0.0)):
        calls.clear()
        dynamics.evolve(model, bath, init, grid)
        assert calls == {"diagonalize": 1, "build_hamiltonian": 1}
    calls.clear()
    oracle.validate_against_oracle(model, BathParams(), init,
                                   dynamics.TimeGrid.from_t_max(0.01, 1.0),
                                   modes=100, omega_max=40.0)
    assert calls == {"evolve_full": 1, "diagonalize": 1, "build_hamiltonian": 1}


def test_history_transforms_stay_block_sized(monkeypatch):
    # A full-length FFT of the history per block would make a long run
    # O(n^2 / B log n) again while every number stayed the same.
    lengths = []

    def recorded(name):
        transform = getattr(scipy.fft, name)

        def wrapper(x, n=None, *args, **kwargs):
            lengths.append(n or np.shape(x)[kwargs.get("axis", -1)])
            return transform(x, n, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, wrapper)

    recorded("fft")
    recorded("ifft")
    model = ModelParams(N=7)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    block = dynamics.HISTORY_BLOCK
    dynamics.evolve(model, BathParams(), init,
                    dynamics.TimeGrid(dt=0.01, steps=10 * block + 1))
    assert len(lengths) >= 10
    assert max(lengths) <= 2 * block


def test_block_solve_sums_no_block_length_convolution(monkeypatch):
    # A healthy run applies the block's Toeplitz solve by transforms: only
    # the inverse series is summed directly, in chunks, about B^2 / 2
    # multiply-adds per run.  A direct convolution of block length per block
    # would add B^2 for every block while every number stayed the same.
    madds = []
    convolve = np.convolve

    def counted(a, v, mode="full"):
        long, short = sorted((len(a), len(v)), reverse=True)
        madds.append(short * (long - short + 1 if mode == "valid" else long))
        return convolve(a, v, mode)

    monkeypatch.setattr(np, "convolve", counted)
    model = ModelParams(N=7)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    block = dynamics.HISTORY_BLOCK
    dynamics.evolve(model, BathParams(), init,
                    dynamics.TimeGrid(dt=0.01, steps=10 * block + 1))
    assert madds
    assert sum(madds) <= 2 * block ** 2


def test_csv_formatting_stays_chunk_sized(tmp_path, monkeypatch):
    # Formatting a t = 1200 trajectory in one block would hold the text of
    # all 120,001 x 7 values at once, 25 MB of slots and then twice 15 MB of
    # bytes, while every byte written stayed the same.
    rows = []

    def recorded(block, tail):
        rows.append(len(block))
        return format_rows(block, tail)

    monkeypatch.setattr(output, "format_rows", recorded)
    chunk = output._CSV_CHUNK_ROWS
    grid = dynamics.TimeGrid(dt=0.01, steps=3 * chunk + 5)
    x = np.linspace(0.0, 1.0, grid.steps + 1)
    traj = dynamics.Trajectory(grid=grid, sp=x, ipr=x, norm=x, variance=x,
                               collective=x * (1 + 1j), params={})
    output.write_trajectory_csv(traj, str(tmp_path / "t.csv"))
    assert sum(rows) == grid.steps + 1
    assert max(rows) <= chunk


def test_oracle_propagation_stays_block_sized():
    # At the criterion-7 size (N = 7, N + M = 2007, 25,001 times) the
    # propagation holds one block of phases and the shifted rows of a few
    # blocks, 17 MB at its peak; the shifted rows of the whole grid alone
    # would be 22 MB.
    K, N = 2007, 7
    rng = np.random.default_rng(7)
    evals = np.sort(rng.uniform(-3.0, 80.0, K))
    rows = np.linalg.qr(rng.normal(size=(K, N)))[0].T
    init = np.eye(N)[0].astype(complex)
    tracemalloc.start()
    try:
        oracle._propagate(evals, rows, init, dynamics.TimeGrid(dt=0.002, steps=25_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_ohmic_pole_search_runs_no_quadrature(monkeypatch):
    # At s = 1 both self-energy modes have a closed form and a closed-form
    # slope, so the search never evaluates the dispersive integral; when that
    # was an adaptive quadrature per Newton point, a real-axis search took
    # over a second while every pole stayed the same.
    def refuse(*args):
        raise AssertionError("the s = 1 pole search evaluated the dispersive integral")

    monkeypatch.setattr("gaah.bath._dispersive_part", refuse)
    model = ModelParams()
    region = spectrum.default_search_region(model)
    for mode in (SigmaMode.CONTINUED, SigmaMode.REAL_AXIS):
        poles = spectrum.find_poles(model, BathParams(), region, sigma_mode=mode)
        assert len(poles) >= 2


def test_non_ohmic_pole_search_runs_no_quadrature(monkeypatch):
    # Off s = 1 the real-axis self-energy and its slope are sums over one
    # table of rotated-ray bath modes.  An adaptive principal-value
    # quadrature per Newton point, and two more for a central-difference
    # slope, made this search take 0.5-3 s while every pole stayed the same.
    # The sum is taken for a whole array of points in one call: the search
    # and the landscape never go point by point through the scalar sum.
    def refuse(*args, **kwargs):
        raise AssertionError("the s = 0.75 pole search ran a scipy.integrate routine")

    def refuse_point(*args, **kwargs):
        raise AssertionError("the s = 0.75 self-energy was summed point by point")

    for name in dir(scipy.integrate):
        if not name.startswith("_") and callable(getattr(scipy.integrate, name)):
            monkeypatch.setattr(scipy.integrate, name, refuse)
    # A routine imported by name would escape the patch above.
    for module in (gaah.bath, spectrum):
        assert not [value for value in vars(module).values()
                    if getattr(value, "__module__", "").startswith("scipy.integrate")]
    monkeypatch.setattr(gaah.bath, "_dispersive_part", refuse_point)
    gaah.bath._ray_modes.cache_clear()
    model, bath = ModelParams(), BathParams(s=0.75)
    region = spectrum.default_search_region(model)
    poles = spectrum.find_poles(model, bath, region)
    assert len(poles) >= 2
    spectrum.scan_grid(model, bath, region, n_re=40, n_im=8)
    assert gaah.bath._ray_modes.cache_info().misses == 1


def test_pole_search_evaluates_sigma_per_round_not_per_seed(monkeypatch):
    # The seeds are polished together: each Newton round evaluates Sigma
    # once for every seed still iterating, and once more for those that
    # halve their step.  One refinement per seed made 153 evaluations at the
    # default point, one per seed and trial, while every pole stayed the same.
    sizes = []
    evaluate = spectrum.self_energy_eval

    def counted(bath, E, *args):
        sizes.append(np.size(E))
        return evaluate(bath, E, *args)

    monkeypatch.setattr(spectrum, "self_energy_eval", counted)
    model, bath = ModelParams(), BathParams()
    dec = diagonalize(build_hamiltonian(model))
    region = spectrum.default_search_region(model, dec=dec)
    seeds = spectrum.perturbative_pole_seeds(model, bath, region, dec=dec)
    sizes.clear()
    _, iterations, _, fate = spectrum._seed_fates(
        model, bath, region, spectrum.ResiduePrescription.HALF, SigmaMode.CONTINUED, dec)
    # Sigma at the levels that seed, at every seed to start the polish,
    # then at most six trials (one step and five halvings) per round.
    assert sizes[1] == len(seeds) == 21
    assert len(sizes) <= 2 + 6 * iterations.max()
    assert len(sizes) < 40


def test_ohmic_self_energy_slope_costs_no_exponential_integral(monkeypatch):
    # The Newton's slope comes from the Sigma it already holds, so the only
    # exponential integrals of a refinement are those of Sigma itself.
    counts = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(f"gaah.bath.{name}", wrapper)

    from gaah import bath
    counted("expi", bath.expi)
    counted("_closed_form", bath._closed_form)
    model = ModelParams()
    for mode in (SigmaMode.CONTINUED, SigmaMode.REAL_AXIS):
        counts.clear()
        pole = spectrum.refine_pole(model, BathParams(), 2.95 - 1e-5j, sigma_mode=mode)
        assert pole.converged
        assert counts["expi"] == counts["_closed_form"] > pole.iterations


def test_oracle_never_forms_the_full_matrix(monkeypatch):
    # The dense route diagonalized the (N + M)-square H_full, 2 * 2007^2 * 8 B
    # = 64 MB for the matrix and its eigenvectors at N = 7, M = 2000.
    sizes = []

    def recorded(module):
        eigh = module.eigh

        def wrapper(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)
        monkeypatch.setattr(module, "eigh", wrapper)

    recorded(np.linalg)
    recorded(scipy.linalg)
    model = ModelParams(N=7)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    dbath = oracle.discretize_bath(BathParams(), 2000, 80.0)
    tracemalloc.start()
    try:
        oracle.evolve_full(model, dbath, init, dynamics.TimeGrid(dt=0.01, steps=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= model.N
    assert peak < 24e6


def test_oracle_secular_solve_sums_near_poles_only(monkeypatch):
    # Each block of inner roots sums only the poles within the near margin
    # of its span, and the others enter through interpolants.  Sums over
    # all N + M poles gave the same roots at six to seven times the cost of
    # the whole solve at N = 21, M = 8000, so only the widths of the
    # iteration arrays can tell.
    blocks, widths = [], []
    solve_block, secular_terms = oracle._solve_block, oracle._secular_terms

    def recorded_block(head, d, u2, k, *args):
        blocks.append((d, k))
        return solve_block(head, d, u2, k, *args)

    def recorded_terms(head, d, *args):
        widths.append((len(blocks) - 1, d.size))
        return secular_terms(head, d, *args)

    monkeypatch.setattr(oracle, "_solve_block", recorded_block)
    monkeypatch.setattr(oracle, "_secular_terms", recorded_terms)
    model = ModelParams(N=21)
    evals, _ = oracle.arrowhead_eig(*oracle._arrowhead_form(
        model, oracle.discretize_bath(BathParams(), 8000, 200.0)))
    n = evals.size - 1
    is_inner = [bool(np.all((k > 0) & (k < d.size))) for d, k in blocks]
    inner = [block for block, flag in zip(blocks, is_inner) if flag]
    # The outer roots, below and above every pole, keep them all near.
    assert [k.tolist() for (_, k), flag in zip(blocks, is_inner) if not flag] == [[0, n]]
    assert sum(k.size for _, k in inner) == n - 1
    for d, k in inner:
        a, b = d[k.min() - 1], d[k.max()]
        margin = oracle._NEAR_MARGIN * (b - a)
        assert a - margin <= d[0] and d[-1] <= b + margin
        assert d.size < n // 10
    assert all(width == blocks[i][0].size for i, width in widths)


PUBLIC_NAMES = [
    "BathParams", "ConfigError", "DeterminantGrid", "DiscreteBath",
    "EigenDecomposition", "GOLDEN_MEAN_CONJUGATE", "GaahError", "ModelParams",
    "NumericsError", "OracleMismatchError", "ParameterError", "PoleSearchRegion",
    "PrescriptionViolationError", "ResiduePrescription", "ResonancePole",
    "RunConfig", "SigmaMode", "TimeGrid", "Trajectory", "UnstableEvolutionError",
    "ValidationReport", "beat_envelope", "build_hamiltonian",
    "char_determinant_scaled", "collective_weights", "compare_trajectories",
    "default_search_region", "diagonalize", "discretize_bath", "dominant_period",
    "evolve", "evolve_full", "find_poles", "highest_excited_state", "ipr",
    "mobility_edge", "observables", "parse_config", "position_variance",
    "refine_pole", "scan_grid", "self_consistent_pole", "self_energy",
    "self_energy_closed_form", "self_energy_eval", "serialize_values",
    "spectral_density", "state_ipr", "state_overlap", "survival_probability",
    "validate_against_oracle",
]


_STARTUP_SCRIPT = """
import json, sys
import numpy as np
from gaah.cli import main
from gaah.dynamics import beat_envelope
small = ["--set", "model.N=7"]
short = ["--set", "grid.t_max=2"]  # figdata refuses a grid of its own
runs = (["spectrum", *short], ["evolve", *short], ["poles", *short],
        ["figdata", "--set", "fig.bundle=figA2"],
        ["oracle", "--set", "oracle.modes=200", "--set", "oracle.t_max=2",
         "--set", "oracle.threshold=1", *short])
codes = [main(argv + small + ["--out", f"{sys.argv[1]}/{i}"]) for i, argv in enumerate(runs)]
heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate")
loaded = sorted(name for name in heavy if name in sys.modules)
series = np.cos(np.linspace(0.0, 30.0, 301)) ** 2
smoothed = beat_envelope(series, 0.1)
import scipy.signal
same = bool(np.array_equal(smoothed, scipy.signal.savgol_filter(series, 51, 2)))
print(json.dumps({"codes": codes, "loaded": loaded, "same": same}))
"""


def test_startup_loads_no_signal_processing(tmp_path):
    # A fresh process, since this one has long imported everything.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["loaded"] == []
    assert result["same"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(tmp_path, capsys):
    # The scripts import names that the package keeps reshaping.
    assert _load_script("reproduce_figures").main(
        ["--out", str(tmp_path), "--bundle", "figA2"]) == 0
    assert len(list((tmp_path / "figA2").glob("figA2_*.csv"))) == 3
    capsys.readouterr()
    assert _load_script("calibrate_prescription").main() == 0
    half = capsys.readouterr().out.partition("prescription = full")[0]
    assert "worst |dRe| = 4.73e-05; mean Im ratio = 1.000" in half
    validate = _load_script("validate_solver")
    assert validate.main() == 0
    deviations = re.compile(r"max \|dSP\| = (\S+)")
    expected = deviations.findall(validate.__doc__)
    assert len(expected) == 6
    assert deviations.findall(capsys.readouterr().out) == expected


def test_public_names_are_pinned():
    # Submodules become package attributes once anything imports them, so
    # they are left out: the pin covers what __init__ itself exports.
    exported = sorted(name for name, value in vars(gaah).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


def test_registry_defaults_are_the_library_defaults():
    for section, cls in (("model", ModelParams), ("bath", BathParams)):
        keys = {name: spec.default for name, spec in REGISTRY.items()
                if name.startswith(f"{section}.")}
        assert keys == {f"{section}.{f.name}": f.default for f in dataclasses.fields(cls)}
    assert REGISTRY["poles.im_min"].default == -spectrum.SEARCH_DEPTH
    assert REGISTRY["poles.im_max"].default == 0.0
    defaults = inspect.signature(oracle.validate_against_oracle).parameters
    for key in ("modes", "omega_max", "threshold"):
        assert REGISTRY[f"oracle.{key}"].default == defaults[key].default


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert version == gaah.__version__
    assert output.TOOL_VERSION == gaah.__version__
