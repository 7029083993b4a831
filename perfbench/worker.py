"""One benchmark run in a fresh process; started by ``run.py``.

Prints ``ready`` once set-up is done (imports, config parsing, input
generation) and then ``ref <seconds>``, the machine-speed reference at that
moment; then it runs the workload and prints one JSON line with every
operation's outcome.  With ``--setup-only`` it exits after ``ref``; the
parent times several such processes to get set-up time.

With ``--trace 1`` it runs round 0 untraced, installs the tracer, runs the
same operations again traced and derives the per-layer metrics; the
difference between the two rounds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

_perf = time.perf_counter


# --- machine-speed reference ------------------------------------------------

_REF_RNG = np.random.default_rng(12345)
_REF_M = _REF_RNG.standard_normal((21, 21)) + 1j * _REF_RNG.standard_normal((21, 21))
_REF_H = _REF_RNG.standard_normal(240000) + 1j * _REF_RNG.standard_normal(240000)
#: Seconds between reference samples taken while an op runs.
SAMPLE_INTERVAL_S = 0.25
#: Reference samples taken right after set-up; their median is printed.
SETUP_REF_SAMPLES = 5


def reference_sample() -> float:
    """Duration of a fixed piece of work in the program's own mix, about
    6 ms: an interpreter loop, small complex mat-vecs called from Python
    (the stepping loop), small LU factorizations (the determinant scan) and
    complex dot products streaming 3.8 MB (the history convolution at
    t=1200).  It tells how fast the machine runs right now.  With this mix
    the op-to-reference ratio varied by 4-7% (CV) over repeats of the same
    op on a 2-core VM, against 9-24% for the raw op times."""
    start = _perf()
    total = 0
    for i in range(20000):
        total += i * i
    v = _REF_M[0]
    for _ in range(300):
        v = _REF_M @ v
        v = v / np.vdot(v, v).real ** 0.5
    for _ in range(100):
        scipy.linalg.lu_factor(_REF_M, check_finite=False)
    for _ in range(10):
        np.dot(_REF_H, _REF_H)
    return _perf() - start


def interquartile_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_ops(ops, tmp: str, corrupt: bool, sample: bool = True) -> list[workloads.Outcome]:
    """Run and check each op.  The shared host's speed drifts by tens of
    percent within seconds, so each op also gets the reference duration at
    its time (``ref_s``): the interquartile mean of samples taken just before
    it, every SAMPLE_INTERVAL_S while it runs (from a SIGALRM handler, their
    time taken out of the op's latency) and just after it.  Without
    ``sample`` only the samples before and after are taken, so that no
    handler time lands in a traced span."""
    outcomes = []
    in_op: list[float] = []
    previous = signal.signal(signal.SIGALRM,
                             lambda _sig, _frame: in_op.append(reference_sample()))
    try:
        for op in ops:
            out_dir = tempfile.mkdtemp(dir=tmp)
            in_op.clear()
            before = reference_sample()
            start = _perf()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                result = op.call(out_dir)
                error = None
            except Exception as exc:  # an op's crash is a counted failure
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latency = _perf() - start - sum(in_op)
            ref_s = interquartile_mean([before, *in_op, reference_sample()])
            detail = workloads.op_detail(result)
            if error is None:
                if corrupt:
                    workloads.corrupt_outputs(out_dir)
                try:
                    error = op.check(result, out_dir)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            known = workloads.known_failure(op, error, detail) if error else None
            outcomes.append(workloads.Outcome(op.kind, op.label, latency, ref_s,
                                              error, known, op.timed, detail))
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcomes


def round_wall(outcomes) -> float:
    """Time to finish a round's operations: the sum of the timed latencies
    (set-up, output checks and untimed probes excluded)."""
    return sum(o.latency_s for o in outcomes if o.timed)


def round_work(outcomes) -> float:
    """round_wall with every latency in units of its op's reference."""
    return sum(o.latency_s / o.ref_s for o in outcomes if o.timed)


# --- traced run -------------------------------------------------------------


def _on_evolve(tr, args, kwargs, _result, duration):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    tr.counts["dynamics.steps"] += grid.steps
    tr.records["evolve"].append((args[0], grid, duration))


def _add(key, value_of):
    def hook(tr, args, _kwargs, result, _duration):
        tr.counts[key] += value_of(args, result)
    return hook


def _on_validate(tr, _args, _kwargs, result, _duration):
    tr.counts["oracle.max_dsp"] = max(tr.counts["oracle.max_dsp"],
                                      result.max_sp_deviation)


_PATCHES = (
    # (targets, name, keep spans, result hook)
    (["gaah.cli:main"], "cli.main", True, None),
    (["gaah.cli:parse_config"], "config.parse", True, None),
    (["gaah.cli:build_bundle"], "figures.bundle", True, None),
    (["gaah.cli:evolve", "gaah.figures:evolve", "gaah.dynamics:evolve"],
     "dynamics.evolve", True, _on_evolve),
    (["gaah.dynamics:survival_probability", "gaah.dynamics:ipr",
      "gaah.dynamics:position_variance"], "dynamics.observables", False, None),
    (["gaah.cli:validate_against_oracle"], "oracle.validate", True, _on_validate),
    (["gaah.oracle:evolve_full"], "oracle.evolve_full", True,
     _add("oracle.dim", lambda a, r: a[0].N + a[1].modes)),
    (["gaah.oracle:survival_probability", "gaah.oracle:ipr",
      "gaah.oracle:position_variance"], "oracle.observables", False, None),
    (["gaah.cli:find_poles"], "spectrum.find_poles", True,
     _add("spectrum.poles_kept", lambda a, r: len(r))),
    (["gaah.spectrum:scan_grid", "gaah.figures:scan_grid"], "spectrum.scan_grid",
     True, _add("spectrum.scan_grid.points", lambda a, r: r.log_abs.size)),
    (["gaah.spectrum:refine_pole"], "spectrum.refine_pole", True,
     _add("spectrum.newton_iters", lambda a, r: r.iterations)),
    (["gaah.spectrum:char_determinant_scaled"], "spectrum.char_det", False, None),
    (["gaah.spectrum:null_vector"], "spectrum.null_vector", False, None),
    (["gaah.spectrum:self_energy_eval"], "bath.self_energy", False, None),
    ([f"gaah.{m}:diagonalize" for m in ("cli", "config", "dynamics", "figures",
                                         "spectrum")],
     "model.diagonalize", False, None),
    ([f"gaah.{m}:build_hamiltonian" for m in ("cli", "config", "dynamics",
                                               "figures", "oracle", "spectrum")],
     "model.build_hamiltonian", False, None),
    (["gaah.cli:write_trajectory_csv", "gaah.cli:write_pole_csv",
      "gaah.cli:write_spectrum_csv", "gaah.figures:write_trajectory_csv",
      "gaah.figures:write_determinant_grid_csv", "gaah.output:write_trajectory_csv"],
     "output.csv", True, _add("output.csv.bytes", lambda a, r: os.path.getsize(a[1]))),
    (["gaah.output:ManifestBuilder.write"], "output.manifest", True, None),
)


def install(tracer: Tracer) -> None:
    for targets, name, keep, hook in _PATCHES:
        for target in targets:
            tracer.patch(target, name, keep, hook)


def memory_seconds(tracer: Tracer) -> float:
    """Derived: coupled evolve time minus the same grid at eta = 0, summed
    over the round's evolve calls.  The eta = 0 twin runs traced too (its
    records discarded), so tracing overhead cancels."""
    from gaah import bath, dynamics, model

    twin: dict[tuple, float] = {}
    total = 0.0
    for m, grid, duration in tracer.records["evolve"]:
        key = (m.N, grid.dt, grid.steps)
        if key not in twin:
            init = model.highest_excited_state(
                model.diagonalize(model.build_hamiltonian(m)))
            with tracer.isolated():
                start = _perf()
                dynamics.evolve(m, bath.BathParams(eta=0.0), init, grid)
                twin[key] = _perf() - start
        total += duration - twin[key]
    return total


def layer_metrics(tracer: Tracer, memory_s: float, overhead_s: float,
                  cache: tuple[int, int]) -> dict[str, tuple[float, str]]:
    t, c = tracer.totals, tracer.counts

    def calls(name):
        return t[name][0] if name in t else 0

    def secs(name):
        return t[name][1] if name in t else 0.0

    steps = c["dynamics.steps"]
    refined = calls("spectrum.refine_pole")
    return {
        "dynamics.evolve.s": (secs("dynamics.evolve"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_us": (1e6 * secs("dynamics.evolve") / steps if steps else 0.0, "us"),
        "dynamics.memory.s": (memory_s, "s"),
        "dynamics.observables.calls": (calls("dynamics.observables"), "count"),
        "dynamics.observables.s": (secs("dynamics.observables"), "s"),
        "oracle.evolve_full.s": (secs("oracle.evolve_full"), "s"),
        "oracle.observables.s": (secs("oracle.observables"), "s"),
        "oracle.propagate.s": (secs("oracle.evolve_full") - secs("oracle.observables"), "s"),
        "oracle.dim": (c["oracle.dim"], "count"),
        "oracle.max_dsp": (c["oracle.max_dsp"], "1"),
        "spectrum.scan_grid.s": (secs("spectrum.scan_grid"), "s"),
        "spectrum.scan_grid.points": (c["spectrum.scan_grid.points"], "count"),
        "spectrum.refine_pole.calls": (refined, "count"),
        "spectrum.refine_pole.s": (secs("spectrum.refine_pole"), "s"),
        "spectrum.newton_iters": (c["spectrum.newton_iters"], "count"),
        "spectrum.char_det.calls": (calls("spectrum.char_det"), "count"),
        "spectrum.null_vector.s": (secs("spectrum.null_vector"), "s"),
        "spectrum.poles_kept": (c["spectrum.poles_kept"], "count"),
        "spectrum.seed_yield": (c["spectrum.poles_kept"] / refined if refined else 0.0, "1"),
        "model.diagonalize.calls": (calls("model.diagonalize"), "count"),
        "model.diagonalize.s": (secs("model.diagonalize"), "s"),
        "model.build_hamiltonian.calls": (calls("model.build_hamiltonian"), "count"),
        "bath.self_energy.calls": (calls("bath.self_energy"), "count"),
        "bath.self_energy.s": (secs("bath.self_energy"), "s"),
        "bath.dispersive.hits": (cache[0], "count"),
        "bath.dispersive.misses": (cache[1], "count"),
        "output.csv.calls": (calls("output.csv"), "count"),
        "output.csv.s": (secs("output.csv"), "s"),
        "output.csv.bytes": (c["output.csv.bytes"], "B"),
        "output.manifest.s": (secs("output.manifest"), "s"),
        "figures.bundle.s": (secs("figures.bundle"), "s"),
        "cli.main.s": (secs("cli.main"), "s"),
        "config.parse.s": (secs("config.parse"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced_run(wl, tmp, corrupt, spans_path):
    untraced = run_ops(wl.round_ops(0), tmp, corrupt, sample=False)
    tracer = Tracer()
    install(tracer)
    try:
        wl.tally_cache()
        before = (wl.cache_hits, wl.cache_misses)
        traced = run_ops(wl.round_ops(0), tmp, corrupt, sample=False)
        wl.tally_cache()
        cache = (wl.cache_hits - before[0], wl.cache_misses - before[1])
        memory_s = memory_seconds(tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    overhead = round_wall(traced) - round_wall(untraced)
    layers = layer_metrics(tracer, memory_s, overhead, cache)
    return untraced + traced, [round_wall(untraced), round_wall(traced)], layers


# --- entry point --------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # build info layout differs across numpy versions
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True, help="scratch directory for op outputs")
    p.add_argument("--spans", help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: damage every op's output before its check")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.setup()
    print("ready", flush=True)
    print(f"ref {statistics.median([reference_sample() for _ in range(SETUP_REF_SAMPLES)])!r}",
          flush=True)
    if args.setup_only:
        return 0

    layers, works = None, []
    if args.trace:
        outcomes, walls, layers = traced_run(wl, args.tmp, args.corrupt, args.spans)
    else:
        outcomes, walls, lengths = [], [], []
        start = _perf()
        # Another round only if one more, at the median length so far (checks
        # included), still ends inside the window; always at least one.
        while not lengths or _perf() - start + statistics.median(lengths) <= args.seconds:
            round_start = _perf()
            done = run_ops(wl.round_ops(len(walls)), args.tmp, args.corrupt)
            outcomes += done
            walls.append(round_wall(done))
            works.append(round_work(done))
            lengths.append(_perf() - round_start)
    print(json.dumps({
        "outcomes": [o.__dict__ for o in outcomes],
        "round_walls": walls,
        "round_works": works,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "environment": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
