"""gaah benchmark: one closed-loop client, one workload, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Every run starts fresh worker
processes, because the self-energy quadrature cache and peak RSS are per
process and every CLI user pays a cold process.  BLAS runs one thread (see
BLAS_THREADS); all op outputs go to a scratch directory under
``.perfbench_runs/`` that is removed afterwards.

The last stdout line is the result object.  With ``--trace 0`` its metrics
are the end-to-end ones (see BENCHMARK.json); with ``--trace 1`` they are the
per-layer ones, and the traced run's spans are kept in
``.perfbench_runs/spans-<workload>-seed<n>.json``.  The line before it is a
report: environment, sample counts, fail_frac and every failure reason.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("traj_long", "traj_batch", "poles_oracle")

#: BLAS threads of the worker.  On a 2-core VM, two threads make every
#: threaded dot product in the history convolution wait for the other core:
#: a t=1200 evolve then took 13 to 67 s, against 24 to 31 s on one thread.
BLAS_THREADS = "1"
#: Fresh processes timed for set-up, besides the measuring one; setup_s is
#: the median over all of them.
SETUP_PROBES = 4
#: Reference duration that set-up times are scaled to: about what
#: worker.reference_sample takes on an idle core of the 2-core VM the
#: benchmark was written on (5.9-6.1 ms; 7-9 ms when the host is busy).
NOMINAL_REF_S = 0.006
#: Hard limit for a whole run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Quantile reported as op_tail_ref.  A run has too few operations for the
#: percentile with ten samples beyond it, so the tail is the run's 90th
#: percentile.
TAIL_QUANTILE = 0.9


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated between the two nearest order statistics, so
    that with few ops the tail rests on two samples, not on the slowest."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


class WorkerError(RuntimeError):
    pass


def start_worker(args: argparse.Namespace, tmp: str, extra: list[str],
                 deadline: float) -> tuple[float, float, dict | None]:
    """Run worker.py; return (seconds from spawn to ``ready``, the reference
    it printed right after, result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, ref, last = None, None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            elif ref is None and line.startswith("ref "):
                ref = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or ref is None:
        raise WorkerError(f"worker exited with code {code}")
    return ready, ref, (json.loads(last) if last else None)


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    """Op times are in units of the reference sampled around and during each
    op (see worker.run_ops), so that the host's drifting speed cancels.
    Set-up times are divided by the reference taken right after them too,
    and given in seconds at NOMINAL_REF_S, because setup_s must be in
    seconds."""
    timed = [o["latency_s"] / o["ref_s"] for o in result["outcomes"] if o["timed"]]
    return {
        "setup_s": (statistics.median(t * NOMINAL_REF_S / ref for t, ref in setups), "s"),
        "wall_ref": (statistics.median(result["round_works"]), "ref"),
        "op_p50_ref": (percentile(timed, 0.5), "ref"),
        "op_tail_ref": (percentile(timed, TAIL_QUANTILE), "ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (not for measurement)")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: damage op outputs before they are checked")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gaah", "__init__.py")):
        print(f"gaah sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    # A terminated run still kills and waits for its worker (start_worker's
    # finally clause).
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(1))
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = [flag for flag, on in (("--tiny", args.tiny), ("--corrupt", args.corrupt))
             if on]
    os.makedirs(RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=RUNS_DIR, prefix="tmp-")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(start_worker(args, tmp, extra + ["--setup-only"],
                                           deadline)[:2])
        spans = os.path.join(RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        ready, ref, result = start_worker(args, tmp, extra + ["--spans", spans], deadline)
        setups.append((ready, ref))
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = result["outcomes"]
    failed = [o for o in outcomes if o["error"]]
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
    else:
        metrics = end_to_end(result, setups)
    timed = sum(1 for o in outcomes if o["timed"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": result["environment"],
        "setup_samples_s": [round(t, 4) for t, _ in setups],
        "setup_refs_s": [round(ref, 5) for _, ref in setups],
        "rounds": len(result["round_walls"]),
        "timed_ops": timed,
        "tail_quantile": TAIL_QUANTILE,
        "op_latencies_s": [round(o["latency_s"], 4) for o in outcomes if o["timed"]],
        "op_refs_s": [round(o["ref_s"], 5) for o in outcomes if o["timed"]],
        "round_walls_s": result["round_walls"],
        "fail_frac": len(failed) / len(outcomes),
        "failures": [{"op": f"{o['kind']} {o['label']}", "reason": o["error"],
                      "known": o["known"]} for o in failed],
        "oracle_max_dsp": [o["detail"]["max_dsp"] for o in outcomes
                           if "max_dsp" in o["detail"]],
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": all(o["known"] for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
