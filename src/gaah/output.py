"""CSV and manifest emission.

Every data file is self-describing: a block of ``# key = value`` comment
lines carries the complete parameter set that produced it, followed by one
CSV header row and the data.  Floats are written with ``repr``, which in
Python 3 is the shortest decimal string that round-trips the exact binary
value, so re-ingesting a file loses nothing.

The manifest is a JSON inventory of one run: tool version, command,
configuration snapshot, wall-clock, per-task status, and a sha256 per
output file.  It is written atomically (temp file + rename) so a crashed
run never leaves a half-written manifest behind.  Output bodies are pure
functions of the input data, so re-running an identical configuration
reproduces identical file hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dynamics import Trajectory
from .model import EigenDecomposition
from .spectrum import DeterminantGrid, ResonancePole

TOOL_VERSION = "0.1.0"

TRAJECTORY_COLUMNS = ("t", "SP", "IPR", "norm", "variance", "Re S", "Im S")

#: Trajectory rows formatted per chunk: the text of a long run is never held
#: in memory at once.
_CSV_CHUNK_ROWS = 4096


def fmt(value) -> str:
    """Shortest round-trip representation for floats; plain str otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(params: dict) -> list[str]:
    return [f"# {key} = {fmt(value)}" for key, value in params.items()]


def write_trajectory_csv(traj: Trajectory, path: str,
                         extra_params: dict | None = None) -> None:
    """Columns t, SP, IPR, norm, variance, Re S, Im S; parameters as comments."""
    params = dict(traj.params)
    if extra_params:
        params.update(extra_params)
    lines = _header_lines(params)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    columns = (traj.grid.times(), traj.sp, traj.ipr, traj.norm, traj.variance,
               traj.collective.real, traj.collective.imag)
    # "%r" of a Python float is its repr, the same text ``fmt`` writes.
    row = ",".join(["%r"] * len(columns)) + "\n"

    def chunks():
        yield "\n".join(lines) + "\n"
        for lo in range(0, traj.grid.steps + 1, _CSV_CHUNK_ROWS):
            values = zip(*(c[lo:lo + _CSV_CHUNK_ROWS].tolist() for c in columns))
            yield "".join([row % v for v in values])

    _atomic_write(path, chunks())


def write_spectrum_csv(dec: EigenDecomposition, weights: np.ndarray,
                       iprs: np.ndarray, path: str,
                       params: dict | None = None) -> None:
    """Closed-system eigenlevels: index, energy, IPR, collective weight."""
    lines = _header_lines(params or {})
    lines.append("index,energy,IPR,collective_weight")
    for i, energy in enumerate(dec.energies, start=1):
        lines.append(",".join((str(i), fmt(energy), fmt(iprs[i - 1]),
                               fmt(weights[i - 1]))))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def write_pole_csv(poles: list[ResonancePole], path: str,
                   params: dict | None = None) -> None:
    """One record per pole: Re E, Im E, residual, overlap, iterations."""
    lines = _header_lines(params or {})
    lines.append("Re E,Im E,residual,overlap,iterations")
    for pole in poles:
        lines.append(",".join((
            fmt(pole.energy.real), fmt(pole.energy.imag), fmt(pole.residual),
            fmt(pole.overlap), str(pole.iterations))))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def write_determinant_grid_csv(grid: DeterminantGrid, path: str,
                               params: dict | None = None) -> None:
    """Grid samples with ln|det| and the sign columns the contour view needs."""
    lines = _header_lines(params or {})
    lines.append("Re E,Im E,ln_abs_det,sign_Re_det,sign_Im_det")
    sr = grid.sign_re()
    si = grid.sign_im()
    for i, y in enumerate(grid.im):
        for j, x in enumerate(grid.re):
            lines.append(",".join((fmt(x), fmt(y), fmt(grid.log_abs[i, j]),
                                   str(sr[i, j]), str(si[i, j]))))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class ManifestBuilder:
    """Collects task results during a run; writes the inventory at the end."""

    command: str
    config_text: str
    out_dir: str
    started: float = field(default_factory=time.time)
    tasks: list[dict] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def add_file(self, path: str) -> str:
        self.files.append(path)
        return path

    def add_task(self, name: str, status: str, detail: str = "") -> None:
        entry = {"name": name, "status": status}
        if detail:
            entry["detail"] = detail
        self.tasks.append(entry)

    def write(self, status: str = "ok") -> str:
        inventory = []
        for path in sorted(set(self.files)):
            inventory.append({
                "path": os.path.relpath(path, self.out_dir),
                "sha256": sha256_of(path),
                "bytes": os.path.getsize(path),
            })
        payload = {
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "status": status,
            "created_unix": round(self.started, 3),
            "elapsed_seconds": round(time.time() - self.started, 3),
            "config": self.config_text,
            "tasks": self.tasks,
            "files": inventory,
        }
        path = os.path.join(self.out_dir, "manifest.json")
        _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
        return path
