"""CSV and manifest emission.

Every data file is self-describing: a block of ``# key = value`` comment
lines, then one CSV header row and the data.  Each writer takes those lines
as its ``params`` dict; gaah passes the complete configuration of the run
that wrote the file (``RunConfig.values``) and nothing else, so every
header parses back through ``config.parse_config_text`` to that run.
Floats are written as their ``repr``, which in Python 3 is the shortest
decimal string that round-trips the exact binary value, so re-ingesting a
file loses nothing.

The bulk of the data, trajectories and determinant grids, is formatted a
block of rows at a time by ``_floatfmt.format_rows``.  It computes the same
text as ``repr`` in numpy integer arithmetic: the Schubfach algorithm gives
the shortest round-trip digits exactly, and ``repr``'s layout rules place
them (fixed notation for 1e-4 <= |x| < 1e16, ``1e-05`` style otherwise).
Its module docstring gives the argument; the tests hold it to ``repr`` byte
for byte on every power of two, every power of ten and random bit patterns.
``fmt`` writes headers, scalars and the small tables, and every value the
way a config file writes it.

The manifest is a JSON inventory of one run: tool version, command,
configuration snapshot, wall-clock, per-task status, and a sha256 per
output file.  Every file is written atomically (temp file + rename) so a
crashed run never leaves a half-written file behind, and gets the mode the
process umask gives any new file.  Output bodies are pure functions of the
input data, and files are written as UTF-8 bytes with ``\n`` line ends
whatever the platform or locale, so re-running an identical configuration
reproduces identical file hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from ._floatfmt import format_rows
from .dynamics import Trajectory
from .model import EigenDecomposition
from .spectrum import DeterminantGrid, ResonancePole

TOOL_VERSION = __version__

TRAJECTORY_COLUMNS = ("t", "SP", "IPR", "norm", "variance", "Re S", "Im S")

#: Data rows formatted per chunk: the text of a long run is never held in
#: memory at once.  With 7 values a row the digit step's twenty or so uint64
#: work arrays take 56 KB each, and the text slots 210 KB.
_CSV_CHUNK_ROWS = 1024

_NEWLINE = np.frombuffer(b"\n", dtype=np.uint8)
#: ",{sign Re},{sign Im}\n" of a grid row, NUL-padded, indexed by sign + 1.
_SIGN_TAILS = np.array(
    [[list(f",{a},{b}\n".encode().ljust(7, b"\0")) for b in (-1, 0, 1)]
     for a in (-1, 0, 1)], dtype=np.uint8)


def fmt(value) -> str:
    """A value as a config file writes it: floats as their shortest
    round-trip repr, ``none``, ``true``/``false``, a sequence comma-joined,
    anything else as str."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(map(fmt, value))
    return str(value)


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Mode 0o666 leaves the permissions to the umask, as open() does.
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _head(params: dict, columns) -> list[str]:
    """The ``# key = value`` lines of ``params``, then the column row."""
    return [*(f"# {key} = {fmt(value)}" for key, value in params.items()),
            ",".join(columns)]


def _text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_chunks(lines: list[str], columns: tuple[np.ndarray, ...],
                tails: np.ndarray) -> Iterator[bytes]:
    """The header ``lines``, then the rows of the float ``columns`` as repr
    text, each ended by its row of the uint8 ``tails`` (NULs dropped)."""
    yield _text(lines)
    n = len(columns[0])
    block = np.empty((min(n, _CSV_CHUNK_ROWS), len(columns)))
    for lo in range(0, n, _CSV_CHUNK_ROWS):
        rows = block[:min(_CSV_CHUNK_ROWS, n - lo)]
        for j, column in enumerate(columns):
            rows[:, j] = column[lo:lo + len(rows)]
        yield format_rows(rows, tails[lo:lo + len(rows)])


def write_trajectory_csv(traj: Trajectory, path: str,
                         params: dict | None = None) -> None:
    """Columns t, SP, IPR, norm, variance, Re S, Im S; ``params`` as comments."""
    lines = _head(params or {}, TRAJECTORY_COLUMNS)
    columns = (traj.grid.times(), traj.sp, traj.ipr, traj.norm, traj.variance,
               traj.collective.real, traj.collective.imag)
    tails = np.broadcast_to(_NEWLINE, (len(columns[0]), 1))
    _atomic_write(path, _csv_chunks(lines, columns, tails))


def write_spectrum_csv(dec: EigenDecomposition, weights: np.ndarray,
                       iprs: np.ndarray, path: str,
                       params: dict | None = None) -> None:
    """Closed-system eigenlevels: index, energy, IPR, collective weight."""
    _write_table(path, params or {}, ("index", "energy", "IPR", "collective_weight"),
                 zip(range(1, len(dec.energies) + 1), dec.energies, iprs, weights))


def write_pole_csv(poles: list[ResonancePole], path: str,
                   params: dict | None = None) -> None:
    """One record per pole: Re E, Im E, residual, overlap, iterations.  The
    residual is |h| = |(lambda_k - E) F(E)| at the pole, with lambda_k the
    level nearest it, and iterations counts the Newton steps."""
    _write_table(path, params or {}, ("Re E", "Im E", "residual", "overlap", "iterations"),
                 ((p.energy.real, p.energy.imag, p.residual, p.overlap, p.iterations)
                  for p in poles))


def write_determinant_grid_csv(grid: DeterminantGrid, path: str,
                               params: dict | None = None) -> None:
    """Grid samples with ln|det| and the sign columns the contour view needs."""
    lines = _head(params or {}, ("Re E", "Im E", "ln_abs_det", "sign_Re_det",
                                 "sign_Im_det"))
    n_im, n_re = grid.log_abs.shape
    columns = (np.tile(grid.re, n_im), np.repeat(grid.im, n_re), grid.log_abs.ravel())
    tails = _SIGN_TAILS[grid.sign_re().ravel() + 1, grid.sign_im().ravel() + 1]
    _atomic_write(path, _csv_chunks(lines, columns, tails))


def write_summary_csv(rows: list[dict], path: str,
                      params: dict | None = None) -> None:
    """One line per row dict, columns in the first row's key order."""
    columns = list(rows[0])
    _write_table(path, params or {}, columns, ([row[c] for c in columns] for row in rows))


def _write_table(path: str, params: dict, columns, rows) -> None:
    """A small CSV: the ``params`` header, the ``columns`` row, then ``fmt``
    of every value of each row."""
    lines = _head(params, columns)
    lines.extend(",".join(map(fmt, row)) for row in rows)
    _atomic_write(path, [_text(lines)])


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

    def add_file(self, path: str) -> None:
        self.files.append(path)

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
        _atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])
        return path
