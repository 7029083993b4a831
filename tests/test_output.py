"""The block float formatter against ``repr``, and the bytes files hold.

``format_rows`` must give ``repr``'s text for every double.  The fixed
tables cover the cases where shortest-digit algorithms differ or where
``repr`` switches layout; the property test and a seeded batch cover raw
bit patterns.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaah import output
from gaah._floatfmt import format_rows
from gaah.cli import main
from gaah.dynamics import TimeGrid
from gaah.output import fmt, write_determinant_grid_csv
from gaah.spectrum import DeterminantGrid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NEWLINE = np.frombuffer(b"\n", dtype=np.uint8)


def _assert_repr(values, columns=1):
    """format_rows of ``values`` in rows of ``columns`` is "%r,...,%r\\n" per row."""
    values = np.asarray(values, dtype=np.float64).ravel()
    block = values[:len(values) // columns * columns].reshape(-1, columns)
    row = ",".join(["%r"] * columns) + "\n"
    want = "".join(row % tuple(r) for r in block.tolist()).encode()
    got = format_rows(block, NEWLINE)
    if got != want:
        for mine, theirs in zip(got.split(b"\n"), want.split(b"\n")):
            assert mine == theirs
    assert got == want


def _with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _signed(x):
    return np.concatenate([x, -x])


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


class TestFormatRowsIsRepr:
    def test_powers_of_two_and_their_neighbours(self):
        # Just above a power of two the gap below is half the gap above.
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert len(powers) == 2098
        _assert_repr(_signed(_with_neighbours(powers)))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_repr(_signed(_with_neighbours(powers)))

    def test_smallest_subnormals(self):
        _assert_repr(_signed(np.array([5e-324, 1e-323, 8e-323, 1e-322,
                                       2.2250738585072009e-308])))

    def test_integers(self):
        _assert_repr(np.arange(1, 200001, dtype=np.float64), columns=5)
        near_2_53 = float(2 ** 53) + np.arange(-1000, 1001, dtype=np.float64)
        _assert_repr(_signed(near_2_53))

    def test_layout_switches(self):
        # Fixed notation for 1e-4 <= |x| < 1e16, scientific outside it.
        edges = [1e-4, 1e-5, 1e16, 9999999999999998.0, 0.001, 0.01, 0.1, 1.0,
                 1e15, 1.5e16, 123456789012345680.0, 1e100, 1e-100, 1.5e-5,
                 0.00012, 1.7976931348623157e308, 2.2250738585072014e-308]
        _assert_repr(_signed(_with_neighbours(edges)))

    def test_zeros_infinities_and_nans(self):
        specials = _from_bits(0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000,
                              0x7FF8000000000000, 0xFFF8000000000000,
                              0x7FF8000000000001, 0x7FF0000000000001,
                              0xFFFFFFFFFFFFFFFF)
        mixed = np.concatenate([specials, [1.5, -0.25, 1e-7]])
        _assert_repr(mixed, columns=3)

    def test_time_grids(self):
        for dt in (0.02, 0.01, 0.005):
            _assert_repr(TimeGrid.from_t_max(dt, 1200.0).times(), columns=7)

    def test_seeded_batch(self):
        rng = np.random.default_rng(20201)
        bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64, endpoint=False)
        physical = np.concatenate([
            rng.random(20_000), rng.standard_normal(20_000) * 1e-3,
            rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)])
        _assert_repr(np.concatenate([bits.view(np.float64), physical]), columns=7)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300),
           st.integers(1, 7))
    def test_raw_bit_patterns(self, patterns, columns):
        _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64),
                     columns=min(columns, len(patterns)))

    def test_per_row_tails(self):
        block = np.array([[0.5, -2.0], [1e-7, np.nan], [3.0, 1e22]])
        tails = np.array([list(b",a\n\0"), list(b"\0\0\n\0"), list(b",bc\n")],
                         dtype=np.uint8)
        assert format_rows(block, tails) == b"0.5,-2.0,a\n1e-07,nan\n3.0,1e+22,bc\n"


def test_determinant_grid_file_is_fmt_of_every_cell(tmp_path):
    re = np.linspace(0.1, 3.0, 7)
    im = np.linspace(-1e-5, -2.0, 4)
    rng = np.random.default_rng(5)
    log_abs = rng.standard_normal((4, 7)) * 50.0
    log_abs[0, 0] = -np.inf
    phase = np.exp(2j * np.pi * rng.random((4, 7)))
    phase[1, :5] = [1.0, -1.0, 1j, -1j, 0.0]
    grid = DeterminantGrid(re=re, im=im, log_abs=log_abs, phase=phase)
    path = tmp_path / "grid.csv"
    write_determinant_grid_csv(grid, str(path), {"model.N": 7})
    expected = ["# model.N = 7", "Re E,Im E,ln_abs_det,sign_Re_det,sign_Im_det"]
    sr, si = grid.sign_re(), grid.sign_im()
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            expected.append(",".join((fmt(x), fmt(y), fmt(log_abs[i, j]),
                                      str(sr[i, j]), str(si[i, j]))))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_bytes_do_not_depend_on_the_locale(tmp_path):
    # An ASCII locale with Python's UTF-8 mode and locale coercion off: a
    # text-mode file would take the locale's encoding and fail here.
    path = tmp_path / "t.csv"
    script = (
        "import sys, numpy as np\n"
        "from gaah.dynamics import TimeGrid, Trajectory\n"
        "from gaah.output import write_trajectory_csv\n"
        "grid = TimeGrid(dt=0.5, steps=2)\n"
        "x = np.array([1.0, 0.5, 0.25])\n"
        "traj = Trajectory(grid=grid, sp=x, ipr=x, norm=x, variance=x,\n"
        "                  collective=x * 1j, params={'model.N': 7})\n"
        "write_trajectory_csv(traj, sys.argv[1], {'note': '\\u0394 \\u2248 2.5'})\n")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "PYTHON"))}
    env.update(LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                   timeout=120)
    assert path.read_bytes() == (
        "# model.N = 7\n# note = Δ ≈ 2.5\nt,SP,IPR,norm,variance,Re S,Im S\n"
        "0.0,1.0,1.0,1.0,1.0,0.0,1.0\n"
        "0.5,0.5,0.5,0.5,0.5,0.0,0.5\n"
        "1.0,0.25,0.25,0.25,0.25,0.0,0.25\n").encode("utf-8")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_files_follow_the_umask(tmp_path, capsys, umask, mode):
    previous = os.umask(umask)
    try:
        assert main(["spectrum", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["manifest.json", "spectrum.csv"]
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


def test_failed_write_leaves_no_file(tmp_path):
    def chunks():
        yield b"partial"
        raise RuntimeError("disk gone")

    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="disk gone"):
        output._atomic_write(str(path), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_bytes() == b"old"
