"""Closed-system lattice: quasi-periodic chain Hamiltonian and eigenstate tools.

The chain has hopping ``lam`` between neighbouring sites (periodic ring) and a
deformed quasi-periodic onsite potential

    V_n = Delta * cos(2*pi*beta*n + phi) / (1 - a * cos(2*pi*beta*n + phi)),

with sites indexed n = 1..N.  For a = 0 this is the standard quasi-periodic
chain with a delocalization-localization transition at Delta = 2*lam; for
a != 0 the spectrum carries an exact mobility edge separating extended from
localized eigenstates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError

#: Incommensurate default wave number, (sqrt(5) - 1) / 2.
GOLDEN_MEAN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the lattice.

    Attributes
    ----------
    N : number of sites (>= 2)
    lam : hopping amplitude
    Delta : onsite potential strength
    a : potential deformation, restricted to the open interval (-1, 1)
    beta : incommensurate wave number of the potential
    phi : phase offset of the potential
    """

    N: int = 21
    lam: float = 1.0
    Delta: float = 2.5
    a: float = 0.0
    beta: float = GOLDEN_MEAN_CONJUGATE
    phi: float = math.pi

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ParameterError(f"model.N must be an integer >= 2, got {self.N}")
        if not abs(self.a) < 1.0:
            raise ParameterError(f"model.a must satisfy |a| < 1, got {self.a}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted spectrum of a real symmetric matrix.

    ``energies`` is ascending; column i of ``states`` is the orthonormal
    eigenvector paired with ``energies[i]``, sign-fixed so the component of
    largest magnitude is positive.
    """

    energies: np.ndarray
    states: np.ndarray


def onsite_profile(params: ModelParams) -> np.ndarray:
    """Vector of onsite energies for sites 1..N."""
    n = np.arange(1, params.N + 1, dtype=float)
    c = np.cos(2.0 * math.pi * params.beta * n + params.phi)
    return params.Delta * c / (1.0 - params.a * c)


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """The dense real symmetric N x N matrix: hopping on the ring, potential
    on the diagonal.  Periodic boundary puts ``lam`` in the corners (for
    N = 2 the two bonds coincide and the off-diagonal element is 2*lam)."""
    N = params.N
    H = np.zeros((N, N), dtype=float)
    for n in range(N):
        m = (n + 1) % N
        H[n, m] += params.lam
        H[m, n] += params.lam
    H[np.diag_indices(N)] = onsite_profile(params)
    return H


def diagonalize(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition, ascending, deterministically
    sign-fixed (largest-magnitude component of each eigenvector positive)."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix, matrix.T, atol=1e-12, rtol=0.0):
        raise ParameterError("matrix must be symmetric")
    try:
        energies, states = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver did not converge: {exc}") from exc
    states = states.copy()
    for i in range(states.shape[1]):
        col = states[:, i]
        if col[np.argmax(np.abs(col))] < 0.0:
            states[:, i] = -col
    return EigenDecomposition(energies=energies, states=states)


def mobility_edge(params: ModelParams) -> float | None:
    """Critical energy separating localized (above) from extended (below)
    eigenstates; ``None`` when a = 0 and no edge exists."""
    if params.a == 0.0:
        return None
    return math.copysign(1.0, params.lam) * (2.0 * abs(params.lam) - abs(params.Delta)) / params.a


def state_ipr(v: np.ndarray) -> float:
    """Inverse participation ratio sum |v_n|^4 of the *normalized* vector.

    1/N for a uniform state, 1 for a single occupied site.
    """
    v = np.abs(np.asarray(v))
    peak = np.max(v)
    if peak == 0.0:
        raise ParameterError("cannot normalize a zero vector")
    # Scaled to a largest entry of 1 first: the squares of a tiny vector
    # would otherwise lose digits as subnormals.
    w = (v / peak) ** 2
    w /= np.sum(w)
    return float(np.sum(w * w))


def highest_excited_state(d: EigenDecomposition) -> np.ndarray:
    """Normalized complex amplitudes of the top eigenstate.

    Energies are sorted ascending, so the last column wins; an exactly
    degenerate top level resolves to the larger index, keeping the choice
    deterministic.
    """
    return d.states[:, -1].astype(complex)
