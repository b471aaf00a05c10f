"""Exact two-mode Fock-sector states and interferometer optics.

A state of N photons split between the two interferometer paths is a
complex amplitude vector over the kets |n1, N-n1>, stored in ascending
n1 (index n1 holds the coefficient of n1 photons in path 1). The 50:50
beam splitter is the photon-number lift of the real mode mixing
a -> (a+b)/sqrt(2), b -> (a-b)/sqrt(2); in this gauge the dual Fock
input |3,3> maps to (sqrt(5)|6,0> - sqrt(3)|4,2> + sqrt(3)|2,4>
- sqrt(5)|0,6>)/4. The lifted matrix is real, symmetric and
self-inverse, so the same transform describes the recombining splitter
in front of the detectors. It is built in O(N^2) floating-point work by
a stable, mirrored three-term recurrence (see
:func:`beam_splitter_matrix`), accurate to a few units in the last place
of its largest entries at any N up to :data:`MAX_PHOTONS`.

All functions are pure; states are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest photon number accepted by the exact-evolution routines.
MAX_PHOTONS = 4096

_NORM_TOL = 1e-12


class PhysicsError(ValueError):
    """An input is physically inconsistent (bad state vector, photon-number
    mismatch between a state and an outcome, invalid plan or fit data)."""


@dataclass(frozen=True)
class TwoModeState:
    """Pure state of a fixed total photon number in two paths.

    Attributes:
        total_photons: sector size N; the amplitude vector has N+1 entries.
        amplitudes: complex coefficients of |n1, N-n1> in ascending n1.
        renormalized: True when the originating call had to rescale its
            input to unit norm (see :func:`make_state`).
    """

    total_photons: int
    amplitudes: np.ndarray
    renormalized: bool = False

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != self.total_photons + 1:
            raise PhysicsError(
                f"a {self.total_photons}-photon state needs "
                f"{self.total_photons + 1} amplitudes, got {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, order=True)
class OutcomePattern:
    """Number-resolved detection pattern (n1 photons out of port 1, n2 out
    of port 2). Matched against a state, it must satisfy n1 + n2 = N.
    Patterns order lexicographically by (port 1, port 2) counts."""

    out_port_1: int
    out_port_2: int

    def __post_init__(self) -> None:
        if self.out_port_1 < 0 or self.out_port_2 < 0:
            raise PhysicsError(
                f"outcome photon counts must be non-negative, got "
                f"({self.out_port_1}, {self.out_port_2})"
            )

    @property
    def total(self) -> int:
        return self.out_port_1 + self.out_port_2

    def __str__(self) -> str:
        return f"{self.out_port_1}:{self.out_port_2}"


def _check_sector(total_photons: int) -> None:
    if total_photons < 0:
        raise PhysicsError(f"photon number must be non-negative, got {total_photons}")
    if total_photons > MAX_PHOTONS:
        raise PhysicsError(
            f"photon number {total_photons} exceeds the exact-evolution "
            f"cap of {MAX_PHOTONS}"
        )


def number_difference(total_photons: int) -> np.ndarray:
    """Eigenvalues of (n1 - n2) along the basis, i.e. 2*n1 - N."""
    return 2.0 * np.arange(total_photons + 1) - total_photons


def make_state(total_photons: int, amplitudes) -> TwoModeState:
    """Build a normalized state from raw amplitudes.

    Args:
        total_photons: sector size N.
        amplitudes: N+1 complex coefficients in ascending n1.

    Returns:
        A unit-norm TwoModeState. If the input norm is off by more than
        1e-12 the vector is rescaled and ``renormalized`` is set.

    Raises:
        PhysicsError: wrong vector length or an all-zero vector.
    """
    _check_sector(total_photons)
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.shape[0] != total_photons + 1:
        raise PhysicsError(
            f"a {total_photons}-photon state needs {total_photons + 1} "
            f"amplitudes, got shape {amps.shape}"
        )
    nrm = float(np.linalg.norm(amps))
    if nrm == 0.0:
        raise PhysicsError("state vector is identically zero")
    flag = abs(nrm - 1.0) > _NORM_TOL
    if flag:
        amps = amps / nrm
    return TwoModeState(total_photons, amps, renormalized=flag)


def basis_state(total_photons: int, n_port_1: int) -> TwoModeState:
    """The basis ket |n_port_1, N - n_port_1>."""
    _check_sector(total_photons)
    if not 0 <= n_port_1 <= total_photons:
        raise PhysicsError(
            f"basis ket needs 0 <= n1 <= {total_photons}, got {n_port_1}"
        )
    amps = np.zeros(total_photons + 1, dtype=np.complex128)
    amps[n_port_1] = 1.0
    return TwoModeState(total_photons, amps)


@lru_cache(maxsize=4)
def beam_splitter_matrix(total_photons: int) -> np.ndarray:
    """The 50:50 beam splitter on the N-photon sector.

    Column c is the eigenvector, for eigenvalue 2c - N, of the tridiagonal
    J = 2 J_x with off-diagonals sqrt((k+1)(N-k)). It is built in floating
    point by the three-term recurrence

        d_{k+1} = ((2c - N) d_k - sqrt(k (N-k+1)) d_{k-1}) / sqrt((k+1)(N-k))

    run for all columns at once from d_0 = (-1)^(N-c) up to k = N//2 only,
    rescaling a column by 1e-100 whenever it passes 1e100. From the edge
    inward the wanted solution is the growing one, so the recurrence is
    stable; the rows k > N/2 come from the mirror symmetry
    B[N-k, c] = (-1)^(N-c) B[k, c] rather than from running on into the
    decaying tail, and each column is then scaled to unit norm. The sign of
    a column is carried from d_0, never read back from row 0, which
    underflows at large N.

    Against the exact expansion the largest entry error is 1.1e-16 at
    N <= 10 and 6.5e-16 at N = 200; at N = 4096 the matrix is symmetric
    and self-inverse to about 1e-14. The build is O(N^2) in time and
    memory (0.3 s and 134 MB at N = 4096). The result is cached, real,
    symmetric, self-inverse and read-only.
    """
    _check_sector(total_photons)
    n = total_photons
    half = n // 2
    eigen = number_difference(n)
    k = np.arange(n + 1, dtype=float)
    hop = np.sqrt((k + 1.0) * (n - k))  # hop[k] = sqrt((k+1)(N-k))
    sign = np.where((n - k) % 2 == 0, 1.0, -1.0)
    mat = np.empty((n + 1, n + 1))
    mat[0] = sign
    prev = np.zeros(n + 1)  # d_{-1}
    for row in range(half):
        step = (eigen * mat[row] - hop[row - 1] * prev) / hop[row]
        big = np.abs(step) > 1e100
        if big.any():
            mat[: row + 1, big] *= 1e-100
            step[big] *= 1e-100
        mat[row + 1] = step
        prev = mat[row]
    mat[half + 1 :] = (mat[: n - half] * sign)[::-1]
    mat /= np.sqrt(np.einsum("ij,ij->j", mat, mat))
    mat.setflags(write=False)
    return mat


def generator_variance(state: TwoModeState) -> float:
    """Variance of the photon-number difference n1 - n2 (equals 4*Var(h))."""
    p = np.abs(state.amplitudes) ** 2
    d = number_difference(state.total_photons)
    mean = float(p @ d)
    return float(p @ (d * d)) - mean * mean

