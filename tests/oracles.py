"""Independent reference implementations used to freeze test expectations.

Every oracle reaches its quantity by a different route than the library:
the beam splitter by exact integer expansion of the mode operators,
probabilities by matrix arithmetic on that oracle matrix, derivatives by
central finite differences, Fisher information by the probability-sum
definition with numeric derivatives, and detector clicks by exhaustive
enumeration of per-photon assignments. One exception is kept on purpose:
:func:`bs_matrix_row_loop` is the splitter recurrence written as a plain
row loop, the bit-for-bit reference of the library's in-place form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def bs_matrix_oracle(total: int) -> np.ndarray:
    """50:50 splitter on the ``total``-photon sector, from first principles.

    Column ``col`` is the image of |col, total-col>. Expanding the mode
    substitution a -> (a+b)/sqrt(2), b -> (a-b)/sqrt(2) term by term, the
    coefficient of |k, total-k> is

        c_k * sqrt(k! (total-k)! / (2^total col! (total-col)!))

    with the integer c_k summed over binomial cross terms. All integer
    work stays exact; only the final square root is floating point.
    """
    fac = [math.factorial(i) for i in range(total + 1)]
    mat = np.zeros((total + 1, total + 1))
    for col in range(total + 1):
        for k in range(total + 1):
            c = 0
            for j in range(max(0, k - (total - col)), min(col, k) + 1):
                c += (
                    math.comb(col, j)
                    * math.comb(total - col, k - j)
                    * (-1) ** (total - col - (k - j))
                )
            if c == 0:
                continue
            scale = Fraction(
                fac[k] * fac[total - k], fac[col] * fac[total - col] * 2**total
            )
            mat[k, col] = math.copysign(math.sqrt(float(c * c * scale)), c)
    return mat


def bs_matrix_row_loop(total: int) -> np.ndarray:
    """The splitter by the mirrored three-term recurrence of
    ``fringelab.fock.beam_splitter_matrix``, one new array per row and
    numpy scalars for the hop values, with the same 1e-100 rescale."""
    n, half = total, total // 2
    eigen = 2.0 * np.arange(n + 1) - n
    k = np.arange(n + 1, dtype=float)
    hop = np.sqrt((k + 1.0) * (n - k))
    sign = np.where((n - k) % 2 == 0, 1.0, -1.0)
    mat = np.empty((n + 1, n + 1))
    mat[0] = sign
    prev = np.zeros(n + 1)
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
    return mat


def fringe_probs_oracle(total: int, amplitudes, phi: float) -> np.ndarray:
    """All outcome probabilities |<k|B U(phi)|psi>|^2 via the oracle matrix."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    half_diff = 0.5 * (2.0 * np.arange(total + 1) - total)
    rotated = amps * np.exp(-1j * phi * half_diff)
    out = bs_matrix_oracle(total) @ rotated
    return np.abs(out) ** 2


def central_diff(fun, x: float, step: float = 1e-5) -> float:
    """Two-sided finite-difference derivative."""
    return (fun(x + step) - fun(x - step)) / (2.0 * step)


def fisher_sum_oracle(
    total: int, amplitudes, phi: float, step: float = 1e-6
) -> float:
    """Sum of (dp/dphi)^2 / p over all outcomes, derivatives numeric."""
    p = fringe_probs_oracle(total, amplitudes, phi)
    dp = (
        fringe_probs_oracle(total, amplitudes, phi + step)
        - fringe_probs_oracle(total, amplitudes, phi - step)
    ) / (2.0 * step)
    keep = p > 1e-12
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def click_pmf_enumerate(photons: int, detectors: int, efficiency: float) -> np.ndarray:
    """Click-count distribution of one port by brute force.

    Every photon independently is either lost (probability 1 - eta) or
    lands on one specific counter (probability eta/k each); the click
    count is the number of distinct counters hit. All
    (detectors + 1)^photons fates are enumerated.
    """
    pmf = np.zeros(min(photons, detectors) + 1)
    fates = [None] + list(range(detectors))
    for assignment in itertools.product(fates, repeat=photons):
        prob = 1.0
        hit = set()
        for fate in assignment:
            if fate is None:
                prob *= 1.0 - efficiency
            else:
                prob *= efficiency / detectors
                hit.add(fate)
        pmf[len(hit)] += prob
    return pmf


def joint_clicks_enumerate(
    photons_1: int, photons_2: int, detectors: int
) -> dict[tuple[int, int], float]:
    """Joint click distribution of both ports at unit efficiency.

    Enumerates every one of the detectors^(photons_1 + photons_2)
    equally likely counter assignments.
    """
    joint: dict[tuple[int, int], float] = {}
    for fates_1 in itertools.product(range(detectors), repeat=photons_1):
        clicks_1 = len(set(fates_1))
        for fates_2 in itertools.product(range(detectors), repeat=photons_2):
            key = (clicks_1, len(set(fates_2)))
            joint[key] = joint.get(key, 0.0) + 1.0
    total = float(detectors ** (photons_1 + photons_2))
    return {key: value / total for key, value in joint.items()}


def random_states(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are normalized complex amplitude vectors on the sector."""
    raw = rng.normal(size=(count, total + 1)) + 1j * rng.normal(
        size=(count, total + 1)
    )
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)
