"""Pseudo-number-resolving detection by multiplexed click detectors.

Each output port fans out onto k single-photon counters of efficiency
eta. A photon survives with probability eta and then lands on one of the
k counters uniformly at random; simultaneous hits on one counter merge
into a single click. An n-photon pulse is resolved correctly only when
all n photons survive and land on n distinct counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import OutcomePattern, PhysicsError


@dataclass(frozen=True)
class DetectorArrayConfig:
    """Click-detector fan-out per output port (two ports, identical)."""

    detectors_per_port: int = 5
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.detectors_per_port < 1:
            raise PhysicsError(
                f"need at least one detector per port, got {self.detectors_per_port}"
            )
        if not 0.0 <= self.efficiency <= 1.0:
            raise PhysicsError(
                f"detector efficiency must lie in [0, 1], got {self.efficiency}"
            )


def resolve_probability(photons: int, config: DetectorArrayConfig) -> float:
    """Probability that an n-photon pulse yields exactly n clicks:
    eta^n k!/((k-n)! k^n), and zero whenever n exceeds k."""
    if photons < 0:
        raise PhysicsError(f"photon count must be non-negative, got {photons}")
    k = config.detectors_per_port
    if photons > k:
        return 0.0
    falling = 1
    for i in range(photons):
        falling *= k - i
    return config.efficiency**photons * (falling / k**photons)


@lru_cache(maxsize=16)
def _click_table(photons: int, config: DetectorArrayConfig) -> np.ndarray:
    """Row n is the one-port click-count distribution of an n-photon pulse,
    for n = 0..photons, with min(photons, k) + 1 columns.

    Photon by photon, a pulse that has hit c of the k counters stays at c
    with probability (1 - eta) + eta c/k (the photon is lost or lands on a
    counter already hit) and moves to c + 1 with probability eta (k - c)/k.
    Every term is non-negative, so nothing cancels and no binomial weight
    or surjection count is ever formed. The rounding error grows at most
    linearly with n: at n = 4096, k = 5, eta = 0.9 the distribution sums to
    1 and has the exact mean k (1 - (1 - eta/k)^n) to 1e-15.
    """
    k, eta = config.detectors_per_port, config.efficiency
    hit = np.arange(min(photons, k) + 1)
    stay = (1.0 - eta) + eta * hit / k
    move = eta * (k - hit[:-1]) / k
    table = np.zeros((photons + 1, hit.size))
    table[0, 0] = 1.0
    for n in range(photons):
        table[n + 1] = table[n] * stay
        table[n + 1, 1:] += table[n, :-1] * move
    table.setflags(write=False)
    return table


def port_click_pmf(photons: int, config: DetectorArrayConfig) -> np.ndarray:
    """Distribution of the click count produced by an n-photon pulse on
    one port; exact convolution of loss and counter collisions, with
    min(n, k) + 1 entries."""
    if photons < 0:
        raise PhysicsError(f"photon count must be non-negative, got {photons}")
    return _click_table(photons, config)[photons].copy()


def _recorded_probabilities(probs: np.ndarray, config: DetectorArrayConfig) -> np.ndarray:
    """Chance p_m r_m r_(N-m) that photon pattern (m, N-m) of ``probs`` (last
    axis m = 0..N) gives the click pattern (m, N-m), which no other photon
    pattern gives; r_m is the m-photon diagonal of the click table, and the
    product has the bits of :func:`click_distribution`."""
    n = probs.shape[-1] - 1
    table = _click_table(n, config)
    resolve = np.zeros(n + 1)
    resolve[: table.shape[1]] = np.diagonal(table)
    return (probs * resolve) * resolve[::-1]


def click_distribution(
    outcome_probs: dict[OutcomePattern, float], config: DetectorArrayConfig
) -> dict[tuple[int, int], float]:
    """Joint click-pattern distribution for a photon-pattern distribution.

    Args:
        outcome_probs: photon patterns and their probabilities (sum <= 1;
            any deficit is unmonitored and simply never clicks here).
        config: the per-port fan-out.

    Returns:
        Map (clicks port 1, clicks port 2) -> probability, including
        patterns where collisions or loss swallowed photons.
    """
    total = float(sum(outcome_probs.values()))
    if total > 1.0 + 1e-12:
        raise PhysicsError(f"outcome probabilities sum to {total} > 1")
    if min(outcome_probs.values(), default=0.0) < -1e-15:
        raise PhysicsError("negative outcome probability")
    kept = [(pattern, prob) for pattern, prob in outcome_probs.items() if prob > 0.0]
    if not kept:
        return {}
    most = max(max(pat.out_port_1, pat.out_port_2) for pat, _ in kept)
    table = _click_table(most, config)
    weights = np.array([prob for _, prob in kept])
    port_1 = table[[pat.out_port_1 for pat, _ in kept]]
    port_2 = table[[pat.out_port_2 for pat, _ in kept]]
    joint = (weights[:, None] * port_1).T @ port_2
    return {
        (int(c1), int(c2)): float(joint[c1, c2]) for c1, c2 in zip(*np.nonzero(joint))
    }
