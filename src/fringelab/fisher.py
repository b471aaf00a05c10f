"""Fisher information of photon-counting interferometry.

full_fisher sums (dp/dphi)^2 / p over every number-resolved outcome;
single_fringe_fisher keeps one fringe and lumps the rest into its
complement. A term whose probability and derivative vanish together
(p < 1e-26 AND |dp/dphi| < 1e-13, the roundoff scale of an exact zero)
is a removable singularity. In the full sum it is replaced by its limit
4 |<m|B h U(phi)|psi>|^2: at an exact zero of the amplitude A(phi) the
probability grows as |A_h|^2 dphi^2 and its slope as 2 |A_h|^2 dphi, so
the full-counting value is continuous through the dark points. The
single-fringe value there is zero by convention. Every other term is
evaluated as written (near a dark fringe it is the dominant
contribution).

Every function that takes a phase accepts a scalar (and returns a
scalar) or an array of phases (and returns an array of that shape).

The per-outcome ceiling is the second moment of the photon-number
difference carried by the back-propagated detection ket,
<m|(n1-n2)^2|m> = 2 n1 n2 + N. For the Holland-Burnett state this gives
the phase-independent total N(N+2)/2; NOON states reach N^2 on the full
count but only N^2 C(N, N/2) / 2^(N-1) on their best single fringe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    OutcomePattern,
    PhysicsError,
    TwoModeState,
    _check_sector,
)
from .fringes import (
    FringeModel,
    output_amplitudes,
    _P_TOL,
    _like_phi,
    _model_fringe,
    _model_gradient,
    _one_fringe,
    _probability_and_slope,
)

# Removable-singularity cutoff on the derivative, paired with the
# probability floor _P_TOL. At an exact bright or dark point the computed
# dp is pure roundoff, of order eps ~ 1e-15 for unit-norm states. The
# threshold sits just above that scale: any larger cutoff would treat
# genuine information near a fringe extremum as a singularity (a term with
# p ~ 1e-13 can still contribute ~1e-6 to the full-counting sum, which
# must stay exact to 1e-8).
_DP_TOL = 1e-13


@dataclass(frozen=True)
class OptimalityReport:
    """The two-step chain bounding one fringe's Fisher information.

    fisher <= overlap_bound = 4 |<m|h|psi>|^2 / (1 - p)
           <= output_bound  = <m|(n1-n2)^2|m>

    The first step is an equality for real-amplitude superpositions; the
    second closes as p -> 1. Tightness flags compare at 1e-9. For an array
    of phases every field but ``output_bound`` is an array of that shape.
    """

    fisher: float
    overlap_bound: float
    output_bound: float
    gradient_tight: bool
    variance_tight: bool


def full_fisher(state: TwoModeState, phi):
    """Fisher information of the full photon-counting distribution."""
    amp, amp_h = output_amplitudes(state, phi)
    p, dp = _probability_and_slope(amp, amp_h)
    singular = (p < _P_TOL) & (np.abs(dp) < _DP_TOL)
    terms = np.where(
        singular, 4.0 * np.abs(amp_h) ** 2, dp * dp / np.where(singular, 1.0, p)
    )
    return _like_phi(terms.sum(axis=-1))


def single_fringe_fisher(state: TwoModeState, outcome: OutcomePattern, phi):
    """Fisher information of the binary outcome/not-outcome measurement,
    (dp/dphi)^2 / (p (1 - p)); zero at removable singularities.

    The complement 1 - p is the total probability of the other outcomes,
    taken from one splitter row as the squared norm of what projecting on
    the outcome leaves of the state (``fringes._one_fringe``). It stays
    accurate even where p is within a few ulps of 1 (the bright-fringe
    points where naive subtraction would cancel catastrophically).
    """
    p, rest, dp, _ = _one_fringe(state, outcome, phi)
    return _like_phi(_binary_fisher(p, rest, dp))


def _binary_fisher(p, rest, dp):
    """Binary Fisher term dp^2 / (p rest), with the complement probability
    passed separately so callers can supply it without cancellation."""
    denom = p * rest
    value = np.divide(dp * dp, denom, out=np.full(denom.shape, np.inf), where=denom > 0.0)
    # Where both p and rest reach _P_TOL their product is positive, so the
    # test on the smaller one also covers every point where denom is 0.
    removable = np.abs(dp) < _DP_TOL
    removable &= np.fmin(p, rest) < _P_TOL
    value[removable] = 0.0
    return value


def single_fringe_fisher_model(model: FringeModel, phi):
    """Single-fringe Fisher information of a fringe model, with the
    complement taken without cancellation (see ``fringes._model_fringe``);
    the exact fringe (affine a = 1, b = 0) gives exactly
    ``single_fringe_fisher`` of its state."""
    return _like_phi(_binary_fisher(*_model_fringe(model, phi)))


def model_fisher_sigma(model: FringeModel, cov: np.ndarray, phi):
    """1-sigma half-width of the model Fisher value, first-order in the
    parameter covariance (affine (a, b) or noon-cosine (q, V)).

    The gradient is analytic: F = dp^2 / (p (1 - p)) depends on the
    parameters only through p and dp, whose parameter derivatives come from
    ``fringes._model_gradient``.
    """
    phis = np.asarray(phi, dtype=float)
    p, rest, dp = _model_fringe(model, phis)
    grad_p, grad_dp = _model_gradient(model, phis)
    # Where F is zero it sits at its minimum over the parameters (dp = 0,
    # or a removable singularity held at zero), so its gradient is zero.
    fisher = _binary_fisher(p, rest, dp)
    informative = fisher > 0.0
    denom = np.where(informative, p * rest, 1.0)
    grad = np.where(
        informative,
        (2.0 * dp * grad_dp - fisher * (rest - p) * grad_p) / denom,
        0.0,
    )
    var = np.einsum("i...,ij,j...->...", grad, np.asarray(cov, dtype=float), grad)
    return _like_phi(np.sqrt(np.maximum(var, 0.0)))


def output_uncertainty_bound(outcome: OutcomePattern) -> float:
    """Ceiling on any single fringe's Fisher information at this outcome:
    the (n1 - n2)^2 moment of the detection ket propagated back through
    the output splitter, equal to 2 n1 n2 + N."""
    _check_sector(outcome.total)
    return float(2 * outcome.out_port_1 * outcome.out_port_2 + outcome.total)


def optimality_certificate(
    state: TwoModeState, outcome: OutcomePattern, phi
) -> OptimalityReport:
    """Evaluate the fringe Fisher information against its two bounds."""
    p, rest, dp, amp_h = _one_fringe(state, outcome, phi)
    fisher = _binary_fisher(p, rest, dp)
    resolved = rest > 1e-15
    overlap = 4.0 * np.abs(amp_h) ** 2
    overlap_bound = np.where(resolved, overlap / np.where(resolved, rest, 1.0), np.inf)
    output_bound = output_uncertainty_bound(outcome)
    return OptimalityReport(
        fisher=_like_phi(fisher),
        overlap_bound=_like_phi(overlap_bound),
        output_bound=output_bound,
        gradient_tight=_close(fisher, overlap_bound, phi),
        variance_tight=_close(overlap_bound, output_bound, phi),
    )


def _close(x, y, phi):
    """math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9) elementwise, false
    at infinity; a bool for a scalar phase."""
    x, y = np.asarray(x), np.asarray(y)
    with np.errstate(invalid="ignore"):
        tol = np.maximum(1e-9 * np.maximum(np.abs(x), np.abs(y)), 1e-9)
        close = np.isfinite(x) & np.isfinite(y) & (np.abs(x - y) <= tol)
    return bool(close) if np.ndim(phi) == 0 else close


def hb_limit(total_photons: int) -> float:
    """Phase-independent Fisher information N(N+2)/2 of the
    Holland-Burnett state under full photon counting (even N)."""
    if total_photons % 2 != 0 or total_photons < 2:
        raise PhysicsError(
            f"the Holland-Burnett limit is defined for even N >= 2, "
            f"got N={total_photons}"
        )
    return total_photons * (total_photons + 2) / 2.0


def noon_single_fringe_max(total_photons: int) -> float:
    """Supremum of the balanced-outcome fringe Fisher information for a
    NOON state: N^2 C(N, N/2) / 2^(N-1), via log-gamma beyond N = 60."""
    n = total_photons
    if n % 2 != 0 or n < 2:
        raise PhysicsError(
            f"the balanced NOON fringe needs even N >= 2, got N={n}"
        )
    if n <= 60:
        return float(n * n * math.comb(n, n // 2)) / float(2 ** (n - 1))
    log_val = (
        2.0 * math.log(n)
        + math.lgamma(n + 1)
        - 2.0 * math.lgamma(n // 2 + 1)
        - (n - 1) * math.log(2.0)
    )
    return math.exp(log_val)


def noon_asymptotic(total_photons: int) -> float:
    """Large-N form of noon_single_fringe_max: sqrt(8/pi) N^(3/2)."""
    if total_photons < 1:
        raise PhysicsError(f"need N >= 1, got N={total_photons}")
    return math.sqrt(8.0 / math.pi) * total_photons**1.5


@dataclass(frozen=True)
class ScalingRow:
    total_photons: int
    snl: float
    noon_single: float
    hb_single: float


def scaling_table(n_max: int) -> list[ScalingRow]:
    """Benchmark Fisher-information scalings for even N up to n_max:
    the shot-noise limit N, the best NOON single fringe, and the
    Holland-Burnett full-counting value N(N+2)/2."""
    if n_max < 2:
        raise PhysicsError(f"scaling table needs n_max >= 2, got {n_max}")
    return [
        ScalingRow(n, float(n), noon_single_fringe_max(n), hb_limit(n))
        for n in range(2, n_max + 1, 2)
    ]


def find_peak(fun, lo: float = 0.0, hi: float = math.pi,
              coarse_step: float = math.radians(0.25)) -> tuple[float, float]:
    """Locate the maximum of a function of phase on [lo, hi].

    ``fun`` maps an array of phases to an array of values, as every phase
    function in the library does; it is never called with a scalar. One
    call scans a coarse grid (default 0.25 degrees); each further call
    evaluates 17 points across the bracket around the best sample so far,
    shrinking it eightfold, until the bracket is under 1e-10. Returns the
    best sample (phase, value): deterministic, and never less than the
    best coarse-grid sample.
    """
    if hi <= lo:
        raise PhysicsError(f"need lo < hi, got [{lo}, {hi}]")
    count = max(2, int(round((hi - lo) / coarse_step)) + 1)
    grid = np.linspace(lo, hi, count)
    best_x, best_f, width = lo, -math.inf, math.inf
    while True:
        vals = np.asarray(fun(grid), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_x, best_f = float(grid[i]), float(vals[i])
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        # Stop once the bracket is resolved, or no longer shrinks because
        # it has reached the spacing of doubles near the peak.
        if b - a < 1e-10 or b - a >= width:
            return best_x, best_f
        width = b - a
        grid = np.linspace(a, b, 17)
