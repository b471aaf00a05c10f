"""Monte Carlo experiments and phase estimators.

simulate_counts draws categorical counts from the exact outcome
distribution (or from a fringe model, or through a click-detector
array); every phase gets its own child stream of a splittable seed
sequence, so results are deterministic and independent of evaluation
order. The estimators mirror a standard analysis chain: a windowed
local-regression Fisher estimate, a maximum-likelihood phase fit, and
the fringe fit from :mod:`fringelab.fringes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorArrayConfig, _recorded_probabilities
from .fock import OutcomePattern, PhysicsError, TwoModeState
from .fringes import (
    CountRecord,
    FringeModel,
    apply_model,
    fringe_probabilities,
    output_amplitudes,
    _P_TOL,
    _check_totals,
    _curvatures,
    _model_curvature,
    _model_fringe,
    _outcome_index,
    _probability_and_slope,
)
from .fisher import find_peak
from .states import build_state


@dataclass(frozen=True)
class ExperimentPlan:
    """A phase-scan simulation recipe.

    Draws ``shots`` events at every phase (radians) from the named input
    state's outcome distribution, optionally pushed through a detector
    array (events whose click total differs from N are discarded), or
    from ``model`` as a single-fringe binomial when a fringe model of the
    plan's N is given instead. The binomial draw has no detector path, so
    a plan with both a model and detectors is refused, as is one whose
    detector array, with k counters per port, cannot record N > 2k photons.
    """

    state_kind: str
    total_photons: int
    phases: tuple[float, ...]
    shots: int
    seed: int
    detectors: DetectorArrayConfig | None = None
    model: FringeModel | None = None

    def __post_init__(self) -> None:
        if len(self.phases) == 0:
            raise PhysicsError("an experiment plan needs at least one phase")
        if self.shots < 1:
            raise PhysicsError(f"shots must be positive, got {self.shots}")
        if self.model is not None:
            if self.detectors is not None:
                raise PhysicsError(
                    "a fringe-model plan draws single-fringe counts and takes no detectors"
                )
            if self.model.total_photons != self.total_photons:
                raise PhysicsError(
                    f"the fringe model has N = {self.model.total_photons} photons, "
                    f"the plan N = {self.total_photons}"
                )
        elif self.detectors is not None:
            k = self.detectors.detectors_per_port
            if self.total_photons > 2 * k:
                raise PhysicsError(
                    f"no click pattern records N = {self.total_photons} photons "
                    f"with {k} detectors per port (at most 2k = {2 * k})"
                )


def simulate_counts(plan: ExperimentPlan) -> list[CountRecord]:
    """Simulate one record per planned phase, deterministically per seed."""
    phases = np.array(plan.phases, dtype=float)
    if plan.model is not None:
        probs = np.clip(apply_model(plan.model, phases), 0.0, 1.0)
    else:
        state = build_state(plan.state_kind, plan.total_photons)
        probs = fringe_probabilities(state, phases)
        if plan.detectors is not None:
            probs = _recorded_probabilities(probs, plan.detectors)
    seeds = np.random.SeedSequence(plan.seed).spawn(len(plan.phases))
    records = []
    for phi, p, child in zip(plan.phases, probs, seeds):
        rng = np.random.default_rng(child)
        if plan.model is not None:
            hit = int(rng.binomial(plan.shots, p))
            counts = {plan.model.outcome: hit} if hit else {}
        else:
            counts = _draw_patterns(rng, p, plan.shots, plan.detectors is not None)
        records.append(CountRecord(phi=float(phi), shots=plan.shots, outcome_counts=counts))
    return records


def _draw_patterns(
    rng: np.random.Generator, probs: np.ndarray, shots: int, detected: bool
) -> dict[OutcomePattern, int]:
    """Draw ``shots`` events from the N+1 outcome probabilities ``probs``, or,
    when ``detected``, from the recorded probabilities of a detector array
    above the roundoff floor _P_TOL (so that the categories of the draw do
    not depend on roundoff) and the lost or unresolved remainder."""
    n = len(probs) - 1
    if not detected:
        pvals = np.clip(probs, 0.0, None)
        draws = rng.multinomial(shots, pvals / pvals.sum())
        return {OutcomePattern(k, n - k): int(c) for k, c in enumerate(draws) if c > 0}
    kept = np.flatnonzero(probs > _P_TOL)
    pvals = np.array([*probs[kept], 0.0])
    pvals[-1] = max(0.0, 1.0 - pvals.sum())  # lost or unresolved events
    draws = rng.multinomial(shots, pvals / pvals.sum())
    pairs = zip(kept.tolist(), draws[:-1])
    return {OutcomePattern(m, n - m): int(c) for m, c in pairs if c > 0}


@dataclass(frozen=True)
class DirectFisherResult:
    """Windowed direct Fisher estimate.

    The empirical fringe over the window is fitted by an unweighted local
    line; (slope^2)/(p(1-p)) is evaluated at the window midpoint, with a
    1-sigma error from binomial counting statistics. ``low_confidence``
    is set (never raised) when the windowed fringe is flat or reverses
    direction by more than its own noise.
    """

    phi_mid: float
    fisher: float
    sigma: float
    low_confidence: bool
    window: tuple[float, float]
    points: int


def direct_fisher_from_data(
    records: list[CountRecord],
    outcome: OutcomePattern,
    window: tuple[float, float] | None = None,
) -> DirectFisherResult:
    """Estimate one fringe's Fisher information from counted data.

    Args:
        records: counted data (any order; phases in radians).
        outcome: fringe to analyze.
        window: inclusive phase range (radians) to use; all records when
            omitted.

    Raises:
        PhysicsError: a recorded pattern whose photon total is not the
            outcome's, or fewer than three distinct phases in the window.
    """
    _check_totals(records, outcome.total)
    rows = sorted(
        (r.phi, float(r.outcome_counts.get(outcome, 0.0)) / r.shots, r.shots)
        for r in records
        if window is None or window[0] - 1e-12 <= r.phi <= window[1] + 1e-12
    )
    if len({round(r[0], 12) for r in rows}) < 3:
        raise PhysicsError(
            "direct Fisher estimate needs at least three distinct phases "
            "in the window"
        )
    phis = np.array([r[0] for r in rows])
    freqs = np.array([r[1] for r in rows])
    shots = np.array([r[2] for r in rows], dtype=float)
    lo, hi = float(phis.min()), float(phis.max())
    mid = 0.5 * (lo + hi)
    x = phis - mid

    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    level, slope = float(coef[0]), float(coef[1])

    # Error propagation: the OLS estimate is linear in the frequencies,
    # whose binomial variances are known; floor each at one event.
    var_f = np.maximum(freqs * (1.0 - freqs), 1.0 / shots) / shots
    hat = np.linalg.inv(design.T @ design) @ design.T
    var_level = float(hat[0] ** 2 @ var_f)
    var_slope = float(hat[1] ** 2 @ var_f)
    cov_ls = float((hat[0] * hat[1]) @ var_f)

    flagged = False
    p_mid = level
    if not 0.0 < p_mid < 1.0:
        p_mid = min(max(p_mid, 1e-9), 1.0 - 1e-9)
        flagged = True
    fisher = slope * slope / (p_mid * (1.0 - p_mid))

    d_slope = 2.0 * slope / (p_mid * (1.0 - p_mid))
    d_level = -slope * slope * (1.0 - 2.0 * p_mid) / (p_mid * (1.0 - p_mid)) ** 2
    var_fisher = (
        d_level * d_level * var_level
        + d_slope * d_slope * var_slope
        + 2.0 * d_level * d_slope * cov_ls
    )
    sigma = math.sqrt(max(var_fisher, 0.0))

    if slope * slope <= var_slope:
        flagged = True  # slope indistinguishable from flat
    diffs = np.diff(freqs)
    noise = np.sqrt(var_f[:-1] + var_f[1:])
    rising = diffs > 2.0 * noise
    falling = diffs < -2.0 * noise
    if rising.any() and falling.any():
        flagged = True  # fringe reverses inside the window
    return DirectFisherResult(
        phi_mid=mid,
        fisher=fisher,
        sigma=sigma,
        low_confidence=flagged,
        window=(lo, hi),
        points=len(rows),
    )


@dataclass(frozen=True)
class MleResult:
    phi_hat: float
    stderr: float
    at_boundary: bool
    log_likelihood: float


def mle_phase(
    records: list[CountRecord],
    model: FringeModel | TwoModeState,
    interval: tuple[float, float],
) -> MleResult:
    """Maximum-likelihood phase from counts taken at one (unknown) phase.

    With a FringeModel the likelihood is binomial on that single fringe;
    with a TwoModeState it is multinomial over every recorded pattern.
    The search interval must be a symmetry cell of the fringe within
    which the phase is identifiable; a maximum on the interval edge is
    flagged, not raised. The standard error is 1/sqrt of the analytic
    observed information -d^2 log L/dphi^2 at the maximum.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise PhysicsError(f"need an increasing interval, got [{lo}, {hi}]")
    if not records:
        raise PhysicsError("no count records")

    # Every recorded pattern must carry N photons, whichever likelihood reads it.
    weights = np.zeros(model.total_photons + 1)
    for r in records:
        for pat, c in r.outcome_counts.items():
            weights[_outcome_index(model.total_photons, pat)] += c

    if isinstance(model, TwoModeState):
        if not weights.any():
            raise PhysicsError("no recorded events")

        def categories(phi):
            return _probability_and_slope(*output_amplitudes(model, phi))

        def curvatures(phi):
            return _curvatures(model, phi)

    else:
        # Two categories: the outcome and its complement, without cancellation.
        hits = weights[_outcome_index(model.total_photons, model.outcome)]
        weights = np.array([hits, sum(r.shots for r in records) - hits])

        def categories(phi):
            p, rest, dp = _model_fringe(model, phi)
            return np.stack([p, rest], axis=-1), np.stack([dp, -dp], axis=-1)

        def curvatures(phi):
            return _model_curvature(model, phi) * np.array([1.0, -1.0])

    def loglik(phi):
        return np.log(np.maximum(categories(phi)[0], 1e-300)) @ weights

    # The log-likelihood carries roundoff far above its last place (log p
    # near 1 times many counts), which limits how finely find_peak resolves
    # its flat maximum. Newton steps on the analytic score, kept within 1e-6
    # of the span around that maximum, recover the lost digits; they stop
    # once a step falls under 1e-14 of the span, the score's roundoff.
    span = hi - lo
    phi_hat = find_peak(loglik, lo, hi, span / 240.0)[0]
    left, right = max(phi_hat - 1e-6 * span, lo), min(phi_hat + 1e-6 * span, hi)
    for _ in range(4):
        p, dp = categories(phi_hat)
        p = np.maximum(p, 1e-300)
        score = float((weights / p) @ dp)
        info = float((weights / p) @ (dp * dp / p - curvatures(phi_hat)))
        target = min(max(phi_hat + score / info, left), right) if info > 0.0 else phi_hat
        if abs(target - phi_hat) <= 1e-14 * span:
            break
        phi_hat = target

    at_boundary = phi_hat - lo < 1e-6 * span or hi - phi_hat < 1e-6 * span
    stderr = 1.0 / math.sqrt(info) if info > 0.0 else math.inf
    best_ll = float(loglik(phi_hat))
    return MleResult(phi_hat, stderr, at_boundary, best_ll)


def snl_comparison(fisher: float, total_photons: int) -> float:
    """Ratio of a Fisher value to the shot-noise limit N."""
    if total_photons < 1:
        raise PhysicsError(f"need N >= 1, got N={total_photons}")
    if fisher < 0:
        raise PhysicsError(f"Fisher information cannot be negative, got {fisher}")
    return fisher / total_photons
