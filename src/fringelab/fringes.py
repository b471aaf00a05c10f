"""Detection fringes: exact probabilities, analytic derivatives, fringe
models with reduced visibility, and weighted least-squares fringe fits.

A fringe is the probability of one number-resolved outcome as a function
of the interferometer phase. Both kernels start from the same rotated
state psi(phi) = U(phi)|psi>, one column per phase of a whole grid:

- :func:`output_amplitudes` multiplies psi by the whole splitter once and
  gives every outcome's amplitude A. Since B h B = J_x is tridiagonal, the
  derivative amplitudes A_h = J_x A and A_hh = J_x A_h follow in O(N) per
  phase with no second product. ``full_fisher``, ``fringe_probabilities``,
  the multinomial likelihood and ``simulate_counts`` use it.
- the one-row path (:func:`_one_fringe`) projects psi on the single
  splitter row of the detected outcome, in O(N) per phase. Every
  one-outcome quantity uses it: ``fringe_probability``, the fringe
  models, the single-fringe Fisher information and the binomial
  likelihood. Its complement 1 - p is the squared norm of what the
  projection leaves of psi, never 1 minus p. The detection ket b and
  h b, h^2 b, which give the derivative amplitudes, are cached per
  (N, outcome) (:func:`_detection_kets`), so a call at one phase
  multiplies no splitter row. A scalar phase is one column of psi with
  the same products as a one-phase grid, and its few per-phase
  operations run on Python floats rather than 0-d arrays; the values
  keep their bits.

The generator h = (n1 - n2)/2 is odd about the middle row, so
:func:`_rotated` takes the exponentials exp(-i h phi) of rows 0..N/2 only
and mirrors their conjugates into rows N/2+1..N; the result is bit for
bit the direct exponential of every row.

Probabilities are exact; first and second derivatives come from the
phase generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .fock import (
    OutcomePattern,
    PhysicsError,
    TwoModeState,
    beam_splitter_matrix,
    number_difference,
)
from .states import build_state

#: Peak probability (a + b) used by default when an affine fringe family is
#: specified through its visibility alone. The value pins the fitted-fringe
#: Fisher information at 19.6 degrees to 19.4 for the six-photon benchmark
#: at 94% visibility, which reproduces the reference peak of about 20 near
#: 15 degrees (see README).
DEFAULT_FRINGE_PEAK = 0.96716

_MODEL_KINDS = ("affine", "noon-cosine")
_VALID_SLACK = 1e-9


@dataclass(frozen=True)
class FringeModel:
    """One detection fringe, possibly with reduced contrast.

    kind "affine":     p(phi) = amplitude * p_exact(phi) + offset (by default p_exact)
    kind "noon-cosine" p(phi) = amplitude * (1 + visibility * cos(N*phi))

    ``state_kind``/``total_photons`` name the underlying input state, and
    ``outcome`` the detection pattern whose fringe is modeled. For the
    affine family the visibility field is derived, not given: it is set to
    a/(a+2b), the fringe contrast when the exact fringe spans [0, 1]
    (0 when a + 2b = 0), whatever value is passed. An amplitude or offset
    within 1e-9 below 0 is roundoff of 0 and is stored as 0, so that no
    model gives a negative probability.
    """

    kind: str
    state_kind: str
    total_photons: int
    outcome: OutcomePattern
    amplitude: float = 1.0
    offset: float = 0.0
    visibility: float = 1.0

    def __post_init__(self) -> None:
        for name in ("amplitude", "offset"):
            if -_VALID_SLACK <= getattr(self, name) < 0.0:
                object.__setattr__(self, name, 0.0)
        if self.kind == "affine":
            denom = self.amplitude + 2.0 * self.offset
            vis = self.amplitude / denom if denom > 0.0 else 0.0
            object.__setattr__(self, "visibility", vis)
        if self.kind not in _MODEL_KINDS:
            raise PhysicsError(
                f"unknown fringe model kind {self.kind!r}; "
                f"expected one of {_MODEL_KINDS}"
            )
        if self.outcome.total != self.total_photons:
            raise PhysicsError(
                f"outcome {self.outcome} has {self.outcome.total} photons, "
                f"model has {self.total_photons}"
            )
        if self.amplitude < -_VALID_SLACK or self.offset < -_VALID_SLACK:
            raise PhysicsError("fringe model needs amplitude >= 0 and offset >= 0")
        if not -_VALID_SLACK <= self.visibility <= 1.0 + _VALID_SLACK:
            raise PhysicsError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.kind == "affine" and self.amplitude + self.offset > 1.0 + _VALID_SLACK:
            raise PhysicsError(
                f"affine fringe exceeds unit probability: a + b = "
                f"{self.amplitude + self.offset}"
            )
        if self.kind == "noon-cosine":
            if self.offset != 0.0:
                raise PhysicsError(f"a noon-cosine fringe has no offset, got {self.offset}")
            top = self.amplitude * (1.0 + self.visibility)
            if top > 1.0 + _VALID_SLACK:
                raise PhysicsError(
                    f"noon-cosine fringe exceeds unit probability at its "
                    f"crest: q(1 + V) = {top}"
                )


@dataclass(frozen=True)
class CountRecord:
    """Detection counts at one phase setting.

    ``phi`` is in radians. ``outcome_counts`` maps patterns to event
    counts; the total may fall short of ``shots`` when events are lost to
    the detection model. Counts are integers for measured or simulated
    data; float counts are accepted so exact probabilities can be injected
    into the estimators for consistency checks.
    """

    phi: float
    shots: int
    outcome_counts: Mapping[OutcomePattern, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise PhysicsError(f"a count record needs shots >= 1, got {self.shots}")
        total = float(sum(self.outcome_counts.values()))
        if min(self.outcome_counts.values(), default=0.0) < 0:
            raise PhysicsError("negative event count")
        if total > self.shots * (1.0 + 1e-9) + 1e-9:
            raise PhysicsError(
                f"recorded events ({total}) exceed shots ({self.shots})"
            )


def _outcome_index(total_photons: int, outcome: OutcomePattern) -> int:
    if outcome.total != total_photons:
        raise PhysicsError(
            f"outcome {outcome} has {outcome.total} photons, state has "
            f"{total_photons}"
        )
    return outcome.out_port_1


def _check_totals(records: list[CountRecord], total_photons: int) -> None:
    """Refuse a recorded pattern whose photon total is not N: the fit and
    the direct estimate read one outcome's counts, and would otherwise
    drop the others silently."""
    for record in records:
        for pattern in record.outcome_counts:
            _outcome_index(total_photons, pattern)


#: Roundoff floor of a computed outcome probability. Amplitudes carry an
#: absolute error near machine epsilon, so an outcome that is exactly dark
#: comes out with p of order eps^2 ~ 1e-30 rather than 0; anything below
#: this floor is zero to working precision.
_P_TOL = 1e-26


def _like_phi(value):
    """A phase function's ``value``, which has the shape of its phase: a
    float for a scalar phase, else the array."""
    # isinstance first: np.ndim of a float costs about 1 us, a tenth of a
    # one-phase call.
    return float(value) if isinstance(value, float) or np.ndim(value) == 0 else value


@lru_cache(maxsize=16)
def _generator_powers(total_photons: int) -> np.ndarray:
    """Rows 1, h and h^2 of the phase generator h = (n1 - n2)/2 along the
    basis, then the off-diagonal (1/2) sqrt((k+1)(N-k)) of J_x = B h B,
    which is zero at k = N; read-only."""
    h = 0.5 * number_difference(total_photons)
    k = np.arange(total_photons + 1)
    hop = 0.5 * np.sqrt((k + 1.0) * (total_photons - k))
    powers = np.stack([np.ones_like(h), h, h * h, hop])
    powers.setflags(write=False)
    return powers


def _apply_jx(amps: np.ndarray, total_photons: int) -> np.ndarray:
    """J_x along the last axis: (J_x A)_k = c_k A_{k+1} + c_{k-1} A_{k-1},
    with c the off-diagonal."""
    hop = _generator_powers(total_photons)[3, :-1]
    out = np.zeros_like(amps)
    out[..., :-1] = hop * amps[..., 1:]
    out[..., 1:] += hop * amps[..., :-1]
    return out


@lru_cache(maxsize=16)
def _phase_rates(total_photons: int) -> np.ndarray:
    """-i h on rows 0..N/2 as a column, the exponent of U(phi) per unit
    phase; read-only."""
    rates = -1j * _generator_powers(total_photons)[1, : total_photons // 2 + 1, None]
    rates.setflags(write=False)
    return rates


def _rotated(state: TwoModeState, phis: np.ndarray) -> np.ndarray:
    """psi(phi) = U(phi)|psi>, one column per phase: shape (N+1, phis.size).

    h is odd about the middle row, so only rows 0..N/2 take an
    exponential; row N - k of the phase factors is the conjugate of row k.
    Adding 0.0 turns the -0.0 imaginary parts that conjugation gives at
    phi = 0 into the +0.0 of the direct exponential, so every bit matches
    exp(-i h phi) on all rows.
    """
    n = state.total_photons
    half = n // 2
    factors = np.empty((n + 1, phis.size), dtype=complex)
    np.exp(_phase_rates(n) * phis.ravel(), out=factors[: half + 1])
    mirrored = np.conjugate(factors[: n - half][::-1], out=factors[half + 1 :])
    mirrored += 0.0
    # The amplitudes stay the first operand: with fused multiply-adds the
    # complex product can round differently when its operands swap.
    return np.multiply(state.amplitudes[:, None], factors, out=factors)


def output_amplitudes(state: TwoModeState, phi):
    """Output amplitudes of every outcome at every phase (radians).

    Returns (A, A_h) with A[..., m] = <m|B U(phi)|psi> and
    A_h[..., m] = <m|B h U(phi)|psi>, each of shape np.shape(phi) + (N+1,),
    where U(phi) = exp(-i phi h) and h = (n1 - n2)/2. The probability of
    outcome m is |A|^2 and its phase derivative is 2 Im[conj(A) A_h].

    The splitter multiplies psi(phi) only: B is self-inverse, so
    A_h = B h B A = J_x A, in O(N) per phase.
    """
    n = state.total_photons
    phis = np.asarray(phi, dtype=float)
    # Viewed as floats, each complex column of psi is a real and an
    # imaginary column, so the real splitter multiplies them in one real
    # product, never cast to complex.
    psi = _rotated(state, phis)
    amp = (beam_splitter_matrix(n) @ psi.view(float)).view(complex).T
    amp = amp.reshape(phis.shape + (n + 1,))
    return amp, _apply_jx(amp, n)


def _probability_and_slope(amp, amp_h):
    """Outcome probability |A|^2 and its phase derivative 2 Im[conj(A) A_h]."""
    return np.abs(amp) ** 2, 2.0 * (np.conj(amp) * amp_h).imag


def fringe_probability(state: TwoModeState, outcome: OutcomePattern, phi):
    """Probability of detecting ``outcome`` after phase ``phi`` (radians)
    and the recombining beam splitter."""
    return _like_phi(_one_fringe(state, outcome, phi)[0])


def fringe_probabilities(state: TwoModeState, phi) -> np.ndarray:
    """All N+1 outcome probabilities at each phase (they sum to 1)."""
    amp, _ = output_amplitudes(state, phi)
    return np.abs(amp) ** 2


def p33_closed_form(phi):
    """The six-photon Holland-Burnett (3,3) fringe,
    (5/8 cos(3 phi) + 3/8 cos(phi))^2. Accepts scalars or arrays."""
    phi = np.asarray(phi, dtype=float)
    g = 0.625 * np.cos(3.0 * phi) + 0.375 * np.cos(phi)
    out = g * g
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=16)
def _base_state(state_kind: str, total_photons: int) -> TwoModeState:
    return build_state(state_kind, total_photons)


@lru_cache(maxsize=32)
def _detection_kets(total_photons: int, row: int) -> np.ndarray:
    """Rows b, h b and h^2 b of the detection ket b = B[row]; read-only."""
    kets = _generator_powers(total_photons)[:3] * beam_splitter_matrix(total_photons)[row]
    kets.setflags(write=False)
    return kets


def _row_amplitudes(state: TwoModeState, outcome: OutcomePattern, phi, order: int):
    """The one-row kernel: psi(phi) as columns (see :func:`_rotated`), the
    detection ket b = B[m] of the outcome, and A_j = <m|B h^j U(phi)|psi>
    for j = 0..order, stacked as shape (order + 1,) + np.shape(phi).

    B is real and symmetric, so each A_j is the dot product of psi with
    h^j b, in O(N) per phase.
    """
    n = state.total_photons
    phis = np.asarray(phi, dtype=float)
    kets = _detection_kets(n, _outcome_index(n, outcome))
    psi = _rotated(state, phis)
    amps = (kets[: order + 1] @ psi.view(float)).view(complex)
    return psi, kets[0], amps.reshape((order + 1,) + phis.shape)


def _one_fringe(state: TwoModeState, outcome: OutcomePattern, phi):
    """p, 1 - p, dp/dphi and A_h of one outcome, from one splitter row.

    The complement is the squared norm of the residual psi - A b, which
    by the orthogonality of B is the sum of |A_k|^2 over the other
    outcomes k; nothing is subtracted from 1.

    A scalar phase gives Python floats (A_h a numpy complex) with the bits
    of the 0-d array form: psi is one column, so BLAS makes the call it
    makes for a one-phase grid, and the rest is scalar arithmetic.
    """
    if isinstance(phi, float) or np.ndim(phi) == 0:
        phi = float(phi)
        n = state.total_photons
        half = n // 2
        kets = _detection_kets(n, _outcome_index(n, outcome))
        factors = np.empty((n + 1, 1), dtype=complex)
        np.exp(_phase_rates(n) * phi, out=factors[: half + 1])
        # Unlike _rotated, the -0.0 that conjugation gives at phi = 0 stays:
        # it changes the sign of zeros in psi only, and the products below
        # sum from +0.0 and square the residual, so no output sees it.
        np.conjugate(factors[: n - half][::-1], out=factors[half + 1 :])
        psi = np.multiply(state.amplitudes[:, None], factors, out=factors)
        amps = (kets[:2] @ psi.view(float)).view(complex)
        amp, amp_h = amps[0, 0], amps[1, 0]
        psi -= kets[0][:, None] * amp
        resid = psi.view(float)
        resid *= resid
        re2, im2 = np.add.reduce(resid, axis=0).tolist()
        ar, ai, hr, hi = amps.view(float).ravel().tolist()
        # numpy's complex abs, then libm pow, as the 0-d form rounds.
        return float(np.abs(amp)) ** 2, re2 + im2, 2.0 * (ar * hi + (-ai) * hr), amp_h
    psi, ket, (amp, amp_h) = _row_amplitudes(state, outcome, phi, 1)
    # The real ket times the complex A rounds as the two real products do;
    # only the sign of a zero can differ, and squaring drops it.
    psi -= ket[:, None] * amp.ravel()
    resid = psi.view(float)
    resid *= resid
    # Per phase, the squares of the real column plus those of the imaginary.
    squares = np.add.reduce(resid, axis=0)
    rest = (squares[0::2] + squares[1::2]).reshape(amp.shape)
    p, dp = _probability_and_slope(amp, amp_h)
    return p, rest, dp, amp_h


def _model_fringe(model: FringeModel, phi):
    """Model fringe probability p, its complement 1 - p and dp/dphi, as
    arrays.

    Neither p nor its complement is formed by a subtraction, which cancels
    at the crests and dark points that carry the most information. For the
    affine family the complement is a * rest0 + (1 - a - b),
    with rest0 the exact probability of the other outcomes, so the exact
    fringe (a = 1, b = 0) reproduces its state's fringe bit for bit. For the
    noon-cosine family, in x = N phi, p = q (1 - V) + 2 q V cos^2(x/2) and
    1 - p = (1 - q (1 + V)) + 2 q V sin^2(x/2).
    """
    phis = np.asarray(phi, dtype=float)
    if model.kind == "noon-cosine":
        n, q, vis = model.total_photons, model.amplitude, model.visibility
        x = n * phis
        p = q * (1.0 - vis) + 2.0 * q * vis * np.cos(0.5 * x) ** 2
        rest = (1.0 - q * (1.0 + vis)) + 2.0 * q * vis * np.sin(0.5 * x) ** 2
        return p, rest, -q * vis * n * np.sin(x)
    a, b = model.amplitude, model.offset
    state = _base_state(model.state_kind, model.total_photons)
    p0, rest0, dp0, _ = _one_fringe(state, model.outcome, phis)
    return a * p0 + b, a * rest0 + (1.0 - a - b), a * dp0


def _model_gradient(model: FringeModel, phis: np.ndarray):
    """Derivatives of the model's p and dp/dphi in its parameters, affine
    (a, b) or noon-cosine (q, V), each of shape (2,) + phis.shape."""
    if model.kind == "noon-cosine":
        n, q, vis = model.total_photons, model.amplitude, model.visibility
        cos, sin = np.cos(n * phis), np.sin(n * phis)
        grad_p = np.stack([1.0 + vis * cos, q * cos])
        return grad_p, np.stack([-vis * n * sin, -q * n * sin])
    state = _base_state(model.state_kind, model.total_photons)
    p0, _, dp0, _ = _one_fringe(state, model.outcome, phis)
    return np.stack([p0, np.ones_like(p0)]), np.stack([dp0, np.zeros_like(dp0)])


def _curvature(amp, amp_h, amp_hh):
    """d^2p/dphi^2 = 2 |A_h|^2 - 2 Re[conj(A) A_hh], with
    A_hh = <m|B h^2 U(phi)|psi>."""
    return 2.0 * (np.abs(amp_h) ** 2 - np.real(np.conj(amp) * amp_hh))


def _curvatures(state: TwoModeState, phi):
    """d^2p/dphi^2 of every outcome, with A_hh = J_x A_h."""
    amp, amp_h = output_amplitudes(state, phi)
    return _curvature(amp, amp_h, _apply_jx(amp_h, state.total_photons))


def _model_curvature(model: FringeModel, phi):
    """d^2p/dphi^2 of the model fringe: a d^2p0/dphi^2 for the affine
    family, from one splitter row, and -q V N^2 cos(N phi) for
    noon-cosine."""
    n, a = model.total_photons, model.amplitude
    if model.kind == "noon-cosine":
        return -a * model.visibility * n * n * np.cos(n * np.asarray(phi))
    state = _base_state(model.state_kind, n)
    return a * _curvature(*_row_amplitudes(state, model.outcome, phi, 2)[2])


def apply_model(model: FringeModel, phi):
    """Evaluate the model fringe probability; scalar in, scalar out
    (arrays pass through elementwise)."""
    return _like_phi(_model_fringe(model, phi)[0])


def ideal_model(state_kind: str, total_photons: int, outcome: OutcomePattern) -> FringeModel:
    """The exact fringe of the state: the affine member a = 1, b = 0."""
    return FringeModel("affine", state_kind, total_photons, outcome)


def affine_from_visibility(
    state_kind: str,
    total_photons: int,
    outcome: OutcomePattern,
    visibility: float,
    peak: float = DEFAULT_FRINGE_PEAK,
) -> FringeModel:
    """Affine family member with the given contrast and peak probability.

    Solves a/(a+2b) = visibility with a + b = peak, the one-parameter
    freedom left after the visibility is fixed.
    """
    if not 0.0 <= visibility <= 1.0:
        raise PhysicsError(f"visibility must lie in [0, 1], got {visibility}")
    if not 0.0 < peak <= 1.0:
        raise PhysicsError(f"peak probability must lie in (0, 1], got {peak}")
    amplitude = 2.0 * peak * visibility / (1.0 + visibility)
    offset = peak * (1.0 - visibility) / (1.0 + visibility)
    return FringeModel("affine", state_kind, total_photons, outcome, amplitude, offset)


def _visibility_cov(model: FringeModel, sigma_v: float) -> np.ndarray:
    """Parameter covariance induced by a visibility uncertainty alone: with
    the peak a + b held fixed, da/dV = -db/dV = 2(a+b)/(1+V)^2 for the
    affine family; V is the second noon-cosine parameter itself."""
    if model.kind == "affine":
        peak = model.amplitude + model.offset
        slope = 2.0 * peak / (1.0 + model.visibility) ** 2
        jac = np.array([slope, -slope])
    else:
        jac = np.array([0.0, 1.0])
    return sigma_v**2 * np.outer(jac, jac)


def noon_cosine_model(
    total_photons: int,
    outcome: OutcomePattern | None = None,
    visibility: float = 1.0,
    amplitude: float | None = None,
) -> FringeModel:
    """Cosine fringe q(1 + V cos(N phi)) of the balanced NOON outcome.

    The default q is the symmetric binomial weight C(N, N/2)/2^N, so the
    crest probability 2q is twice the symmetric binomial value.
    """
    if total_photons % 2 != 0 or total_photons < 2:
        raise PhysicsError(
            f"the balanced noon-cosine fringe needs even N >= 2, "
            f"got N={total_photons}"
        )
    if outcome is None:
        outcome = OutcomePattern(total_photons // 2, total_photons // 2)
    if amplitude is None:
        amplitude = math.comb(total_photons, total_photons // 2) / 2.0**total_photons
    return FringeModel(
        "noon-cosine", "noon", total_photons, outcome, amplitude, 0.0, visibility
    )


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares fringe fit.

    ``params`` holds the raw estimates in the family's natural coordinates
    (named by ``param_names``: (a, b) for affine, (q, V) for noon-cosine)
    with covariance ``cov`` from the local quadratic expansion of the
    weighted residual. ``model`` carries the estimates clipped into the
    physically valid region so it can be evaluated downstream.
    """

    model: FringeModel
    params: np.ndarray
    cov: np.ndarray
    param_names: tuple[str, str]
    visibility: float
    visibility_sigma: float


def fit_fringe(
    records: list[CountRecord],
    outcome: OutcomePattern,
    model_kind: str,
    state_kind: str = "hb",
) -> FitResult:
    """Fit a two-parameter fringe family to counted data.

    Each record contributes its count of ``outcome`` at its phase; the
    squared residual against shots * p_model(phi) is weighted by the
    Poisson counting variance max(count, 1). Both families are linear in
    their fitting coordinates, so the fit is a single weighted
    least-squares solve.

    Args:
        records: counted data, at least three distinct phases.
        outcome: the detection pattern whose fringe is fitted.
        model_kind: "affine" or "noon-cosine".
        state_kind: input-state family for the ideal fringe shape of the
            affine model (default Holland-Burnett).

    Raises:
        PhysicsError: a recorded pattern whose photon total is not the
            outcome's, underdetermined data or singular normal equations.
    """
    if model_kind not in _MODEL_KINDS:
        raise PhysicsError(
            f"model kind {model_kind!r} is not fittable; "
            f"use 'affine' or 'noon-cosine'"
        )
    if not records:
        raise PhysicsError("no count records to fit")
    total = outcome.total
    _check_totals(records, total)
    phis = np.array([r.phi for r in records], dtype=float)
    shots = np.array([r.shots for r in records], dtype=float)
    counts = np.array(
        [float(r.outcome_counts.get(outcome, 0.0)) for r in records], dtype=float
    )
    if np.unique(np.round(phis, 12)).size < 3:
        raise PhysicsError(
            "fringe fit is underdetermined: need at least three distinct phases"
        )

    if model_kind == "affine":
        ideal = fringe_probability(_base_state(state_kind, total), outcome, phis)
        design = np.column_stack([shots * ideal, shots])
        param_names = ("a", "b")
    else:
        design = np.column_stack(
            [shots, shots * np.cos(total * phis)]
        )  # coordinates (q, q*V)
        param_names = ("q", "V")

    weights = 1.0 / np.maximum(counts, 1.0)
    normal = design.T @ (weights[:, None] * design)
    rhs = design.T @ (weights * counts)
    if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > 1e12:
        raise PhysicsError("singular normal equations: fringe fit cannot resolve parameters")
    raw = np.linalg.solve(normal, rhs)
    cov = np.linalg.inv(normal)

    if model_kind == "affine":
        a, b = float(raw[0]), float(raw[1])
        denom = a + 2.0 * b
        vis = a / denom if denom != 0.0 else 0.0
        jac = np.array([2.0 * b / denom**2, -2.0 * a / denom**2]) if denom != 0.0 else np.zeros(2)
        vis_sigma = float(np.sqrt(max(jac @ cov @ jac, 0.0)))
        a_c = min(max(a, 0.0), 1.0)
        b_c = min(max(b, 0.0), 1.0 - a_c)
        model = FringeModel("affine", state_kind, total, outcome, a_c, b_c)
        return FitResult(model, raw, cov, param_names, vis, vis_sigma)

    q, qv = float(raw[0]), float(raw[1])
    if q <= 0.0:
        raise PhysicsError("fringe fit collapsed: non-positive mean level")
    vis = qv / q
    jac_t = np.array([[1.0, 0.0], [-qv / q**2, 1.0 / q]])
    cov_qv = jac_t @ cov @ jac_t.T
    raw_qv = np.array([q, vis])
    vis_sigma = float(np.sqrt(max(cov_qv[1, 1], 0.0)))
    v_c = min(max(vis, 0.0), 1.0)
    q_c = min(max(q, 0.0), 1.0 / (1.0 + v_c))
    model = noon_cosine_model(total, outcome, visibility=v_c, amplitude=q_c)
    return FitResult(model, raw_qv, cov_qv, param_names, vis, vis_sigma)
