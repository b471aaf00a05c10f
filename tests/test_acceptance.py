"""Acceptance checks for the package's headline numerical claims.

Each test exercises one frozen reference value end to end and appends a
PASS/FAIL line to the terminal summary (see conftest).
"""

import math

import numpy as np
import pytest

import conftest
from fringelab import (
    CountRecord,
    DetectorArrayConfig,
    ExperimentPlan,
    OutcomePattern,
    affine_from_visibility,
    beam_splitter_matrix,
    click_distribution,
    direct_fisher_from_data,
    find_peak,
    fit_fringe,
    fringe_probability,
    full_fisher,
    hb_limit,
    hb_state,
    ideal_model,
    mle_phase,
    noon_asymptotic,
    noon_cosine_model,
    noon_single_fringe_max,
    noon_state,
    number_difference,
    output_uncertainty_bound,
    p33_closed_form,
    resolve_probability,
    scaling_table,
    simulate_counts,
    single_fringe_fisher,
    single_fringe_fisher_model,
    snl_state,
)

from oracles import click_pmf_enumerate, joint_clicks_enumerate

P33 = OutcomePattern(3, 3)
PHI15 = math.radians(15.0)
FIVE = DetectorArrayConfig(detectors_per_port=5, efficiency=1.0)


def _record(label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {label:>3s} {verdict}  {detail}")
    assert passed, detail


def test_criterion_01_six_photon_fringe_closed_form():
    state = hb_state(6)
    phis = np.linspace(0.0, 2.0 * math.pi, 721)
    worst = max(
        abs(fringe_probability(state, P33, phi) - p33_closed_form(phi))
        for phi in phis
    )
    _record(
        "01",
        worst < 1e-12,
        f"balanced six-photon fringe vs closed form, max abs error {worst:.2e} "
        "over 721 phases",
    )


def test_criterion_02_six_photon_expansion_anchor():
    # Storage is ascending in n1; the anchor lists the coefficient of
    # |6,0> first, so the stored vector is read out reversed.
    amps = hb_state(6).amplitudes[::-1]
    anchor = np.array([math.sqrt(5.0), 0.0, -math.sqrt(3.0), 0.0,
                       math.sqrt(3.0), 0.0, -math.sqrt(5.0)]) / 4.0
    worst = float(np.max(np.abs(amps - anchor)))
    _record(
        "02",
        worst < 1e-12,
        f"six-photon expansion amplitudes, max abs deviation {worst:.2e}",
    )


def test_criterion_03_full_counting_fisher_values():
    rng = np.random.default_rng(33)
    worst = 0.0
    for n in range(2, 13, 2):
        targets = (
            (hb_state(n), 0.5 * n * (n + 2)),
            (noon_state(n), float(n * n)),
            (snl_state(n), float(n)),
        )
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=20):
            for state, expected in targets:
                worst = max(worst, abs(full_fisher(state, phi) - expected))
    _record(
        "03",
        worst < 1e-8,
        "full-counting Fisher information N(N+2)/2, N^2, and N for even "
        "N in 2..12, max abs deviation < 1e-8",
    )


def test_criterion_04_single_fringe_bound_sweep():
    rng = np.random.default_rng(44)
    worst_excess = -math.inf
    for n in range(1, 11):
        mat = beam_splitter_matrix(n)
        h = 0.5 * number_difference(n)
        bounds = np.array(
            [output_uncertainty_bound(OutcomePattern(k, n - k)) for k in range(n + 1)]
        )
        states = rng.normal(size=(100, n + 1)) + 1j * rng.normal(size=(100, n + 1))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=20):
            rotated = states * np.exp(-1j * phi * h)
            amps = rotated @ mat.T
            amps_h = (rotated * h) @ mat.T
            probs = np.abs(amps) ** 2
            dp = 2.0 * np.imag(np.conj(amps) * amps_h)
            rest = probs.sum(axis=1, keepdims=True) - probs
            fishers = dp * dp / np.maximum(probs * rest, 1e-300)
            worst_excess = max(worst_excess, float((fishers - bounds).max()))
    equality_ok = True
    for n in range(2, 11, 2):
        value = single_fringe_fisher(hb_state(n), OutcomePattern(n // 2, n // 2), 0.01)
        equality_ok &= abs(value / (0.5 * n * (n + 2)) - 1.0) < 0.01
    _record(
        "04",
        worst_excess <= 1e-9 and equality_ok,
        "bound sweep over 1000 random states x all outcomes x 20 phases, "
        f"worst excess {worst_excess:.2e}; balanced-fringe equality at "
        f"phi=0.01 within 1%: {equality_ok}",
    )


def test_criterion_05_scaling_table_ordering():
    table = scaling_table(40)
    ties = all(
        row.noon_single == row.hb_single
        for row in table
        if row.total_photons in (2, 4)
    )
    strict = all(
        row.noon_single < row.hb_single
        for row in table
        if row.total_photons >= 6
    )
    exact = noon_single_fringe_max(6) == 22.5 and noon_single_fringe_max(8) == 35.0
    _record(
        "05",
        ties and strict and exact,
        f"scaling table to N=40: ties at 2 and 4 ({ties}), strict ordering "
        f"beyond ({strict}), exact 22.5 and 35 at N=6, 8 ({exact})",
    )


def test_criterion_06_asymptote():
    ratio = noon_single_fringe_max(10_000) / noon_asymptotic(10_000)
    _record(
        "06",
        abs(ratio - 1.0) < 0.01,
        f"N=10^4 best fringe vs sqrt(8/pi) N^1.5 asymptote, ratio {ratio:.6f}",
    )


def test_criterion_07_cosine_fringe_reference():
    model = noon_cosine_model(6, visibility=0.94)
    _, peak = find_peak(
        lambda phi: single_fringe_fisher_model(model, phi), 0.0, math.pi / 3.0
    )
    _record(
        "07",
        abs(peak - 16.91) <= 0.05,
        f"cosine fringe q=0.3125 V=0.94 peak Fisher {peak:.4f} vs 16.91 +/- 0.05",
    )


def test_criterion_08_reduced_contrast_envelope():
    model = affine_from_visibility("hb", 6, P33, 0.94)
    phi_peak, peak = find_peak(
        lambda phi: single_fringe_fisher_model(model, phi), 0.0, math.pi / 6.0
    )
    deg = math.degrees(phi_peak)
    passed = 19.0 <= peak <= 22.0 and 12.0 <= deg <= 18.0
    _record(
        "08",
        passed,
        f"reduced-contrast peak {peak:.3f} at {deg:.2f} deg, inside the "
        "[19, 22] x [12, 18] deg envelope; reference 20.0 +/- 0.9 at 15 deg "
        "(see README for the discrepancy discussion)",
    )


def test_criterion_09a_mle_variance_saturates_the_bound():
    rng = np.random.default_rng(2026)
    shots = 1000
    model = ideal_model("hb", 6, P33)
    p_true = p33_closed_form(PHI15)
    cache = {}
    estimates = []
    for hits in rng.binomial(shots, p_true, size=1000):
        if hits not in cache:
            records = [
                CountRecord(phi=0.0, shots=shots, outcome_counts={P33: int(hits)})
            ]
            cache[hits] = mle_phase(records, model, (0.0, math.radians(30.0))).phi_hat
        estimates.append(cache[hits])
    fisher = single_fringe_fisher_model(model, PHI15)
    ratio = float(np.var(estimates)) * shots * fisher
    _record(
        "09a",
        abs(ratio - 1.0) <= 0.10,
        f"MLE variance x M x Fisher = {ratio:.4f} over 1000 replications "
        "(target 1 +/- 0.1)",
    )


def test_criterion_09b_direct_estimator_noiseless():
    model = ideal_model("hb", 6, P33)
    shots = 1_000_000
    phis = PHI15 + np.radians(np.linspace(-0.002, 0.002, 7))
    records = [
        CountRecord(
            phi=float(phi),
            shots=shots,
            outcome_counts={P33: p33_closed_form(float(phi)) * shots},
        )
        for phi in phis
    ]
    result = direct_fisher_from_data(records, P33)
    truth = single_fringe_fisher_model(model, PHI15)
    diff = abs(result.fisher - truth)
    _record(
        "09b",
        diff < 1e-6,
        f"direct estimator on noiseless injected fringe, |error| {diff:.2e}",
    )


def test_criterion_09c_fit_recovers_planted_parameters():
    model = affine_from_visibility("hb", 6, P33, 0.94)
    truth = np.array([model.amplitude, model.offset])
    phases = tuple(np.radians(np.arange(0.0, 91.0, 7.5)))
    covered = 0
    for trial in range(500):
        plan = ExperimentPlan("hb", 6, phases, 2000, 5_150_000 + trial, model=model)
        fit = fit_fringe(simulate_counts(plan), P33, "affine")
        sigma = np.sqrt(np.diag(fit.cov))
        if np.all(np.abs(fit.params - truth) <= 3.0 * sigma):
            covered += 1
    _record(
        "09c",
        covered >= 495,
        f"planted (a, b) recovered within 3 sigma in {covered}/500 trials "
        "(need at least 495)",
    )


def test_criterion_10_detector_enumeration():
    exact = resolve_probability(3, FIVE)
    pmf = click_pmf_enumerate(3, 5, 1.0)
    joint = click_distribution({P33: 1.0}, FIVE)
    oracle = joint_clicks_enumerate(3, 3, 5)
    joint_worst = max(
        abs(joint.get(key, 0.0) - oracle.get(key, 0.0))
        for key in set(joint) | set(oracle)
    )
    passed = exact == 0.48 and abs(exact - pmf[3]) <= 1e-15 and joint_worst < 1e-12
    _record(
        "10",
        passed,
        f"three-photon resolve probability {exact} vs 0.48 and 5^3 "
        f"enumeration; joint click table vs 5^3 x 5^3 enumeration, max abs "
        f"deviation {joint_worst:.2e}",
    )


def test_criterion_11_snl_improvement_ratio():
    ideal_ratio = hb_limit(6) / 6.0
    model = affine_from_visibility("hb", 6, P33, 0.94)
    _, peak = find_peak(
        lambda phi: single_fringe_fisher_model(model, phi), 0.0, math.pi / 6.0
    )
    envelope_ratio = peak / 6.0
    _record(
        "11",
        ideal_ratio == 4.0 and envelope_ratio >= 3.0,
        f"shot-noise improvement: ideal ratio {ideal_ratio}, "
        f"reduced-contrast ratio {envelope_ratio:.4f} (need exactly 4 and "
        ">= 3)",
    )
