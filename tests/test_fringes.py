"""Tests for fringe probabilities, models, parity, and fringe fitting."""

import math

import numpy as np
import pytest

from fringelab import (
    CountRecord,
    ExperimentPlan,
    FringeModel,
    OutcomePattern,
    PhysicsError,
    affine_from_visibility,
    apply_model,
    dual_fock,
    fit_fringe,
    fringe_probabilities,
    fringe_probability,
    full_fisher,
    hb_state,
    ideal_model,
    make_state,
    model_fisher_sigma,
    noon_cosine_model,
    noon_state,
    optimality_certificate,
    output_amplitudes,
    p33_closed_form,
    simulate_counts,
    single_fringe_fisher,
    single_fringe_fisher_model,
    snl_state,
)
from fringelab.fringes import (
    _curvature,
    _curvatures,
    _model_fringe,
    _one_fringe,
    _probability_and_slope,
    _row_amplitudes,
)

from oracles import central_diff, random_states

DEG = math.pi / 180.0
O33 = OutcomePattern(3, 3)


_AFFINE = affine_from_visibility("hb", 6, O33, 0.94)
_COSINE = noon_cosine_model(6, visibility=0.94)
_COV = np.array([[3e-4, -1e-4], [-1e-4, 2e-4]])

#: Every public function of the phase, with the affine family on the
#: one-row kernel and the noon-cosine family in closed form.
_PHASE_FUNCTIONS = {
    "fringe_probability": lambda phi: fringe_probability(hb_state(6), O33, phi),
    "apply_model affine": lambda phi: apply_model(_AFFINE, phi),
    "apply_model cosine": lambda phi: apply_model(_COSINE, phi),
    "single_fringe_fisher": lambda phi: single_fringe_fisher(hb_state(6), O33, phi),
    "single_fringe_fisher_model affine": lambda phi: single_fringe_fisher_model(_AFFINE, phi),
    "single_fringe_fisher_model cosine": lambda phi: single_fringe_fisher_model(_COSINE, phi),
    "model_fisher_sigma affine": lambda phi: model_fisher_sigma(_AFFINE, _COV, phi),
    "model_fisher_sigma cosine": lambda phi: model_fisher_sigma(_COSINE, _COV, phi),
    "full_fisher": lambda phi: full_fisher(hb_state(6), phi),
    "optimality_certificate fisher": lambda phi: optimality_certificate(
        hb_state(6), O33, phi
    ).fisher,
    "optimality_certificate overlap_bound": lambda phi: optimality_certificate(
        hb_state(6), O33, phi
    ).overlap_bound,
}


def _closed_form_g(phi: float) -> float:
    return 0.625 * math.cos(3 * phi) + 0.375 * math.cos(phi)


def _closed_form_g_prime(phi: float) -> float:
    return -1.875 * math.sin(3 * phi) - 0.375 * math.sin(phi)


def parity_expectation(state, phi):
    """Expectation of the port-1 photon parity, +1 for even n1, -1 for odd."""
    signs = (-1.0) ** np.arange(state.total_photons + 1)
    return float(signs @ fringe_probabilities(state, phi))


def fringe_visibility(model, samples=4096):
    """Contrast (p_max - p_min)/(p_max + p_min), scanned over one period."""
    p = apply_model(model, np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))
    return (p.max() - p.min()) / (p.max() + p.min())


class TestFringeProbability:
    def test_unit_at_zero_phase(self):
        assert fringe_probability(hb_state(6), O33, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_closed_form_on_grid(self):
        phis = np.linspace(0.0, 2 * math.pi, 65)
        worst = max(
            abs(fringe_probability(hb_state(6), O33, phi) - p33_closed_form(phi))
            for phi in phis
        )
        assert worst < 1e-12

    def test_outcomes_complete(self):
        probs = fringe_probabilities(hb_state(6), 0.8)
        assert probs.shape == (7,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_completeness_random_sweep(self):
        rng = np.random.default_rng(42)
        for total in range(1, 11):
            states = random_states(total, 20, rng)
            for amps in states:
                state = make_state(total, amps)
                for phi in rng.uniform(0, 2 * math.pi, 20):
                    total_prob = fringe_probabilities(state, phi).sum()
                    assert abs(total_prob - 1.0) < 1e-12

    def test_photon_mismatch_rejected(self):
        with pytest.raises(PhysicsError):
            fringe_probability(hb_state(6), OutcomePattern(2, 2), 0.1)

    def test_periodic_and_even(self):
        rng = np.random.default_rng(7)
        for total in (3, 6):
            state = snl_state(total) if total % 2 else hb_state(total)
            for _ in range(5):
                phi = float(rng.uniform(0, 2 * math.pi))
                outcome = OutcomePattern(int(rng.integers(0, total + 1)), 0)
                outcome = OutcomePattern(
                    outcome.out_port_1, total - outcome.out_port_1
                )
                base = fringe_probability(state, outcome, phi)
                assert fringe_probability(
                    state, outcome, phi + 2 * math.pi
                ) == pytest.approx(base, abs=1e-12)
                assert fringe_probability(state, outcome, -phi) == pytest.approx(
                    base, abs=1e-12
                )


class TestFringeDerivative:
    def test_extremum_at_zero(self):
        assert _one_fringe(hb_state(6), O33, 0.0)[2] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_closed_form_at_15_degrees(self):
        phi = 15 * DEG
        expected = 2.0 * _closed_form_g(phi) * _closed_form_g_prime(phi)
        assert _one_fringe(hb_state(6), O33, phi)[2] == pytest.approx(
            expected, abs=1e-12
        )

    def test_snl_matches_finite_differences(self):
        state = snl_state(2)
        outcome = OutcomePattern(2, 0)
        for phi in (0.1, 0.7, 2.0):
            numeric = central_diff(
                lambda x: fringe_probability(state, outcome, x), phi
            )
            assert _one_fringe(state, outcome, phi)[2] == pytest.approx(
                numeric, abs=1e-6
            )

    def test_random_sweep_against_finite_differences(self):
        rng = np.random.default_rng(43)
        step = 1e-5
        worst = 0.0
        for total in range(1, 11):
            for amps in random_states(total, 20, rng):
                state = make_state(total, amps)
                for phi in rng.uniform(0, 2 * math.pi, 20):
                    numeric = (
                        fringe_probabilities(state, phi + step)
                        - fringe_probabilities(state, phi - step)
                    ) / (2 * step)
                    analytic = _probability_and_slope(*output_amplitudes(state, phi))[1]
                    worst = max(worst, float(np.max(np.abs(analytic - numeric))))
        assert worst < 1e-6

    def test_derivatives_sum_to_zero(self):
        slopes = _probability_and_slope(*output_amplitudes(hb_state(6), 0.9))[1]
        assert slopes.sum() == pytest.approx(0.0, abs=1e-12)


class TestOneRowPath:
    """The one-outcome quantities come from one splitter row; they must
    agree with that outcome's entries of the all-outcome kernel."""

    @pytest.mark.parametrize("total", [6, 40, 200])
    def test_matches_the_all_outcome_kernel(self, total):
        phis = np.array([0.0, 1e-9, 0.37, 1.9, 3.0])
        for amps in random_states(total, 2, np.random.default_rng(total)):
            state = make_state(total, amps)
            amp, amp_h = output_amplitudes(state, phis)
            probs = fringe_probabilities(state, phis)
            slopes = _probability_and_slope(amp, amp_h)[1]
            curvatures = _curvatures(state, phis)
            for m in range(total + 1):
                outcome = OutcomePattern(m, total - m)
                p, rest, dp, row_h = _one_fringe(state, outcome, phis)
                assert np.max(np.abs(p - np.abs(amp[:, m]) ** 2)) <= 1e-15
                assert np.max(np.abs(row_h - amp_h[:, m])) <= 1e-15 * total
                assert np.max(np.abs(dp - slopes[:, m])) <= 1e-14 * total
                row_curvature = _curvature(*_row_amplitudes(state, outcome, phis, 2)[2])
                curvature_error = np.abs(curvatures[:, m] - row_curvature)
                assert np.max(curvature_error) <= 1e-15 * total**2
                others = np.delete(probs, m, axis=-1).sum(axis=-1)
                assert np.max(np.abs(rest / others - 1.0)) <= 1e-13

    def test_hb6_complement_matches_the_closed_form(self):
        # 1 - p = (1 - g)(1 + g) with g = 5/8 cos(3 phi) + 3/8 cos(phi);
        # each factor is written as a sum of squares, so that neither
        # cancels next to the bright points 0 and pi.
        phis = np.concatenate(
            [np.geomspace(1e-9, 1e-2, 15), np.linspace(0.01, math.pi, 64)]
        )
        half = np.multiply.outer([1.5, 0.5], phis)
        weights = np.array([1.25, 0.75])
        closed = (weights @ np.sin(half) ** 2) * (weights @ np.cos(half) ** 2)
        rest = _one_fringe(hb_state(6), O33, phis)[1]
        assert np.max(np.abs(rest / closed - 1.0)) <= 1e-12


class TestP33ClosedForm:
    def test_unit_at_zero(self):
        assert p33_closed_form(0.0) == 1.0

    def test_vanishes_at_quarter_turn(self):
        assert p33_closed_form(90 * DEG) == pytest.approx(0.0, abs=1e-30)

    def test_value_at_15_degrees(self):
        value = p33_closed_form(15 * DEG)
        assert value == pytest.approx(0.64668, abs=5e-6)
        assert value == pytest.approx(
            fringe_probability(hb_state(6), O33, 15 * DEG), abs=1e-12
        )

    def test_accepts_arrays(self):
        phis = np.array([0.0, 90 * DEG])
        np.testing.assert_allclose(p33_closed_form(phis), [1.0, 0.0], atol=1e-30)


class TestParityExpectation:
    def test_noon_is_full_contrast_cosine(self):
        state = noon_state(6)
        for phi in np.linspace(0, 2 * math.pi, 25):
            assert parity_expectation(state, phi) == pytest.approx(
                math.cos(6 * phi), abs=1e-12
            )

    def test_unit_when_all_mass_is_even(self):
        # |1,1> splits onto |2,0> and |0,2> only: every outcome is even.
        assert parity_expectation(dual_fock(2), 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hb6_at_zero(self):
        assert parity_expectation(hb_state(6), 0.0) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_bounded(self):
        rng = np.random.default_rng(5)
        state = make_state(5, random_states(5, 1, rng)[0])
        for phi in rng.uniform(0, 2 * math.pi, 10):
            assert -1.0 - 1e-12 <= parity_expectation(state, phi) <= 1.0 + 1e-12


class TestFringeModel:
    def test_affine_identity_parameters_match_ideal(self):
        ideal = ideal_model("hb", 6, O33)
        affine = FringeModel("affine", "hb", 6, O33, 1.0, 0.0)
        assert ideal == affine
        for phi in np.linspace(0, math.pi, 19):
            assert apply_model(affine, phi) == pytest.approx(
                apply_model(ideal, phi), abs=1e-15
            )
            assert apply_model(ideal, phi) == pytest.approx(
                fringe_probability(hb_state(6), O33, phi), abs=1e-15
            )

    def test_noon_cosine_trough_vanishes_at_full_contrast(self):
        model = noon_cosine_model(6, visibility=1.0)
        assert model.amplitude == pytest.approx(20 / 64, abs=1e-15)
        assert apply_model(model, 30 * DEG) == pytest.approx(0.0, abs=1e-15)

    def test_affine_from_visibility_evaluation(self):
        model = affine_from_visibility("hb", 6, O33, 0.94)
        for phi in (0.0, 15 * DEG, 40 * DEG):
            expected = model.amplitude * p33_closed_form(phi) + model.offset
            assert apply_model(model, phi) == pytest.approx(expected, abs=1e-15)

    def test_affine_from_visibility_solves_constraints(self):
        model = affine_from_visibility("hb", 6, O33, 0.94, peak=0.97)
        assert model.amplitude + model.offset == pytest.approx(0.97, abs=1e-12)
        assert model.amplitude / (model.amplitude + 2 * model.offset) == (
            pytest.approx(0.94, abs=1e-12)
        )
        assert model.visibility == pytest.approx(0.94, abs=1e-12)
        # For the affine kind the visibility is derived from (a, b); a
        # given value is not kept.
        given = FringeModel("affine", "hb", 6, O33, 0.5, 0.1, 0.3)
        assert given.visibility == pytest.approx(0.5 / 0.7, rel=1e-15)
        assert FringeModel("affine", "hb", 6, O33, 0.0, 0.0, 0.3).visibility == 0.0

    def test_model_derivative_matches_finite_differences(self):
        models = [
            ideal_model("hb", 6, O33),
            affine_from_visibility("hb", 6, O33, 0.94),
            noon_cosine_model(6, visibility=0.94),
        ]
        for model in models:
            for phi in (0.2, 0.9, 1.7):
                numeric = central_diff(lambda x: apply_model(model, x), phi)
                assert _model_fringe(model, phi)[2] == pytest.approx(
                    numeric, abs=1e-7
                )

    def test_scalar_and_array_evaluation_agree(self):
        # Every function of the phase takes a scalar or an array of phases.
        # Array evaluation may sum amplitude terms in a different order, so
        # agreement is to rounding, not bit-exact.
        state = make_state(6, random_states(6, 1, np.random.default_rng(5))[0])
        affine, cosine, cov = _AFFINE, _COSINE, _COV
        functions = {
            "output_amplitudes": lambda phi: np.stack(
                output_amplitudes(state, phi), axis=-2
            ),
            "fringe_probability": lambda phi: fringe_probability(state, O33, phi),
            "_one_fringe": lambda phi: _one_fringe(state, O33, phi)[2],
            "fringe_probabilities": lambda phi: fringe_probabilities(state, phi),
            "_probability_and_slope": lambda phi: _probability_and_slope(
                *output_amplitudes(state, phi)
            )[1],
            "p33_closed_form": p33_closed_form,
            "apply_model affine": lambda phi: apply_model(affine, phi),
            "apply_model cosine": lambda phi: apply_model(cosine, phi),
            "_model_fringe affine": lambda phi: _model_fringe(affine, phi)[2],
            "_model_fringe cosine": lambda phi: _model_fringe(cosine, phi)[2],
            "full_fisher hb": lambda phi: full_fisher(hb_state(6), phi),
            "full_fisher": lambda phi: full_fisher(state, phi),
            "single_fringe_fisher hb": lambda phi: single_fringe_fisher(
                hb_state(6), O33, phi
            ),
            "single_fringe_fisher": lambda phi: single_fringe_fisher(state, O33, phi),
            "single_fringe_fisher_model affine": lambda phi: (
                single_fringe_fisher_model(affine, phi)
            ),
            "single_fringe_fisher_model cosine": lambda phi: (
                single_fringe_fisher_model(cosine, phi)
            ),
            "model_fisher_sigma affine": lambda phi: model_fisher_sigma(
                affine, cov, phi
            ),
            "model_fisher_sigma cosine": lambda phi: model_fisher_sigma(
                cosine, cov, phi
            ),
            "optimality_certificate": lambda phi: np.array(
                [
                    getattr(optimality_certificate(state, O33, phi), field)
                    for field in ("fisher", "overlap_bound", "gradient_tight")
                ],
                dtype=float,
            ).T,
        }
        phis = np.linspace(0, 1, 7)
        for name, fun in functions.items():
            batch = fun(phis)
            assert len(batch) == len(phis), name
            for phi, value in zip(phis, batch):
                assert fun(float(phi)) == pytest.approx(value, rel=1e-13), name

    @pytest.mark.parametrize("name", sorted(_PHASE_FUNCTIONS))
    def test_return_type_follows_the_phase(self, name):
        # A scalar phase, whether a Python float, a numpy scalar or a 0-d
        # array, gives a Python float on either kernel path; an array of
        # phases gives an array of its shape.
        fun = _PHASE_FUNCTIONS[name]
        for phi in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(fun(phi)) is float, (name, type(phi))
        for phis in (np.array([0.3]), np.linspace(0.0, 1.0, 6).reshape(2, 3)):
            value = fun(phis)
            assert isinstance(value, np.ndarray) and value.shape == phis.shape, name

    def test_unknown_kind_rejected(self):
        # The exact fringe is the affine member a = 1, b = 0, not a kind.
        for kind in ("spline", "ideal"):
            with pytest.raises(PhysicsError, match="unknown fringe model kind"):
                FringeModel(kind, "hb", 6, O33)

    def test_outcome_mismatch_rejected(self):
        with pytest.raises(PhysicsError, match="2:2 has 4 photons"):
            FringeModel("affine", "hb", 6, OutcomePattern(2, 2))

    def test_affine_exceeding_unit_probability_rejected(self):
        with pytest.raises(PhysicsError):
            FringeModel("affine", "hb", 6, O33, 0.9, 0.2)

    def test_noon_cosine_offset_rejected(self):
        # The noon-cosine fringe q (1 + V cos N phi) has no offset term, so
        # a nonzero one would be silently ignored.
        with pytest.raises(PhysicsError, match="offset"):
            FringeModel("noon-cosine", "noon", 6, O33, 0.3, 0.5, 1.0)
        assert noon_cosine_model(6).offset == 0.0

    def test_slack_below_zero_is_stored_as_zero(self):
        # An offset of -1e-10 once gave p = -1e-10 near the dark point of
        # HB N = 6 at 2:4, and an infinite Fisher value there.
        model = FringeModel("affine", "hb", 6, OutcomePattern(2, 4), 1.0, -1e-10)
        assert (model.amplitude, model.offset) == (1.0, 0.0)
        assert noon_cosine_model(6, amplitude=-5e-10).amplitude == 0.0
        for phi in (0.0, 1e-7, np.array([0.0, 1e-7, 0.5])):
            assert np.all(apply_model(model, phi) >= 0.0)
            assert np.all(np.isfinite(single_fringe_fisher_model(model, phi)))
        with pytest.raises(PhysicsError, match="amplitude >= 0"):
            FringeModel("affine", "hb", 6, O33, 1.0, -2e-9)

    def test_noon_crest_above_unit_rejected(self):
        with pytest.raises(PhysicsError):
            noon_cosine_model(6, visibility=1.0, amplitude=0.6)

    def test_visibility_out_of_range_rejected(self):
        with pytest.raises(PhysicsError):
            affine_from_visibility("hb", 6, O33, 1.2)
        with pytest.raises(PhysicsError):
            affine_from_visibility("hb", 6, O33, -0.1)

    def test_bad_peak_rejected(self):
        with pytest.raises(PhysicsError):
            affine_from_visibility("hb", 6, O33, 0.9, peak=0.0)

    def test_noon_cosine_odd_photons_rejected(self):
        with pytest.raises(PhysicsError):
            noon_cosine_model(5)


class TestFringeVisibility:
    def test_ideal_fringe_has_unit_contrast(self):
        assert fringe_visibility(ideal_model("hb", 6, O33)) == pytest.approx(
            1.0, abs=1e-6
        )

    @pytest.mark.parametrize("target", [0.5, 0.94])
    def test_affine_family_recovers_target(self, target):
        model = affine_from_visibility("hb", 6, O33, target)
        assert fringe_visibility(model) == pytest.approx(target, abs=1e-6)

    def test_noon_family_recovers_target(self):
        model = noon_cosine_model(6, visibility=0.94)
        assert fringe_visibility(model) == pytest.approx(0.94, abs=1e-12)


class TestCountRecord:
    def test_holds_counts(self):
        record = CountRecord(0.1, 100, {O33: 60})
        assert record.outcome_counts[O33] == 60

    def test_shots_required_positive(self):
        with pytest.raises(PhysicsError):
            CountRecord(0.0, 0, {})

    def test_negative_count_rejected(self):
        with pytest.raises(PhysicsError):
            CountRecord(0.0, 10, {O33: -1})

    def test_counts_capped_by_shots(self):
        with pytest.raises(PhysicsError):
            CountRecord(0.0, 10, {O33: 11})

    def test_lossy_record_allowed(self):
        record = CountRecord(0.0, 10, {O33: 4})
        assert record.shots == 10


class TestFitFringe:
    @staticmethod
    def _noiseless_records(model, phis_deg, shots=10_000):
        records = []
        for deg in phis_deg:
            phi = deg * DEG
            records.append(
                CountRecord(phi, shots, {model.outcome: apply_model(model, phi) * shots})
            )
        return records

    def test_noiseless_ideal_recovery(self):
        truth = ideal_model("hb", 6, O33)
        records = self._noiseless_records(truth, np.arange(0, 91, 10))
        result = fit_fringe(records, O33, "affine")
        assert result.visibility == pytest.approx(1.0, abs=1e-9)
        assert result.visibility_sigma < 1e-3
        a, b = result.params
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)
        assert result.param_names == ("a", "b")

    def test_noiseless_noon_recovery(self):
        truth = noon_cosine_model(6, visibility=0.7)
        records = self._noiseless_records(truth, np.arange(0, 61, 5))
        result = fit_fringe(records, O33, "noon-cosine")
        q, vis = result.params
        assert q == pytest.approx(0.3125, abs=1e-9)
        assert vis == pytest.approx(0.7, abs=1e-9)
        assert result.param_names == ("q", "V")
        assert result.model.kind == "noon-cosine"

    def test_recovers_planted_affine_parameters(self):
        truth = FringeModel("affine", "hb", 6, O33, 0.9691, 0.0309)
        plan = ExperimentPlan(
            "hb", 6, tuple(np.arange(0, 91, 7.5) * DEG), 10_000, 91521, model=truth
        )
        result = fit_fringe(simulate_counts(plan), O33, "affine")
        target = 0.9691 / (0.9691 + 2 * 0.0309)
        assert abs(result.visibility - target) < 2 * result.visibility_sigma
        assert result.visibility == pytest.approx(0.94, abs=0.02)

    def test_covariance_shrinks_with_shots(self):
        truth = FringeModel("affine", "hb", 6, O33, 0.9691, 0.0309)
        sigmas = []
        for shots in (1_000, 16_000):
            plan = ExperimentPlan(
                "hb", 6, tuple(np.arange(0, 91, 7.5) * DEG), shots, 4, model=truth
            )
            sigmas.append(fit_fringe(simulate_counts(plan), O33, "affine").visibility_sigma)
        assert sigmas[1] < sigmas[0] / 2

    def test_zero_count_points_are_handled(self):
        # Dark-fringe points report zero events; the Poisson weight floor
        # keeps them finite and the noiseless fit stays exact. The 90 degree
        # point is appended by hand because the floating-point dark
        # probability is ~1e-29 rather than exactly zero.
        truth = ideal_model("hb", 6, O33)
        records = self._noiseless_records(truth, [0, 30, 60])
        records.append(CountRecord(90 * DEG, 10_000, {O33: 0.0}))
        assert any(
            rec.outcome_counts.get(O33, 0.0) == 0.0 for rec in records
        )
        result = fit_fringe(records, O33, "affine")
        assert result.params[0] == pytest.approx(1.0, abs=1e-9)

    def test_underdetermined_rejected(self):
        records = [
            CountRecord(0.0, 10, {O33: 10}),
            CountRecord(0.0, 10, {O33: 9}),
            CountRecord(0.2, 10, {O33: 8}),
        ]
        with pytest.raises(PhysicsError, match="three distinct phases"):
            fit_fringe(records, O33, "affine")

    def test_unfittable_kind_rejected(self):
        records = self._noiseless_records(ideal_model("hb", 6, O33), [0, 10, 20, 30])
        with pytest.raises(PhysicsError, match="not fittable"):
            fit_fringe(records, O33, "ideal")

    def test_empty_records_rejected(self):
        with pytest.raises(PhysicsError):
            fit_fringe([], O33, "affine")

    def test_singular_design_rejected(self):
        # cos(6 phi) = 1 at all three phases: the two noon-cosine
        # coordinates are collinear.
        records = [
            CountRecord(0.0, 100, {O33: 60}),
            CountRecord(60 * DEG, 100, {O33: 60}),
            CountRecord(120 * DEG, 100, {O33: 60}),
        ]
        with pytest.raises(PhysicsError, match="singular"):
            fit_fringe(records, O33, "noon-cosine")
