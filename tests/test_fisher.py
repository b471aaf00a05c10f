"""Tests for Fisher-information evaluation, bounds, and scaling tables."""

import math

import numpy as np
import pytest

from fringelab import (
    FringeModel,
    OutcomePattern,
    PhysicsError,
    affine_from_visibility,
    beam_splitter_matrix,
    find_peak,
    full_fisher,
    generator_variance,
    hb_limit,
    hb_state,
    ideal_model,
    make_state,
    model_fisher_sigma,
    noon_asymptotic,
    noon_cosine_model,
    noon_single_fringe_max,
    noon_state,
    number_difference,
    optimality_certificate,
    output_uncertainty_bound,
    p33_closed_form,
    scaling_table,
    single_fringe_fisher,
    single_fringe_fisher_model,
    snl_state,
)

from oracles import fisher_sum_oracle, random_states

DEG = math.pi / 180.0
O33 = OutcomePattern(3, 3)


class TestFullFisher:
    def test_hb6_phase_independent(self):
        rng = np.random.default_rng(21)
        values = [full_fisher(hb_state(6), phi) for phi in rng.uniform(0, math.pi, 20)]
        assert max(values) - min(values) < 1e-8
        assert values[0] == pytest.approx(24.0, abs=1e-8)

    def test_noon6_heisenberg(self):
        rng = np.random.default_rng(22)
        for phi in rng.uniform(0, math.pi, 20):
            assert full_fisher(noon_state(6), phi) == pytest.approx(36.0, abs=1e-8)

    @pytest.mark.parametrize("total", [2, 4, 6])
    def test_snl_baseline(self, total):
        for phi in (0.1, 0.9, 2.3):
            assert full_fisher(snl_state(total), phi) == pytest.approx(
                total, abs=1e-8
            )

    def test_matches_sum_oracle_on_random_states(self):
        rng = np.random.default_rng(23)
        for total in (3, 6):
            for amps in random_states(total, 3, rng):
                state = make_state(total, amps)
                for phi in (0.4, 1.3):
                    assert full_fisher(state, phi) == pytest.approx(
                        fisher_sum_oracle(total, amps, phi), abs=1e-4
                    )

    def test_bounded_by_generator_variance(self):
        rng = np.random.default_rng(24)
        for total in range(2, 9):
            for amps in random_states(total, 30, rng):
                state = make_state(total, amps)
                phi = float(rng.uniform(0, math.pi))
                assert full_fisher(state, phi) <= generator_variance(state) + 1e-9

    @pytest.mark.parametrize("builder", [hb_state, noon_state, snl_state])
    @pytest.mark.parametrize("total", [2, 4, 6, 8])
    @pytest.mark.parametrize("turns", [0.0, 1.0, None])
    def test_limit_at_removable_singularities(self, builder, total, turns):
        # phi = 0, pi/N and pi/2 put outcomes at exact bright or dark
        # points, where p and dp/dphi vanish together; the limits of those
        # terms keep the full-counting value at the generator variance.
        state = builder(total)
        phi = math.pi / 2 if turns is None else turns * math.pi / total
        assert full_fisher(state, phi) == pytest.approx(
            generator_variance(state), rel=1e-12
        )

    @pytest.mark.parametrize("builder", [hb_state, noon_state, snl_state])
    def test_saturates_for_path_symmetric_states(self, builder):
        state = builder(6)
        for phi in (0.05, 0.6, 1.4):
            assert full_fisher(state, phi) == pytest.approx(
                generator_variance(state), abs=1e-8
            )


class TestSingleFringeFisher:
    def test_hb6_balanced_outcome_near_zero(self):
        value = single_fringe_fisher(hb_state(6), O33, 0.01)
        assert value == pytest.approx(24.0, rel=0.01)

    def test_never_exceeds_full_information(self):
        rng = np.random.default_rng(25)
        for total in (2, 5, 8):
            for amps in random_states(total, 20, rng):
                state = make_state(total, amps)
                phi = float(rng.uniform(0, math.pi))
                full = full_fisher(state, phi)
                for n1 in range(total + 1):
                    single = single_fringe_fisher(
                        state, OutcomePattern(n1, total - n1), phi
                    )
                    assert single <= full + 1e-9

    def test_zero_at_bright_extremum(self):
        # p = 1 and dp = 0 at phi = 0: the removable-singularity rule.
        assert single_fringe_fisher(hb_state(6), O33, 0.0) == 0.0

    def test_dark_fringe_keeps_information(self):
        # Near a dark point p ~ phi^2 but (p')^2/p stays finite and large.
        state = noon_state(2)
        outcome = OutcomePattern(1, 1)
        value = single_fringe_fisher(state, outcome, 1e-4)
        assert value > 1.0


class TestSingleFringeFisherModel:
    def test_ideal_limit_toward_zero_phase(self):
        model = ideal_model("hb", 6, O33)
        assert single_fringe_fisher_model(model, 1e-4) == pytest.approx(
            24.0, rel=1e-6
        )
        assert single_fringe_fisher_model(model, 0.0) == 0.0

    @pytest.mark.parametrize(
        "model, phi0, limit",
        [
            (ideal_model("hb", 6, O33), 0.0, 24.0),
            (FringeModel("affine", "hb", 6, O33, 0.75, 0.25), 0.0, 18.0),
            (noon_cosine_model(6, visibility=1.0, amplitude=0.5), 0.0, 36.0),
            (noon_cosine_model(6, visibility=1.0), 30 * DEG, 22.5),
        ],
        ids=["ideal-crest", "affine-crest", "noon-crest", "noon-dark"],
    )
    def test_limit_next_to_crest_and_dark_point(self, model, phi0, limit):
        # Within 1e-9 rad of p = 1 or p = 0 the value keeps its limit:
        # neither p nor its complement is formed by cancellation.
        for offset in (1e-9, 1e-7):
            phi = phi0 + offset if phi0 == 0.0 else phi0 - offset
            assert single_fringe_fisher_model(model, phi) == pytest.approx(
                limit, rel=1e-9
            )

    def test_reduced_visibility_kills_origin(self):
        model = affine_from_visibility("hb", 6, O33, 0.94)
        assert single_fringe_fisher_model(model, 0.0) == 0.0

    def test_affine_example_at_15_degrees(self):
        model = FringeModel("affine", "hb", 6, O33, 0.9691, 0.0309)
        phi = 15 * DEG
        p = 0.9691 * p33_closed_form(phi) + 0.0309
        g = 0.625 * math.cos(3 * phi) + 0.375 * math.cos(phi)
        g_prime = -1.875 * math.sin(3 * phi) - 0.375 * math.sin(phi)
        dp = 0.9691 * 2.0 * g * g_prime
        expected = dp * dp / (p * (1.0 - p))
        assert expected == pytest.approx(21.8, abs=0.05)
        assert single_fringe_fisher_model(model, phi) == pytest.approx(
            expected, abs=1e-12
        )

    def test_noon_cosine_full_contrast_maximum(self):
        model = noon_cosine_model(6, visibility=1.0)
        _, peak = find_peak(
            lambda phi: single_fringe_fisher_model(model, phi), 0.0, 60 * DEG
        )
        expected = 36.0 * math.comb(6, 3) / 2.0**5
        assert expected == 22.5
        assert peak == pytest.approx(22.5, abs=1e-4)

    def test_noon_cosine_experimental_visibility_maximum(self):
        model = noon_cosine_model(6, visibility=0.94)
        _, peak = find_peak(
            lambda phi: single_fringe_fisher_model(model, phi), 0.0, 60 * DEG
        )
        assert peak == pytest.approx(16.91, abs=0.05)

    def test_affine_experimental_visibility_peak(self):
        model = affine_from_visibility("hb", 6, O33, 0.94)
        phi_star, peak = find_peak(
            lambda phi: single_fringe_fisher_model(model, phi), 0.0, 30 * DEG
        )
        assert 12 * DEG <= phi_star <= 18 * DEG
        assert 19.0 <= peak <= 22.0


class TestOutputUncertaintyBound:
    @pytest.mark.parametrize(
        "outcome,expected",
        [((3, 3), 24.0), ((6, 0), 6.0), ((4, 2), 22.0), ((0, 6), 6.0)],
    )
    def test_six_photon_values(self, outcome, expected):
        assert output_uncertainty_bound(OutcomePattern(*outcome)) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("total", range(1, 13))
    def test_equals_closed_form_everywhere(self, total):
        for n1 in range(total + 1):
            bound = output_uncertainty_bound(OutcomePattern(n1, total - n1))
            assert bound == pytest.approx(2 * n1 * (total - n1) + total, abs=1e-9)

    def test_operator_brute_force(self):
        # Transport the detection ket through the splitter and take the
        # second moment of the number difference directly.
        mat = beam_splitter_matrix(6)
        diff = number_difference(6)
        for n1 in range(7):
            ket = mat[:, n1]
            moment = float((ket * ket) @ (diff * diff))
            assert output_uncertainty_bound(
                OutcomePattern(n1, 6 - n1)
            ) == pytest.approx(moment, abs=1e-12)

    def test_balanced_outcome_is_maximal(self):
        bounds = [
            output_uncertainty_bound(OutcomePattern(n1, 6 - n1)) for n1 in range(7)
        ]
        assert np.argmax(bounds) == 3


class TestBoundProperty:
    def test_random_state_sweep(self):
        rng = np.random.default_rng(26)
        for total in range(2, 9):
            mat = beam_splitter_matrix(total)
            half = 0.5 * number_difference(total)
            bounds = 2 * np.arange(total + 1) * (total - np.arange(total + 1)) + total
            states = random_states(total, 100, rng)
            for phi in rng.uniform(0, math.pi, 5):
                rotated = states * np.exp(-1j * phi * half)
                amps = rotated @ mat.T
                amps_h = (rotated * half) @ mat.T
                probs = np.abs(amps) ** 2
                dps = 2.0 * np.imag(np.conj(amps) * amps_h)
                rest = probs.sum(axis=1, keepdims=True) - probs
                denom = np.maximum(probs * rest, 1e-300)
                fishers = dps**2 / denom
                assert np.all(fishers <= bounds[None, :] + 1e-9)


class TestOptimalityCertificate:
    def test_hb6_chain_is_tight_near_zero(self):
        report = optimality_certificate(hb_state(6), O33, 1e-5)
        assert report.fisher == pytest.approx(24.0, abs=1e-6)
        assert report.overlap_bound == pytest.approx(24.0, abs=1e-6)
        assert report.output_bound == pytest.approx(24.0, abs=1e-9)
        assert report.gradient_tight
        assert report.variance_tight

    def test_noon6_stays_below_output_bound(self):
        for phi in (0.05, 0.2, 0.5):
            report = optimality_certificate(noon_state(6), O33, phi)
            assert report.fisher < report.output_bound - 1.0
            assert not report.variance_tight

    def test_complex_state_first_inequality_strict(self):
        rng = np.random.default_rng(3)
        state = make_state(6, random_states(6, 1, rng)[0])
        report = optimality_certificate(state, O33, 0.3)
        assert report.fisher < report.overlap_bound - 1e-3
        assert not report.gradient_tight

    def test_real_state_first_inequality_tight(self):
        # Real amplitudes keep the gradient step of the chain an equality.
        report = optimality_certificate(hb_state(6), O33, 0.4)
        assert report.gradient_tight


class TestClosedFormLimits:
    def test_hb_limit_values(self):
        assert hb_limit(6) == 24.0
        assert hb_limit(2) == 4.0
        assert hb_limit(40) == 840.0

    def test_hb_limit_matches_full_fisher_at_40(self):
        assert full_fisher(hb_state(40), 0.33) == pytest.approx(840.0, abs=1e-6)

    def test_hb_limit_rejects_odd(self):
        with pytest.raises(PhysicsError):
            hb_limit(5)

    def test_noon_single_fringe_values(self):
        assert noon_single_fringe_max(6) == 22.5
        assert noon_single_fringe_max(4) == hb_limit(4) == 12.0
        assert noon_single_fringe_max(2) == hb_limit(2) == 4.0
        assert noon_single_fringe_max(8) == 35.0
        assert noon_single_fringe_max(8) < hb_limit(8) == 40.0

    def test_noon_single_fringe_rejects_odd(self):
        with pytest.raises(PhysicsError):
            noon_single_fringe_max(7)

    def test_log_gamma_branch_is_continuous(self):
        for total in (58, 60, 62, 64):
            exact = total * total * math.comb(total, total // 2) / 2.0 ** (total - 1)
            assert noon_single_fringe_max(total) == pytest.approx(
                exact, rel=1e-12
            )

    def test_noon_below_hb_for_larger_sectors(self):
        for total in range(6, 201, 2):
            assert noon_single_fringe_max(total) < hb_limit(total)

    def test_noon_asymptotic(self):
        assert noon_asymptotic(6) == pytest.approx(23.45, abs=0.01)
        big = 10_000
        ratio = noon_single_fringe_max(big) / noon_asymptotic(big)
        assert abs(ratio - 1.0) < 0.01

    def test_noon_hb_ratio_monotone_vanishing(self):
        ratios = [
            noon_single_fringe_max(total) / hb_limit(total)
            for total in range(6, 202, 2)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(22.5 / 24.0, abs=1e-12)
        assert ratios[-1] < 0.25

    @pytest.mark.parametrize("total", [64, 256, 1024, 4096])
    def test_kernel_peaks_reach_the_closed_forms(self, total):
        # The headline from the exact kernel up: the balanced fringe's peak
        # single-fringe Fisher information is the NOON supremum, next to the
        # dark point pi/N, and the Holland-Burnett limit N(N+2)/2, next to
        # the bright point 0.
        balanced = OutcomePattern(total // 2, total // 2)
        for state, hi, expected in (
            (noon_state(total), math.pi / total, noon_single_fringe_max(total)),
            (hb_state(total), 4.0 / total, hb_limit(total)),
        ):
            _, peak = find_peak(
                lambda phi: single_fringe_fisher(state, balanced, phi),
                0.0, hi, hi / 64,
            )
            assert peak == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("total", [6, 8, 12, 20, 40])
    def test_balanced_outcome_is_the_best_single_fringe(self, total):
        # The headline over every outcome: no single fringe m:(N-m) beats
        # the balanced one, whose peak is the closed form for each state.
        for state, hi, expected in (
            (noon_state(total), math.pi / total, noon_single_fringe_max(total)),
            (hb_state(total), 4.0 / total, hb_limit(total)),
        ):
            peaks = [
                find_peak(
                    lambda phi: single_fringe_fisher(
                        state, OutcomePattern(m, total - m), phi
                    ),
                    0.0, hi, hi / 64,
                )[1]
                for m in range(total + 1)
            ]
            assert int(np.argmax(peaks)) == total // 2
            assert max(peaks) == pytest.approx(expected, rel=1e-10)


class TestScalingTable:
    def test_small_rows(self):
        rows = scaling_table(4)
        assert [(r.total_photons, r.snl, r.noon_single, r.hb_single) for r in rows] == [
            (2, 2.0, 4.0, 4.0),
            (4, 4.0, 12.0, 12.0),
        ]

    def test_forty_photon_ordering(self):
        rows = scaling_table(40)
        assert rows[-1].hb_single == 840.0
        for row in rows:
            if row.total_photons >= 6:
                assert row.hb_single > row.noon_single > row.snl

    def test_odd_n_max_keeps_even_rows(self):
        rows = scaling_table(3)
        assert len(rows) == 1
        assert rows[0].total_photons == 2

    def test_too_small_rejected(self):
        with pytest.raises(PhysicsError):
            scaling_table(1)


class TestProfilesAndPeaks:
    def test_model_fisher_sigma_positive_off_peak(self):
        model = affine_from_visibility("hb", 6, O33, 0.94)
        jac = np.array([1.0, -1.0])
        cov = 0.02**2 * np.outer(jac, jac)
        assert model_fisher_sigma(model, cov, 15 * DEG) > 0.0

    @pytest.mark.parametrize(
        "model",
        [
            affine_from_visibility("hb", 6, O33, 0.94),
            FringeModel("affine", "hb", 6, O33, 0.8, 0.1),
            noon_cosine_model(6, visibility=0.94),
            noon_cosine_model(6, visibility=0.7, amplitude=0.4),
            ideal_model("hb", 6, O33),
        ],
        ids=["affine-0.94", "affine-0.8-0.1", "noon-0.94", "noon-0.7-0.4", "ideal"],
    )
    def test_model_fisher_sigma_matches_central_difference(self, model):
        names = ("amplitude", "offset" if model.kind == "affine" else "visibility")
        params = np.array([getattr(model, name) for name in names])

        def build(*values):
            # The exact fringe sits on the edge a + b = 1 of the valid
            # region, so the stepped models skip the validity checks.
            stepped = object.__new__(FringeModel)
            stepped.__dict__.update(vars(model), **dict(zip(names, values)))
            return stepped

        cov = np.array([[3e-4, -1e-4], [-1e-4, 2e-4]])
        for phi in (3 * DEG, 9 * DEG, 15 * DEG, 21 * DEG, 28 * DEG):
            grad = np.empty(2)
            for i in range(2):
                step = np.zeros(2)
                step[i] = 1e-6
                grad[i] = (
                    single_fringe_fisher_model(build(*(params + step)), phi)
                    - single_fringe_fisher_model(build(*(params - step)), phi)
                ) / 2e-6
            expected = math.sqrt(grad @ cov @ grad)
            assert model_fisher_sigma(model, cov, phi) == pytest.approx(
                expected, rel=1e-6
            )

    def test_find_peak_on_cosine(self):
        phi, value = find_peak(lambda x: np.cos(x - 0.8), 0.0, 2.0)
        assert phi == pytest.approx(0.8, abs=1e-6)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_find_peak_searches_on_arrays(self):
        model = affine_from_visibility("hb", 6, O33, 0.94)
        calls = []

        def fun(phi):
            assert isinstance(phi, np.ndarray) and phi.ndim == 1
            calls.append(phi.size)
            return single_fringe_fisher_model(model, phi)

        _, peak = find_peak(fun, 0.0, math.pi / 6.0)
        assert len(calls) <= 12
        coarse = np.linspace(0.0, math.pi / 6.0, 121)
        assert calls[0] == coarse.size
        assert peak >= np.max(single_fringe_fisher_model(model, coarse))

    def test_find_peak_deterministic(self):
        model = noon_cosine_model(6, visibility=0.94)
        fun = lambda phi: single_fringe_fisher_model(model, phi)
        assert find_peak(fun, 0.0, 1.0) == find_peak(fun, 0.0, 1.0)

    def test_find_peak_rejects_empty_interval(self):
        with pytest.raises(PhysicsError):
            find_peak(math.cos, 1.0, 1.0)
