"""Tests for the Monte Carlo simulator and the phase estimators."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from fringelab import (
    CountRecord,
    DetectorArrayConfig,
    ExperimentPlan,
    OutcomePattern,
    PhysicsError,
    affine_from_visibility,
    apply_model,
    direct_fisher_from_data,
    fringe_probabilities,
    hb_state,
    ideal_model,
    mle_phase,
    noon_cosine_model,
    p33_closed_form,
    simulate_counts,
    single_fringe_fisher_model,
    snl_comparison,
)

DEG = math.pi / 180.0
P33 = OutcomePattern(3, 3)
IDEAL33 = ideal_model("hb", 6, P33)
NOON09 = noon_cosine_model(6, visibility=0.9)


def _injected_records(model, phis, shots):
    """Noise-free records carrying exact expected counts as floats."""
    return [
        CountRecord(
            phi=float(phi),
            shots=shots,
            outcome_counts={model.outcome: float(apply_model(model, phi)) * shots},
        )
        for phi in phis
    ]


class TestExperimentPlan:
    def test_holds_fields(self):
        plan = ExperimentPlan("hb", 6, (0.1, 0.2), 100, 7)
        assert plan.state_kind == "hb"
        assert plan.detectors is None
        assert plan.model is None

    def test_needs_phases(self):
        with pytest.raises(PhysicsError):
            ExperimentPlan("hb", 6, (), 100, 7)

    def test_needs_shots(self):
        with pytest.raises(PhysicsError):
            ExperimentPlan("hb", 6, (0.1,), 0, 7)

    def test_model_plan_has_the_plans_n_and_no_detectors(self):
        # The binomial model draw has no detector path.
        with pytest.raises(PhysicsError, match="takes no detectors"):
            ExperimentPlan("hb", 6, (0.1,), 100, 7, detectors=DetectorArrayConfig(5, 1.0),
                           model=IDEAL33)
        with pytest.raises(PhysicsError, match="N = 4 photons, the plan N = 6"):
            ExperimentPlan("hb", 6, (0.1,), 100, 7,
                           model=ideal_model("hb", 4, OutcomePattern(2, 2)))

    def test_detectors_must_be_able_to_record_n_photons(self):
        config = DetectorArrayConfig(detectors_per_port=3, efficiency=0.9)
        ExperimentPlan("hb", 6, (0.1,), 100, 7, detectors=config)
        with pytest.raises(PhysicsError, match="2k = 6"):
            ExperimentPlan("hb", 8, (0.1,), 100, 7, detectors=config)


class TestSimulateCounts:
    def test_bright_fringe_is_deterministic(self):
        # At zero phase the six-photon input exits (3, 3) with certainty.
        plan = ExperimentPlan("hb", 6, (0.0,), 200, 1)
        (record,) = simulate_counts(plan)
        assert record.outcome_counts == {P33: 200}
        assert record.shots == 200

    def test_same_seed_reproduces(self):
        plan = ExperimentPlan("hb", 6, (0.2, 0.9), 500, 123)
        assert simulate_counts(plan) == simulate_counts(plan)

    def test_different_seed_differs(self):
        base = ExperimentPlan("hb", 6, (0.2, 0.9), 500, 123)
        other = ExperimentPlan("hb", 6, (0.2, 0.9), 500, 124)
        assert simulate_counts(base) != simulate_counts(other)

    def test_binomial_draw_tracks_fringe_probability(self):
        plan = ExperimentPlan("hb", 6, (30.0 * DEG,), 1_000_000, 77, model=IDEAL33)
        (record,) = simulate_counts(plan)
        hits = record.outcome_counts.get(P33, 0)
        p = 0.10546875
        z = (hits - plan.shots * p) / math.sqrt(plan.shots * p * (1.0 - p))
        assert abs(z) < 4.0

    def test_model_plan_counts_single_outcome(self):
        model = noon_cosine_model(6, visibility=0.9)
        plan = ExperimentPlan("noon", 6, (0.1, 0.4), 1000, 3, model=model)
        for record in simulate_counts(plan):
            assert set(record.outcome_counts) <= {model.outcome}

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_multinomial_draws_match_exact_distribution(self, seed):
        # Pearson chi-square against the exact outcome distribution,
        # pooled over four phases, lumping cells expecting < 5 events.
        phases = tuple(np.array([5.0, 12.0, 19.0, 26.0]) * DEG)
        plan = ExperimentPlan("hb", 6, phases, 50_000, seed)
        state = hb_state(6)
        statistic = 0.0
        dof = 0
        for record in simulate_counts(plan):
            expected = fringe_probabilities(state, record.phi) * record.shots
            observed = np.array(
                [
                    float(record.outcome_counts.get(OutcomePattern(k, 6 - k), 0))
                    for k in range(7)
                ]
            )
            keep = expected >= 5.0
            statistic += float(
                ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
            )
            dof += int(keep.sum()) - 1
            lumped = float(expected[~keep].sum())
            if lumped > 0.0:
                statistic += (float(observed[~keep].sum()) - lumped) ** 2 / lumped
                dof += 1
        assert chi2.sf(statistic, dof) > 0.01

    def test_perfect_detectors_keep_full_patterns(self):
        config = DetectorArrayConfig(detectors_per_port=5, efficiency=1.0)
        plan = ExperimentPlan("hb", 6, (0.35,), 2000, 12, detectors=config)
        (record,) = simulate_counts(plan)
        total = sum(record.outcome_counts.values())
        assert 0 < total < record.shots  # unresolved events are discarded
        for pattern in record.outcome_counts:
            assert pattern.total == 6

    @pytest.mark.parametrize("seed", range(10))
    def test_detector_draws_ignore_roundoff(self, seed):
        # phi = 0 and phi = 2 pi are the same setting; their photon
        # probabilities differ only at roundoff (about 1e-36 and 1e-31
        # off the bright outcome), which must not change the draw.
        config = DetectorArrayConfig(detectors_per_port=5, efficiency=0.9)
        draws = [
            simulate_counts(
                ExperimentPlan("hb", 6, (phi,), 100_000, seed, detectors=config)
            )[0].outcome_counts
            for phi in (0.0, 2.0 * math.pi)
        ]
        assert draws[0] == draws[1]

    def test_lossy_detectors_keep_fewer_events(self):
        perfect = DetectorArrayConfig(detectors_per_port=5, efficiency=1.0)
        lossy = DetectorArrayConfig(detectors_per_port=5, efficiency=0.8)
        kept = []
        for config in (perfect, lossy):
            plan = ExperimentPlan("hb", 6, (0.35,), 2000, 12, detectors=config)
            (record,) = simulate_counts(plan)
            kept.append(sum(record.outcome_counts.values()))
        assert kept[1] < kept[0]


class TestDirectFisher:
    def test_noiseless_data_recovers_fisher_information(self):
        phis = 15.0 * DEG + np.linspace(-0.002, 0.002, 7) * DEG
        records = _injected_records(IDEAL33, phis, 1_000_000)
        result = direct_fisher_from_data(records, P33)
        truth = single_fringe_fisher_model(IDEAL33, 15.0 * DEG)
        # The estimate itself is exact to 1e-6. The low_confidence flag may
        # still fire: on a 0.004 degree window the slope is tiny compared
        # with the binomial noise the error model assumes, which is the
        # flag's job to report, so it is not asserted here.
        assert abs(result.fisher - truth) < 1e-6
        assert result.points == 7
        assert result.phi_mid == pytest.approx(15.0 * DEG, abs=1e-12)

    def test_mean_over_replications_is_nearly_unbiased(self):
        phis = tuple(np.linspace(14.0, 16.0, 7) * DEG)
        truth = single_fringe_fisher_model(IDEAL33, 15.0 * DEG)
        estimates = []
        for rep in range(100):
            plan = ExperimentPlan("hb", 6, phis, 100_000, 31_000 + rep)
            result = direct_fisher_from_data(simulate_counts(plan), P33)
            estimates.append(result.fisher)
        assert abs(np.mean(estimates) / truth - 1.0) < 0.02

    def test_few_count_scan_brackets_truth(self):
        # Eight sparse settings of 25 events each, on a reduced-contrast
        # fringe: the estimate has to agree with the midpoint Fisher value
        # within its own (necessarily large) error bar.
        model = affine_from_visibility("hb", 6, P33, 0.94)
        phis = tuple((9.0 + 3.0 * k) * DEG for k in range(8))
        plan = ExperimentPlan("hb", 6, phis, 25, 5, model=model)
        result = direct_fisher_from_data(simulate_counts(plan), P33)
        truth = single_fringe_fisher_model(model, result.phi_mid)
        assert abs(result.fisher - truth) <= 2.0 * result.sigma
        assert result.sigma >= 2.0
        assert not result.low_confidence

    def test_exactly_linear_fringe_is_estimated_without_bias(self):
        rng = np.random.default_rng(99)
        phis = np.linspace(9.0 * DEG, 30.0 * DEG, 8)
        mid = 0.5 * (phis[0] + phis[-1])
        p = 0.55 - 1.5 * (phis - mid)
        truth = 1.5**2 / (0.55 * 0.45)
        shots = 100_000
        estimates, sigmas = [], []
        for _ in range(400):
            hits = rng.binomial(shots, p)
            records = [
                CountRecord(phi=float(f), shots=shots, outcome_counts={P33: int(h)})
                for f, h in zip(phis, hits)
            ]
            result = direct_fisher_from_data(records, P33)
            estimates.append(result.fisher)
            sigmas.append(result.sigma)
        assert abs(np.mean(estimates) - truth) < np.mean(sigmas) / 3.0

    def test_flat_fringe_is_flagged(self):
        records = [
            CountRecord(phi=k * DEG, shots=10_000, outcome_counts={P33: 5000.0})
            for k in range(5)
        ]
        result = direct_fisher_from_data(records, P33)
        assert result.low_confidence

    def test_reversing_fringe_is_flagged(self):
        freqs = [0.1, 0.3, 0.5, 0.3, 0.1]
        records = [
            CountRecord(phi=k * DEG, shots=10_000, outcome_counts={P33: f * 10_000})
            for k, f in enumerate(freqs)
        ]
        result = direct_fisher_from_data(records, P33)
        assert result.low_confidence

    def test_window_filters_records(self):
        model = IDEAL33
        phis = [k * DEG for k in range(10)]
        records = _injected_records(model, phis, 10_000)
        result = direct_fisher_from_data(records, P33, window=(2.0 * DEG, 6.0 * DEG))
        assert result.points == 5
        assert result.window == pytest.approx((2.0 * DEG, 6.0 * DEG), abs=1e-15)
        assert result.phi_mid == pytest.approx(4.0 * DEG, abs=1e-15)

    def test_needs_three_distinct_phases(self):
        records = _injected_records(IDEAL33, [0.1, 0.2], 100)
        with pytest.raises(PhysicsError, match="three distinct phases"):
            direct_fisher_from_data(records, P33)

    def test_window_can_remove_too_many_phases(self):
        records = _injected_records(IDEAL33, [0.1, 0.2, 0.3, 0.4], 100)
        with pytest.raises(PhysicsError, match="three distinct phases"):
            direct_fisher_from_data(records, P33, window=(0.05, 0.25))


def _second_difference(loglik, phi, step=1e-4):
    """Central second difference of a log-likelihood, taken on both sides
    of phi even where phi is an edge of the search interval."""
    return (loglik(phi + step) - 2.0 * loglik(phi) + loglik(phi - step)) / step**2


def _binomial_loglik(model, hits, shots):
    def loglik(phi):
        p = apply_model(model, phi)
        return (hits * math.log(p) if hits else 0.0) + (
            (shots - hits) * math.log1p(-p) if shots > hits else 0.0
        )

    return loglik


class TestMlePhase:
    INTERVAL = (0.0, 30.0 * DEG)

    # Phases for noise-free recovery, down to the bright point at 0 and up
    # to the dark point at 30 degrees, where the log-likelihood is flat to
    # its own roundoff and only the score root resolves the maximum.
    NOISE_FREE_DEG = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 5.0, 15.0, 25.0, 29.9, 29.95)

    def test_noise_free_binomial_counts_recover_phase(self):
        shots = 1_000_000
        hits = p33_closed_form(15.0 * DEG) * shots
        records = [CountRecord(phi=0.0, shots=shots, outcome_counts={P33: hits})]
        result = mle_phase(records, IDEAL33, self.INTERVAL)
        assert abs(result.phi_hat - 15.0 * DEG) <= 1e-9
        assert not result.at_boundary
        assert result.stderr > 0.0
        for deg in self.NOISE_FREE_DEG:
            hits = p33_closed_form(deg * DEG) * shots
            records = [CountRecord(phi=0.0, shots=shots, outcome_counts={P33: hits})]
            result = mle_phase(records, IDEAL33, self.INTERVAL)
            assert abs(result.phi_hat - deg * DEG) <= 1e-12, deg

    def test_noise_free_multinomial_counts_recover_phase(self):
        state = hb_state(6)
        shots = 1_000_000
        probs = fringe_probabilities(state, 15.0 * DEG)
        counts = {
            OutcomePattern(k, 6 - k): float(probs[k]) * shots for k in range(7)
        }
        records = [CountRecord(phi=0.0, shots=shots, outcome_counts=counts)]
        result = mle_phase(records, state, self.INTERVAL)
        assert abs(result.phi_hat - 15.0 * DEG) <= 1e-9
        for deg in self.NOISE_FREE_DEG:
            probs = fringe_probabilities(state, deg * DEG)
            counts = {
                OutcomePattern(k, 6 - k): float(probs[k]) * shots for k in range(7)
            }
            records = [CountRecord(phi=0.0, shots=shots, outcome_counts=counts)]
            result = mle_phase(records, state, self.INTERVAL)
            assert abs(result.phi_hat - deg * DEG) <= 1e-12, deg

    def test_interval_coverage_of_error_bars(self):
        # 300 independent binomial experiments; the 3-sigma interval from
        # the likelihood curvature must cover the true phase in at least
        # 99 percent of them.
        rng = np.random.default_rng(424242)
        shots = 10_000
        p_true = p33_closed_form(15.0 * DEG)
        cache = {}
        covered = 0
        for hits in rng.binomial(shots, p_true, size=300):
            if hits not in cache:
                records = [
                    CountRecord(
                        phi=0.0, shots=shots, outcome_counts={P33: int(hits)}
                    )
                ]
                cache[hits] = mle_phase(records, IDEAL33, self.INTERVAL)
            result = cache[hits]
            if abs(result.phi_hat - 15.0 * DEG) <= 3.0 * result.stderr:
                covered += 1
        assert covered >= 297

    def test_stderr_scales_with_inverse_root_shots(self):
        rng = np.random.default_rng(8)
        p_true = p33_closed_form(15.0 * DEG)
        results = []
        for shots in (1_000, 16_000):
            hits = int(rng.binomial(shots, p_true))
            records = [
                CountRecord(phi=0.0, shots=shots, outcome_counts={P33: hits})
            ]
            results.append(mle_phase(records, IDEAL33, self.INTERVAL))
        ratio = results[0].stderr / results[1].stderr
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_maximum_on_the_edge_is_flagged(self):
        shots = 10_000
        hits = round(p33_closed_form(5.0 * DEG) * shots)
        records = [CountRecord(phi=0.0, shots=shots, outcome_counts={P33: hits})]
        result = mle_phase(records, IDEAL33, (10.0 * DEG, 30.0 * DEG))
        assert result.at_boundary
        assert result.phi_hat == pytest.approx(10.0 * DEG, abs=1e-4)

    @pytest.mark.parametrize(
        "model, hits, shots, edge",
        [
            (IDEAL33, 100, 100, 0.0),
            (IDEAL33, 10_000, 10_000, 0.0),
            (NOON09, 100, 100, 0.0),
            (NOON09, 10_000, 10_000, 0.0),
            (NOON09, 0, 100, 30.0 * DEG),
            (NOON09, 0, 10_000, 30.0 * DEG),
        ],
        ids=["ideal-crest-1e2", "ideal-crest-1e4", "noon-crest-1e2",
             "noon-crest-1e4", "noon-dark-1e2", "noon-dark-1e4"],
    )
    def test_edge_maximum_error_bar_is_two_sided(self, model, hits, shots, edge):
        # At a crest or dark point on the interval edge the log-likelihood
        # is symmetric about the edge; its curvature there is the one read
        # across the edge, not twice that (a one-sided second difference).
        counts = {P33: hits} if hits else {}
        records = [CountRecord(phi=0.0, shots=shots, outcome_counts=counts)]
        result = mle_phase(records, model, self.INTERVAL)
        assert result.phi_hat == edge
        assert result.at_boundary
        curvature = _second_difference(_binomial_loglik(model, hits, shots), edge)
        assert result.stderr == pytest.approx(1.0 / math.sqrt(-curvature), rel=1e-6)

    @pytest.mark.parametrize(
        "model",
        [IDEAL33, affine_from_visibility("hb", 6, P33, 0.94), NOON09],
        ids=["ideal", "affine", "noon-cosine"],
    )
    def test_interior_stderr_matches_central_difference(self, model):
        shots = 10_000
        for deg in (4.0, 15.0, 26.0):
            hits = round(float(apply_model(model, deg * DEG)) * shots)
            records = [CountRecord(phi=0.0, shots=shots, outcome_counts={P33: hits})]
            result = mle_phase(records, model, self.INTERVAL)
            assert not result.at_boundary, deg
            loglik = _binomial_loglik(model, hits, shots)
            curvature = _second_difference(loglik, result.phi_hat)
            assert result.stderr == pytest.approx(
                1.0 / math.sqrt(-curvature), rel=1e-4
            ), deg

    def test_interior_multinomial_stderr_matches_central_difference(self):
        state = hb_state(6)
        for deg in (4.0, 15.0, 26.0):
            counts = np.round(fringe_probabilities(state, deg * DEG) * 10_000)
            records = [
                CountRecord(
                    phi=0.0,
                    shots=int(counts.sum()),
                    outcome_counts={
                        OutcomePattern(k, 6 - k): float(c) for k, c in enumerate(counts)
                    },
                )
            ]
            result = mle_phase(records, state, self.INTERVAL)
            assert not result.at_boundary, deg

            def loglik(phi):
                return float(counts @ np.log(fringe_probabilities(state, phi)))

            curvature = _second_difference(loglik, result.phi_hat)
            assert result.stderr == pytest.approx(
                1.0 / math.sqrt(-curvature), rel=1e-4
            ), deg

    def test_multinomial_estimate_from_simulated_run(self):
        plan = ExperimentPlan("hb", 6, (15.0 * DEG,), 2000, 6)
        records = simulate_counts(plan)
        result = mle_phase(records, hb_state(6), self.INTERVAL)
        assert abs(result.phi_hat - 15.0 * DEG) < 0.02
        assert 0.0 < result.stderr < 0.01
        assert not result.at_boundary

    def test_interval_must_increase(self):
        records = [CountRecord(phi=0.0, shots=10, outcome_counts={P33: 5})]
        with pytest.raises(PhysicsError, match="interval"):
            mle_phase(records, IDEAL33, (0.5, 0.5))

    def test_needs_records(self):
        with pytest.raises(PhysicsError, match="no count records"):
            mle_phase([], IDEAL33, self.INTERVAL)

    def test_multinomial_rejects_patterns_of_another_photon_number(self):
        counts = {OutcomePattern(2, 2): 300, P33: 700}
        records = [CountRecord(phi=0.0, shots=1000, outcome_counts=counts)]
        with pytest.raises(PhysicsError, match="2:2 has 4 photons"):
            mle_phase(records, hb_state(6), self.INTERVAL)

    @pytest.mark.parametrize("model", [IDEAL33, NOON09], ids=["affine", "noon-cosine"])
    def test_binomial_rejects_patterns_of_another_photon_number(self, model):
        records = [CountRecord(phi=0.0, shots=10, outcome_counts={OutcomePattern(3, 4): 4})]
        with pytest.raises(PhysicsError, match="3:4 has 7 photons, state has 6"):
            mle_phase(records, model, self.INTERVAL)

    def test_multinomial_needs_events(self):
        records = [CountRecord(phi=0.0, shots=10, outcome_counts={})]
        with pytest.raises(PhysicsError, match="no recorded events"):
            mle_phase(records, hb_state(6), self.INTERVAL)


class TestSnlComparison:
    def test_ratio(self):
        assert snl_comparison(20.0, 6) == pytest.approx(20.0 / 6.0, abs=1e-15)

    def test_shot_noise_itself_is_unity(self):
        assert snl_comparison(6.0, 6) == 1.0

    def test_interferometer_limit(self):
        assert snl_comparison(24.0, 6) == 4.0

    def test_negative_fisher_rejected(self):
        with pytest.raises(PhysicsError):
            snl_comparison(-1.0, 6)

    def test_needs_photons(self):
        with pytest.raises(PhysicsError):
            snl_comparison(1.0, 0)
