"""Tests for the multiplexed click-detector model."""

import numpy as np
import pytest

from fringelab import (
    DetectorArrayConfig,
    OutcomePattern,
    PhysicsError,
    click_distribution,
    fringe_probabilities,
    hb_state,
    port_click_pmf,
    resolve_probability,
)

from oracles import click_pmf_enumerate, joint_clicks_enumerate

FIVE = DetectorArrayConfig(detectors_per_port=5, efficiency=1.0)


class TestConfig:
    def test_defaults(self):
        config = DetectorArrayConfig()
        assert config.detectors_per_port == 5
        assert config.efficiency == 1.0

    def test_needs_a_detector(self):
        with pytest.raises(PhysicsError):
            DetectorArrayConfig(detectors_per_port=0)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_efficiency_range(self, eta):
        with pytest.raises(PhysicsError):
            DetectorArrayConfig(efficiency=eta)


class TestResolveProbability:
    def test_three_photons_five_counters(self):
        assert resolve_probability(3, FIVE) == 0.48

    def test_trivial_cases(self):
        assert resolve_probability(0, FIVE) == 1.0
        half = DetectorArrayConfig(detectors_per_port=5, efficiency=0.5)
        assert resolve_probability(1, half) == 0.5

    def test_pigeonhole(self):
        assert resolve_probability(6, FIVE) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(PhysicsError):
            resolve_probability(-1, FIVE)

    @pytest.mark.parametrize("photons", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_matches_enumeration(self, photons, eta):
        config = DetectorArrayConfig(detectors_per_port=4, efficiency=eta)
        pmf = click_pmf_enumerate(photons, 4, eta)
        assert resolve_probability(photons, config) == pytest.approx(
            pmf[photons], abs=1e-14
        )

    def test_monotone_in_counters(self):
        values = [
            resolve_probability(3, DetectorArrayConfig(detectors_per_port=k))
            for k in range(3, 11)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_efficiency(self):
        values = [
            resolve_probability(
                3, DetectorArrayConfig(detectors_per_port=5, efficiency=eta)
            )
            for eta in np.linspace(0.1, 1.0, 10)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestPortClickPmf:
    @pytest.mark.parametrize("photons", range(4))
    @pytest.mark.parametrize("detectors", [1, 2, 3, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_enumeration(self, photons, detectors, eta):
        config = DetectorArrayConfig(detectors_per_port=detectors, efficiency=eta)
        expected = click_pmf_enumerate(photons, detectors, eta)
        np.testing.assert_allclose(port_click_pmf(photons, config), expected, atol=1e-12)

    def test_normalized_over_wide_grid(self):
        for photons in range(13):
            for detectors in range(1, 17):
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    config = DetectorArrayConfig(
                        detectors_per_port=detectors, efficiency=eta
                    )
                    pmf = port_click_pmf(photons, config)
                    assert abs(pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("photons", [1000, 4096])
    def test_large_pulses_normalized_with_exact_mean(self, photons):
        # Each counter stays dark with probability (1 - eta/k)^n.
        config = DetectorArrayConfig(detectors_per_port=5, efficiency=0.9)
        pmf = port_click_pmf(photons, config)
        assert pmf.shape == (6,)
        assert abs(pmf.sum() - 1.0) < 1e-10
        mean = 5 * (1.0 - (1.0 - 0.9 / 5) ** photons)
        assert pmf @ np.arange(6) == pytest.approx(mean, rel=1e-10)

    def test_perfect_single_counter_saturates(self):
        config = DetectorArrayConfig(detectors_per_port=1, efficiency=1.0)
        np.testing.assert_allclose(port_click_pmf(4, config), [0.0, 1.0], atol=0)

    def test_dead_detectors_never_click(self):
        config = DetectorArrayConfig(detectors_per_port=5, efficiency=0.0)
        pmf = port_click_pmf(3, config)
        assert pmf[0] == 1.0
        assert np.all(pmf[1:] == 0.0)


class TestClickDistribution:
    def test_33_input_matches_exhaustive_enumeration(self):
        dist = click_distribution({OutcomePattern(3, 3): 1.0}, FIVE)
        oracle = joint_clicks_enumerate(3, 3, 5)
        assert set(dist) == set(oracle)
        for key, value in oracle.items():
            assert dist[key] == pytest.approx(value, abs=1e-12)
        assert dist[(3, 3)] == pytest.approx(0.2304, abs=1e-12)

    def test_single_photon_half_efficiency(self):
        config = DetectorArrayConfig(detectors_per_port=5, efficiency=0.5)
        dist = click_distribution({OutcomePattern(1, 0): 1.0}, config)
        assert dist[(0, 0)] == pytest.approx(0.5, abs=1e-15)
        assert dist[(1, 0)] == pytest.approx(0.5, abs=1e-15)
        assert len(dist) == 2

    def test_single_counter_saturates(self):
        config = DetectorArrayConfig(detectors_per_port=1, efficiency=1.0)
        dist = click_distribution({OutcomePattern(4, 2): 1.0}, config)
        assert dist == {(1, 1): pytest.approx(1.0, abs=1e-15)}

    def test_identity_in_the_many_counter_limit(self):
        # A large fan-out resolves photon numbers: at 8192 counters per
        # port the six-photon click pattern deviates from the photon
        # pattern by less than 1e-3 in total variation, and the deviation
        # shrinks monotonically as the array grows.
        probs = fringe_probabilities(hb_state(6), 0.35)
        photon_probs = {
            OutcomePattern(k, 6 - k): float(probs[k]) for k in range(7)
        }
        deviations = []
        for detectors in (64, 512, 8192):
            config = DetectorArrayConfig(detectors_per_port=detectors)
            dist = click_distribution(photon_probs, config)
            keys = set(dist) | {
                (p.out_port_1, p.out_port_2) for p in photon_probs
            }
            deviation = 0.5 * sum(
                abs(
                    dist.get(key, 0.0)
                    - photon_probs.get(OutcomePattern(*key), 0.0)
                )
                for key in keys
            )
            deviations.append(deviation)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-3

    def test_distribution_normalized(self):
        probs = fringe_probabilities(hb_state(6), 1.1)
        photon_probs = {
            OutcomePattern(k, 6 - k): float(probs[k]) for k in range(7)
        }
        dist = click_distribution(photon_probs, FIVE)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sub_unit_mass_is_allowed(self):
        dist = click_distribution({OutcomePattern(1, 1): 0.25}, FIVE)
        assert sum(dist.values()) == pytest.approx(0.25, abs=1e-15)

    def test_excess_mass_rejected(self):
        with pytest.raises(PhysicsError):
            click_distribution({OutcomePattern(1, 1): 1.2}, FIVE)

    def test_negative_probability_rejected(self):
        with pytest.raises(PhysicsError):
            click_distribution(
                {OutcomePattern(1, 1): 0.5, OutcomePattern(2, 0): -0.1}, FIVE
            )
