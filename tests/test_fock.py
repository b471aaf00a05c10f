"""Tests for the exact Fock-sector states and the interferometer optics."""

import math

import numpy as np
import pytest

from fringelab import (
    MAX_PHOTONS,
    OutcomePattern,
    PhysicsError,
    TwoModeState,
    basis_state,
    beam_splitter_matrix,
    generator_variance,
    make_state,
    number_difference,
)
from fringelab.fringes import _rotated
from fringelab.states import dual_fock, hb_state, noon_state

from oracles import bs_matrix_oracle

SQRT5 = math.sqrt(5.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

#: hb(6) amplitudes in ascending n1: the |0,6>..|6,0> coefficients of
#: (sqrt(5)|6,0> - sqrt(3)|4,2> + sqrt(3)|2,4> - sqrt(5)|0,6>)/4.
HB6_ASCENDING = np.array(
    [-SQRT5 / 4, 0.0, SQRT3 / 4, 0.0, -SQRT3 / 4, 0.0, SQRT5 / 4]
)


class TestMakeState:
    def test_single_basis_ket(self):
        state = make_state(2, [0, 1, 0])
        assert state.total_photons == 2
        assert not state.renormalized
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0], atol=0)

    def test_dual_fock_ket(self):
        amps = [0, 0, 0, 1, 0, 0, 0]
        state = make_state(6, amps)
        np.testing.assert_allclose(state.amplitudes, amps, atol=0)
        assert state.norm == 1.0

    def test_renormalizes_and_flags(self):
        # Index 0 is the |0,2> coefficient in the ascending-n1 ordering.
        state = make_state(2, [2, 0, 0])
        assert state.renormalized
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0], atol=1e-15)
        assert state.norm == pytest.approx(1.0, abs=1e-15)

    def test_unit_norm_not_flagged(self):
        state = make_state(2, [0.6, 0.0, 0.8])
        assert not state.renormalized

    def test_wrong_length(self):
        with pytest.raises(PhysicsError):
            make_state(2, [1, 0])

    def test_zero_vector(self):
        with pytest.raises(PhysicsError):
            make_state(2, [0, 0, 0])

    def test_negative_sector(self):
        with pytest.raises(PhysicsError):
            make_state(-1, [])

    def test_sector_cap(self):
        with pytest.raises(PhysicsError):
            make_state(MAX_PHOTONS + 1, np.ones(MAX_PHOTONS + 2))

    def test_amplitudes_read_only(self):
        state = make_state(2, [0, 1, 0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestBasisState:
    def test_places_single_amplitude(self):
        state = basis_state(4, 3)
        assert state.amplitudes[3] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    @pytest.mark.parametrize("n1", [-1, 5])
    def test_out_of_range(self, n1):
        with pytest.raises(PhysicsError):
            basis_state(4, n1)


class TestOutcomePattern:
    def test_total_and_str(self):
        pattern = OutcomePattern(4, 2)
        assert pattern.total == 6
        assert str(pattern) == "4:2"

    def test_negative_counts(self):
        with pytest.raises(PhysicsError):
            OutcomePattern(-1, 3)

    def test_lexicographic_order(self):
        patterns = [OutcomePattern(3, 3), OutcomePattern(0, 6), OutcomePattern(2, 4)]
        assert sorted(patterns) == [
            OutcomePattern(0, 6),
            OutcomePattern(2, 4),
            OutcomePattern(3, 3),
        ]

    def test_hashable(self):
        assert len({OutcomePattern(1, 1), OutcomePattern(1, 1)}) == 1


class TestBeamSplitter:
    @pytest.mark.parametrize("total", [*range(1, 11), 40, 100, 200])
    def test_matches_expansion_oracle(self, total):
        np.testing.assert_allclose(
            beam_splitter_matrix(total), bs_matrix_oracle(total), atol=1e-13
        )

    def test_symmetric_and_self_inverse_at_the_cap(self):
        mat = beam_splitter_matrix(MAX_PHOTONS)
        assert mat.shape == (MAX_PHOTONS + 1, MAX_PHOTONS + 1)
        asym = max(
            np.abs(mat[i : i + 512] - mat[:, i : i + 512].T).max()
            for i in range(0, MAX_PHOTONS + 1, 512)
        )
        assert asym <= 1e-12
        cols = [0, 1, 2, 1000, MAX_PHOTONS // 2 - 1, MAX_PHOTONS // 2,
                3001, MAX_PHOTONS - 1, MAX_PHOTONS]
        twice = mat @ mat[:, cols]
        assert np.abs(twice - np.eye(MAX_PHOTONS + 1)[:, cols]).max() <= 1e-12

    def test_cache_is_bounded(self):
        assert beam_splitter_matrix.cache_info().maxsize is not None

    def test_hong_ou_mandel(self):
        out = beam_splitter_matrix(2) @ make_state(2, [0, 1, 0]).amplitudes
        np.testing.assert_allclose(
            out, [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-15
        )

    def test_six_photon_anchor(self):
        out = beam_splitter_matrix(6) @ basis_state(6, 3).amplitudes
        np.testing.assert_allclose(out, HB6_ASCENDING, atol=1e-15)

    def test_four_photon_anchor(self):
        out = beam_splitter_matrix(4) @ basis_state(4, 2).amplitudes
        np.testing.assert_allclose(
            out, [SQRT6 / 4, 0.0, -0.5, 0.0, SQRT6 / 4], atol=1e-15
        )

    @pytest.mark.parametrize("total", range(1, 13))
    def test_unitary_and_self_inverse(self, total):
        from oracles import random_states

        mat = beam_splitter_matrix(total)
        identity = np.eye(total + 1)
        np.testing.assert_allclose(mat @ mat, identity, atol=1e-12)
        rng = np.random.default_rng(1000 + total)
        states = random_states(total, 1000, rng)
        once = states @ mat.T
        np.testing.assert_allclose(
            np.linalg.norm(once, axis=1), np.ones(1000), atol=1e-12
        )
        np.testing.assert_allclose(once @ mat.T, states, atol=1e-12)

    def test_matrix_read_only(self):
        with pytest.raises(ValueError):
            beam_splitter_matrix(3)[0, 0] = 2.0


class TestPhaseShift:
    @staticmethod
    def _shift(state, phi):
        """exp(-i phi h)|state>, h = (n1 - n2)/2, as the fringe kernels rotate."""
        return _rotated(state, np.array([phi]))[:, 0]

    def test_zero_phase_is_identity(self):
        state = hb_state(6)
        np.testing.assert_array_equal(self._shift(state, 0.0), state.amplitudes)

    def test_balanced_ket_unchanged(self):
        state = basis_state(6, 3)
        out = self._shift(state, 1.234)
        np.testing.assert_allclose(out, state.amplitudes, atol=1e-15)

    def test_unbalanced_ket_eigenphase(self):
        out = self._shift(basis_state(6, 6), 0.7)
        assert out[6] == pytest.approx(np.exp(-3j * 0.7), abs=1e-15)

    def test_norm_preserved(self):
        out = self._shift(hb_state(8), 2.5)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_phases_compose(self):
        state = noon_state(5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b = rng.uniform(-4, 4, size=2)
            direct = self._shift(state, a + b)
            chained = self._shift(make_state(5, self._shift(state, a)), b)
            np.testing.assert_allclose(chained, direct, atol=1e-12)


class TestGenerator:
    @pytest.mark.parametrize("total", [2, 4, 6])
    def test_mean_vanishes_in_detection_basis(self, total):
        # Transport each detection ket back through the (self-inverse)
        # output splitter; the generator h = (n1 - n2)/2 has zero mean on
        # all of them.
        h = 0.5 * number_difference(total)
        for n1 in range(total + 1):
            ket = beam_splitter_matrix(total) @ basis_state(total, n1).amplitudes
            assert abs(np.vdot(ket, h * ket)) < 1e-12

    def test_variance_hb6(self):
        assert generator_variance(hb_state(6)) == pytest.approx(24.0, abs=1e-12)

    def test_variance_noon6(self):
        assert generator_variance(noon_state(6)) == pytest.approx(36.0, abs=1e-12)

    def test_variance_hb4(self):
        assert generator_variance(hb_state(4)) == pytest.approx(12.0, abs=1e-12)

    @pytest.mark.parametrize("total", range(2, 13, 2))
    def test_variance_of_split_dual_fock(self, total):
        ket = beam_splitter_matrix(total) @ dual_fock(total).amplitudes
        state = TwoModeState(total, ket)
        expected = total * (total + 2) / 2
        assert generator_variance(state) == pytest.approx(expected, abs=1e-10)

    def test_number_difference_diagonal(self):
        np.testing.assert_array_equal(
            number_difference(4), [-4.0, -2.0, 0.0, 2.0, 4.0]
        )


class TestTwoModeState:
    def test_wrong_shape_rejected(self):
        with pytest.raises(PhysicsError):
            TwoModeState(3, np.ones((2, 2)))

    def test_norm_property(self):
        assert basis_state(5, 2).norm == 1.0
