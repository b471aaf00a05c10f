"""Property tests of the fringe kernels, the splitter, the named states, the
detector draws and the counts files.

Hypothesis draws are derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringelab import (
    CountRecord,
    DetectorArrayConfig,
    FringeModel,
    OutcomePattern,
    TwoModeState,
    basis_state,
    beam_splitter_matrix,
    build_state,
    click_distribution,
    fringe_probabilities,
    hb_state,
    ideal_model,
    make_state,
    noon_cosine_model,
    output_amplitudes,
    single_fringe_fisher,
    single_fringe_fisher_model,
    snl_state,
)
from fringelab.cli import records_from_csv, records_from_json, records_to_csv, records_to_json
from fringelab.detection import _recorded_probabilities
from fringelab.fisher import _DP_TOL, _binary_fisher
from fringelab.fringes import (
    _P_TOL,
    _detection_kets,
    _generator_powers,
    _model_fringe,
    _probability_and_slope,
    _rotated,
)

from oracles import bs_matrix_row_loop, random_states

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)

# Phases both next to the bright point at 0, where p is within a few ulps
# of 1, and anywhere in one period.
PHASES = st.one_of(
    st.floats(min_value=0.0, max_value=1e-6, exclude_min=True),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)


@st.composite
def fringes(draw):
    """A state kind, an even photon number N <= 16 and an outcome of N."""
    kind = draw(st.sampled_from(["hb", "noon", "snl"]))
    total = 2 * draw(st.integers(min_value=1, max_value=8))
    n1 = draw(st.integers(min_value=0, max_value=total))
    return kind, total, OutcomePattern(n1, total - n1)


@DETERMINISTIC
@given(fringe=fringes(), phi=PHASES)
def test_ideal_model_matches_state_fringe_bit_for_bit(fringe, phi):
    kind, total, outcome = fringe
    model_value = single_fringe_fisher_model(ideal_model(kind, total, outcome), phi)
    state_value = single_fringe_fisher(build_state(kind, total), outcome, phi)
    assert model_value == state_value


@DETERMINISTIC
@given(
    fringe=fringes(),
    phi=PHASES,
    weight=st.floats(min_value=0.0, max_value=1.0),
    share=st.floats(min_value=0.0, max_value=1.0),
)
def test_probability_and_complement_sum_to_one(fringe, phi, weight, share):
    kind, total, outcome = fringe
    models = [
        ideal_model(kind, total, outcome),
        # a + b <= 1 and q (1 + V) <= 1 by construction.
        FringeModel("affine", kind, total, outcome, weight, share * (1.0 - weight)),
        noon_cosine_model(total, outcome, visibility=share, amplitude=weight / 2.0),
    ]
    for model in models:
        p, rest, _ = _model_fringe(model, phi)
        assert abs(p + rest - 1.0) <= 1e-13, model


@DETERMINISTIC
@given(fringe=fringes(), phi=PHASES)
def test_single_fringe_fisher_stays_under_the_outcome_ceiling(fringe, phi):
    # No single fringe carries more than <m|(n1 - n2)^2|m> = 2 n1 n2 + N.
    kind, total, outcome = fringe
    ceiling = 2 * outcome.out_port_1 * outcome.out_port_2 + total
    value = single_fringe_fisher(build_state(kind, total), outcome, phi)
    assert value <= ceiling * (1.0 + 1e-12)


@DETERMINISTIC
@given(
    total=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    phis=st.lists(PHASES, min_size=1, max_size=8),
)
def test_outcomes_are_complete(total, seed, phis):
    # Over all outcomes the probabilities sum to 1 and their slopes to 0.
    state = make_state(total, random_states(total, 1, np.random.default_rng(seed))[0])
    p, dp = _probability_and_slope(*output_amplitudes(state, np.array(phis)))
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-13
    assert np.max(np.abs(dp.sum(axis=-1))) <= 1e-14 * total


@settings(DETERMINISTIC, max_examples=40)
@given(total=st.integers(min_value=0, max_value=512))
def test_splitter_is_symmetric_and_self_inverse(total):
    mat = beam_splitter_matrix(total)
    assert np.max(np.abs(mat - mat.T)) <= 1e-13
    assert np.max(np.abs(mat @ mat - np.eye(total + 1))) <= 1e-13


@settings(DETERMINISTIC, max_examples=40)
@given(total=st.integers(min_value=1, max_value=512))
def test_named_states_are_splitter_columns(total):
    # hb_state and snl_state read a column; the product with the basis ket
    # has the same values (a zero may differ in sign, which compares equal).
    even = total + total % 2
    for state, ket in [
        (snl_state(total), basis_state(total, total)),
        (hb_state(even), basis_state(even, even // 2)),
    ]:
        mat = beam_splitter_matrix(ket.total_photons)
        assert np.array_equal(state.amplitudes, mat @ ket.amplitudes)


@DETERMINISTIC
@given(
    total=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    phis=st.lists(PHASES, min_size=1, max_size=4),
)
def test_recorded_probabilities_are_the_joint_click_table_bit_for_bit(total, seed, phis):
    # A click pattern (m, N - m) can come only from the photon pattern
    # (m, N - m), so the draw's probabilities are entries of the joint table.
    state = make_state(total, random_states(total, 1, np.random.default_rng(seed))[0])
    probs = fringe_probabilities(state, np.array(phis))
    for k in range((total + 1) // 2, total + 2):
        for eta in (0.0, 0.5, 0.9, 1.0):
            config = DetectorArrayConfig(k, eta)
            for recorded, row in zip(_recorded_probabilities(probs, config), probs):
                photons = {OutcomePattern(m, total - m): float(row[m]) for m in range(total + 1)}
                joint = click_distribution(photons, config)
                expected = [joint.get((m, total - m), 0.0) for m in range(total + 1)]
                assert recorded.tolist() == expected, (k, eta)


def _same_bits(x, y):
    """Equal values, shapes and signs of zero."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(DETERMINISTIC, max_examples=60)
@given(
    total=st.integers(min_value=0, max_value=512),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    phis=st.one_of(
        PHASES.map(np.array),
        st.lists(st.one_of(PHASES, st.sampled_from([0.0, -0.0, -1e-300, -3.0])), max_size=6)
        .map(np.array),
    ),
)
def test_rotated_state_matches_the_full_exponential_bit_for_bit(total, seed, phis):
    # Rows N/2 + 1..N of the phase factors are mirrored from rows 0..N/2.
    # At phi = 0 their imaginary parts are exact zeros, whose sign shows in
    # the rotated state only where an amplitude is -0.0, as in the named
    # states; the unnormalized state keeps those signs.
    rng = np.random.default_rng(seed)
    amplitudes = random_states(total, 1, rng)[0]
    amplitudes[rng.random(total + 1) < 0.5] = -0.0
    state = TwoModeState(total, amplitudes)
    h = 0.5 * (2.0 * np.arange(total + 1) - total)
    for phases in (phis, np.array(0.0)):
        expected = state.amplitudes[:, None] * np.exp(-1j * h[:, None] * phases.ravel())
        assert _same_bits(_rotated(state, phases), expected)


@settings(DETERMINISTIC, max_examples=40)
@given(total=st.integers(min_value=0, max_value=512), data=st.data())
def test_detection_kets_are_the_generator_rows_times_the_splitter_row(total, data):
    row = data.draw(st.integers(min_value=0, max_value=total))
    expected = _generator_powers(total)[:3] * beam_splitter_matrix(total)[row]
    assert np.array_equal(_detection_kets(total, row), expected)


def _binary_fisher_reference(p, rest, dp):
    """The binary Fisher term as an errstate context and three np.where."""
    denom = p * rest
    vanishing = (p < _P_TOL) | (rest < _P_TOL) | (denom <= 0.0)
    removable = (np.abs(dp) < _DP_TOL) & vanishing
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(denom > 0.0, dp * dp / denom, np.inf)
    return np.where(removable, 0.0, value)


# Both sides of each cutoff, exact zeros, underflowing products and the
# slightly negative values a fringe model's slack allows.
_EDGE_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-10, 1e-300, 1e-200, 0.5 * _P_TOL, _P_TOL, 2 * _P_TOL, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
_EDGE_SLOPES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5 * _DP_TOL, _DP_TOL, 2 * _DP_TOL, -0.5 * _DP_TOL, -_DP_TOL]),
    st.floats(min_value=-50.0, max_value=50.0),
)


@DETERMINISTIC
@given(
    terms=st.lists(
        st.tuples(_EDGE_PROBABILITIES, _EDGE_PROBABILITIES, _EDGE_SLOPES),
        min_size=1,
        max_size=8,
    )
)
def test_binary_fisher_matches_the_errstate_form_bit_for_bit(terms):
    p, rest, dp = (np.array(column) for column in zip(*terms))
    assert _same_bits(_binary_fisher(p, rest, dp), _binary_fisher_reference(p, rest, dp))
    # One phase: numpy scalars, as a fringe model gives them, and 0-d arrays.
    for args in [(p[0], rest[0], dp[0]), (np.array(p[0]), np.array(rest[0]), np.array(dp[0]))]:
        assert _same_bits(_binary_fisher(*args), _binary_fisher_reference(*args))


@pytest.mark.parametrize("total", [200, 700, 1000])
def test_splitter_matches_the_row_loop_bit_for_bit(total):
    # The 1e-100 rescale first fires near N = 664.
    assert _same_bits(beam_splitter_matrix(total), bs_matrix_row_loop(total))


@st.composite
def count_records(draw):
    """A count record with integer counts of some outcomes of N <= 8."""
    total = draw(st.integers(min_value=0, max_value=8))
    outcomes = st.integers(min_value=0, max_value=total).map(
        lambda n1: OutcomePattern(n1, total - n1)
    )
    counts = draw(st.dictionaries(outcomes, st.integers(min_value=0, max_value=10**6)))
    shots = sum(counts.values()) + draw(st.integers(min_value=1, max_value=10**6))
    return CountRecord(draw(st.floats(min_value=-10.0, max_value=10.0)), shots, counts)


@DETERMINISTIC
@given(
    records=st.lists(count_records(), max_size=5),
    seed=st.none() | st.integers(min_value=0, max_value=2**63 - 1),
)
def test_counts_files_read_back_alike_in_csv_and_json(records, seed):
    from_csv = records_from_csv(records_to_csv(records, seed))
    assert from_csv == records_from_json(records_to_json(records, seed))
    assert from_csv[1] == seed
