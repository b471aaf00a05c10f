"""Property tests of the single-fringe evaluator and its Fisher information.

Hypothesis draws are derandomized, so every run checks the same examples.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fringelab import (
    OutcomePattern,
    affine_model,
    build_state,
    ideal_model,
    noon_cosine_model,
    single_fringe_fisher,
    single_fringe_fisher_model,
)
from fringelab.fringes import _model_fringe

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
        affine_model(kind, total, outcome, weight, share * (1.0 - weight)),
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
