"""Exact two-mode N-photon interferometry and Fisher-information tools.

The package simulates photon-counting interferometry in a single
total-photon-number sector: state preparation (dual Fock, Holland
Burnett, NOON, and the uncorrelated shot-noise benchmark), the exact beam
splitter, detection fringes and their Fisher information, click-detector
arrays, and seeded Monte Carlo estimation pipelines.
"""

from .detection import (
    DetectorArrayConfig,
    click_distribution,
    port_click_pmf,
    resolve_probability,
)
from .estimation import (
    DirectFisherResult,
    ExperimentPlan,
    MleResult,
    direct_fisher_from_data,
    mle_phase,
    simulate_counts,
    snl_comparison,
)
from .fisher import (
    OptimalityReport,
    ScalingRow,
    find_peak,
    full_fisher,
    hb_limit,
    model_fisher_sigma,
    noon_asymptotic,
    noon_single_fringe_max,
    optimality_certificate,
    output_uncertainty_bound,
    scaling_table,
    single_fringe_fisher,
    single_fringe_fisher_model,
)
from .fock import (
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
from .fringes import (
    DEFAULT_FRINGE_PEAK,
    CountRecord,
    FitResult,
    FringeModel,
    affine_from_visibility,
    apply_model,
    fit_fringe,
    fringe_probabilities,
    fringe_probability,
    ideal_model,
    noon_cosine_model,
    output_amplitudes,
    p33_closed_form,
)
from .states import build_state, dual_fock, hb_state, noon_state, snl_state

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FRINGE_PEAK",
    "MAX_PHOTONS",
    "CountRecord",
    "DetectorArrayConfig",
    "DirectFisherResult",
    "ExperimentPlan",
    "FitResult",
    "FringeModel",
    "MleResult",
    "OptimalityReport",
    "OutcomePattern",
    "PhysicsError",
    "ScalingRow",
    "TwoModeState",
    "affine_from_visibility",
    "apply_model",
    "basis_state",
    "beam_splitter_matrix",
    "build_state",
    "click_distribution",
    "direct_fisher_from_data",
    "dual_fock",
    "find_peak",
    "fit_fringe",
    "fringe_probabilities",
    "fringe_probability",
    "full_fisher",
    "generator_variance",
    "hb_limit",
    "hb_state",
    "ideal_model",
    "make_state",
    "mle_phase",
    "model_fisher_sigma",
    "noon_asymptotic",
    "noon_cosine_model",
    "noon_single_fringe_max",
    "noon_state",
    "number_difference",
    "optimality_certificate",
    "output_amplitudes",
    "output_uncertainty_bound",
    "p33_closed_form",
    "port_click_pmf",
    "resolve_probability",
    "scaling_table",
    "simulate_counts",
    "single_fringe_fisher",
    "single_fringe_fisher_model",
    "snl_comparison",
    "snl_state",
]
