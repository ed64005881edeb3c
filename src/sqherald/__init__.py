"""Heralded single-photon statistics from superpositions of oppositely
squeezed vacuum states: truncated Fock-space sources, a balanced beam
splitter, cross-Kerr heralding, click detection, and the analysis tools
that reproduce the published tables."""

__version__ = "0.1.0"

from .fockspace import (
    DEFAULT_TAIL_TOL,
    ModeOperator,
    NumericalFailureError,
    SingleModeState,
    Truncation,
    TruncationError,
    TruncationMismatchError,
    TwoModeState,
    coherent_amplitudes,
    default_truncation,
    fock_state,
    inner_product,
    squeeze_matrix,
    tensor,
    vacuum_state,
)
from .sources import (
    DegenerateStateError,
    cat_norm,
    herald_probability,
    squeezed_cat,
    squeezed_vacuum,
    squeezing_db,
    two_mode_squeezed_vacuum,
)
from .optics import (
    JointDistribution,
    ZeroHeraldError,
    apply_beam_splitter,
    conditional_single_photon,
    joint_probability,
    split,
    tmss_joint_probability,
)
from .kerr import (
    FitDegenerateError,
    HybridKerrState,
    KerrSchedule,
    QuadratureConvergenceError,
    coherent_overlap,
    fit_lambda,
    fitted_decay_rate,
    gaussian_averaged_ratio,
    kerr_evolve,
    p0_generation,
    p1_heralded,
    phase_error_ratio,
)
from .detect import (
    DetectorModel,
    HeraldedStatistics,
    ZeroClickError,
    ZeroMeanError,
    click_statistics,
    g2_from_photon_dist,
    g2_heralded_cat,
    g2_tmss,
    heralded_cat_statistics,
    quality_crossover,
    tmss_click_statistics,
)
from .analysis import (
    ConvergenceError,
    MaximizeResult,
    NoCrossingError,
    SweepSpec,
    SweepResult,
    find_crossing,
    maximize_1d,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
