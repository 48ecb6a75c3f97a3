"""Photon-counting interferometry: simulation, estimation, calibration.

A two-path polarization-entangled source feeds a sensing rotation and a
reference rotation; lossy multiplexed click counters measure all four
output modes.  This package computes exact detection-pattern
probabilities for that arrangement, the Fisher information and precision
bounds they imply, and the estimators and calibration routines needed to
run the scheme on counted data.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationError,
    CalibrationResult,
    RateSummary,
    efficiencies_from_rates,
    model_rate_summary,
    pair_probability_from_tau,
    tau_from_pair_probability,
)
from .detectors import (
    DetectorModel,
    PovmTable,
    apply_loss,
    binomial_thinning_matrix,
    lossless_weight_table,
    lossless_weights,
    stirling2,
)
from .engine import (
    PatternDistribution,
    PatternFamily,
    PhaseSeries,
    choose_truncation,
    click_pair_series,
    click_probability_tensor,
    detection_probability,
    detector_for_source,
    fourfold_conditional_means,
    fourfold_family,
    fourfold_patterns,
    full_pattern_distribution,
    ideal_fisher_information,
    mean_photon_numbers,
)
from .estimation import (
    BootstrapBand,
    FringeFit,
    FringeSet,
    MLEstimate,
    MLFisherResult,
    PerformancePoint,
    argmax_over_phase,
    bootstrap_fisher_band,
    fisher_curve,
    fisher_information,
    fit_fringes,
    heisenberg_limit,
    ml_estimate,
    monte_carlo_ml_fisher,
    performance_curve,
    snl_fisher,
)
from .fock import (
    GainRangeError,
    RotationSpec,
    SourceParams,
    ideal_pattern_probability,
    pair_number_weights,
    truncation_tail,
)
from .heralding import (
    HeraldError,
    HeraldSpec,
    HeraldTable,
    herald_table,
)
from .timetags import (
    ChannelMap,
    CoincidenceResult,
    ParseError,
    PatternHistogram,
    TimetagStream,
    count_coincidences,
    generate_synthetic_timetags,
    to_binary,
    to_csv,
)

__all__ = [
    "__version__",
    # fock
    "GainRangeError", "SourceParams", "RotationSpec", "pair_number_weights",
    "truncation_tail", "ideal_pattern_probability",
    # detectors
    "stirling2", "lossless_weights", "lossless_weight_table",
    "binomial_thinning_matrix", "apply_loss",
    "PovmTable", "DetectorModel",
    # engine
    "choose_truncation", "detector_for_source", "click_probability_tensor",
    "PhaseSeries", "click_pair_series", "detection_probability",
    "full_pattern_distribution",
    "PatternDistribution", "PatternFamily", "fourfold_patterns", "fourfold_family",
    "fourfold_conditional_means", "mean_photon_numbers", "ideal_fisher_information",
    # estimation
    "fisher_information", "fisher_curve", "FringeFit", "FringeSet",
    "fit_fringes", "MLEstimate", "ml_estimate", "MLFisherResult",
    "monte_carlo_ml_fisher", "BootstrapBand", "bootstrap_fisher_band",
    "snl_fisher", "heisenberg_limit", "PerformancePoint", "performance_curve",
    "argmax_over_phase",
    # calibration
    "CalibrationError", "RateSummary", "CalibrationResult",
    "efficiencies_from_rates", "tau_from_pair_probability",
    "pair_probability_from_tau", "model_rate_summary",
    # heralding
    "HeraldError", "HeraldSpec", "HeraldTable", "herald_table",
    # timetags
    "ParseError", "TimetagStream", "ChannelMap",
    "PatternHistogram", "CoincidenceResult", "to_csv",
    "to_binary", "count_coincidences", "generate_synthetic_timetags",
]
