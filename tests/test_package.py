"""The package's public API is the seven layers' ``__all__``, re-exported.

Each layer declares what it exports in its own ``__all__``; ``spdcmet``
adds only ``__version__``.  These tests pin that contract, and that no
name the package exported before it took this form has been dropped.
"""
import importlib

import spdcmet

LAYERS = ("fock", "detectors", "engine", "estimation", "heralding", "calibration", "timetags")

# ``spdcmet.__all__`` as it stood when it was still a hand-written list
EARLIER_EXPORTS = (
    "BootstrapBand", "CalibrationError", "CalibrationResult", "ChannelMap",
    "CoincidenceResult", "DetectorModel", "FringeFit", "FringeSet", "GainRangeError",
    "HeraldError", "HeraldSpec", "HeraldTable", "MLEstimate", "MLFisherResult",
    "ParseError", "PatternDistribution", "PatternFamily", "PatternHistogram",
    "PerformancePoint", "PhaseSeries", "PovmTable", "RateSummary", "RotationSpec",
    "SourceParams", "TimetagStream", "__version__", "apply_loss", "argmax_over_phase",
    "binomial_thinning_matrix", "bootstrap_fisher_band", "choose_truncation",
    "click_pair_series", "click_probability_tensor", "count_coincidences",
    "detection_probability", "detector_for_source", "efficiencies_from_rates",
    "fisher_curve", "fisher_information", "fit_fringes", "fourfold_conditional_means",
    "fourfold_family", "fourfold_patterns", "full_pattern_distribution",
    "generate_synthetic_timetags", "heisenberg_limit", "herald_table",
    "ideal_fisher_information", "lossless_weight_table", "lossless_weights",
    "mean_photon_numbers", "ml_estimate", "model_rate_summary", "monte_carlo_ml_fisher",
    "pair_number_weights", "pair_probability_from_tau", "performance_curve",
    "snl_fisher", "stirling2", "tau_from_pair_probability", "to_binary", "to_csv",
    "truncation_tail",
)


def test_the_package_exports_every_layers_all_once():
    layers = [importlib.import_module(f"spdcmet.{name}") for name in LAYERS]
    assert spdcmet.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]
    assert len(set(spdcmet.__all__)) == len(spdcmet.__all__)
    for module in layers:
        for name in module.__all__:
            assert getattr(spdcmet, name) is getattr(module, name), (module.__name__, name)


def test_every_earlier_export_is_still_exported():
    assert set(EARLIER_EXPORTS) <= set(spdcmet.__all__)
    namespace = {}
    exec("from spdcmet import *", namespace)
    assert set(EARLIER_EXPORTS) <= namespace.keys()


def test_code_kept_only_for_the_benchmark_is_not_exported():
    assert "sensing_transition_matrix" not in spdcmet.__all__
    assert not hasattr(spdcmet, "sensing_transition_matrix")
    assert callable(spdcmet.fock.sensing_transition_matrix)
    # the engine's re-export, read by the CLI and acceptance tests, stays
    assert spdcmet.engine.RotationSpec is spdcmet.RotationSpec
