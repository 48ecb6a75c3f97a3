"""Spans around spdcmet's layer boundaries, and per-layer self time.

A traced workload process installs wrappers from the benchmark's own code
around the public callables of each spdcmet module.  Each call records a
span (name, start, end, parent, amount) in memory; the process writes the
list out when it exits, and the benchmark reduces it to per-layer self
times and counts.

A function is wrapped wherever a spdcmet module binds it: ``engine`` does
``from .fock import sensing_transition_matrix``, so patching
``spdcmet.fock`` alone would miss those calls.  Methods are patched on
their class, which every binder shares.  Hot inner loops such as
``fock.rotation_amplitude`` and ``detectors.stirling2`` stay unwrapped so
that tracing costs little.
"""

from __future__ import annotations

import functools
import sys
import time


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _clipped(args, result):
    return int(result.clipped)


# (layer, name inside spdcmet.<layer>, counter).  The counter groups calls
# into the per-layer counts; None means the call only contributes time.
TARGETS = (
    ("fock", "sensing_transition_matrix", "matrix_builds"),
    ("fock", "reference_transition_matrix", "matrix_builds"),
    ("fock", "truncation_tail", None),
    ("fock", "pair_number_weights", None),
    ("fock", "ideal_pattern_probability", None),
    ("detectors", "PovmTable.__post_init__", "table_builds"),
    ("detectors", "lossless_weight_table", None),
    ("detectors", "binomial_thinning_matrix", None),
    ("detectors", "apply_loss", None),
    ("engine", "choose_truncation", None),
    ("engine", "detector_for_source", None),
    ("engine", "sector_probabilities", "sector_evals"),
    ("engine", "click_probability_tensor", "tensor_evals"),
    ("engine", "detection_probability", None),
    ("engine", "full_pattern_distribution", None),
    ("engine", "PatternFamily._raw", "family_evals"),
    ("engine", "fourfold_conditional_means", None),
    ("engine", "mean_photon_numbers", None),
    ("engine", "ideal_fisher_information", None),
    ("estimation", "fisher_point", "fisher_points"),
    ("estimation", "fisher_curve", None),
    ("estimation", "fit_fringes", "fringe_fits"),
    ("estimation", "_golden_min", None),
    ("estimation", "ml_estimate", None),
    ("estimation", "monte_carlo_ml_fisher", None),
    ("estimation", "bootstrap_fisher_band", None),
    ("estimation", "snl_fisher", None),
    ("estimation", "performance_curve", None),
    ("estimation", "_FullPatternFamily.probabilities_and_derivatives", None),
    ("heralding", "herald_table", None),
    ("heralding", "herald_point", "points"),
    ("timetags", "parse_timetags", None),
    ("timetags", "parse_timetags_text", "parse"),
    ("timetags", "parse_timetags_binary", "parse"),
    ("timetags", "to_csv", "serialize"),
    ("timetags", "to_binary", "serialize"),
    ("timetags", "count_coincidences", "count"),
    ("timetags", "generate_synthetic_timetags", "generate"),
    ("calibration", "efficiencies_from_rates", None),
    ("calibration", "model_rate_summary", None),
    ("calibration", "tau_from_pair_probability", None),
    ("calibration", "pair_probability_from_tau", None),
    ("cli", "main", None),
)

# What one call adds to its span's amount: records for the timetag paths,
# the clipped flag for Fisher points.
AMOUNTS = {
    "timetags.parse_timetags_text": _len_result,
    "timetags.parse_timetags_binary": _len_result,
    "timetags.count_coincidences": _len_first_arg,
    "timetags.generate_synthetic_timetags": _len_result,
    "timetags.to_csv": _len_first_arg,
    "timetags.to_binary": _len_first_arg,
    "estimation.fisher_point": _clipped,
}

LAYERS = ("fock", "detectors", "engine", "estimation", "heralding",
          "timetags", "calibration", "cli")

# span fields
NAME, START, END, PARENT, AMOUNT = range(5)


class SpanRecorder:
    """Keeps spans of one process in memory, parents taken from a call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, amount=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        return traced


def install(recorder, targets=TARGETS, package="spdcmet"):
    """Wrap every target where it is bound; return the names not found.

    A missing module, class or function is reported as absent rather than
    raised, so the trace keeps working when a later change deletes one.
    """
    binders = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    absent = []
    for layer, qualname, _ in targets:
        full = f"{layer}.{qualname}"
        owner = sys.modules.get(f"{package}.{layer}")
        owner_path, _, attr = qualname.rpartition(".")
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            absent.append(full)
            continue
        traced = recorder.wrap(full, fn, AMOUNTS.get(full))
        if owner_path:
            setattr(owner, attr, traced)
            continue
        for module in binders:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
    return absent


def self_times(spans):
    """Each span's duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(kids):
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span[END] - span[START] - covered)
    return out


def summarize(spans, targets=TARGETS):
    """Per-layer self time, counts and amounts of one traced call.

    Returns a dict with ``self_s`` per layer, ``counts`` and ``amounts``
    per counter, and ``inclusive_s`` (summed span durations) per counter.
    """
    counter_of = {f"{layer}.{name}": counter for layer, name, counter in targets}
    self_s = {layer: 0.0 for layer in LAYERS}
    counts, amounts, inclusive = {}, {}, {}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
        counter = counter_of.get(name)
        if counter is None:
            continue
        key = f"{layer}.{counter}"
        counts[key] = counts.get(key, 0) + 1
        amounts[key] = amounts.get(key, 0) + span[AMOUNT]
        inclusive[key] = inclusive.get(key, 0.0) + span[END] - span[START]
    return {"self_s": self_s, "counts": counts, "amounts": amounts,
            "inclusive_s": inclusive}
