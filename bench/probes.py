"""Direct timings of single layer operations (the ROADMAP North-star rows).

These call public spdcmet functions in a warm process and report medians.
No workload reaches sector n = 46; that probe shows how rotation matrices
scale at high gain without gating anything.
"""

from __future__ import annotations

import time
from statistics import median

MATRIX_SECTORS = ((5, 200), (12, 100), (46, 20))  # (n, calls)
FAMILY_EVALS = 50
ML_REPS = (2, 12)  # one repetition costs the difference over the extra ten
ML_PHI = 1.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def run():
    from spdcmet import engine, estimation, fock
    from spdcmet.fock import SourceParams

    out = {}
    for n, calls in MATRIX_SECTORS:
        out[f"fock.matrix_s_n{n}"] = median(
            _timed(fock.sensing_transition_matrix, n, 0.3 + 0.01 * i) for i in range(calls))

    src = SourceParams(0.061)
    det = engine.detector_for_source(src, 4, 0.23, 0.12)
    family = engine.fourfold_family(src, det)
    out["engine.family_eval_s"] = median(
        _timed(family.probabilities_and_derivatives, 0.1 + 0.1 * i)
        for i in range(FAMILY_EVALS))

    few, many = (_timed(estimation.monte_carlo_ml_fisher, family, ML_PHI,
                        repetitions=reps, sample_size=1000, seed=7) for reps in ML_REPS)
    out["estimation.ml_rep_s"] = (many - few) / (ML_REPS[1] - ML_REPS[0])
    return out
