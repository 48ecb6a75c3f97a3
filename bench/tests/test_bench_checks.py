"""Output checks and failure accounting of the benchmark."""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

HERALD = workloads.WORKLOADS["herald_table"]


def herald_output(cells):
    return json.dumps({"meta": {}, "columns": ["k", "eta=0.9"],
                       "rows": [[k, v] for k, v in enumerate(cells)]})


def test_recorded_herald_output_passes_and_corrupted_ones_fail():
    cells = list(workloads.reference()["herald"]["cells"])
    assert workloads.check_output(HERALD, herald_output(cells), {}) == []
    cells[2] *= 1.0 + 1e-6
    assert workloads.check_output(HERALD, herald_output(cells), {})
    assert workloads.check_output(HERALD, herald_output(cells)[:-5], {})


def test_corrupted_cli_output_counts_as_a_failed_operation(tmp_path):
    cells = list(workloads.reference()["herald"]["cells"])
    outputs = [herald_output(cells),
               herald_output(cells[:2] + [cells[2] + 0.01] + cells[3:]),
               "{not json"]

    def fake_spawn(job, out, **extra):
        Path(out).write_text(outputs.pop(0))
        now = time.perf_counter()
        return {"rc": 0, "ready": now, "wall_s": 1.0, "peak_rss_mb": 1.0}, now

    runner = run.Runner(tmp_path, HERALD, 1, time.perf_counter())
    runner.spawn = fake_spawn
    calls = runner.calls(("call",), tmp_path / "prepared.json", {}, seconds=0.0)
    assert [c["ok"] for c in calls] == [True, False, False]


def test_pattern_frequencies_match_only_within_the_rule():
    patterns = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    probs = [0.2, 0.3, 0.5]
    pulses = 1_000_000
    exact = {(1, 0, 0, 0): 200_000, (0, 1, 0, 0): 300_000, (0, 0, 0, 0): 500_000}
    assert workloads.frequency_problems(exact, patterns, probs, pulses) == []
    skewed = {**exact, (1, 0, 0, 0): 203_000, (0, 0, 0, 0): 497_000}
    assert workloads.frequency_problems(skewed, patterns, probs, pulses)
    stray = {**exact, (2, 0, 0, 0): 1}
    assert workloads.frequency_problems(stray, patterns, probs, pulses)


def test_mirror_alias_inside_the_ml_window():
    phis = workloads.reference()["fisher"]["ml_phi"]
    assert [workloads._alias_inside_window(p) for p in phis] == [False, True, False]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) is None
