"""Span bookkeeping of the benchmark's traced run."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["engine.PatternFamily._raw", 1.0, 4.0, 0, 0],
        ["fock.sensing_transition_matrix", 2.0, 3.0, 1, 0],
        ["estimation.fisher_point", 5.0, 7.0, 0, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    summary = spans.summarize(tree)
    assert summary["self_s"]["cli"] == pytest.approx(5.0)
    assert summary["self_s"]["engine"] == pytest.approx(2.0)
    assert summary["self_s"]["fock"] == pytest.approx(1.0)
    assert summary["counts"] == {"engine.family_evals": 1, "fock.matrix_builds": 1,
                                 "estimation.fisher_points": 1}
    assert summary["amounts"]["estimation.fisher_points"] == 1
    assert summary["inclusive_s"]["engine.family_evals"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    tree = [["a.x", 0.0, 10.0, -1, 0], ["b.y", 1.0, 4.0, 0, 0], ["b.z", 3.0, 6.0, 0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


@pytest.fixture
def fake_package(monkeypatch):
    layer = types.ModuleType("fakepkg.layer")
    caller = types.ModuleType("fakepkg.caller")

    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return caller.work(1)

    layer.work, layer.Thing = work, Thing
    caller.work = work  # bound by name, like ``from .layer import work``
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.layer", layer), ("fakepkg.caller", caller)):
        monkeypatch.setitem(sys.modules, name, module)
    return layer, caller


def test_missing_names_are_reported_absent_and_the_rest_wrapped(fake_package):
    layer, caller = fake_package
    targets = (("layer", "work", "works"), ("layer", "deleted", None),
               ("layer", "Gone.method", None), ("nolayer", "f", None),
               ("layer", "Thing.method", None))
    recorder = spans.SpanRecorder()
    absent = spans.install(recorder, targets, package="fakepkg")
    assert absent == ["layer.deleted", "layer.Gone.method", "nolayer.f"]
    assert caller.work(1) == 2
    assert layer.Thing().method() == 2
    names = [s[spans.NAME] for s in recorder.spans]
    assert names == ["layer.work", "layer.Thing.method", "layer.work"]
    assert recorder.spans[2][spans.PARENT] == 1
