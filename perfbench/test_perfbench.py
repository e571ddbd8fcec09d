"""Determinism and self-checks of the benchmark itself.

Run with: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from perfbench import outputs, spans
from perfbench.run import END_TO_END, PER_LAYER, ROOT, Bench, load_package
from perfbench.spans import Totals, Tracer
from perfbench.workloads import WORKLOADS, instance_texts


@pytest.fixture(scope="module")
def pkg():
    return load_package()


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_identical_texts(w):
    first = instance_texts(w, 7, count=3)
    assert first == instance_texts(w, 7, count=3)
    assert first != instance_texts(w, 8, count=3)
    # instance i does not depend on the batch size
    assert instance_texts(w, 7, count=1) == first[:1]


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_generator_plants_the_center_at_distance_d(w):
    text = instance_texts(w, 3, count=1)[0]
    obj = json.loads(text)
    inst = outputs.Parsed.of(text)
    center = np.array([obj["alphabet"].index(c) for c in obj["planted"]["center"]], dtype=np.uint8)
    for s, off in zip(inst.strings, obj["planted"]["offsets"]):
        assert int((s[off:off + inst.width] != center).sum()) == w.shape.d
    assert outputs.radius_and_offsets(inst, center)[0] <= w.shape.d


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_passes_agree_and_tracing_changes_nothing(pkg, w):
    bench = Bench(pkg, w)
    instances = bench.parse(instance_texts(w, 0, count=1))
    first = bench.attempt(instances[0])
    assert bench.attempt(instances[0]) == first
    totals = Totals()
    with Tracer() as tracer:
        traced = bench.replay(instances, [0], tracer, totals)
    assert tracer.absent == set()
    assert traced[0].out == first
    assert totals.calls["solver.string"] + totals.calls["solver.dispatch"] == 1


def test_tracer_restores_bindings_and_reports_missing_names(pkg, monkeypatch):
    before = pkg.closest_substring.agreement_positions
    monkeypatch.setattr(spans, "BINDINGS", spans.BINDINGS + (
        ("gone", "centerstring.core", "no_such_function", None),
    ))
    with Tracer() as tracer:
        assert pkg.closest_substring.agreement_positions is not before
    assert tracer.absent == {"gone"}
    assert pkg.closest_substring.agreement_positions is before
    assert pkg.core.agreement_positions is before


def test_output_check_rejects_wrong_answers():
    text = instance_texts(WORKLOADS[3], 0, count=1)[0]
    inst = outputs.Parsed.of(text)
    center = tuple(int(v) for v in inst.strings[0][:inst.width])
    radius, offsets = outputs.radius_and_offsets(inst, np.array(center, dtype=np.uint8))
    bound = Fraction(4, 3)
    assert outputs.violations(inst, center, radius, offsets, radius, bound) == []
    assert outputs.violations(inst, center, radius + 1, offsets, radius, bound)
    assert outputs.violations(inst, center, radius, (99,) + offsets[1:], radius, bound)
    assert outputs.violations(inst, center, radius, offsets, 0, bound) or radius == 0
    assert outputs.violations(inst, center[:-1], radius, offsets, radius, bound)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
