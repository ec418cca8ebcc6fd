"""Tests for the benchmark tracer: self-time arithmetic, cache hit/miss
inference, generator timing and wrapper installation.

    PYTHONPATH=src python3 -m pytest bench/tests
"""

import json
import time
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
from tracer import Tracer, cache_hits, layer_metrics, self_times


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: the union 1..6 is covered once
        span("a.child", 2.0, 3.0, 1),
        span("late", 9.0, 12.0, 0),  # only 9..10 lies inside the parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span("x", 1.5, 2.0)]) == pytest.approx([0.5])


def test_cache_hit_is_a_call_without_child_build():
    spans = [
        span("hermite.cached_basis", 0.0, 2.0),
        span("hermite.build_basis", 0.5, 1.5, 0),
        span("hermite.cached_basis", 3.0, 3.1),
        span("fields.product_quadrature", 4.0, 4.1),
        span("hermite.cached_basis", 5.0, 5.1),
    ]
    assert cache_hits(spans, "hermite.cached_basis") == (2, 3)
    assert cache_hits(spans, "fields.product_quadrature") == (1, 1)
    metrics = layer_metrics([spans])
    assert metrics["hermite.cached_basis.hit_ratio"] == pytest.approx(2 / 3)
    assert metrics["hermite.build_basis.calls"] == 1


def test_installed_tracer_infers_hits_on_the_real_caches():
    import oscilab.cli  # noqa: F401  (loads every module the tracer wraps)
    from oscilab import fields, hermite

    t = Tracer()
    t.install()
    try:
        key = (1, 7, 23)  # no other test builds this basis
        first = hermite.cached_basis(*key)
        second = hermite.cached_basis(*key)
        fields.product_quadrature(first, 40)
        fields.product_quadrature(second, 40)
    finally:
        t.uninstall()
    assert first is second
    assert cache_hits(t.spans, "hermite.cached_basis") == (1, 2)
    assert cache_hits(t.spans, "fields.product_quadrature") == (1, 2)
    assert not hasattr(hermite.cached_basis, "__wrapped__")  # uninstall restored the original


def _fake_modules():
    home = types.ModuleType("oscilab.home")

    def draws(n, width):
        for _ in range(n):
            time.sleep(0.01)
            yield np.zeros(width)

    def helper(x):
        return x + 1

    class Grid:
        def eval_at(self, points):
            return np.ones((2, len(points)))

    home.draws, home.helper, home.Grid = draws, helper, Grid
    user = types.ModuleType("oscilab.user")
    user.draws, user.helper_alias = draws, helper  # imported by name, one under an alias
    return {"oscilab.home": home, "oscilab.user": user}


def test_generator_is_timed_inside_each_next():
    modules = _fake_modules()
    t = Tracer()
    t.install(targets=(("oscilab.home", "draws", "ens.draws", None),), modules=modules)
    for _ in modules["oscilab.user"].draws(3, width=4):
        time.sleep(0.03)  # consumer time must not count as generator time
    spans = [s for s in t.spans if s[0] == "ens.draws"]
    assert len(spans) == 4  # three items plus the exhausting next()
    assert sum((s[4] or {}).get("variates", 0) for s in spans) == 12
    busy = sum(self_times(t.spans))
    assert 0.03 <= busy < 0.09


def test_install_replaces_every_namespace_and_the_class_method():
    modules = _fake_modules()
    home, user = modules["oscilab.home"], modules["oscilab.user"]
    original_helper, original_eval = home.helper, home.Grid.eval_at
    t = Tracer()
    t.install(
        targets=(
            ("oscilab.home", "helper", "h.helper", None),
            ("oscilab.home", "Grid.eval_at", "h.eval_at", tracer._nbytes),
        ),
        modules=modules,
    )
    assert user.helper_alias(1) == 2 and home.helper(2) == 3
    home.Grid().eval_at([0.0, 1.0, 2.0])
    assert [s[0] for s in t.spans] == ["h.helper", "h.helper", "h.eval_at"]
    assert t.spans[-1][4] == {"bytes": 48}
    t.uninstall()
    assert home.helper is original_helper and user.helper_alias is original_helper
    assert home.Grid.eval_at is original_eval


def test_layer_metrics_match_the_benchmark_declaration():
    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    produced = list(layer_metrics([])) + ["trace.overhead_pct"]
    assert [m["name"] for m in declared] == produced
    assert all(m["unit"] == tracer.layer_unit(m["name"]) for m in declared)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    pct, value = run.tail_percentile(list(range(100)))
    assert pct == 90 and sum(v > value for v in range(100)) >= 10


def test_span_cost_is_small_and_positive():
    cost = Tracer.span_cost()
    assert 0.0 <= cost < 1e-4


def test_overhead_is_spans_times_span_cost_over_untraced_work():
    spans = [span("cli.main", 0.0, 1.0)] * 1000
    traced = [[run.OpResult("op", record={"spans": spans, "span_cost_s": 2e-6})]] * 3
    metrics = run.per_layer(traced, untraced_work=0.5)
    assert metrics["trace.overhead_pct"] == pytest.approx(100.0 * 1000 * 2e-6 / 0.5)
