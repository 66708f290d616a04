"""Self-time arithmetic of the span tracer and the per-layer roll-up.

Run from the repository root: python3 -m pytest perfbench
"""

import itertools
import types

import pytest

import layers
import spans
from spans import self_times, union_length


def span(name, layer, start, end, parent=None, outermost=True):
    return [name, layer, float(start), float(end), parent, outermost]


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 5), (7, 6), (0, 1)]) == 1.0
    assert union_length([(2, 3), (0, 1), (1, 2)]) == 3.0


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("a", "cli", 0, 10),
        span("b", "quadrature", 1, 4, parent=0),
        span("c", "kernels", 2, 3, parent=1),
        span("d", "eig", 5, 9, parent=0),
    ]
    assert self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    # properly nested spans: self times add up to the roots' durations
    assert sum(self_times(tree)) == 10.0


def test_overlapping_children_are_counted_once():
    tree = [span("p", "zaremba", 0, 10), span("x", "eig", 1, 5, 0), span("y", "eig", 3, 7, 0)]
    assert self_times(tree)[0] == 4.0


def test_child_time_outside_the_parent_is_clipped():
    tree = [span("p", "zaremba", 0, 4), span("x", "eig", 2, 6, 0)]
    assert self_times(tree) == [2.0, 4.0]


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_tracer_records_nesting_and_restores_originals():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.mid = lambda x: ns.inner(x) * 2
    ns.outer = lambda x: ns.mid(x) - 1
    originals = dict(vars(ns))
    tracer = spans.Tracer(clock=_ticking_clock())
    tracer.wrap([(ns, "inner")], ns.inner, "symbols.inner", "symbols")
    tracer.wrap([(ns, "mid")], ns.mid, "cli.mid", "cli")
    tracer.wrap([(ns, "outer")], ns.outer, "cli.outer", "cli")
    tracer.install()
    try:
        assert ns.outer(1) == 3
    finally:
        tracer.uninstall()
    assert vars(ns) == originals
    assert [s[spans.NAME] for s in tracer.spans] == ["cli.outer", "cli.mid", "symbols.inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 1]
    # ticks: outer 0..5, mid 1..4, inner 2..3
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0]
    # mid runs inside another cli span, inner is the first symbols span
    assert [s[spans.OUTERMOST] for s in tracer.spans] == [True, False, True]


def test_tracer_records_a_span_when_the_call_raises():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = spans.Tracer(clock=_ticking_clock())
    tracer.wrap([(ns, "boom")], ns.boom, "eig.boom", "eig")
    tracer.install()
    try:
        with pytest.raises(ZeroDivisionError):
            ns.boom()
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 1 and tracer.spans[0][spans.END] == 1.0
    assert not tracer.in_layer("eig")


def test_never_called_lists_registered_names_without_spans():
    tracer = spans.Tracer()
    ns = types.SimpleNamespace(f=lambda: None, g=lambda: None)
    tracer.wrap([(ns, "f")], ns.f, "cli.f", "cli")
    tracer.wrap([(ns, "g")], ns.g, "cli.g", "cli")
    tracer.install()
    try:
        ns.f()
    finally:
        tracer.uninstall()
    assert tracer.never_called() == ["cli.g"]


def test_per_layer_rolls_self_time_up_by_layer():
    tracer = spans.Tracer()
    tracer.spans = [
        span("cli.execute", "cli", 0, 8),
        span("discretize.fractional_restricted", "discretize", 1, 4, 0),
        span("kernels.toeplitz_gather", "kernels", 2, 3, 1),
        span("eig.scipy.linalg.eigvalsh", "eig", 4, 7, 0),
        span("asymptotics.weyl_fit", "asymptotics", 8.5, 9.5),
    ]
    tracer.counters["kernels.flops"] = 4e9
    tracer.counters["eig.dense_calls"] = 1
    tracer.hook_s = 0.25
    m = layers.per_layer(tracer, wall=10.0, span_cost=0.05, bytes_written=123)
    assert list(m) == [name for name, _ in layers.PER_LAYER]
    assert m["cli.self_s"] == 2.0
    assert m["discretize.self_s"] == 2.0
    assert m["discretize.fractional_s"] == 3.0
    assert m["kernels.self_s"] == 1.0
    assert m["kernels.gflops"] == 4.0
    assert m["eig.self_s"] == 3.0 and m["eig.calls"] == 1
    assert m["asymptotics.calls"] == 1
    assert m["zaremba.self_s"] == 0.0 and m["zaremba.calls"] == 0
    assert m["quadrature.pairs_per_s"] == 0.0
    assert m["cli.bytes_written"] == 123
    assert m["trace.overhead_s"] == 5 * 0.05 + 0.25
    assert m["trace.coverage"] == 0.9


def test_per_layer_metrics_match_the_benchmark_declaration():
    import json
    import os

    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == layers.PER_LAYER


def test_eig_calls_count_solver_spans_not_their_wrappers():
    tracer = spans.Tracer()
    tracer.spans = [
        span("eig.sym_eig", "eig", 0, 4),
        span("eig.scipy.linalg.eigvalsh", "eig", 1, 3, 0, outermost=False),
        span("eig.scipy.sparse.linalg.eigsh", "eig", 5, 6),
    ]
    tracer.counters["eig.dense_calls"] = 1
    tracer.counters["eig.iterative_calls"] = 1
    m = layers.per_layer(tracer, wall=6.0, span_cost=0.0, bytes_written=0)
    assert m["eig.calls"] == 2
    assert layers.spans_by_layer(tracer)["eig"] == 3


def test_hook_time_is_measured_and_counted_as_overhead():
    ns = types.SimpleNamespace(f=lambda: 7)
    tracer = spans.Tracer(clock=_ticking_clock())
    seen = []
    tracer.wrap([(ns, "f")], ns.f, "cli.f", "cli", after=lambda t, a, k, r: seen.append(r))
    tracer.install()
    try:
        assert ns.f() == 7
    finally:
        tracer.uninstall()
    # ticks: span 0..1, hook 2..3
    assert seen == [7] and tracer.hook_s == 1.0
    assert tracer.overhead_s(span_cost=0.5) == 1.5


def test_calibrated_span_cost_is_small_and_not_negative():
    cost = spans.calibrate(calls=2000, repeats=3)
    assert 0.0 <= cost < 1e-3


class _FakeDispatcher:
    """Stands in for a numba dispatcher: a callable object compiled from ``py_func``."""

    def __init__(self, py_func):
        self.py_func = py_func

    def __call__(self, *args):
        return self.py_func(*args)


def test_public_functions_include_compiled_dispatchers_under_every_name():
    module = types.ModuleType("fake_kernels")

    def power_sum_nb(x):
        return x * 2

    def _helper(x):
        return x

    power_sum_nb.__module__ = _helper.__module__ = module.__name__
    compiled = _FakeDispatcher(power_sum_nb)
    module.power_sum_nb = compiled
    module.power_sum = compiled
    module._helper = _helper
    found = layers.public_functions(module)
    assert found == [(compiled, ["power_sum_nb", "power_sum"])]


def test_every_workload_names_the_layers_it_must_trace():
    import run

    assert set(layers.USED_BY) == set(run.WORKLOAD_NAMES)
    for used in layers.USED_BY.values():
        assert set(used) <= set(layers.LAYERS)
