"""Self-tests of the benchmark: its exact reference value, its span
bookkeeping, and that the traced run's wrappers see every call.

Run with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import clock
import layers
import run
import tracing
import worker
from workloads import WORKLOADS, exact_report_within, op_seeds

from swarmchain import chain, crypto, detect, graph, prob, sim


@pytest.mark.parametrize("n,p,delta", [(3, 0.5, 2), (4, 0.5, 2)])
def test_exact_formula_matches_enumeration(n, p, delta):
    expected = prob.exact_small_enumeration(prob.ProbQuery(n, p, delta))
    assert exact_report_within(n, p, delta) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_op_seeds_are_distinct_and_reproducible():
    a, b = op_seeds(7), op_seeds(7)
    first = [next(a) for _ in range(1000)]
    assert first == [next(b) for _ in range(1000)]
    assert len(set(first)) == 1000


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_direct_children(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    tracer = tracing.Tracer()

    def leaf():
        fake.now += 2.0

    def middle():
        fake.now += 1.0
        leaf()
        leaf()
        fake.now += 0.5

    def top():
        middle()
        fake.now += 3.0

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    top = tracer.wrap("top", top)
    top()

    stats = tracer.summary()
    assert stats["leaf"] == tracing.NameStats(calls=2, inclusive_s=4.0, self_s=4.0)
    assert stats["middle"] == tracing.NameStats(calls=1, inclusive_s=5.5, self_s=1.5)
    assert stats["top"] == tracing.NameStats(calls=1, inclusive_s=8.5, self_s=3.0)
    assert len(tracer) == 4


def test_recursion_counts_inclusive_time_once(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    tracer = tracing.Tracer()

    def walk(depth):
        fake.now += 1.0
        if depth:
            walk(depth - 1)

    walk = tracer.wrap("walk", walk)
    walk(2)

    stats = tracer.summary()["walk"]
    assert stats == tracing.NameStats(calls=3, inclusive_s=3.0, self_s=3.0)


def test_span_closed_out_of_order_is_an_error():
    tracer = tracing.Tracer()
    outer = tracer.begin(tracer.name_id("outer"))
    tracer.begin(tracer.name_id("inner"))
    with pytest.raises(RuntimeError):
        tracer.end(outer)


@pytest.fixture
def restore_swarmchain():
    """Undo every patch ``layers.install`` makes once the test is done."""
    owners = [chain, crypto, detect, graph, prob, sim, chain.LinkStore, sim.Simulation, sim.SimTrace, detect.LocalView]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    props = {name: detect.LocalView.__dict__[name].func for name in ("evidence", "claims")}
    yield
    for owner, attrs in saved:
        for key, value in attrs.items():
            if getattr(owner, "__dict__", {}).get(key) is not value:
                setattr(owner, key, value)
    for name, func in props.items():
        detect.LocalView.__dict__[name].func = func


def test_no_module_keeps_an_unwrapped_alias(restore_swarmchain):
    layers.install(tracing.Tracer())
    modules = [chain, crypto, detect, graph, prob, sim]
    owners = modules + [chain.LinkStore, sim.Simulation, sim.SimTrace, detect.LocalView]
    wrapped = {
        id(getattr(value, "__func__", value).__wrapped__)
        for owner in owners
        for value in vars(owner).values()
        if hasattr(getattr(value, "__func__", value), "__wrapped__")
    }
    assert len(wrapped) >= 25
    stale = [
        f"{owner.__name__}.{key}"
        for owner in modules
        for key, value in vars(owner).items()
        if id(value) in wrapped
    ]
    assert stale == []


def test_wrappers_see_every_sign(restore_swarmchain):
    tracer = tracing.Tracer()
    probe = layers.install(tracer)
    n, intervals = 8, 3
    trace = sim.run_simulation(sim.SimConfig(n=n, p=0.4, intervals=intervals, delta=2, seed=11))

    stats = tracer.summary()
    met_at_1 = {r for edge in trace.graphs[0].edges for r in edge}
    assert stats["crypto.sign"].calls == n * intervals + len(met_at_1)
    assert stats["chain.store_insert"].calls == n * intervals
    assert stats["chain.canonical_encode"].calls == 2 * n * intervals
    assert stats["sim.exchange"].calls == sum(len(g.edges) for g in trace.graphs)
    assert probe.counts["outcome.clean"] == stats["sim.exchange"].calls
    assert stats["sim.run"].calls == 1


def test_per_layer_metrics_cover_every_name():
    stats = {"crypto.verify": tracing.NameStats(calls=4, inclusive_s=2e-3, self_s=2e-3)}
    probe = layers.Probe()
    probe.verify_triples = {(b"k", b"m", b"s")}
    out = layers.per_layer_metrics(stats, probe, ops=2, wall_s=1.0, spans=4, closed_form_bias=0.0)
    assert [name for name, _ in layers.PER_LAYER] == list(out)
    assert out["crypto.verify.calls"] == 2.0
    assert out["crypto.verify.us"] == pytest.approx(500.0)
    assert out["crypto.verify.reuse_ratio"] == pytest.approx(0.75)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == [*worker.END_TO_END_MEASURED, ("setup_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


def test_percentile_interpolates():
    values = list(np.arange(1.0, 101.0))
    assert worker._percentile(values, 90) == pytest.approx(90.1)
    assert worker._percentile([5.0], 90) == 5.0


def test_reference_clock_scales_segments_by_kernel_speed(monkeypatch):
    fake = FakeClock()
    kernel_times = iter([2.0, 4.0, 4.0])

    def kernel():
        fake.now += next(kernel_times)

    monkeypatch.setattr(clock, "perf_counter", fake)
    monkeypatch.setitem(clock.KERNELS, "fake", (kernel, 1.0))
    ref = clock.ReferenceClock("fake")
    fake.now += 3.0
    assert ref.mark() == pytest.approx(1.0)  # kernel ran at 2.0 then 4.0: 3x slower than reference
    fake.now += 8.0
    assert ref.mark() == pytest.approx(3.0)  # kernel at 4.0 both ends
    assert ref.raw_s == pytest.approx(11.0)
