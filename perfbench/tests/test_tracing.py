"""Tests of the benchmark's span wrappers and metric lists.

    python3 -m pytest perfbench/tests

They run small instances, so they take seconds, not the minutes of a
benchmark run.
"""
import gc
import json
import math
import random
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import tracing  # noqa: E402
from reference import HostClock, in_reference_seconds  # noqa: E402
from run import E2E_METRICS, LAYER_METRICS, percentile, run_pass  # noqa: E402
from tracing import (ROOT_SPAN, TARGETS, Tracer, package_modules, span_name,  # noqa: E402
                     traced_package)
from workloads import WORKLOADS, DistanceWorkload, SolveWorkload  # noqa: E402

SMALL = (SolveWorkload("small-solve", 10, 5, range(2), "test corpus"),
         DistanceWorkload("small-distance", 32, ("comb", "random"), 40, "test corpus"))


def _originals():
    return {t: tracing._resolve(t)[2] for t in TARGETS}


def _outputs(wl, tracer=None):
    """Outputs by id (radius, distance or error name) of one pass."""
    ops = wl.ops(random.Random(7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if tracer is None:
            res = run_pass(ops, clock=False)
        else:
            with traced_package(tracer):
                res = run_pass(ops, tracer.wrap(ROOT_SPAN, lambda thunk: thunk()),
                               clock=False)
    return {oid: err if err else getattr(out, "radius", out)
            for oid, _dt, out, err, _ref in res}


@pytest.fixture(scope="module")
def small():
    for wl in SMALL:
        wl.load(None)
    return SMALL


def test_every_binding_is_wrapped():
    originals = _originals()
    by_id = {id(f): t for t, f in originals.items()}
    with traced_package(Tracer()) as replaced:
        for mod in package_modules().values():
            for name, val in vars(mod).items():
                assert id(val) not in by_id, f"{mod.__name__}.{name} is not wrapped"
        for target in TARGETS:
            owner, attr, cur = tracing._resolve(target)
            assert getattr(cur, "__wrapped_span__", None) == span_name(target)
            if isinstance(owner, type):
                subclasses = list(owner.__subclasses__())
                while subclasses:
                    sub = subclasses.pop()
                    subclasses += sub.__subclasses__()
                    assert getattr(sub, attr) is cur, f"{sub.__name__}.{attr} overrides"
        # imported by name into other modules, so rebound there as well
        rebound = {(getattr(o, "__name__", ""), a) for o, a, _ in replaced}
        for mod in ("polygon", "region"):
            assert (f"twocenter.{mod}", "orientation") in rebound
        assert ("twocenter.optimize", "decide") in rebound
    assert _originals() == originals
    for mod in package_modules().values():
        for val in vars(mod).values():
            assert not hasattr(val, "__wrapped_span__")


def test_traced_outputs_equal_untraced_bit_for_bit(small):
    for wl in small:
        plain = _outputs(wl)
        traced = _outputs(wl, Tracer())
        assert {k: repr(v) for k, v in traced.items()} == \
            {k: repr(v) for k, v in plain.items()}
        assert any(isinstance(v, float) for v in plain.values())


def test_counts_repeat_across_traced_runs(small):
    for wl in small:
        first, second = Tracer(), Tracer()
        _outputs(wl, first)
        _outputs(wl, second)
        assert first.calls == second.calls
        assert first.events == second.events
        assert first.calls["geom.orientation"] > 0
        assert first.calls["region.path"] > 0
        assert first.calls[ROOT_SPAN] == len(wl.ops(random.Random(0)))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(LAYER_METRICS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}


def test_percentile_counts_failures_as_infinite():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert math.isinf(percentile([1.0, 2.0, math.inf, math.inf], 0.5))
    assert percentile([1.0, 2.0, 3.0, math.inf], 0.5) == 2.5


def test_reference_timing_restores_the_collector_state():
    assert gc.isenabled()
    with HostClock(60.0) as clock:  # one sample, taken on entry
        assert gc.isenabled()
    assert len(clock.samples) == 1
    gc.disable()
    try:
        assert in_reference_seconds(1.0) > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
