"""Every per-layer metric that BENCHMARK.json names must be one the
benchmark's tracer can produce: a public function defined in its module,
under the tracer's own rule, and a quantity recorded for it.  A refactor
that deletes or moves such a function fails here instead of in a traced
benchmark run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", os.path.join(ROOT, "benchmark", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer"]
            if m["name"] != "trace.overhead_s"]


SPANS = _spans()


@pytest.mark.parametrize("metric", _per_layer_names())
def test_per_layer_metric_is_traced(metric):
    layer, function, quantity = metric.split(".")
    assert layer in SPANS.LAYERS
    assert function in SPANS.public_functions(layer), (
        f"no public function {function} defined in vomps.{layer}")
    _, counted = SPANS.COUNTERS.get(f"{layer}.{function}", (None, ()))
    assert quantity in ("calls", "raised", "s", "self_s") + counted
