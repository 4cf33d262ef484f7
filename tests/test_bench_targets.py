"""The benchmark's traced spans name functions that still exist.

`perfbench/run.py --trace 1` rebinds every name in `tracing.TARGETS`; a
target deleted or renamed in the package makes that run fail, so each
one is resolved here the way the tracer resolves it.
"""
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _tracing()


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_resolves(target):
    _owner, _attr, orig = tracing._resolve(target)
    assert callable(orig)
