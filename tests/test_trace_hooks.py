"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps library
functions by name.  A renamed or deleted function breaks `perfbench/run.py
--trace 1` without failing any other test, so every name it wraps must still
resolve on its owner."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner,attribute", [(owner, attribute) for owner, attribute, _ in tracer.SPANS + tracer.COUNTERS]
)
def test_traced_name_resolves(owner, attribute):
    assert callable(getattr(tracer._owner(owner), attribute))


def test_counted_fft_functions_resolve():
    import gravswap.grid

    for name in tracer.FFT_FUNCTIONS:
        assert callable(getattr(gravswap.grid.sfft, name))


def test_wrapped_entry_points_resolve():
    import gravswap.cli
    import gravswap.experiments

    assert set(gravswap.experiments.RUNNERS) >= {"swap", "cat_state"}
    assert callable(gravswap.cli.emit_report)
