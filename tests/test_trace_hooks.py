"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps library
functions by name.  A renamed or deleted function breaks `perfbench/run.py
--trace 1` without failing any other test, so every name it wraps must still
resolve on its owner, and the CLI must call the runner and the emitter
through the names the tracer replaces."""

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


def test_cli_calls_the_replaced_runner_and_emitter(tmp_path, monkeypatch):
    import gravswap.cli
    import gravswap.experiments

    calls = []
    run = gravswap.experiments.RUNNERS["feasibility"]

    def runner(cfg):
        calls.append(("run", cfg.kind))
        return run(cfg)

    def emit(report, out_dir, force=False):
        calls.append(("emit", report.kind))
        return []

    monkeypatch.setitem(gravswap.experiments.RUNNERS, "feasibility", runner)
    monkeypatch.setattr(gravswap.cli, "emit_report", emit)
    assert gravswap.cli.main(["feasibility", "--out", str(tmp_path / "r")]) == 0
    assert calls == [("run", "feasibility"), ("emit", "feasibility")]
    assert not (tmp_path / "r").exists()
