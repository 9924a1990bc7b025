"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps library
functions by name.  A renamed or deleted function breaks `perfbench/run.py
--trace 1` without failing any other test, so every name it wraps must still
resolve on its owner, the CLI must call the runner and the emitter
through the names the tracer replaces, and a traced run must find on the
report what the tracer measures there."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def test_traced_run_counts_the_report_rows(tmp_path):
    # the tracer also reads attributes of the report, such as `Table.rows`
    # for its row count, which no name check covers: a traced CLI run must
    # exit 0 and count every CSV row it wrote
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spans, out = tmp_path / "spans.json", tmp_path / "report"
    done = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans), "feasibility", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    extra = json.loads(spans.read_text(encoding="utf-8"))["extra"]
    rows = sum(len(path.read_text(encoding="utf-8").splitlines()) - 1 for path in out.glob("*.csv"))
    assert extra["report.rows"] == rows > 0
    assert extra["report.bytes"] == sum(path.stat().st_size for path in out.iterdir())
