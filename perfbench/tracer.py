"""Traced run of the gravswap CLI, and the per-layer metrics derived from it.

    python3 perfbench/tracer.py SPANS_OUT <gravswap CLI arguments>

runs the CLI in this process with the public functions of each module
wrapped where the calling module looks them up.  Each wrapped call records a
span (name, start, end, parent) in memory; the FFTs the grid module issues
through its `sfft` handle and the RK4 steps are counted against the
enclosing span without a span of their own.  The spans are written to
SPANS_OUT as JSON when the CLI returns, and `layer_metrics` turns them into
the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (owner, attribute, span name): the attribute is looked up at call time on
# its owner, a module or "module:Class", so replacing it catches every call.
SPANS = (
    ("gravswap.cli", "parse_config", "config.parse_config"),
    ("gravswap.experiments", "propagate_moments", "analytic.propagate_moments"),
    ("gravswap.experiments", "propagate_rwa_lab_displacement", "analytic.propagate_rwa_lab_displacement"),
    ("gravswap.experiments", "propagate_corrected_displacement", "analytic.propagate_corrected_displacement"),
    ("gravswap.experiments", "integrate_moments", "moments_ode.integrate_moments"),
    ("gravswap.experiments", "build_initial_grid", "grid.build_initial_grid"),
    ("gravswap.experiments", "split_step_evolve", "grid.split_step_evolve"),
    ("gravswap.grid", "moments_from_grid", "grid.moments_from_grid"),
    ("gravswap.grid", "lab_means_from_grid", "grid.lab_means_from_grid"),
    ("gravswap.grid", "schmidt_entropy", "grid.schmidt_entropy"),
    ("gravswap.grid:GridWavefunction", "norm_squared", "grid.norm_squared"),
    ("gravswap.grid:GridWavefunction", "boundary_fraction", "grid.boundary_fraction"),
)
COUNTERS = (("gravswap.moments_ode", "_rk4_step", "moments_ode.rk4_step"),)
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self.stack = [-1]
        self.counts: dict[tuple[str, int], int] = {}
        self.extra: dict[str, float] = {}

    def span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1])
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        payload = {
            "import_s": import_s,
            "names": self.names,
            "spans": self.spans,
            "counts": [[name, parent, n] for (name, parent), n in self.counts.items()],
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _CountingModule:
    """Stands in for a module, counting calls to some of its functions."""

    def __init__(self, module, tracer: Tracer, prefix: str, functions) -> None:
        self._module = module
        for fn in functions:
            setattr(self, fn, tracer.counter(prefix + fn, getattr(module, fn)))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _owner(path: str):
    module, _, cls = path.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def install(tracer: Tracer) -> None:
    import gravswap.cli
    import gravswap.experiments
    import gravswap.grid

    for path, attr, name in SPANS:
        target = _owner(path)
        setattr(target, attr, tracer.span(name, getattr(target, attr)))
    for path, attr, name in COUNTERS:
        target = _owner(path)
        setattr(target, attr, tracer.counter(name, getattr(target, attr)))
    gravswap.grid.sfft = _CountingModule(gravswap.grid.sfft, tracer, "fft.", FFT_FUNCTIONS)

    runners = gravswap.experiments.RUNNERS  # the same dict the CLI dispatches through
    for kind, fn in list(runners.items()):
        runners[kind] = tracer.span("experiments.run", fn)

    emit = tracer.span("report.emit_report", gravswap.cli.emit_report)

    def emit_and_measure(report, out_dir, force=False):
        paths = emit(report, out_dir, force=force)
        tracer.extra["report.rows"] = sum(len(t.rows) for t in report.tables.values())
        tracer.extra["report.bytes"] = sum(p.stat().st_size for p in paths)
        return paths

    gravswap.cli.emit_report = emit_and_measure


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import gravswap.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return gravswap.cli.main(cli_args)
    finally:
        tracer.dump(spans_out, import_s)


def layer_metrics(payload: dict) -> dict[str, float]:
    """Per-layer figures from one traced run's spans and counts.

    Self time is a span's duration minus that of its direct children.  Grid
    steps are inferred from the kinetic FFT round trips that
    split_step_evolve issues itself: a run of k records makes k - 1 chunks,
    and each chunk of c steps makes c + 1 round trips."""
    import numpy as np  # not at module level: the traced child times its own imports

    names = payload["names"]
    spans = np.array(payload["spans"], dtype=float).reshape(-1, 4)
    name_of = np.array([names[int(i)] for i in spans[:, 0]], dtype=object)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    def sel(name: str) -> np.ndarray:
        return name_of == name

    def total(name: str) -> float:
        return float(dur[sel(name)].sum())

    def mean(name: str) -> float:
        d = dur[sel(name)]
        return float(d.mean()) if len(d) else 0.0

    counts: dict[str, dict[int, int]] = {}
    for name, span_index, n in payload["counts"]:
        counts.setdefault(name, {})[span_index] = n

    evolve = np.flatnonzero(sel("grid.split_step_evolve"))
    in_evolve = np.isin(parent, evolve)
    records_by_span = np.bincount(parent[in_evolve & sel("grid.moments_from_grid")], minlength=len(dur))
    steps = sum(
        counts.get("fft.fft2", {}).get(int(e), 0) - (int(records_by_span[e]) - 1)
        for e in evolve
        if records_by_span[e] > 0
    )
    rk4_steps = sum(counts.get("moments_ode.rk4_step", {}).values())
    integrate_s = total("moments_ode.integrate_moments")
    runs = sel("experiments.run")
    return {
        "grid.evolve_s": total("grid.split_step_evolve"),
        "grid.steps": steps,
        "grid.step_us": float(self_time[evolve].sum()) / steps * 1e6 if steps else 0.0,
        "grid.fft_calls": sum(sum(counts.get("fft." + f, {}).values()) for f in FFT_FUNCTIONS),
        "grid.build_initial_grid_ms": mean("grid.build_initial_grid") * 1e3,
        "grid.records": int(records_by_span.sum()),
        "grid.record_s": float(dur[in_evolve].sum()),
        "grid.schmidt_entropy_ms": mean("grid.schmidt_entropy") * 1e3,
        "grid.moments_from_grid_ms": mean("grid.moments_from_grid") * 1e3,
        "grid.lab_means_from_grid_ms": mean("grid.lab_means_from_grid") * 1e3,
        "moments_ode.integrate_s": integrate_s,
        "moments_ode.rk4_steps": rk4_steps,
        "moments_ode.step_us": integrate_s / rk4_steps * 1e6 if rk4_steps else 0.0,
        "analytic.propagate_moments_calls": int(sel("analytic.propagate_moments").sum()),
        "analytic.propagate_moments_us": mean("analytic.propagate_moments") * 1e6,
        "analytic.displacement_calls": int(
            sel("analytic.propagate_rwa_lab_displacement").sum()
            + sel("analytic.propagate_corrected_displacement").sum()
        ),
        "report.emit_s": total("report.emit_report"),
        "report.bytes": payload["extra"].get("report.bytes", 0),
        "report.rows": payload["extra"].get("report.rows", 0),
        "experiments.run_s": float(dur[runs].sum()),
        "experiments.self_s": float(self_time[runs].sum()),
        "config.parse_ms": total("config.parse_config") * 1e3,
        "cli.import_s": payload["import_s"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
