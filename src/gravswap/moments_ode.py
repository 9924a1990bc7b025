"""Brute-force moment propagation: fixed-step classic 4th-order Runge-Kutta.

This integrator knows nothing about the closed-form solutions; it steps the
template moment equations directly and exists to validate them.  For the
mean-field model the linear coefficient is fed the mode's own current mean
each evaluation, so the self-consistency is handled by the ODE closure
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ModelKind, _rhs_tuple, mode_hamiltonians
from .params import ConfigError, DimensionlessParams, ParameterError
from .states import ModeMoments, PairMoments

MAX_STEPS = 100_000_000
# Composite grid steps per run: a fourth-order step on the default 256^2 grid
# takes about 8 ms on a 2-vCPU machine, so the budget is about a day.
MAX_GRID_STEPS = 10_000_000


class IntegrationError(RuntimeError):
    """Raised when an integrator cannot meet its contract."""


class StepUnderflowError(IntegrationError):
    pass


class ToleranceError(IntegrationError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size and safety knobs shared by the two numerical oracles.

    Both step factors are in units of one exact-plus-mode period 2 pi /
    Omega_plus.  The grid factor is the length of one fourth-order composite
    step and is capped at 1e-2 of a period: the measured order of the grid
    error is 4.00 between 1e-2 and 5e-3, so up to the cap the error is still
    in the asymptotic regime.  The default 5e-3 leaves a grid mean error of
    about 1e-6 over a full swap.
    """

    dt_factor: float = 5e-3
    rk_step_factor: float = 1e-4
    rk_tol: float = 1e-8
    norm_drift_limit: float = 1e-8  # per unit scaled time
    leakage_limit: float = 1e-12
    workers: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt_factor <= 1e-2):
            raise ParameterError(
                f"numerics.dt_factor: must be in (0, 1e-2] periods, got {self.dt_factor!r}"
            )
        if not (0.0 < self.rk_step_factor):
            raise ParameterError("numerics.rk_step_factor: must be positive")
        for name in ("rk_tol", "norm_drift_limit", "leakage_limit"):
            if not (getattr(self, name) > 0):
                raise ParameterError(f"numerics.{name}: must be positive")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ParameterError(f"numerics.workers: must be a positive integer, got {self.workers!r}")

    def grid_step(self, params: DimensionlessParams) -> float:
        """Split-operator step in scaled time (omega t)."""
        return self.dt_factor * 2.0 * math.pi / params.K_plus

    def grid_steps(self, tau_final: float, params: DimensionlessParams) -> int:
        """Composite split-operator steps over `tau_final` (scaled time).

        Refuses a span beyond MAX_GRID_STEPS steps, so an unrunnable grid run
        fails before any array is allocated."""
        steps = tau_final / self.grid_step(params)
        if not steps <= MAX_GRID_STEPS:
            raise ConfigError(
                f"numerics.dt_factor: {self.dt_factor!r} periods gives {steps:.3g} grid steps "
                f"over scaled time {tau_final:.3g}, beyond the budget of {MAX_GRID_STEPS}"
            )
        return max(1, math.ceil(steps))

    def rk_step(self, params: DimensionlessParams) -> float:
        """Runge-Kutta step in scaled time (omega t)."""
        return self.rk_step_factor * 2.0 * math.pi / params.K_plus


@dataclass
class MomentSeries:
    """Sampled trajectory of per-mode moments; times are physical."""

    times: np.ndarray
    records: list[PairMoments]

    def mean_table(self) -> np.ndarray:
        """(n, 4) array of (mean_x+, mean_p+, mean_x-, mean_p-)."""
        return np.array(
            [(r.plus.mean_x, r.plus.mean_p, r.minus.mean_x, r.minus.mean_p) for r in self.records]
        )

    def width_table(self) -> np.ndarray:
        """(n, 2) array of (v_xx+, v_xx-)."""
        return np.array([(r.plus.v_xx, r.minus.v_xx) for r in self.records])


def _make_rhs(model: ModelKind, params: DimensionlessParams):
    hp, hm = mode_hamiltonians(model, params)
    ap, bp, cp = hp.A, hp.B, hp.C
    am, bm, cm = hm.A, hm.B, hm.C

    def rhs(y):
        # mean-field argument is each mode's own current mean (y[0], y[5])
        rp = _rhs_tuple(ap, bp, cp, y[0], y[1], y[2], y[3], y[4], y[0])
        rm = _rhs_tuple(am, bm, cm, y[5], y[6], y[7], y[8], y[9], y[5])
        return rp + rm

    return rhs


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
    k3 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
    k4 = rhs(tuple(yi + h * ki for yi, ki in zip(y, k3)))
    return tuple(
        yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def _pack(init: PairMoments):
    p, m = init.plus, init.minus
    return (p.mean_x, p.mean_p, p.v_xx, p.v_pp, p.v_xp, m.mean_x, m.mean_p, m.v_xx, m.v_pp, m.v_xp)


def _unpack(y) -> PairMoments:
    return PairMoments(plus=ModeMoments(*y[:5]), minus=ModeMoments(*y[5:]))


def integrate_moments(
    model: ModelKind,
    init: PairMoments,
    t_final: float,
    params: DimensionlessParams,
    cfg: IntegratorConfig | None = None,
    n_samples: int = 200,
) -> MomentSeries:
    """Integrate the per-mode moment equations over [0, t_final].

    Samples are taken at integer step boundaries closest to a uniform grid of
    `n_samples` points (endpoints always included).  Raises ToleranceError if
    a step-doubling estimate of the accumulated error exceeds cfg.rk_tol, and
    StepUnderflowError if the requested span needs an absurd step count.
    """
    cfg = cfg or IntegratorConfig()
    if t_final < 0:
        raise ParameterError("t_final must be non-negative")
    rhs = _make_rhs(model, params)
    y = _pack(init)
    tau_final = t_final * params.omega
    if tau_final == 0.0:
        return MomentSeries(times=np.array([0.0]), records=[_unpack(y)])

    h_target = cfg.rk_step(params)
    steps = max(1, math.ceil(tau_final / h_target))
    if steps > MAX_STEPS:
        raise StepUnderflowError(
            f"step size {h_target!r} implies {steps} steps over span {tau_final!r}"
        )
    h = tau_final / steps
    if tau_final + h == tau_final:
        raise StepUnderflowError("step size underflows the time span")

    # One-off accumulated-error estimate by step doubling at the start point.
    coarse = _rk4_step(rhs, y, h)
    fine = _rk4_step(rhs, _rk4_step(rhs, y, 0.5 * h), 0.5 * h)
    local_err = max(abs(c - f) for c, f in zip(coarse, fine)) / 15.0
    if local_err * steps > cfg.rk_tol:
        raise ToleranceError(
            f"estimated accumulated error {local_err * steps:.3e} exceeds rk_tol {cfg.rk_tol:.3e}; "
            "reduce numerics.rk_step_factor"
        )

    n_samples = max(2, n_samples)
    sample_idx = np.unique(np.round(np.linspace(0, steps, n_samples)).astype(int))
    take = set(int(i) for i in sample_idx)

    times = [0.0]
    records = [_unpack(y)]
    for i in range(1, steps + 1):
        y = _rk4_step(rhs, y, h)
        if i in take:
            times.append(i * h / params.omega)
            records.append(_unpack(y))
    return MomentSeries(times=np.array(times), records=records)
