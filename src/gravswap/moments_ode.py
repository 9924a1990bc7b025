"""Brute-force moment propagation: fixed-step classic 4th-order Runge-Kutta.

This integrator knows nothing about the closed-form solutions; it steps the
template moment equations directly and exists to validate them.  For the
mean-field model the linear coefficient is fed the mode's own current mean
each evaluation, so the self-consistency is handled by the ODE closure
itself.

The template equations are linear in the ten moments of a pair record in
every model (the mean-field C term reads the mode's own mean), so one RK4
step is a fixed 10 x 10 matrix: the step applied to the identity columns.
The run jumps from sample to sample by powers of that matrix, and checks the
linearity it relies on against a direct step from the initial record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ModelKind, mode_hamiltonians, template_moment_rhs
from .params import ConfigError, DimensionlessParams, ParameterError
from .states import check_moments

MAX_STEPS = 100_000_000
# A matrix step and a direct step from the same record agree to rounding (at
# most 2.3e-16 relative over random records, delta 0.01 to 0.2); a nonlinear
# right-hand side misses by far more.
_LINEARITY_TOL = 1e-12
# Grid steps per run: a fourth-order step is two kinetic FFT round trips on
# numpy.fft, about 0.56 ms on a 96^2 grid, 0.70 ms on 108^2, 1.05 ms on 128^2
# and 4.6 ms on 256^2 on a 2-vCPU machine, so the budget is 1.5 to 13 hours.
MAX_GRID_STEPS = 10_000_000


class IntegrationError(RuntimeError):
    """Raised when an integrator cannot meet its contract."""


class StepUnderflowError(IntegrationError):
    pass


class ToleranceError(IntegrationError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Step sizes of the two numerical oracles and the RK4 error tolerance.

    Both step factors are in units of one exact-plus-mode period 2 pi /
    Omega_plus.  The grid factor is the length of one fourth-order step (two
    kinetic FFT round trips) and is capped at 8e-2 of a period: the measured
    order of the grid error is still 4.0 to 4.2 between 8e-2 and 4e-2, at
    couplings 0.1 and 0.2, so up to the cap the error is in the asymptotic
    regime (from 1.6e-1 down to 8e-2 it strays to 3.4 to 4.5).  The
    default 1.55e-2 leaves a grid mean error of 6.6e-8 over a full swap of
    (2, -1) at coupling 0.1.
    """

    dt_factor: float = 1.55e-2
    rk_step_factor: float = 1e-4
    rk_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.dt_factor <= 8e-2):
            raise ParameterError(f"numerics.dt_factor: must be in (0, 8e-2] periods, got {self.dt_factor!r}")
        if not (0.0 < self.rk_step_factor):
            raise ParameterError("numerics.rk_step_factor: must be positive")
        if not (self.rk_tol > 0):
            raise ParameterError("numerics.rk_tol: must be positive")

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
    """Sampled trajectory of per-mode moments: records (n, 2, 5) at the
    physical `times` (n,)."""

    times: np.ndarray
    moments: np.ndarray


def record_bounds(steps: int, n_samples: int) -> np.ndarray:
    """The step indices of the records of a run of `steps` steps: the integer
    boundaries closest to `n_samples` evenly spaced points, endpoints
    included, each once.  The rounded points are sorted, so a repeat can only
    follow its twin; this skips `np.unique`, whose first call imports
    numpy.ma (about 12 ms)."""
    b = np.round(np.linspace(0, steps, n_samples)).astype(int)
    return b[np.r_[True, b[1:] != b[:-1]]]


def _make_rhs(model: ModelKind, params: DimensionlessParams):
    hp, hm = mode_hamiltonians(model, params)

    def rhs(y):
        # mean-field argument is each mode's own current mean (y[0], y[5])
        return template_moment_rhs(hp, y[:5], y[0]) + template_moment_rhs(hm, y[5:], y[5])

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


def integrate_moments(
    model: ModelKind,
    init,
    t_final: float,
    params: DimensionlessParams,
    cfg: IntegratorConfig | None = None,
    n_samples: int = 200,
) -> MomentSeries:
    """Integrate the per-mode moment equations from the record `init` (2, 5)
    over [0, t_final].

    Samples are taken at integer step boundaries closest to a uniform grid of
    `n_samples` points (endpoints always included).  Raises ToleranceError if
    a step-doubling estimate of the accumulated error exceeds cfg.rk_tol,
    StepUnderflowError if the requested span needs an absurd step count, and
    IntegrationError if the equations turn out not to be linear.
    """
    cfg = cfg or IntegratorConfig()
    if t_final < 0:
        raise ParameterError("t_final must be non-negative")
    rhs = _make_rhs(model, params)
    y0 = check_moments(init).reshape(10)
    y = tuple(y0.tolist())
    tau_final = t_final * params.omega
    if tau_final == 0.0:
        return MomentSeries(times=np.array([0.0]), moments=y0.reshape((1, 2, 5)).copy())

    h_target = cfg.rk_step(params)
    steps = max(1, math.ceil(tau_final / h_target))
    if steps > MAX_STEPS:
        raise StepUnderflowError(
            f"numerics.rk_step_factor: step size {h_target!r} implies {steps} steps over span "
            f"{tau_final!r}, beyond the budget of {MAX_STEPS}"
        )
    h = tau_final / steps
    if tau_final + h == tau_final:
        raise StepUnderflowError("numerics.rk_step_factor: step size underflows the time span")

    # One-off accumulated-error estimate by step doubling at the start point.
    coarse = _rk4_step(rhs, y, h)
    fine = _rk4_step(rhs, _rk4_step(rhs, y, 0.5 * h), 0.5 * h)
    local_err = max(abs(c - f) for c, f in zip(coarse, fine)) / 15.0
    if local_err * steps > cfg.rk_tol:
        raise ToleranceError(
            f"estimated accumulated error {local_err * steps:.3e} exceeds rk_tol {cfg.rk_tol:.3e}; "
            "reduce numerics.rk_step_factor"
        )

    step = np.array([_rk4_step(rhs, tuple(col), h) for col in np.eye(10).tolist()]).T
    mismatch = np.max(np.abs(step @ y0 - coarse))
    if not mismatch <= _LINEARITY_TOL * max(1.0, np.max(np.abs(y0))):
        raise IntegrationError(
            f"moment equations of {model.value} are not linear: the matrix step misses a direct "
            f"RK4 step by {mismatch:.3e}"
        )

    n_samples = max(2, n_samples)
    sample_idx = record_bounds(steps, n_samples)
    jumps: dict[int, np.ndarray] = {}
    records = [y0]
    for gap in np.diff(sample_idx).tolist():
        if gap not in jumps:
            jumps[gap] = np.linalg.matrix_power(step, gap)
        records.append(jumps[gap] @ records[-1])
    return MomentSeries(
        times=sample_idx * h / params.omega,
        moments=check_moments(np.array(records).reshape((-1, 2, 5))),
    )
