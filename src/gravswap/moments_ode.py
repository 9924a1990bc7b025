"""Brute-force moment propagation: fixed-step classic 4th-order Runge-Kutta.

This integrator knows nothing about the closed-form solutions; it steps the
template moment equations directly and exists to validate them.  For the
mean-field model the linear coefficient is fed the mode's own current mean
each evaluation, so the self-consistency is handled by the ODE closure
itself.

The template equations are linear in the ten moments of a pair record in
every model (the mean-field C term reads the mode's own mean), so one RK4
step is a fixed 10 x 10 matrix M = I + E, E the step's increment applied to
the identity columns.  E is kept apart from the I: rounded next to the 1 on
the diagonal, each entry of M would lose the digits the power then
multiplies by the step count.  The run jumps from sample to sample by
(I + E)^n = I + E_n, with E_n squared up from E, and checks the linearity
it relies on against a direct increment from the initial record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ModelKind, mode_hamiltonians, template_moment_rhs
from .params import ConfigError, DimensionlessParams, ParameterError
from .states import check_moments

# The RK4 step, in periods 2 pi / K_plus of the exact plus mode, and the
# budget of steps per run.
RK_STEP_PERIODS = 1e-4
MAX_STEPS = 100_000_000
# The bound on the accumulated error that the step-doubling estimate at the
# start point projects over the run.
RK_TOL = 1e-8
# A matrix increment and a direct one from the same record agree to rounding
# (at most 5.2e-19 relative to the record over random records, delta 0.01 to
# 0.2); a nonlinear right-hand side misses by far more.
_LINEARITY_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Raised when an integrator cannot meet its contract."""


class ToleranceError(IntegrationError):
    pass


@dataclass
class MomentSeries:
    """Sampled trajectory of per-mode moments: records (n, 2, 5) at the
    scaled `times` (n,)."""

    times: np.ndarray
    moments: np.ndarray


def step_schedule(
    t_final: float, params: DimensionlessParams, n_samples: int, *, periods: float, budget: int, name: str
) -> tuple[float, np.ndarray]:
    """The steps of a run over [0, t_final] (scaled time): their length h and
    the step indices of the run's max(2, n_samples) records, endpoints
    included; h = 0 and the one record 0 over a span of 0.

    The run counts steps of `periods` periods 2 pi / K_plus of the exact plus
    mode, rounded up, and takes at least n_samples - 1, so each record falls
    on a boundary of its own: the one closest to its point of n_samples
    evenly spaced over the span.  A span beyond `budget` steps is refused
    before anything is allocated; a run's span follows the swap time
    pi / (2 delta), so the refusal names the coupling, and `name` the
    integrator."""
    steps = t_final / (periods * 2.0 * math.pi / params.K_plus)
    if not steps <= budget:
        raise ConfigError(
            f"params.delta: {params.delta!r} gives {steps:.3g} {name} steps of {periods:g} periods "
            f"over scaled time {t_final:.3g}, beyond the budget of {budget}"
        )
    if t_final == 0.0:
        return 0.0, np.zeros(1, dtype=int)
    n_samples = max(2, n_samples)
    steps = max(math.ceil(steps), n_samples - 1)
    # the rounded points are sorted, so a repeat can only follow its twin;
    # this skips `np.unique`, whose first call imports numpy.ma (about 12 ms)
    bounds = np.round(np.linspace(0, steps, n_samples)).astype(int)
    return t_final / steps, bounds[np.r_[True, bounds[1:] != bounds[:-1]]]


def _make_rhs(model: ModelKind, params: DimensionlessParams):
    hp, hm = mode_hamiltonians(model, params)

    def rhs(y):
        # mean-field argument is each mode's own current mean (y[0], y[5])
        return template_moment_rhs(hp, y[:5], y[0]) + template_moment_rhs(hm, y[5:], y[5])

    return rhs


def _rk4_increment(rhs, y, h):
    """The change (h/6)(k1 + 2 k2 + 2 k3 + k4) of one RK4 step from y."""
    k1 = rhs(y)
    k2 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
    k3 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
    k4 = rhs(tuple(yi + h * ki for yi, ki in zip(y, k3)))
    return tuple((h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4))


def _rk4_step(rhs, y, h):
    return tuple(yi + di for yi, di in zip(y, _rk4_increment(rhs, y, h)))


def _power_increment(e: np.ndarray, n: int) -> np.ndarray:
    """E_n with (I + E)^n = I + E_n, for n >= 1, by squaring E_k into
    2 E_k + E_k^2, so the small part never meets the 1 on the diagonal."""
    if n == 1:
        return e
    half = _power_increment(e, n // 2)
    power = 2.0 * half + half @ half
    return power + e + power @ e if n % 2 else power


def integrate_moments(
    model: ModelKind,
    init,
    t_final: float,
    params: DimensionlessParams,
    n_samples: int = 200,
) -> MomentSeries:
    """Integrate the per-mode moment equations from the record `init` (2, 5)
    over [0, t_final], in units of 1/omega, in steps of at most
    RK_STEP_PERIODS periods.

    Samples are taken at the step boundaries of `step_schedule`, at least
    one step apart; each is the last one plus E_n times it, E_n the
    increment of the n steps between them (see the module docstring).
    Raises ToleranceError if a step-doubling estimate of the accumulated
    error exceeds RK_TOL (an absolute bound, so it refuses means that are
    too large), ConfigError if the span needs more than MAX_STEPS steps, and
    IntegrationError if the equations turn out not to be linear.
    """
    if t_final < 0:
        raise ParameterError("t_final must be non-negative")
    rhs = _make_rhs(model, params)
    y0 = check_moments(init).reshape(10)
    y = tuple(y0.tolist())
    h, sample_idx = step_schedule(t_final, params, n_samples, periods=RK_STEP_PERIODS, budget=MAX_STEPS, name="RK4")
    steps = int(sample_idx[-1])

    # One-off accumulated-error estimate by step doubling at the start point.
    coarse = _rk4_step(rhs, y, h)
    fine = _rk4_step(rhs, _rk4_step(rhs, y, 0.5 * h), 0.5 * h)
    local_err = max(abs(c - f) for c, f in zip(coarse, fine)) / 15.0
    if local_err * steps > RK_TOL:
        raise ToleranceError(
            f"state.alpha, state.beta: means of size {np.max(np.abs(y0)):.3g} at params.delta = "
            f"{params.delta!r} give an estimated accumulated error {local_err * steps:.3e} of {steps} RK4 "
            f"steps, beyond the tolerance {RK_TOL:.3e}"
        )

    increment = np.array([_rk4_increment(rhs, tuple(col), h) for col in np.eye(10).tolist()]).T
    mismatch = np.max(np.abs(increment @ y0 - _rk4_increment(rhs, y, h)))
    if not mismatch <= _LINEARITY_TOL * max(1.0, np.max(np.abs(y0))):
        raise IntegrationError(
            f"moment equations of {model.value} are not linear: the matrix increment misses a direct "
            f"RK4 increment by {mismatch:.3e}"
        )

    jumps: dict[int, np.ndarray] = {}
    records = [y0]
    for gap in np.diff(sample_idx).tolist():
        if gap not in jumps:
            jumps[gap] = _power_increment(increment, gap)
        records.append(records[-1] + jumps[gap] @ records[-1])
    return MomentSeries(
        times=sample_idx * h,
        moments=check_moments(np.array(records).reshape((-1, 2, 5))),
    )
