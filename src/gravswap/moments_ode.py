"""Brute-force moment propagation: fixed-step classic 4th-order Runge-Kutta.

This integrator knows nothing about the closed-form solutions; it steps the
template moment equations directly and exists to validate them.

The template equations are linear in the ten moments of a pair record in
every model (the mean-field C term reads the mode's own mean): d/dt y = G y,
G one block of `analytic.template_generator` per mode.  One RK4 step is the
10 x 10 matrix M = I + E, E kept apart from the I: rounded next to the 1 on
the diagonal, each entry of M would lose the digits the power then
multiplies by the step count.  The run jumps from sample to sample by
(I + E)^n = I + E_n, with E_n squared up from E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ModelKind, mode_hamiltonians, template_generator
from .params import ConfigError, DimensionlessParams, ParameterError
from .states import check_moments

# The RK4 step, in periods 2 pi / K_plus of the exact plus mode, and the
# budget of steps per run.
RK_STEP_PERIODS = 1e-4
MAX_STEPS = 100_000_000
# The bound on the accumulated error that the step-doubling estimate at the
# start point projects over the run.
RK_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Raised when an integrator cannot meet its contract."""


class ToleranceError(IntegrationError):
    pass


@dataclass
class MomentSeries:
    """Sampled trajectory of per-mode moments: records (n, 2, 5) at the
    scaled `times` (n,), and the gate's estimate of the error accumulated
    over the run's `steps` RK4 steps."""

    times: np.ndarray
    moments: np.ndarray
    error_estimate: float
    steps: int


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


def _generator(model: ModelKind, params: DimensionlessParams) -> np.ndarray:
    """G of d/dt y = G y for a pair record y (10,): one template block per mode."""
    g = np.zeros((10, 10))
    for i, h in enumerate(mode_hamiltonians(model, params)):
        g[5 * i : 5 * i + 5, 5 * i : 5 * i + 5] = template_generator(h)
    return g


def _rk4_step(g: np.ndarray, h: float) -> np.ndarray:
    """E = M - I of one RK4 step of length h, on all the identity columns at
    once: k1 = G, k_i = G + c h G k_(i-1), E = (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    k2 = g + 0.5 * h * (g @ g)
    k3 = g + 0.5 * h * (g @ k2)
    k4 = g + h * (g @ k3)
    return (h / 6.0) * (g + 2.0 * k2 + 2.0 * k3 + k4)


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
    Step doubling at the start point estimates the accumulated error: one
    step of h misses by 16/15 of its distance from two steps of h/2, and the
    run takes `steps` of them.  Raises ToleranceError if the estimate
    exceeds RK_TOL (an absolute bound, so it refuses means that are too
    large), and ConfigError if the span needs more than MAX_STEPS steps.
    """
    if t_final < 0:
        raise ParameterError("t_final must be non-negative")
    g = _generator(model, params)
    y0 = check_moments(init).reshape(10)
    h, sample_idx = step_schedule(t_final, params, n_samples, periods=RK_STEP_PERIODS, budget=MAX_STEPS, name="RK4")
    steps = int(sample_idx[-1])

    increment = _rk4_step(g, h)
    half = _rk4_step(g, 0.5 * h)
    error = 16.0 / 15.0 * float(np.max(np.abs((increment - 2.0 * half - half @ half) @ y0))) * steps
    if error > RK_TOL:
        raise ToleranceError(
            f"state.alpha, state.beta: means of size {np.max(np.abs(y0)):.3g} at params.delta = "
            f"{params.delta!r} give an estimated accumulated error {error:.3e} of {steps} RK4 "
            f"steps, beyond the tolerance {RK_TOL:.3e}"
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
        error_estimate=error,
        steps=steps,
    )
