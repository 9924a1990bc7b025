"""Closed-form propagators for the three interaction models.

Models (all quadratic, all separable in the normal modes x_pm):

    QG_FULL   exact expanded pair potential: per-mode frequency K_pm =
              sqrt(1 +/- 2 delta); the momentum term keeps the bare mass,
              so widths breathe at 2 K_pm.
    QG_RWA    number-conserving truncation: both quadratures scale with
              k_pm = 1 +/- delta, giving per-mode frequency k_pm and
              exactly constant widths (coherent states stay coherent).
    SCEG      mean-field (Schroedinger-Newton) coupling: first moments obey
              the same equations as QG_FULL, but the mean-field term is
              linear in x so the widths evolve under the bare oscillator
              and stay constant for coherent inputs.

Frequencies are in units of omega and every time argument is the scaled
time tau = omega t.  Every per-mode Hamiltonian fits the template
H = A p^2 + B x^2 + C <x> x (dimensionless, hbar = m = omega = 1), whose
moment equations

    d<x>/dt = 2A<p>          dV_xx/dt = 4A V_xp
    d<p>/dt = -2B<x> - C<x>_mf   dV_pp/dt = -4B V_xp
                             dV_xp/dt = 2A V_pp - 2B V_xx

are independent of the linear coefficient C; that independence is why the
mean-field model cannot touch second moments.  `mode_hamiltonians` is the
one table of each model's (A, B, C), read by the RK4 oracle and the closed
forms alike.  The closed forms are the symplectic rotation generated by
those equations (`template_generator`): with a = 2A, b = 2B and m = 2B + C,
the means rotate at sqrt(a m) with impedance sqrt(m / a) and the covariance
at sqrt(a b) with impedance sqrt(b / a) (`mode_rotation`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import DimensionlessParams, ModelKind, ParameterError
from .states import SQRT2, check_moments, coherent_pair_moments, from_normal_modes


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """One normal mode's template Hamiltonian H = A p^2 + B x^2 + C <x> x."""

    A: float
    B: float
    C: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.A) and self.A > 0):
            raise ParameterError(f"hamiltonian.A: must be positive, got {self.A!r}")
        if not (math.isfinite(self.B) and self.B >= 0):
            raise ParameterError(f"hamiltonian.B: must be non-negative, got {self.B!r}")
        if not math.isfinite(self.C):
            raise ParameterError("hamiltonian.C: must be finite")


def mode_hamiltonians(
    model: ModelKind, params: DimensionlessParams
) -> tuple[QuadraticHamiltonian, QuadraticHamiltonian]:
    """(plus, minus) template coefficients, dimensionless (time in 1/omega)."""
    d = params.delta
    if model is ModelKind.QG_RWA:
        return (
            QuadraticHamiltonian(A=0.5 * params.k_plus, B=0.5 * params.k_plus),
            QuadraticHamiltonian(A=0.5 * params.k_minus, B=0.5 * params.k_minus),
        )
    if model is ModelKind.QG_FULL:
        return (
            QuadraticHamiltonian(A=0.5, B=0.5 * params.K_plus**2),
            QuadraticHamiltonian(A=0.5, B=0.5 * params.K_minus**2),
        )
    if model is ModelKind.SCEG:
        return (
            QuadraticHamiltonian(A=0.5, B=0.5, C=2.0 * d),
            QuadraticHamiltonian(A=0.5, B=0.5, C=-2.0 * d),
        )
    raise ParameterError(f"unknown model {model!r}")


def template_generator(h: QuadraticHamiltonian) -> np.ndarray:
    """The template moment equations as the matrix G of d/dt m = G m, m one
    mode's record (mean_x, mean_p, v_xx, v_pp, v_xp), with <x>_mf of the C
    term the mode's own mean (the self-consistent mean field)."""
    a, b = 2.0 * h.A, 2.0 * h.B
    return np.array([
        [0.0, a, 0.0, 0.0, 0.0],
        [-b - h.C, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 2.0 * a],
        [0.0, 0.0, 0.0, 0.0, -2.0 * b],
        [0.0, 0.0, -b, a, 0.0],
    ])


def propagate_rwa_lab_displacement(alpha, beta, t, params: DimensionlessParams) -> tuple:
    """Lab amplitudes at scaled times `t` under the number-conserving
    model: a carrier rotation at the trap frequency times a beat at delta that
    feeds each oscillator's amplitude into the other.  Identical to the lab means of the
    QG_RWA normal modes of `propagate_moments`, each a pure phase rotation at
    k_pm, but keeps the fast and slow phases separate so the beat survives
    float rounding even at extreme fast-phase values.  Amplitudes and times
    broadcast against each other as arrays."""
    tau = np.asarray(t, dtype=np.float64)
    theta_g = params.delta * tau
    carrier = np.exp(-1j * tau)
    cg = np.cos(theta_g)
    sg = np.sin(theta_g)
    return (
        carrier * (alpha * cg - 1j * beta * sg),
        carrier * (beta * cg - 1j * alpha * sg),
    )


def mode_rotation(h: QuadraticHamiltonian) -> tuple[float, float, float, float]:
    """(mean frequency, mean impedance, covariance frequency, covariance
    impedance) of the rotation the template generates."""
    a, b = 2.0 * h.A, 2.0 * h.B
    m = b + h.C
    return math.sqrt(a * m), math.sqrt(m / a), math.sqrt(a * b), math.sqrt(b / a)


def _evolve_mode(m: np.ndarray, h: QuadraticHamiltonian, tau: np.ndarray) -> np.ndarray:
    """Apply the symplectic rotation (x, p) -> (x cos + p sin/z, p cos - x z sin)
    of `mode_rotation(h)` to the means of one mode's record (5,) and the same
    map to its covariance; one output record (n, 5) per time of `tau`."""
    mean_x, mean_p, v_xx, v_pp, v_xp = m
    w, z, w2, z2 = mode_rotation(h)
    c = np.cos(w * tau)
    s = np.sin(w * tau)
    c2 = np.cos(w2 * tau)
    s2 = np.sin(w2 * tau)
    return np.stack(
        (
            mean_x * c + mean_p * (s / z),
            mean_p * c - mean_x * z * s,
            v_xx * c2 * c2 + v_pp * (s2 / z2) ** 2 + 2.0 * v_xp * c2 * s2 / z2,
            v_pp * c2 * c2 + v_xx * (z2 * s2) ** 2 - 2.0 * v_xp * c2 * s2 * z2,
            v_xp * (c2 * c2 - s2 * s2) + (v_pp / z2 - v_xx * z2) * c2 * s2,
        ),
        axis=-1,
    )


def propagate_moments(model: ModelKind, init, times, params: DimensionlessParams) -> np.ndarray:
    """Closed-form moment records (n, 2, 5) at each of the n scaled `times`,
    from the record `init` (2, 5): each mode rotates under its
    `mode_hamiltonians` template, the means at sqrt(a m) with impedance
    sqrt(m / a) and the covariance at sqrt(a b) with impedance sqrt(b / a)
    (a = 2A, b = 2B, m = 2B + C).

    So QG_RWA rotates means and covariance at k_pm with the bare
    impedance.  QG_FULL rotates both at K_pm with impedance K_pm, which
    makes initially coherent widths breathe between 1/2 and 1/(2 K_pm^2).
    SCEG shares QG_FULL's mean map but rotates the covariance at the bare
    frequency, leaving coherent widths constant."""
    init = check_moments(init)
    if init.shape != (2, 5):
        raise ParameterError(f"init: need one pair record of shape (2, 5), got {init.shape}")
    tau = np.atleast_1d(np.asarray(times, dtype=np.float64))
    plus, minus = (_evolve_mode(m, h, tau) for m, h in zip(init, mode_hamiltonians(model, params)))
    records = check_moments(np.stack((plus, minus), axis=-2))
    # a zero that rounding signed -0 (a coherent state's V_xp) becomes +0,
    # in place, so a report prints no -0
    records += 0.0
    return records


def propagate_corrected_displacement(a: complex, b: complex, t, params: DimensionlessParams) -> tuple:
    """The exact (QG_FULL) displacement of the coherent normal-mode pair
    (a, b) at the scaled time(s) `t`, as (records, corr_1, corr_2).
    `records` are the QG_FULL moment records of `propagate_moments`, which
    hold the exact amplitudes and the breathing widths.  corr_1 and corr_2,
    of the shape of `t`, are the counter-rotating parts of the two lab
    amplitudes: the exact amplitudes minus the rotating-wave evolution
    a e^{-i K_+ t}, b e^{-i K_- t} at the exact mode frequencies, taken to
    the lab frame.  They vanish at t = 0 and at zero coupling."""
    tau = np.atleast_1d(np.asarray(t, dtype=np.float64))
    records = propagate_moments(ModelKind.QG_FULL, coherent_pair_moments(a, b), tau, params)
    modes = (records[..., 0] + 1j * records[..., 1]) / SQRT2  # exact (a_t, b_t) on the last axis
    for i, (amp, h) in enumerate(zip((a, b), mode_hamiltonians(ModelKind.QG_FULL, params))):
        modes[..., i] -= amp * np.exp(-1j * mode_rotation(h)[0] * tau)
    corr_1, corr_2 = from_normal_modes(modes[..., 0], modes[..., 1])
    return records, corr_1, corr_2


def phase_corrected_pair(pair: tuple[complex, complex], t: float) -> tuple[complex, complex]:
    """The pair times the phase i e^{i t} that undoes the carrier rotation and
    the beat's quarter-cycle phase; at the swap time t it maps the evolved
    pair exactly onto the swapped input pair."""
    f = 1j * cmath.exp(1j * t)
    return (f * pair[0], f * pair[1])
