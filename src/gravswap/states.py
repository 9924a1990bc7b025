"""Coherent-state amplitudes, Gaussian moment records, and frame transforms.

Oscillator units throughout: positions in sqrt(hbar/(m omega)), momenta in
sqrt(hbar m omega).  The ground state then has variance 1/2 in both
quadratures and a coherent state with complex amplitude g sits at

    <x> = sqrt(2) Re g,    <p> = sqrt(2) Im g.

Complex amplitudes are plain Python/numpy complex numbers.  The lab pair
(alpha, beta) and the normal-mode pair (a, b) are related by the unitary
45-degree rotation a = (alpha + beta)/sqrt(2), b = (alpha - beta)/sqrt(2);
all three interaction models decouple in the normal modes, so moments are
stored per normal mode and lab-frame views are computed on demand.

A Gaussian moment record is a plain float64 array of shape (..., 2, 5): the
mode axis is (plus, minus) and the field axis is (mean_x, mean_p, v_xx,
v_pp, v_xp), the covariance entry V_xp symmetrized.  The two modes are
assumed uncorrelated, which every propagator here preserves because all
three Hamiltonians separate in (+, -).  A series of records carries a
leading time axis, (n, 2, 5); `check_moments` validates any number of
records at once, at the boundaries of the propagators.

The Schmidt entropy has one reduction, `schmidt_spectrum`, which the grid
feeds its squared singular values and `cat_pair_entropy` the two Schmidt
weights of a two-branch cat, written in closed form.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
GROUND_VARIANCE = 0.5
# Slack on the uncertainty check; covers float noise from symplectic maps and
# the discretization error of grid-derived moments.
_UNCERTAINTY_SLACK = 1e-7

# The field axis of a moment record (..., 2, 5); see the module docstring.
MOMENT_FIELDS = ("mean_x", "mean_p", "v_xx", "v_pp", "v_xp")
V_XX, V_PP, V_XP = 2, 3, 4


class MomentError(ValueError):
    """Raised for unphysical Gaussian moment records."""


def uncertainty_product(m) -> np.ndarray:
    """V_xx V_pp - V_xp^2 of each mode of a record (..., 5) or (..., 2, 5)."""
    m = np.asarray(m)
    return m[..., V_XX] * m[..., V_PP] - m[..., V_XP] ** 2


def check_moments(m) -> np.ndarray:
    """Validate moment records of shape (..., 2, 5) and return them as a
    float64 array.  Every record must be finite, with positive variances and
    an uncertainty product of at least 1/4."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (2, 5):
        raise MomentError(f"moment records must have shape (..., 2, 5), got {m.shape}")
    finite = np.isfinite(m)
    if not finite.all():
        field = MOMENT_FIELDS[np.argwhere(~finite)[0][-1]]
        raise MomentError(f"moments.{field}: must be finite")
    for i in (V_XX, V_PP):
        v = m[..., i]
        if not (v > 0).all():
            raise MomentError(f"moments.{MOMENT_FIELDS[i]}: variances must be positive, got {v.min()!r}")
    product = uncertainty_product(m)
    if not (product >= 0.25 * (1.0 - _UNCERTAINTY_SLACK)).all():
        raise MomentError(
            f"uncertainty violated: v_xx*v_pp - v_xp^2 = {product.min()!r} < 1/4"
        )
    return m


def lab_means(m) -> np.ndarray:
    """Lab-frame means (..., 4) = (x1, p1, x2, p2) of records (..., 2, 5)."""
    m = np.asarray(m)
    plus, minus = m[..., 0, :2], m[..., 1, :2]
    return np.concatenate(((plus + minus) / SQRT2, (plus - minus) / SQRT2), axis=-1)


def to_normal_modes(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """Lab amplitudes -> normal-mode amplitudes (a, b)."""
    return ((alpha + beta) / SQRT2, (alpha - beta) / SQRT2)


def from_normal_modes(a: complex, b: complex) -> tuple[complex, complex]:
    """Normal-mode amplitudes -> lab amplitudes; exact inverse of
    to_normal_modes."""
    return ((a + b) / SQRT2, (a - b) / SQRT2)


def moments_of_coherent(g: complex) -> np.ndarray:
    """Minimum-uncertainty moment record (5,) of the coherent state g."""
    return np.array([SQRT2 * g.real, SQRT2 * g.imag, GROUND_VARIANCE, GROUND_VARIANCE, 0.0])


def coherent_pair_moments(a: complex, b: complex) -> np.ndarray:
    """Moments (2, 5) of the normal-mode coherent product |a>_+ |b>_-."""
    return np.array([moments_of_coherent(a), moments_of_coherent(b)])


def coherent_overlap(g, m):
    """Fidelity |<g|m>|^2 = exp(-|g - m|^2), elementwise over arrays."""
    return np.exp(-np.abs(np.subtract(g, m)) ** 2)


def two_mode_overlap(pair_a, pair_b):
    """Fidelity of two two-mode coherent products, elementwise over arrays."""
    return coherent_overlap(pair_a[0], pair_b[0]) * coherent_overlap(pair_a[1], pair_b[1])


def schmidt_spectrum(weights: np.ndarray) -> tuple[float, np.ndarray]:
    """The Schmidt reduction of unnormalized Schmidt weights (squared
    singular values): (entropy in nats, normalized Schmidt probabilities).
    Probabilities at or below 1e-18 are left out of the entropy; 0 - sum
    makes a product state's entropy +0, where -sum would print it as -0."""
    probs = weights / weights.sum()
    nz = probs[probs > 1e-18]
    return float(0.0 - np.sum(nz * np.log(nz))), probs


def cat_pair_entropy(u_sq, v_sq) -> np.ndarray:
    """Schmidt entropy (nats) of the two-branch state (|u>|v> + |-u>|-v>)/N,
    elementwise over |u|^2 and |v|^2.

    With the real overlaps x = <u|-u> = e^{-2|u|^2} and y = <v|-v> =
    e^{-2|v|^2}, the even and odd parts of each mode are orthogonal, of
    squared norms (1 +- x)/2 and (1 +- y)/2, and the two Schmidt
    probabilities are (1 + x)(1 + y) and (1 - x)(1 - y), each over
    2 (1 + x y).  1 - x and 1 - y are taken by expm1, so a small |u| or |v|
    keeps its digits."""
    x, y = np.exp(-2.0 * u_sq), np.exp(-2.0 * v_sq)
    weights = np.stack(((1.0 + x) * (1.0 + y), np.expm1(-2.0 * u_sq) * np.expm1(-2.0 * v_sq)), axis=-1)
    return np.array([schmidt_spectrum(w)[0] for w in weights.reshape(-1, 2)]).reshape(weights.shape[:-1])
