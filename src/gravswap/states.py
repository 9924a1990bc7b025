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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DisplacementEstimate:
    """Coherent amplitude read off a moment record.  `width_deviation` is the
    largest relative deviation of the second moments from the coherent values;
    it is reported, never used to reject the record, because a drifting width
    is itself a physics signal (coherence loss)."""

    amplitude: complex
    width_deviation: float


def displacement_from_moments(m) -> DisplacementEstimate:
    """Invert moments_of_coherent on the first moments of one mode's record
    (5,); measure how far its widths are from coherent."""
    mean_x, mean_p, v_xx, v_pp, v_xp = (float(v) for v in m)
    amplitude = complex(mean_x / SQRT2, mean_p / SQRT2)
    deviation = max(
        abs(v_xx / GROUND_VARIANCE - 1.0),
        abs(v_pp / GROUND_VARIANCE - 1.0),
        abs(v_xp) / GROUND_VARIANCE,
    )
    return DisplacementEstimate(amplitude=amplitude, width_deviation=deviation)


def coherent_inner(g: complex, m: complex) -> complex:
    """Complex overlap <g|m> = exp(-(|g|^2 + |m|^2)/2 + conj(g) m)."""
    g = complex(g)
    m = complex(m)
    return cmath.exp(-0.5 * (abs(g) ** 2 + abs(m) ** 2) + g.conjugate() * m)


def coherent_overlap(g, m):
    """Fidelity |<g|m>|^2 = exp(-|g - m|^2), elementwise over arrays."""
    return np.exp(-np.abs(np.subtract(g, m)) ** 2)


def two_mode_overlap(pair_a, pair_b):
    """Fidelity of two two-mode coherent products, elementwise over arrays."""
    return coherent_overlap(pair_a[0], pair_b[0]) * coherent_overlap(pair_a[1], pair_b[1])


def branch_schmidt_entropy(
    coeffs: np.ndarray | list[complex],
    amps_mode1: np.ndarray | list[complex],
    amps_mode2: np.ndarray | list[complex],
) -> tuple[float, np.ndarray]:
    """Exact Schmidt entropy of sum_i c_i |u_i>|v_i> with coherent branches.

    The branch vectors are non-orthogonal; each mode's branch set is expressed
    in an orthonormal basis through the Cholesky factor of its Gram matrix of
    coherent overlaps, after which an SVD of the resulting small matrix gives
    the Schmidt coefficients without any grid.  Returns (entropy in nats,
    normalized Schmidt probabilities).
    """
    c = np.asarray(coeffs, dtype=complex)
    u = np.asarray(amps_mode1, dtype=complex)
    v = np.asarray(amps_mode2, dtype=complex)
    if not (len(c) == len(u) == len(v)):
        raise ValueError("coeffs and branch amplitude lists must have equal length")

    def coords(amps: np.ndarray) -> np.ndarray:
        n = len(amps)
        gram = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                gram[i, j] = coherent_inner(amps[i], amps[j])
        # X^dagger X = G with columns the branch coordinates in an orthonormal
        # basis; eigen square root rather than Cholesky so coinciding branches
        # (singular Gram) stay legal
        vals, vecs = np.linalg.eigh(gram)
        return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T

    mat = coords(u) @ np.diag(c) @ coords(v).T
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs / probs.sum()
    nz = probs[probs > 1e-18]
    entropy = float(-np.sum(nz * np.log(nz)))
    return entropy, probs
