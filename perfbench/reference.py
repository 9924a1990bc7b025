"""Independent references for the benchmark's output checks.

Nothing here imports gravswap.  First moments come from the matrix
exponential of each model's linear lab-frame mean equations, the cat-state
entropy from the closed-form Schmidt spectrum of a two-branch coherent state,
and swap fidelities from the overlap of coherent products.  Oscillator units
throughout (hbar = m = omega = 1); a coherent amplitude g sits at
<x> = sqrt(2) Re g, <p> = sqrt(2) Im g.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import expm

SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def mean_generator(model: str, delta: float) -> np.ndarray:
    """A with d/dt (x1, p1, x2, p2) = A (x1, p1, x2, p2).

    qg_full and sceg share the mean equations p1' = -x1 - 2 delta x2 (the
    mean-field force acts on the means exactly as the quantum coupling does);
    qg_rwa couples through delta (x1 x2 + p1 p2)."""
    d = float(delta)
    if model in ("qg_full", "sceg"):
        rows = [[0, 1, 0, 0], [-1, 0, -2 * d, 0], [0, 0, 0, 1], [-2 * d, 0, -1, 0]]
    elif model == "qg_rwa":
        rows = [[0, 1, 0, d], [-1, 0, -d, 0], [0, d, 0, 1], [-d, 0, -1, 0]]
    else:
        raise ValueError(f"unknown model {model!r}")
    return np.array(rows, dtype=float)


def lab_means(model: str, delta: float, alpha: complex, beta: complex, times) -> np.ndarray:
    """(n, 4) lab means (x1, p1, x2, p2) at each time for the coherent input |alpha>|beta>."""
    a = mean_generator(model, delta)
    v0 = SQRT2 * np.array([alpha.real, alpha.imag, beta.real, beta.imag])
    return np.array([expm(a * float(t)) @ v0 for t in times]).reshape(-1, 4)


def normal_mode_means(lab: np.ndarray) -> np.ndarray:
    """(n, 4) lab means -> (x+, p+, x-, p-) with x+- = (x1 +- x2)/sqrt(2)."""
    x1, p1, x2, p2 = lab.T
    return np.column_stack([(x1 + x2), (p1 + p2), (x1 - x2), (p1 - p2)]) / SQRT2


def amplitudes(lab_row: np.ndarray) -> tuple[complex, complex]:
    x1, p1, x2, p2 = lab_row
    return complex(x1, p1) / SQRT2, complex(x2, p2) / SQRT2


def swap_time(delta: float) -> float:
    return math.pi / (2.0 * delta)


def corrected_swap_fidelity(model: str, delta: float, alpha: complex, beta: complex) -> float:
    """Fidelity of the evolved pair with the swapped input (beta, alpha) after
    undoing the carrier and beat phases with the factor i e^{iT}."""
    t = swap_time(delta)
    a_t, b_t = amplitudes(lab_means(model, delta, alpha, beta, [t])[0])
    phase = 1j * cmath.exp(1j * t)
    return math.exp(-abs(phase * a_t - beta) ** 2 - abs(phase * b_t - alpha) ** 2)


def two_branch_schmidt(a_abs2: float, b_abs2: float) -> tuple[float, float]:
    """(entropy in nats, purity) of (|a>|b> + |-a>|-b>)/N.

    With the real overlaps x = <a|-a> = e^{-2|a|^2} and y = <b|-b> =
    e^{-2|b|^2}, the even and odd parts of each mode are orthogonal and the
    Schmidt probabilities are (1 +- x)(1 +- y) / (2 (1 + x y))."""
    x = math.exp(-2.0 * a_abs2)
    y = math.exp(-2.0 * b_abs2)
    norm = 2.0 * (1.0 + x * y)
    probs = [(1.0 + x) * (1.0 + y) / norm, (1.0 - x) * (1.0 - y) / norm]
    entropy = -sum(p * math.log(p) for p in probs if p > 0.0)
    return entropy, sum(p * p for p in probs)


def rwa_cat_schmidt(delta: float, cat_amp: complex, t: float) -> tuple[float, float]:
    """Entropy and purity at time t of the even cat (|g> + |-g>)/N in
    oscillator 1 against a vacuum partner, under qg_rwa.  The map on means is
    linear, so the two branches stay (a_t, b_t) and (-a_t, -b_t)."""
    a_t, b_t = amplitudes(lab_means("qg_rwa", delta, complex(cat_amp), 0j, [t])[0])
    return two_branch_schmidt(abs(a_t) ** 2, abs(b_t) ** 2)


def limit_checks() -> list[tuple[str, bool]]:
    """The references against limits they must reach exactly or asymptotically."""
    alpha, beta = 2 + 1j, -1 + 0.5j
    checks = []

    # no coupling: each oscillator keeps its own amplitude magnitude
    t = 10.0
    worst = 0.0
    for model in ("qg_full", "qg_rwa"):
        a_t, b_t = amplitudes(lab_means(model, 1e-12, alpha, beta, [t])[0])
        worst = max(worst, abs(abs(a_t) - abs(alpha)), abs(abs(b_t) - abs(beta)))
    checks.append(("limit_no_coupling_no_exchange", worst <= 1e-9))

    # the number-conserving model swaps exactly at T = pi / (2 delta)
    worst = max(1.0 - corrected_swap_fidelity("qg_rwa", d, alpha, beta) for d in (0.02, 0.1))
    checks.append(("limit_rwa_swap_exact", worst <= 1e-12))

    # the exact model misses the swap by the dropped counter-rotating terms
    checks.append(("limit_full_swap_inexact", corrected_swap_fidelity("qg_full", 0.1, alpha, beta) < 0.99))

    # the two-branch entropy: product state at b = 0, ln 2 for distant branches
    s0, p0 = two_branch_schmidt(4.0, 0.0)
    s_far, p_far = two_branch_schmidt(25.0, 25.0)
    checks.append(("limit_cat_product_state", s0 == 0.0 and p0 == 1.0))
    checks.append(("limit_cat_distant_branches_ln2", abs(s_far - LN2) <= 1e-12 and abs(p_far - 0.5) <= 1e-12))
    return checks
