import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import (
    MOMENT_FIELDS,
    DimensionlessParams,
    MomentError,
    cat_pair_entropy,
    check_moments,
    coherent_overlap,
    coherent_pair_moments,
    from_normal_modes,
    lab_means,
    moments_of_coherent,
    to_normal_modes,
    two_mode_overlap,
    propagate_rwa_lab_displacement,
    uncertainty_product,
)

SQRT2 = math.sqrt(2.0)


def coherent_inner(g: complex, m: complex) -> complex:
    """Complex overlap <g|m> = exp(-(|g|^2 + |m|^2)/2 + conj(g) m)."""
    return complex(np.exp(-0.5 * (abs(g) ** 2 + abs(m) ** 2) + g.conjugate() * m))


def gram_branch_entropy(coeffs, amps_mode1, amps_mode2) -> float:
    """Schmidt entropy of sum_i c_i |u_i>|v_i> with coherent branches, by
    the general k-branch path: each mode's branch set is written in an
    orthonormal basis through the eigen square root of its Gram matrix of
    coherent overlaps, and an SVD of the resulting small matrix gives the
    Schmidt coefficients.  The reference for the closed form."""

    def coords(amps):
        gram = np.array([[coherent_inner(g, m) for m in amps] for g in amps])
        vals, vecs = np.linalg.eigh(gram)
        return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T

    mat = coords(amps_mode1) @ np.diag(np.asarray(coeffs, dtype=complex)) @ coords(amps_mode2).T
    probs = np.linalg.svd(mat, compute_uv=False) ** 2
    probs = probs[probs > 0] / probs.sum()
    return float(-np.sum(probs * np.log(probs)))


@pytest.mark.parametrize(
    "alpha,beta,a,b",
    [
        (1 + 0j, 0j, 1 / SQRT2, 1 / SQRT2),
        (1 + 0j, 1 + 0j, SQRT2, 0j),
        (1j, -1j, 0j, 1j * SQRT2),
    ],
)
def test_to_normal_modes_values(alpha, beta, a, b):
    got_a, got_b = to_normal_modes(alpha, beta)
    assert got_a == pytest.approx(a, abs=1e-15)
    assert got_b == pytest.approx(b, abs=1e-15)


def test_from_normal_modes_inverse_values():
    assert from_normal_modes(1 / SQRT2, 1 / SQRT2) == pytest.approx((1 + 0j, 0j), abs=1e-15)
    assert from_normal_modes(0j, 0j) == (0j, 0j)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha, beta = (complex(*rng.uniform(-5, 5, 2)) for _ in range(2))
        a, b = to_normal_modes(alpha, beta)
        back = from_normal_modes(a, b)
        assert abs(back[0] - alpha) < 1e-14
        assert abs(back[1] - beta) < 1e-14
        # the transform conserves total amplitude
        assert abs(alpha) ** 2 + abs(beta) ** 2 == pytest.approx(abs(a) ** 2 + abs(b) ** 2, rel=1e-12)


@pytest.mark.parametrize(
    "g,mean_x,mean_p",
    [(1 + 0j, SQRT2, 0.0), (0j, 0.0, 0.0), (1j, 0.0, SQRT2)],
)
def test_moments_of_coherent(g, mean_x, mean_p):
    m = moments_of_coherent(g)
    assert m[0] == pytest.approx(mean_x, abs=1e-15)
    assert m[1] == pytest.approx(mean_p, abs=1e-15)
    assert m[2] == 0.5 and m[3] == 0.5 and m[4] == 0.0
    assert uncertainty_product(m) == 0.25


def _pair(mode):
    return np.array([[0.0, 0.0, 0.5, 0.5, 0.0], mode])


def test_moment_validation():
    with pytest.raises(MomentError, match="v_xx"):
        check_moments(_pair([0.0, 0.0, -0.5, 0.5, 0.0]))
    with pytest.raises(MomentError, match="v_pp"):
        check_moments(_pair([0.0, 0.0, 0.5, 0.0, 0.0]))
    with pytest.raises(MomentError, match="uncertainty"):
        check_moments(_pair([0.0, 0.0, 0.1, 0.1, 0.0]))
    with pytest.raises(MomentError, match="uncertainty"):
        check_moments(_pair([0.0, 0.0, 0.5, 0.5, 0.1]))
    # the slack covers rounding, not a real violation
    check_moments(_pair([0.0, 0.0, 0.5, 0.5 * (1 - 1e-8), 0.0]))


@pytest.mark.parametrize("field", range(5))
def test_moment_validation_names_nonfinite_field(field):
    for bad in (math.nan, math.inf):
        mode = [0.0, 0.0, 0.5, 0.5, 0.0]
        mode[field] = bad
        with pytest.raises(MomentError, match=f"moments.{MOMENT_FIELDS[field]}: must be finite"):
            check_moments(_pair(mode))


def test_moment_validation_covers_every_record():
    good = np.array([moments_of_coherent(1 + 1j), moments_of_coherent(-0.5j)])
    series = np.repeat(good[None], 7, axis=0)
    assert check_moments(series).shape == (7, 2, 5)
    for index in ((0, 0), (6, 1), (3, 0)):
        broken = series.copy()
        broken[index + (3,)] = 0.1
        with pytest.raises(MomentError):
            check_moments(broken)
    with pytest.raises(MomentError, match="shape"):
        check_moments(np.zeros((2, 4)))


def test_overlap_values():
    assert coherent_overlap(1 + 2j, 1 + 2j) == 1.0
    assert coherent_overlap(0j, 1 + 0j) == pytest.approx(math.exp(-1), rel=1e-15)
    assert coherent_overlap(1 + 0j, -1 + 0j) == pytest.approx(math.exp(-4), rel=1e-15)
    assert coherent_overlap(2j, 1j) == coherent_overlap(1j, 2j)


def test_inner_product_matches_overlap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g, m = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        assert abs(coherent_inner(g, m)) ** 2 == pytest.approx(coherent_overlap(g, m), rel=1e-12)


def test_two_mode_overlap():
    assert two_mode_overlap((1 + 0j, 0j), (1 + 0j, 0j)) == 1.0
    got = two_mode_overlap((0j, 0j), (1 + 0j, 1 + 0j))
    assert got == pytest.approx(math.exp(-2), rel=1e-14)


def test_pair_moments_lab_views():
    pair = coherent_pair_moments(*to_normal_modes(2 + 0j, 0j))
    assert pair.shape == (2, 5)
    x1, p1, x2, p2 = lab_means(pair)
    assert x1 == pytest.approx(2 * SQRT2, rel=1e-14)
    assert abs(p1) < 1e-15 and abs(x2) < 1e-15 and abs(p2) < 1e-15
    # lab means of a series keep its leading axis
    series = np.stack([pair, coherent_pair_moments(*to_normal_modes(0j, 1j))])
    means = lab_means(series)
    assert means.shape == (2, 4)
    assert means[1] == pytest.approx([0.0, 0.0, 0.0, SQRT2], abs=1e-15)


def test_cat_entropy_of_a_product_state_is_positive_zero():
    # a partner at the origin (v = 0) leaves the cat unentangled: +0, never -0
    s = cat_pair_entropy(4.0, 0.0)
    assert s == 0.0 and math.copysign(1.0, s) == 1.0


def test_cat_entropy_limits():
    # coinciding branches in either mode (u = -u at u = 0): product again
    assert cat_pair_entropy(0.0, 4.0) == 0.0 and cat_pair_entropy(0.0, 0.0) == 0.0
    # distant branches in both modes: one bit
    assert cat_pair_entropy(25.0, 25.0) == pytest.approx(math.log(2), abs=1e-15)
    # the entropy is symmetric in the modes, and elementwise over arrays
    got = cat_pair_entropy(np.array([[0.3, 1.0]]), np.array([[1.0, 0.3]]))
    assert got.shape == (1, 2) and got[0, 0] == got[0, 1]


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 40.0),
    st.floats(0.0, 40.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_cat_entropy_matches_the_gram_reduction(u_sq, v_sq, u_phase, v_phase):
    u = math.sqrt(u_sq) * complex(math.cos(u_phase), math.sin(u_phase))
    v = math.sqrt(v_sq) * complex(math.cos(v_phase), math.sin(v_phase))
    expected = gram_branch_entropy([1.0, 1.0], [u, -u], [v, -v])
    assert abs(cat_pair_entropy(u_sq, v_sq) - expected) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 0.2),
    st.complex_numbers(max_magnitude=4.0),
    st.complex_numbers(max_magnitude=4.0),
    st.floats(0.0, 50.0),
)
def test_cat_entropy_does_not_depend_on_the_partner(delta, g, beta, t):
    # the branches (+-g, beta) under the number-conserving map carry the
    # entropy of the cat (+-g, 0) alone: the partner adds a local
    # displacement and no phase between the branches
    params = DimensionlessParams(delta=delta)
    (plus1, plus2), (minus1, minus2) = (
        propagate_rwa_lab_displacement(sign * g, beta, t, params) for sign in (1.0, -1.0)
    )
    expected = gram_branch_entropy([1.0, 1.0], [complex(plus1), complex(minus1)], [complex(plus2), complex(minus2)])
    u, v = propagate_rwa_lab_displacement(g, 0j, t, params)
    assert abs(cat_pair_entropy(abs(u) ** 2, abs(v) ** 2) - expected) <= 1e-13
