import math

import numpy as np
import pytest

from gravswap import (
    MOMENT_FIELDS,
    MomentError,
    branch_schmidt_entropy,
    check_moments,
    coherent_inner,
    coherent_overlap,
    coherent_pair_moments,
    displacement_from_moments,
    from_normal_modes,
    lab_means,
    moments_of_coherent,
    to_normal_modes,
    two_mode_overlap,
    uncertainty_product,
)

SQRT2 = math.sqrt(2.0)


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


def test_displacement_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = complex(*rng.uniform(-4, 4, 2))
        est = displacement_from_moments(moments_of_coherent(g))
        assert est.width_deviation == 0.0
        assert abs(est.amplitude - g) < 1e-15


def test_displacement_examples():
    est = displacement_from_moments(moments_of_coherent(2 - 3j))
    assert est.amplitude == 2 - 3j
    est = displacement_from_moments(np.array([SQRT2, SQRT2, 0.5, 0.5, 0.0]))
    assert est.amplitude == pytest.approx(1 + 1j, abs=1e-15)


def test_displacement_flags_inflated_widths():
    m = np.array([1.0, 0.0, 0.6, 0.6, 0.0])
    est = displacement_from_moments(m)
    assert est.width_deviation == pytest.approx(0.2, rel=1e-12)


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


def test_branch_entropy_limits():
    # a single branch (product state) carries no entropy
    s, _ = branch_schmidt_entropy([1.0], [2 + 0j], [1j])
    assert s < 1e-12
    # two branches orthogonal in both modes: one bit
    norm = math.sqrt(2 * (1 + math.exp(-32)))
    s, probs = branch_schmidt_entropy(
        [1 / norm, 1 / norm], [2 + 0j, -2 + 0j], [2 + 0j, -2 + 0j]
    )
    assert s == pytest.approx(math.log(2), abs=1e-3)
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)
    # coinciding branches in one mode: product again
    s, _ = branch_schmidt_entropy([0.5, 0.5], [1 + 0j, 1 + 0j], [1j, 1j])
    assert s < 1e-12
