"""Properties of the grid sizing rule over generated coherent and cat states
and models: the box `auto_grid_spec` picks holds the state, a box of the
next shorter fast FFT length would not, the farthest mean it is sized from
bounds the closed-form means of the model, and the models sized at the
ground width keep it.  Only sizes and closed forms are computed; no grid is
allocated."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import (
    CatProduct,
    CoherentProduct,
    DimensionlessParams,
    GridSizingError,
    GridSpec,
    ModelKind,
    auto_grid_spec,
    coherent_pair_moments,
    lab_means,
    propagate_moments,
    swap_time,
    to_normal_modes,
)
from gravswap.grid import (
    EDGE_RING,
    GROUND_SIGMA,
    LEAKAGE_LIMIT,
    MAX_GRID_POINTS,
    _farthest_mean,
)
from gravswap.params import DELTA_WARN_LIMIT

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

# |amplitude| <= 20 per oscillator keeps every generated grid within
# MAX_GRID_POINTS at couplings up to the warning limit
parts = st.floats(min_value=-14.0, max_value=14.0)
amplitudes = st.builds(complex, parts, parts)
states = st.one_of(st.builds(CoherentProduct, amplitudes, amplitudes), st.builds(CatProduct, amplitudes, amplitudes))
couplings = st.floats(min_value=0.0, max_value=DELTA_WARN_LIMIT)
SQRT2 = math.sqrt(2.0)


def _five_smooth(n: int) -> bool:
    for radix in (2, 3, 5):
        while n % radix == 0:
            n //= radix
    return n == 1


# the grid lengths auto_grid_spec may pick: even, no prime factor above 5
FAST_LENGTHS = [n for n in range(2, MAX_GRID_POINTS + 1, 2) if _five_smooth(n)]


def _holds(n: int, half_extent: float, p_range: float) -> bool:
    """n points over +-half_extent meet the momentum floor of GridSpec and
    the momentum rule p_max >= p_range."""
    try:
        spec = GridSpec(n=n, half_extent=half_extent)
    except GridSizingError:
        return False
    return spec.p_max >= p_range


REL = 1e-12


@PROPERTY_SETTINGS
@given(states, couplings, st.sampled_from(ModelKind))
def test_auto_spec_holds_the_state_and_is_smallest(state, delta, model):
    # the reach: a Gaussian of the widest width, centred on the farthest
    # mean, has fallen to the leakage limit there; under QG_FULL the minus
    # mode stretches the width by (1 - 2 delta)^(-1/2), the other models keep
    # the ground width.  The required half extent adds the edge ring of the
    # guard at the coarsest spacing the momentum rule allows
    widest = GROUND_SIGMA / math.sqrt(1.0 - 2.0 * delta) if model is ModelKind.QG_FULL else GROUND_SIGMA
    farthest = _farthest_mean(state, model, delta)
    reach = farthest + widest * math.sqrt(-2.0 * math.log(LEAKAGE_LIMIT))
    required = reach + EDGE_RING * math.pi / reach
    spec = auto_grid_spec(state, model, delta=delta)
    # the box is exactly the required one
    assert spec.half_extent == pytest.approx(required, rel=REL)
    assert _holds(spec.n, spec.half_extent, required * (1.0 - REL))
    # the tail has fallen to the leakage limit where the edge ring starts
    edge_gap = spec.half_extent - EDGE_RING * spec.dx - farthest
    assert math.exp(-0.5 * (edge_gap / widest) ** 2) <= LEAKAGE_LIMIT * (1.0 + 1e-9)
    # likewise on the momentum grid, whose spacing is pi / half_extent (momentum
    # means stay within the same bound, and widths grow by (1 + 2 delta)^(1/2)
    # at most, less than positions do)
    p_gap = spec.p_max - EDGE_RING * math.pi / spec.half_extent - farthest
    assert math.exp(-0.5 * (p_gap / widest) ** 2) <= LEAKAGE_LIMIT * (1.0 + 1e-9)
    # n is the shortest fast FFT length that meets the rule on this box: the
    # next shorter one breaks the momentum rule p_max >= half extent
    assert spec.n in FAST_LENGTHS
    shorter = [m for m in FAST_LENGTHS if m < spec.n]
    assert not shorter or not _holds(shorter[-1], spec.half_extent, required * (1.0 + REL))


def _lab_means(model, alpha, beta, times, params):
    """Closed-form lab means (n, 4) of the coherent pair (alpha, beta)."""
    pair0 = coherent_pair_moments(*to_normal_modes(alpha, beta))
    return lab_means(propagate_moments(model, pair0, times, params))


def _within(means, bound):
    assert np.max(np.abs(means)) <= bound * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(
    amplitudes,
    amplitudes,
    st.floats(min_value=1e-9, max_value=DELTA_WARN_LIMIT),
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=16),
)
def test_farthest_mean_bounds_every_model(g, p, delta, swaps):
    params = DimensionlessParams(delta)
    times = np.array(swaps) * swap_time(params)
    # a coherent pair, under each model within that model's bound
    for model in ModelKind:
        _within(_lab_means(model, g, p, times, params), _farthest_mean(CoherentProduct(g, p), model, delta))
    # each branch of the cat (g, p): the quantized models move it as the
    # coherent pair (+-g, p); the mean-field force follows the mean of the
    # whole state, that of (0, p), so the branch adds the free rotation of +-g
    cat = CatProduct(g, p)
    for branch in (g, -g):
        for model in (ModelKind.QG_FULL, ModelKind.QG_RWA):
            _within(_lab_means(model, branch, p, times, params), _farthest_mean(cat, model, delta))
        free = SQRT2 * branch * np.exp(-1j * times)
        zero = np.zeros_like(times)
        rotation = np.stack((free.real, free.imag, zero, zero), axis=-1)
        bound = _farthest_mean(cat, ModelKind.SCEG, delta)
        _within(_lab_means(ModelKind.SCEG, 0j, p, times, params) + rotation, bound)
    # QG_FULL sizes a pair, and a cat as its branch pairs, by the normal-mode
    # bound alone, stretched by f: never by the mean-field bound, which only
    # SCEG's box needs
    f = math.sqrt(0.5 * (1.0 + 1.0 / (1.0 - 2.0 * delta)))
    for state in (CoherentProduct(g, p), cat):
        assert _farthest_mean(state, ModelKind.QG_FULL, delta) == SQRT2 * math.hypot(abs(g), abs(p)) * f


@PROPERTY_SETTINGS
@given(
    amplitudes,
    amplitudes,
    st.floats(min_value=1e-9, max_value=DELTA_WARN_LIMIT),
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=16),
    st.sampled_from((ModelKind.QG_RWA, ModelKind.SCEG)),
)
def test_ground_width_models_keep_the_vacuum_covariance(g, p, delta, swaps, model):
    # QG_RWA, a passive beam splitter, and SCEG, whose mean-field forces are
    # linear, keep the vacuum covariance of every coherent input, so
    # `auto_grid_spec` sizes their boxes with the ground-width tail.  A cat
    # branch is a coherent pair under QG_RWA, and under SCEG the forces are
    # the same on both branches, so the covariance of each is this one.
    params = DimensionlessParams(delta)
    times = np.array(swaps) * swap_time(params)
    pair0 = coherent_pair_moments(*to_normal_modes(g, p))
    moments = propagate_moments(model, pair0, times, params)
    vacuum = np.broadcast_to(coherent_pair_moments(0j, 0j)[:, 2:], moments[..., 2:].shape)
    assert np.max(np.abs(moments[..., 2:] - vacuum)) <= 1e-12
