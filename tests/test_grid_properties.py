"""Properties of the grid sizing rule over generated coherent and cat states:
the box `auto_grid_spec` picks holds the state, a box of the next shorter
fast FFT length would not, and the farthest mean it is sized from bounds the
closed-form means of every model.  Only sizes and closed forms are computed;
no grid is allocated."""

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


# the grid lengths auto_grid_spec may pick: even, >= 64, no prime factor above 5
FAST_LENGTHS = [n for n in range(64, MAX_GRID_POINTS + 1, 2) if _five_smooth(n)]


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
@given(states, couplings)
def test_auto_spec_holds_the_state_and_is_smallest(state, delta):
    # the reach: a Gaussian of the widest width, centred on the farthest
    # mean, has fallen to the leakage limit there; the minus mode stretches
    # the width by (1 - 2 delta)^(-1/2).  The required half extent adds the
    # edge ring of the guard at the coarsest spacing the momentum rule allows
    widest = GROUND_SIGMA / math.sqrt(1.0 - 2.0 * delta)
    farthest = _farthest_mean(state, delta)
    reach = farthest + widest * math.sqrt(-2.0 * math.log(LEAKAGE_LIMIT))
    required = reach + EDGE_RING * math.pi / reach
    spec = auto_grid_spec(state, delta=delta)
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
    # a coherent pair, under each model
    bound = _farthest_mean(CoherentProduct(g, p), delta)
    for model in ModelKind:
        _within(_lab_means(model, g, p, times, params), bound)
    # each branch of the cat (g, p): the quantized models move it as the
    # coherent pair (+-g, p); the mean-field force follows the mean of the
    # whole state, that of (0, p), so the branch adds the free rotation of +-g
    bound = _farthest_mean(CatProduct(g, p), delta)
    for branch in (g, -g):
        for model in (ModelKind.QG_FULL, ModelKind.QG_RWA):
            _within(_lab_means(model, branch, p, times, params), bound)
        free = SQRT2 * branch * np.exp(-1j * times)
        zero = np.zeros_like(times)
        rotation = np.stack((free.real, free.imag, zero, zero), axis=-1)
        _within(_lab_means(ModelKind.SCEG, 0j, p, times, params) + rotation, bound)
