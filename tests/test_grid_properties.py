"""Properties of the grid sizing rule over generated coherent and cat states:
the box `auto_grid_spec` picks holds the state, and a box of half as many
points would not.  Only sizes are computed; no array is allocated."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import CatProduct, CoherentProduct, GridSizingError, GridSpec, IntegratorConfig, auto_grid_spec
from gravswap.grid import EDGE_RING, GROUND_SIGMA, _check_fit, _envelope_displacement
from gravswap.params import DELTA_WARN_LIMIT

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

# |amplitude| <= 20 per oscillator keeps every generated grid within
# MAX_GRID_POINTS at couplings up to the warning limit
parts = st.floats(min_value=-14.0, max_value=14.0)
amplitudes = st.builds(complex, parts, parts)
states = st.one_of(st.builds(CoherentProduct, amplitudes, amplitudes), st.builds(CatProduct, amplitudes, amplitudes))
couplings = st.floats(min_value=0.0, max_value=DELTA_WARN_LIMIT)
LEAK = IntegratorConfig.leakage_limit


def _holds(n: int, half_extent: float) -> bool:
    """n points over +-half_extent meet the resolution floor of GridSpec and
    the momentum rule p_max >= half_extent."""
    try:
        spec = GridSpec(n=n, half_extent=half_extent)
    except GridSizingError:
        return False
    return spec.p_max >= half_extent


@PROPERTY_SETTINGS
@given(states, couplings)
def test_auto_spec_holds_the_state_and_is_smallest(state, delta):
    spec = auto_grid_spec(state, delta=delta)
    _check_fit(spec, state)
    assert _holds(spec.n, spec.half_extent)
    # a Gaussian of the widest width, centred on the farthest mean, has fallen
    # to the leakage limit where the edge ring of the guard starts; the minus
    # mode stretches both the envelope and the width by (1 - 2 delta)^(-1/2)
    stretch = 1.0 / math.sqrt(1.0 - 2.0 * delta)
    widest = stretch * GROUND_SIGMA
    farthest = stretch * _envelope_displacement(state)
    edge_gap = spec.half_extent - EDGE_RING * spec.dx - farthest
    assert math.exp(-0.5 * (edge_gap / widest) ** 2) <= LEAK * (1.0 + 1e-9)
    # likewise on the momentum grid, whose spacing is pi / half_extent (momentum
    # means and widths grow by (1 + 2 delta)^(1/2) at most, less than positions do)
    p_gap = spec.p_max - EDGE_RING * math.pi / spec.half_extent - farthest
    assert math.exp(-0.5 * (p_gap / widest) ** 2) <= LEAK * (1.0 + 1e-9)
    # n is the smallest power of two that meets both rules
    assert spec.n // 2 < 64 or not _holds(spec.n // 2, spec.half_extent)
    # an explicit n is held to the same rules
    assert auto_grid_spec(state, n=spec.n, delta=delta) == spec
    if spec.n // 2 >= 64:
        with pytest.raises(GridSizingError, match="numerics.grid_points"):
            auto_grid_spec(state, n=spec.n // 2, delta=delta)
