"""Properties of the closed-form moment propagators over generated inputs:
valid records in, valid records out, a conserved uncertainty product, a
group law in time, and the same numbers whether the times come as one array
or one at a time.  The lab/normal-mode amplitude transforms invert each
other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import (
    DimensionlessParams,
    ModelKind,
    check_moments,
    from_normal_modes,
    propagate_moments,
    to_normal_modes,
    uncertainty_product,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

means = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def mode_records(draw):
    """One mode's record with V_xx V_pp - V_xp^2 >= 1/4."""
    v_xx = draw(st.floats(min_value=0.2, max_value=3.0))
    v_xp = draw(st.floats(min_value=-1.0, max_value=1.0))
    excess = draw(st.floats(min_value=1.0, max_value=3.0))
    v_pp = (0.25 + v_xp**2) / v_xx * excess
    return [draw(means), draw(means), v_xx, v_pp, v_xp]


pair_records = st.builds(lambda plus, minus: np.array([plus, minus]), mode_records(), mode_records())
models = st.sampled_from(list(ModelKind))
couplings = st.floats(min_value=0.0, max_value=0.2, exclude_min=True).map(DimensionlessParams)
times = st.floats(min_value=0.0, max_value=100.0)
time_lists = st.lists(times, min_size=1, max_size=8)


@PROPERTY_SETTINGS
@given(pair_records, models, couplings, time_lists)
def test_propagated_records_are_valid(init, model, params, ts):
    out = propagate_moments(model, init, ts, params)
    assert out.shape == (len(ts), 2, 5)
    check_moments(out)


@PROPERTY_SETTINGS
@given(pair_records, models, couplings, time_lists)
def test_uncertainty_product_conserved(init, model, params, ts):
    out = propagate_moments(model, init, ts, params)
    want = np.broadcast_to(uncertainty_product(init), (len(ts), 2))
    np.testing.assert_allclose(uncertainty_product(out), want, rtol=1e-12)


@PROPERTY_SETTINGS
@given(pair_records, models, couplings, times, times)
def test_propagation_composes(init, model, params, s, t):
    mid = propagate_moments(model, init, [s], params)[0]
    twice = propagate_moments(model, mid, [t], params)[0]
    once = propagate_moments(model, init, [s + t], params)[0]
    np.testing.assert_allclose(twice, once, rtol=1e-10, atol=1e-10)


@PROPERTY_SETTINGS
@given(pair_records, models, couplings, time_lists)
def test_vectorized_matches_one_time_at_a_time(init, model, params, ts):
    together = propagate_moments(model, init, ts, params)
    apart = np.array([propagate_moments(model, init, [t], params)[0] for t in ts])
    np.testing.assert_allclose(together, apart, rtol=1e-14, atol=1e-14)


lab_amplitudes = st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))


@PROPERTY_SETTINGS
@given(lab_amplitudes, lab_amplitudes)
def test_normal_mode_transforms_invert(alpha, beta):
    # an orthogonal map: the round trip is exact to rounding, both ways, and
    # the total amplitude norm is kept
    # the floor of a few subnormal steps keeps the bound from underflowing
    # below the float resolution on subnormal amplitudes
    bound = 4e-16 * (abs(alpha) + abs(beta)) + 4 * np.finfo(float).smallest_subnormal
    back = from_normal_modes(*to_normal_modes(alpha, beta))
    assert abs(back[0] - alpha) <= bound and abs(back[1] - beta) <= bound
    forth = to_normal_modes(*from_normal_modes(alpha, beta))
    assert abs(forth[0] - alpha) <= bound and abs(forth[1] - beta) <= bound
    a, b = to_normal_modes(alpha, beta)
    assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(abs(alpha) ** 2 + abs(beta) ** 2, rel=1e-14, abs=1e-300)
