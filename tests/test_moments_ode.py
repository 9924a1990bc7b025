import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import (
    ConfigError,
    DimensionlessParams,
    ModelKind,
    QuadraticHamiltonian,
    ToleranceError,
    coherent_pair_moments,
    integrate_moments,
    mode_hamiltonians,
    propagate_moments,
    swap_time,
    template_generator,
    to_normal_modes,
)
from gravswap import moments_ode
from gravswap.experiments import ODE_AGREEMENT

P = DimensionlessParams(0.05)
A0, B0 = to_normal_modes(1 + 0j, 0j)
PAIR0 = coherent_pair_moments(A0, B0)


def _tuple_rhs(h, m, mean_field_x):
    """The template moment equations written out term by term: the time
    derivative of one mode's record (mean_x, mean_p, v_xx, v_pp, v_xp), with
    `mean_field_x` the <x> of the C term."""
    mean_x, mean_p, v_xx, v_pp, v_xp = m
    return (
        2.0 * h.A * mean_p,
        -2.0 * h.B * mean_x - h.C * mean_field_x,
        4.0 * h.A * v_xp,
        -4.0 * h.B * v_xp,
        2.0 * h.A * v_pp - 2.0 * h.B * v_xx,
    )


def _tuple_rk4_step(model, params, y, h):
    """One classic RK4 step of a pair record y (10-tuple), each mode's C term
    reading that mode's own current mean."""
    hp, hm = mode_hamiltonians(model, params)

    def rhs(y):
        return _tuple_rhs(hp, y[:5], y[0]) + _tuple_rhs(hm, y[5:], y[5])

    k1 = rhs(y)
    k2 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
    k3 = rhs(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
    k4 = rhs(tuple(yi + h * ki for yi, ki in zip(y, k3)))
    return tuple(yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


coefficients = st.floats(min_value=1e-3, max_value=5.0)
records = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=5, max_size=5)


@settings(max_examples=200, deadline=None)
@given(coefficients, st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=-2.0, max_value=2.0), records)
def test_generator_is_the_term_by_term_equations(a, b, c, m):
    # G m, the C term on the mode's own mean, is the right-hand side term by
    # term, to the rounding of the largest term
    h = QuadraticHamiltonian(A=a, B=b, C=c)
    got = template_generator(h) @ np.array(m)
    want = np.array(_tuple_rhs(h, m, m[0]))
    assert np.max(np.abs(got - want)) <= 1e-15 * 4.0 * (a + b + abs(c)) * max(1.0, np.max(np.abs(m)))


def _mean_error(model, series, init, params):
    ref = propagate_moments(model, init, series.times, params)
    return np.max(np.abs(series.moments[..., :2] - ref[..., :2]))


def test_free_oscillator_closure():
    params = DimensionlessParams(0.0)
    init = coherent_pair_moments(0.8 + 0.3j, -0.5j)
    series = integrate_moments(ModelKind.QG_RWA, init, 2 * math.pi, params, n_samples=5)
    assert series.moments.shape == (5, 2, 5)
    final = series.moments[-1]
    assert final[:, :3] == pytest.approx(init[:, :3], abs=1e-10)


@pytest.mark.parametrize("model", list(ModelKind))
def test_rk4_matches_closed_forms_over_swap(model):
    T = swap_time(P)
    series = integrate_moments(model, PAIR0, T, P, n_samples=60)
    assert _mean_error(model, series, PAIR0, P) < 1e-8


def test_sceg_widths_constant():
    T = swap_time(P)
    series = integrate_moments(ModelKind.SCEG, PAIR0, T, P, n_samples=60)
    assert np.max(np.abs(series.moments[..., 2] - 0.5)) < 1e-10


def test_full_widths_match_closed_form():
    T = swap_time(P)
    series = integrate_moments(ModelKind.QG_FULL, PAIR0, T, P, n_samples=60)
    ref = propagate_moments(ModelKind.QG_FULL, PAIR0, series.times, P)
    assert np.max(np.abs(series.moments[..., 2] - ref[..., 2])) < 1e-10


def test_squeezed_initial_record():
    # non-coherent covariance exercises the full moment system
    mode = [0.5, -0.3, 0.4, 0.8, 0.1]
    init = np.array([mode, mode])
    series = integrate_moments(ModelKind.QG_FULL, init, 5.0, P, n_samples=11)
    ref = propagate_moments(ModelKind.QG_FULL, init, series.times[-1:], P)[0]
    assert series.moments[-1] == pytest.approx(ref, abs=1e-10)


def test_rk4_convergence_order(monkeypatch):
    t_final = 4 * math.pi
    monkeypatch.setattr(moments_ode, "RK_TOL", 1.0)

    def err(factor):
        monkeypatch.setattr(moments_ode, "RK_STEP_PERIODS", factor)
        series = integrate_moments(ModelKind.QG_FULL, PAIR0, t_final, P, n_samples=9)
        return _mean_error(ModelKind.QG_FULL, series, PAIR0, P)

    e1, e2 = err(2e-2), err(1e-2)
    order = math.log2(e1 / e2)
    assert order == pytest.approx(4.0, abs=0.3)


def test_tolerance_failure_raises(monkeypatch):
    monkeypatch.setattr(moments_ode, "RK_TOL", 1e-14)
    monkeypatch.setattr(moments_ode, "RK_STEP_PERIODS", 5e-2)
    with pytest.raises(ToleranceError):
        integrate_moments(ModelKind.QG_FULL, PAIR0, 50.0, P)


def test_oracle_agreement_random_sweep():
    # closed forms vs the integrator across models, couplings, and random
    # coherent inputs, over a full swap each
    rng = np.random.default_rng(31)
    for model in ModelKind:
        for delta in (0.01, 0.05, 0.1):
            params = DimensionlessParams(delta)
            T = swap_time(params)
            for _ in range(2):
                init = coherent_pair_moments(
                    complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
                )
                series = integrate_moments(model, init, T, params, n_samples=15)
                assert _mean_error(model, series, init, params) < 1e-8


def test_zero_span():
    series = integrate_moments(ModelKind.SCEG, PAIR0, 0.0, P)
    assert series.moments.shape == (1, 2, 5)
    assert np.array_equal(series.moments[0], PAIR0)
    assert series.times[0] == 0.0


def test_sample_times_include_endpoints():
    series = integrate_moments(ModelKind.QG_RWA, PAIR0, 3.0, P, n_samples=7)
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(3.0, rel=1e-12)


def test_more_samples_than_steps_keeps_every_record():
    # a span of 3 steps asked for 9 records takes 8 steps, one per record
    # gap, instead of dropping the records that would share a boundary
    t_final = 3 * moments_ode.RK_STEP_PERIODS * 2.0 * math.pi / P.K_plus * (1.0 - 1e-9)
    series = integrate_moments(ModelKind.QG_FULL, PAIR0, t_final, P, n_samples=9)
    assert len(series.times) == len(series.moments) == 9
    assert np.allclose(np.diff(series.times), t_final / 8, rtol=1e-12)
    assert series.times[-1] == pytest.approx(t_final, rel=1e-12)
    assert _mean_error(ModelKind.QG_FULL, series, PAIR0, P) < 1e-12


@pytest.mark.parametrize("model", list(ModelKind))
def test_matrix_path_matches_stepwise_rk4(model, monkeypatch):
    # the jumps between samples are powers of one step matrix; they must give
    # what stepping the equations term by term, one step at a time, gives
    params = DimensionlessParams(0.1)
    init = np.array([[0.5, -0.3, 0.4, 0.8, 0.1], [1.2, 0.7, 0.5, 0.5, 0.0]])
    monkeypatch.setattr(moments_ode, "RK_STEP_PERIODS", 1e-3)
    series = integrate_moments(model, init, 20.0, params, n_samples=13)
    steps = math.ceil(20.0 / (1e-3 * 2.0 * math.pi / params.K_plus))
    h = 20.0 / steps
    sample_steps = np.round(series.times / h).astype(int)
    assert sample_steps[-1] == steps == series.steps
    y = tuple(init.reshape(10).tolist())
    stepped = [y]
    for i in range(1, steps + 1):
        y = _tuple_rk4_step(model, params, y, h)
        if i in sample_steps:
            stepped.append(y)
    stepped = np.array(stepped).reshape((-1, 2, 5))
    assert stepped.shape == series.moments.shape
    assert np.max(np.abs(series.moments - stepped)) < 1e-11


@pytest.mark.filterwarnings("ignore:coupling ratio delta = 0.45 exceeds 0.2:UserWarning")
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("mag", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("delta", [1e-3, 0.01, 0.05, 0.2, 0.45])
def test_gate_refuses_or_the_run_agrees(delta, mag, model):
    # the swap input map (beta = -alpha/2, 50 records): each cell is refused
    # by the step-doubling gate, or meets ODE_AGREEMENT on means and
    # covariance with the gate's estimate within 2x of its true error
    params = DimensionlessParams(delta)
    init = coherent_pair_moments(*to_normal_modes(complex(mag), complex(-mag / 2)))
    try:
        series = integrate_moments(model, init, swap_time(params), params, n_samples=50)
    except ToleranceError:
        return
    err = np.max(np.abs(series.moments - propagate_moments(model, init, series.times, params)))
    assert err <= ODE_AGREEMENT
    assert series.error_estimate <= moments_ode.RK_TOL
    if err > 1e-12:
        assert 0.5 <= series.error_estimate / err <= 2.0


def test_step_budget_names_key():
    params = DimensionlessParams(1e-12)
    # the same refusal, ConfigError, as the grid's over-budget span
    with pytest.raises(ConfigError, match=r"params\.delta: 1e-12 gives .* RK4 steps"):
        integrate_moments(ModelKind.QG_FULL, PAIR0, swap_time(params), params)
    with pytest.raises(ConfigError, match="params.delta"):
        integrate_moments(ModelKind.QG_FULL, PAIR0, math.inf, params)
