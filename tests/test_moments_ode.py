import math

import numpy as np
import pytest

from gravswap import (
    DimensionlessParams,
    IntegrationError,
    IntegratorConfig,
    ModelKind,
    StepUnderflowError,
    ToleranceError,
    coherent_pair_moments,
    integrate_moments,
    propagate_moments,
    swap_time,
    to_normal_modes,
)

P = DimensionlessParams(0.05)
A0, B0 = to_normal_modes(1 + 0j, 0j)
PAIR0 = coherent_pair_moments(A0, B0)


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


def test_rk4_convergence_order():
    t_final = 4 * math.pi

    def err(factor):
        cfg = IntegratorConfig(rk_step_factor=factor, rk_tol=1.0)
        series = integrate_moments(ModelKind.QG_FULL, PAIR0, t_final, P, cfg, n_samples=9)
        return _mean_error(ModelKind.QG_FULL, series, PAIR0, P)

    e1, e2 = err(2e-2), err(1e-2)
    order = math.log2(e1 / e2)
    assert order == pytest.approx(4.0, abs=0.3)


def test_tolerance_failure_raises():
    cfg = IntegratorConfig(rk_step_factor=5e-2, rk_tol=1e-14)
    with pytest.raises(ToleranceError):
        integrate_moments(ModelKind.QG_FULL, PAIR0, 50.0, P, cfg)


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


@pytest.mark.parametrize("model", list(ModelKind))
def test_matrix_path_matches_stepwise_rk4(model):
    # the jumps between samples are powers of one step matrix; they must give
    # what stepping the right-hand side one step at a time gives
    from gravswap.moments_ode import _make_rhs, _rk4_step

    params = DimensionlessParams(0.1)
    init = np.array([[0.5, -0.3, 0.4, 0.8, 0.1], [1.2, 0.7, 0.5, 0.5, 0.0]])
    cfg = IntegratorConfig(rk_step_factor=1e-3)
    series = integrate_moments(model, init, 20.0, params, cfg, n_samples=13)
    tau_final = 20.0 * params.omega
    steps = math.ceil(tau_final / cfg.rk_step(params))
    h = tau_final / steps
    sample_steps = np.round(series.times * params.omega / h).astype(int)
    assert sample_steps[-1] == steps
    rhs = _make_rhs(model, params)
    y = tuple(init.reshape(10).tolist())
    stepped = [y]
    for i in range(1, steps + 1):
        y = _rk4_step(rhs, y, h)
        if i in sample_steps:
            stepped.append(y)
    stepped = np.array(stepped).reshape((-1, 2, 5))
    assert stepped.shape == series.moments.shape
    assert np.max(np.abs(series.moments - stepped)) < 1e-11


def test_nonlinear_rhs_refused(monkeypatch):
    import gravswap.moments_ode as ode

    linear = ode._make_rhs

    def make_nonlinear(model, params):
        rhs = linear(model, params)
        return lambda y: tuple(r + 1e-3 * v * v for r, v in zip(rhs(y), y))

    monkeypatch.setattr(ode, "_make_rhs", make_nonlinear)
    with pytest.raises(IntegrationError, match="not linear"):
        integrate_moments(ModelKind.SCEG, PAIR0, 1.0, P)


def test_step_budget_names_key():
    params = DimensionlessParams(1e-12)
    with pytest.raises(StepUnderflowError, match="numerics.rk_step_factor"):
        integrate_moments(ModelKind.QG_FULL, PAIR0, swap_time(params), params)
