import cmath
import math
import warnings

import numpy as np
import pytest

from gravswap import (
    DimensionlessParams,
    ModelKind,
    ParameterError,
    QuadraticHamiltonian,
    coherent_pair_moments,
    mode_hamiltonians,
    phase_corrected_pair,
    propagate_corrected_displacement,
    from_normal_modes,
    lab_means,
    propagate_moments,
    propagate_rwa_lab_displacement,
    swap_time,
    template_generator,
    to_normal_modes,
    two_mode_overlap,
    uncertainty_product,
)

P005 = DimensionlessParams(0.05)
SQRT2 = math.sqrt(2.0)


def _rwa_lab(a, b, t, params):
    """Lab amplitudes at time t under QG_RWA of the normal-mode coherent pair
    (a, b), read off the lab means of the closed-form moment records: a path
    independent of propagate_rwa_lab_displacement."""
    x1, p1, x2, p2 = lab_means(propagate_moments(ModelKind.QG_RWA, coherent_pair_moments(a, b), t, params))[0]
    return complex(x1, p1) / SQRT2, complex(x2, p2) / SQRT2


# ---------------------------------------------------------------- displacement


def test_rwa_displacement_identity_at_t0():
    alpha, beta = 0.3 + 1j, -2 + 0.5j
    assert propagate_rwa_lab_displacement(alpha, beta, 0.0, P005) == (alpha, beta)
    moment_path = _rwa_lab(*to_normal_modes(alpha, beta), 0.0, P005)
    assert moment_path == pytest.approx((alpha, beta), abs=1e-15)


def test_rwa_lab_swap_and_half_swap():
    T = swap_time(P005)
    alpha, beta = 1 + 0j, 0j
    m1, m2 = propagate_rwa_lab_displacement(alpha, beta, T, P005)
    assert abs(m1) < 1e-12
    assert m2 == pytest.approx(-1j * cmath.exp(-1j * T), abs=1e-12)
    m1, m2 = propagate_rwa_lab_displacement(alpha, beta, T / 2, P005)
    carrier = cmath.exp(-1j * T / 2)
    assert m1 == pytest.approx(carrier / math.sqrt(2), abs=1e-12)
    assert m2 == pytest.approx(-1j * carrier / math.sqrt(2), abs=1e-12)


def test_lab_and_normal_mode_paths_agree():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha, beta = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        t = rng.uniform(0, 50)
        lab_from_modes = _rwa_lab(*to_normal_modes(alpha, beta), t, P005)
        lab_direct = propagate_rwa_lab_displacement(alpha, beta, t, P005)
        assert abs(lab_from_modes[0] - lab_direct[0]) < 1e-12
        assert abs(lab_from_modes[1] - lab_direct[1]) < 1e-12


def test_swap_property_random_pairs():
    rng = np.random.default_rng(42)
    for delta in (0.01, 0.1, 0.2):
        params = DimensionlessParams(delta)
        T = swap_time(params)
        for _ in range(20):
            alpha, beta = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
            final = propagate_rwa_lab_displacement(alpha, beta, T, params)
            corrected = phase_corrected_pair(final, T)
            assert abs(corrected[0] - beta) < 1e-12
            assert abs(corrected[1] - alpha) < 1e-12
            assert two_mode_overlap(corrected, (beta, alpha)) >= 1 - 1e-12


# ---------------------------------------------------------------- moments


@pytest.mark.parametrize("model", list(ModelKind))
def test_free_oscillator_period_recovers_state(model):
    params = DimensionlessParams(0.0)
    init = coherent_pair_moments(0.7 - 0.2j, -1.1 + 0.4j)
    (out,) = propagate_moments(model, init, [2 * math.pi], params)
    assert np.allclose(out[:, :2], init[:, :2], atol=1e-12)
    assert out[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_full_width_at_quarter_period():
    params = DimensionlessParams(0.1)
    init = coherent_pair_moments(1 + 0j, 0j)
    t_star = (math.pi / 2) / params.K_plus
    (out,) = propagate_moments(ModelKind.QG_FULL, init, [t_star], params)
    assert out[0, 2] == pytest.approx(0.5 / 1.2, abs=1e-12)
    # momentum width inflates by the inverse factor, keeping the product minimal
    assert out[0, 3] == pytest.approx(0.5 * 1.2, abs=1e-12)


def test_first_moment_identity_full_vs_sceg():
    rng = np.random.default_rng(1)
    params = DimensionlessParams(0.05)
    a0, b0 = to_normal_modes(1 + 1j, -1 + 0j)
    init = coherent_pair_moments(a0, b0)
    times = np.linspace(0, swap_time(params), 200)
    full = propagate_moments(ModelKind.QG_FULL, init, times, params)
    sceg = propagate_moments(ModelKind.SCEG, init, times, params)
    assert np.max(np.abs(full[..., :2] - sceg[..., :2])) <= 1e-12


def test_width_dichotomy():
    params = DimensionlessParams(0.1)
    init = coherent_pair_moments(0.5 + 0.5j, -0.25j)
    period_plus = math.pi / params.K_plus
    times = np.linspace(0, 30, 60)
    sceg = propagate_moments(ModelKind.SCEG, init, times, params)
    assert np.max(np.abs(sceg[..., 2] - 0.5)) < 1e-12
    full = propagate_moments(ModelKind.QG_FULL, init, times, params)[:, 0, 2]
    assert np.all((0.5 / params.K_plus**2 - 1e-12 <= full) & (full <= 0.5 + 1e-12))
    again = propagate_moments(ModelKind.QG_FULL, init, times + period_plus, params)[:, 0, 2]
    assert again == pytest.approx(full, abs=1e-10)


def test_uncertainty_preserved_under_all_models():
    rng = np.random.default_rng(9)
    for model in ModelKind:
        for delta in (0.01, 0.1):
            params = DimensionlessParams(delta)
            for _ in range(20):
                # random squeezed-ish records with det >= 1/4
                vxx = rng.uniform(0.3, 1.5)
                vxp = rng.uniform(-0.2, 0.2)
                vpp = (0.25 + vxp**2) / vxx * rng.uniform(1.0, 2.0)
                init_mode = [rng.uniform(-2, 2), rng.uniform(-2, 2), vxx, vpp, vxp]
                init = np.array([init_mode, init_mode])
                out = propagate_moments(model, init, [rng.uniform(0, 40)], params)
                assert np.all(uncertainty_product(out) >= 0.25 - 1e-12)


# ---------------------------------------------------------------- corrections


def _exact_counter_rotating(a, K, tau):
    """a(t) - a e^{-i K t} for one QG_FULL mode of frequency K, from its
    closed-form solution x cos(Kt) + p sin(Kt)/K, p cos(Kt) - x K sin(Kt)."""
    return -1j * (np.conj(a) * (K - 1 / K) / 2 + a * ((K + 1 / K) / 2 - 1)) * np.sin(K * tau)


def test_corrected_reduces_to_rwa_at_zero_delta():
    # the counter-rotating part is 0 at t = 0, and at every t without coupling
    a, b = 1.5 - 0.5j, 0.25 + 1j
    _, c1, c2 = propagate_corrected_displacement(a, b, 0.0, P005)
    assert abs(c1[0]) < 1e-15 and abs(c2[0]) < 1e-15
    times = np.linspace(0.0, 40.0, 101)
    records, c1, c2 = propagate_corrected_displacement(a, b, times, DimensionlessParams(0.0))
    assert np.max(np.abs(c1)) < 1e-14 and np.max(np.abs(c2)) < 1e-14
    assert np.max(np.abs(records[..., 2] - 0.5)) < 1e-15  # no coupling, no breathing


def test_corrections_vanish_at_commensurate_time():
    # delta = 10/101: K_pm = 11/sqrt(101), 9/sqrt(101), so both mode phases
    # are multiples of pi at t = pi sqrt(101), where the exact map is the rotating wave
    params = DimensionlessParams(10 / 101)
    _, c1, c2 = propagate_corrected_displacement(1 + 1j, 2 - 1j, math.pi * math.sqrt(101), params)
    assert abs(c1[0]) < 1e-12
    assert abs(c2[0]) < 1e-12


def test_corrected_direct_value():
    # a quarter cycle of the plus mode from (x, p) = (2 sqrt 2, 0): x = 0 and
    # p = -2 sqrt(2) K_+, so a(t) = -2i K_+ against the rotating wave's -2i
    params = DimensionlessParams(0.01)
    t = (math.pi / 2) / params.K_plus
    (record,), (c1,), (c2,) = propagate_corrected_displacement(2 + 0j, 0j, t, params)
    assert record[0, :2] == pytest.approx([0.0, -2 * SQRT2 * params.K_plus], abs=1e-14)
    assert c1 == pytest.approx(-SQRT2 * 1j * (params.K_plus - 1), abs=1e-14)
    assert c2 == pytest.approx(c1, abs=1e-14)


def test_corrected_lab_frame_is_exact_transform():
    # one propagate_moments(QG_FULL) call: its records are the function's
    # amplitudes and widths, and its counter-rotating part is the exact
    # per-mode solution minus the rotating wave at K_pm, taken to the lab frame
    a, b = to_normal_modes(2 - 1j, 0.5 + 1j)
    for delta in (0.05, 0.3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # delta = 0.3 exceeds the warning limit
            params = DimensionlessParams(delta)
        times = np.linspace(0.0, swap_time(params), 301)
        records, corr_1, corr_2 = propagate_corrected_displacement(a, b, times, params)
        assert np.array_equal(records, propagate_moments(ModelKind.QG_FULL, coherent_pair_moments(a, b), times, params))
        want = from_normal_modes(
            _exact_counter_rotating(a, params.K_plus, times), _exact_counter_rotating(b, params.K_minus, times)
        )
        assert np.max(np.abs(corr_1 - want[0])) < 1e-12
        assert np.max(np.abs(corr_2 - want[1])) < 1e-12


def test_correction_magnitude_bound():
    rng = np.random.default_rng(23)
    params = DimensionlessParams(0.1)
    radius = 2.5
    for _ in range(100):
        a, b = (complex(*rng.uniform(-radius / 2, radius / 2, 2)) * math.sqrt(2) for _ in range(2))
        t = rng.uniform(0, 100)
        _, (c1,), (c2,) = propagate_corrected_displacement(a, b, t, params)
        bound = 2 * params.delta * max(abs(a), abs(b), radius)
        assert abs(c1) <= bound + 1e-12
        assert abs(c2) <= bound + 1e-12


def test_corrected_matches_exact_first_moments_to_second_order():
    # the first-order form of the counter-rotating parts, -i delta (conj(a)
    # sin(K_+ t) -/+ conj(b) sin(K_- t)) / sqrt(2), approximates the exact ones
    # with an error that shrinks by ~4x when delta halves
    a, b = 1.2 - 0.4j, -0.6 + 0.9j

    def max_err(delta):
        params = DimensionlessParams(delta)
        times = np.linspace(0, 4 * math.pi, 40)
        _, c1, c2 = propagate_corrected_displacement(a, b, times, params)
        sp = np.conj(a) * np.sin(params.K_plus * times)
        sm = np.conj(b) * np.sin(params.K_minus * times)
        first_1, first_2 = (-1j * delta * (sp - sm) / SQRT2, -1j * delta * (sp + sm) / SQRT2)
        return max(np.max(np.abs(c1 - first_1)), np.max(np.abs(c2 - first_2)))

    e1, e2 = max_err(0.04), max_err(0.02)
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------- coherence


def _two_quantum_residual(h):
    """The two-quantum (counter-rotating) ladder coefficient of h over its
    number-operator coefficient, both in the ladder basis of the bare
    oscillator: (B/2 - A/2) / (B + A).  Zero means coherent states stay
    coherent; the linear mean-field coefficient C has no ladder term of that
    kind."""
    return (h.B / 2 - h.A / 2) / (h.B + h.A)


def test_coherence_check_cases():
    params = DimensionlessParams(0.1)
    hp_rwa, hm_rwa = mode_hamiltonians(ModelKind.QG_RWA, params)
    assert abs(_two_quantum_residual(hp_rwa)) <= 1e-12
    assert abs(_two_quantum_residual(hm_rwa)) <= 1e-12

    free = QuadraticHamiltonian(A=0.5, B=0.5)
    assert _two_quantum_residual(free) == 0.0

    hp_full, _ = mode_hamiltonians(ModelKind.QG_FULL, params)
    residual = _two_quantum_residual(hp_full)
    assert abs(residual) > 1e-12
    assert residual == pytest.approx(params.delta / (2 * (1 + params.delta)), rel=1e-12)


def test_coherence_residual_monotone_in_delta():
    residuals = []
    for delta in (0.01, 0.05, 0.1, 0.2):
        hp, _ = mode_hamiltonians(ModelKind.QG_FULL, DimensionlessParams(delta))
        residuals.append(abs(_two_quantum_residual(hp)))
    assert residuals == sorted(residuals)
    assert residuals[0] > 0


def test_coherence_unaffected_by_mean_field_term():
    # the mean-field modes add a linear term C = +/- 2 delta to the bare
    # oscillator's A and B, so their two-quantum coefficient is the free one, zero
    for delta in (0.01, 0.1, 0.2):
        hp, hm = mode_hamiltonians(ModelKind.SCEG, DimensionlessParams(delta))
        assert (hp.C, hm.C) == (2 * delta, -2 * delta)
        assert _two_quantum_residual(hp) == _two_quantum_residual(hm) == 0.0


def test_coherence_rejects_nonpositive_kinetic():
    with pytest.raises(ParameterError):
        QuadraticHamiltonian(A=0.0, B=0.5)


# ---------------------------------------------------------------- template RHS


def _rhs(h, m):
    """d/dt of one mode's record m under the template equations, as G m."""
    return tuple(template_generator(h) @ np.asarray(m, dtype=float))


def test_template_rhs_coherent_widths_static():
    h = QuadraticHamiltonian(A=0.5, B=0.5)
    d_mean_x, d_mean_p, d_v_xx, d_v_pp, d_v_xp = _rhs(h, (1.0, -0.5, 0.5, 0.5, 0.0))
    assert d_v_xx == 0.0 and d_v_pp == 0.0 and d_v_xp == 0.0
    assert d_mean_x == -0.5
    assert d_mean_p == -1.0


def test_template_rhs_hookes_law():
    h = QuadraticHamiltonian(A=0.5, B=0.7)
    _, d_mean_p, *_ = _rhs(h, (2.0, 0.0, 0.5, 0.5, 0.0))
    assert d_mean_p == pytest.approx(-2 * 0.7 * 2.0)


def test_template_rhs_mean_field_term():
    # the C term reads the mode's own mean
    h = QuadraticHamiltonian(A=0.5, B=0.5, C=0.2)
    _, d_mean_p, d_v_xx, d_v_pp, d_v_xp = _rhs(h, (1.0, 0.0, 0.5, 0.5, 0.0))
    assert d_mean_p == pytest.approx(-(1.0 + 0.2))
    # second-moment equations never see the linear coefficient
    assert d_v_xx == 0.0 and d_v_pp == 0.0 and d_v_xp == 0.0
    assert np.array_equal(template_generator(h)[2:], template_generator(QuadraticHamiltonian(A=0.5, B=0.5))[2:])


def test_template_rhs_full_model_mixes_widths():
    # mid-breathing point (V_pp/V_xx away from the mode impedance): the
    # covariance record is genuinely turning over
    params = DimensionlessParams(0.1)
    hp, _ = mode_hamiltonians(ModelKind.QG_FULL, params)
    init = coherent_pair_moments(1 + 0j, 0j)
    (mid,) = propagate_moments(ModelKind.QG_FULL, init, [(math.pi / 8) / params.K_plus], params)
    plus = mid[0]
    assert plus[3] / plus[2] != pytest.approx(params.K_plus**2, rel=1e-3)
    *_, d_v_xp = _rhs(hp, plus)
    assert abs(d_v_xp) > 1e-3
