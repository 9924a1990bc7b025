import cmath
import math

import numpy as np
import pytest

from gravswap import (
    DimensionlessParams,
    ModelKind,
    ParameterError,
    QuadraticHamiltonian,
    coherence_check,
    coherent_pair_moments,
    displacement_from_moments,
    mode_hamiltonians,
    phase_corrected_pair,
    propagate_corrected_displacement,
    propagate_moments,
    propagate_rwa_displacement,
    propagate_rwa_lab_displacement,
    swap_time,
    template_moment_rhs,
    to_normal_modes,
    two_mode_overlap,
    uncertainty_product,
)

P005 = DimensionlessParams(0.05)


# ---------------------------------------------------------------- displacement


def test_rwa_displacement_identity_at_t0():
    a, b = 0.3 + 1j, -2 + 0.5j
    assert propagate_rwa_displacement(a, b, 0.0, P005) == (a, b)


def test_rwa_lab_swap_and_half_swap():
    T = swap_time(P005)
    alpha, beta = 1 + 0j, 0j
    m1, m2 = propagate_rwa_lab_displacement(alpha, beta, T, P005)
    assert abs(m1) < 1e-12
    assert m2 == pytest.approx(-1j * cmath.exp(-1j * P005.omega * T), abs=1e-12)
    m1, m2 = propagate_rwa_lab_displacement(alpha, beta, T / 2, P005)
    carrier = cmath.exp(-1j * P005.omega * T / 2)
    assert m1 == pytest.approx(carrier / math.sqrt(2), abs=1e-12)
    assert m2 == pytest.approx(-1j * carrier / math.sqrt(2), abs=1e-12)


def test_lab_and_normal_mode_paths_agree():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha, beta = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        t = rng.uniform(0, 50)
        a, b = to_normal_modes(alpha, beta)
        at, bt = propagate_rwa_displacement(a, b, t, P005)
        from gravswap import from_normal_modes

        lab_from_modes = from_normal_modes(at, bt)
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
            corrected = phase_corrected_pair(final, T, params)
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
    t_star = (math.pi / 2) / (params.omega * params.K_plus)
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
    period_plus = math.pi / (params.omega * params.K_plus)
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


def test_corrected_reduces_to_rwa_at_zero_delta():
    params = DimensionlessParams(0.0)
    a, b = 1.5 - 0.5j, 0.25 + 1j
    for t in (0.0, 1.0, 7.3):
        c = propagate_corrected_displacement(a, b, t, params)
        at, bt = propagate_rwa_displacement(a, b, t, params)
        assert abs(c.a_t - at) < 1e-15
        assert abs(c.b_t - bt) < 1e-15
        assert c.corr_1 == c.corr_1 * 0 + c.corr_1  # finite
    c0 = propagate_corrected_displacement(a, b, 0.0, DimensionlessParams(0.05))
    assert c0.corr_1 == 0 and c0.corr_2 == 0
    assert c0.a_t == a and c0.b_t == b


def test_corrections_vanish_at_commensurate_time():
    # delta = 0.1: both sin((1 +/- 0.1) tau) vanish at tau = 10 pi
    params = DimensionlessParams(0.1)
    c = propagate_corrected_displacement(1 + 1j, 2 - 1j, 10 * math.pi, params)
    assert abs(c.corr_1) < 1e-12
    assert abs(c.corr_2) < 1e-12


def test_corrected_direct_value():
    params = DimensionlessParams(0.01)
    t = (math.pi / 2) / params.k_plus  # quarter cycle of the plus mode
    c = propagate_corrected_displacement(2 + 0j, 0j, t, params)
    assert c.a_t == pytest.approx(2 * cmath.exp(-1j * math.pi / 2) - 0.02j, abs=1e-14)


def test_corrected_lab_frame_is_exact_transform():
    from gravswap import from_normal_modes

    rng = np.random.default_rng(17)
    params = DimensionlessParams(0.05)
    for _ in range(50):
        a, b = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        t = rng.uniform(0, 40)
        c = propagate_corrected_displacement(a, b, t, params)
        lab = from_normal_modes(c.a_t, c.b_t)
        assert abs(lab[0] - c.alpha_t) < 1e-14
        assert abs(lab[1] - c.beta_t) < 1e-14
        # the corrections are exactly the difference to the uncorrected evolution
        from gravswap import from_normal_modes as fnm

        plain = fnm(*propagate_rwa_displacement(a, b, t, params))
        assert abs((plain[0] - params.delta * c.corr_1) - c.alpha_t) < 1e-13
        assert abs((plain[1] - params.delta * c.corr_2) - c.beta_t) < 1e-13


def test_correction_magnitude_bound():
    rng = np.random.default_rng(23)
    params = DimensionlessParams(0.1)
    radius = 2.5
    for _ in range(100):
        a, b = (complex(*rng.uniform(-radius / 2, radius / 2, 2)) * math.sqrt(2) for _ in range(2))
        t = rng.uniform(0, 100)
        c = propagate_corrected_displacement(a, b, t, params)
        plain_a, plain_b = propagate_rwa_displacement(a, b, t, params)
        from gravswap import from_normal_modes as fnm

        plain = fnm(plain_a, plain_b)
        bound = 2 * params.delta * max(abs(a), abs(b), radius)
        assert abs(c.alpha_t - plain[0]) <= bound + 1e-12
        assert abs(c.beta_t - plain[1]) <= bound + 1e-12


def test_corrected_matches_exact_first_moments_to_second_order():
    # the corrected closed form approximates the exact-model displacement with
    # an error that shrinks by ~4x when delta halves
    a, b = 1.2 - 0.4j, -0.6 + 0.9j
    init = coherent_pair_moments(a, b)

    def max_err(delta):
        params = DimensionlessParams(delta)
        errs = []
        times = np.linspace(0, 4 * math.pi, 40)
        for t, exact in zip(times, propagate_moments(ModelKind.QG_FULL, init, times, params)):
            c = propagate_corrected_displacement(a, b, float(t), params)
            ea = displacement_from_moments(exact[0]).amplitude
            eb = displacement_from_moments(exact[1]).amplitude
            errs.append(max(abs(c.a_t - ea), abs(c.b_t - eb)))
        return max(errs)

    e1, e2 = max_err(0.04), max_err(0.02)
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


def test_corrected_rejects_large_delta():
    with pytest.raises(ParameterError):
        propagate_corrected_displacement(1 + 0j, 0j, 1.0, DimensionlessParams(0.2))


# ---------------------------------------------------------------- coherence


def test_coherence_check_cases():
    params = DimensionlessParams(0.1)
    hp_rwa, hm_rwa = mode_hamiltonians(ModelKind.QG_RWA, params)
    assert coherence_check(hp_rwa).preserved
    assert coherence_check(hm_rwa).preserved

    free = QuadraticHamiltonian(A=0.5, B=0.5)
    assert coherence_check(free).preserved

    hp_full, _ = mode_hamiltonians(ModelKind.QG_FULL, params)
    res = coherence_check(hp_full)
    assert not res.preserved
    assert res.residual == pytest.approx(params.delta / (2 * (1 + params.delta)), rel=1e-12)


def test_coherence_residual_monotone_in_delta():
    residuals = []
    for delta in (0.01, 0.05, 0.1, 0.2):
        hp, _ = mode_hamiltonians(ModelKind.QG_FULL, DimensionlessParams(delta))
        residuals.append(abs(coherence_check(hp).residual))
    assert residuals == sorted(residuals)
    assert residuals[0] > 0


def test_coherence_unaffected_by_mean_field_term():
    a, b = 0.5, 0.5
    bare = coherence_check(QuadraticHamiltonian(A=a, B=b))
    driven = coherence_check(QuadraticHamiltonian(A=a, B=b, C=3.7))
    assert bare.residual == driven.residual


def test_coherence_rejects_nonpositive_kinetic():
    with pytest.raises(ParameterError):
        QuadraticHamiltonian(A=0.0, B=0.5)


# ---------------------------------------------------------------- template RHS


def test_template_rhs_coherent_widths_static():
    h = QuadraticHamiltonian(A=0.5, B=0.5)
    d_mean_x, d_mean_p, d_v_xx, d_v_pp, d_v_xp = template_moment_rhs(h, (1.0, -0.5, 0.5, 0.5, 0.0))
    assert d_v_xx == 0.0 and d_v_pp == 0.0 and d_v_xp == 0.0
    assert d_mean_x == -0.5
    assert d_mean_p == -1.0


def test_template_rhs_hookes_law():
    h = QuadraticHamiltonian(A=0.5, B=0.7)
    _, d_mean_p, *_ = template_moment_rhs(h, (2.0, 0.0, 0.5, 0.5, 0.0))
    assert d_mean_p == pytest.approx(-2 * 0.7 * 2.0)


def test_template_rhs_mean_field_term():
    h = QuadraticHamiltonian(A=0.5, B=0.5, C=0.2)
    m = (1.0, 0.0, 0.5, 0.5, 0.0)
    _, d_mean_p, d_v_xx, d_v_pp, d_v_xp = template_moment_rhs(h, m, mean_field_x=m[0])
    assert d_mean_p == pytest.approx(-(1.0 + 0.2))
    # second-moment equations never see the linear coefficient
    assert d_v_xx == 0.0 and d_v_pp == 0.0 and d_v_xp == 0.0


def test_template_rhs_full_model_mixes_widths():
    # mid-breathing point (V_pp/V_xx away from the mode impedance): the
    # covariance record is genuinely turning over
    params = DimensionlessParams(0.1)
    hp, _ = mode_hamiltonians(ModelKind.QG_FULL, params)
    init = coherent_pair_moments(1 + 0j, 0j)
    (mid,) = propagate_moments(ModelKind.QG_FULL, init, [(math.pi / 8) / (params.omega * params.K_plus)], params)
    plus = mid[0]
    assert plus[3] / plus[2] != pytest.approx(params.K_plus**2, rel=1e-3)
    *_, d_v_xp = template_moment_rhs(hp, plus)
    assert abs(d_v_xp) > 1e-3
