"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them on success).

The physical-scale configuration (exchange rates around 1e-12 Hz, century
swap times) is numerically meaningless to simulate, so every dynamical
criterion runs at exaggerated coupling; each claim under test is an algebraic
identity in (delta, omega t), making validity at large delta imply the
small-delta statement.
"""

import math

import numpy as np
import pytest

from gravswap import (
    DimensionlessParams,
    ExperimentConfig,
    IntegratorConfig,
    ModelKind,
    Platform,
    CoherentProduct,
    build_initial_grid,
    coherence_check,
    coherent_pair_moments,
    integrate_moments,
    mode_hamiltonians,
    phase_corrected_pair,
    propagate_moments,
    propagate_rwa_lab_displacement,
    run_cat_state,
    run_feasibility,
    split_step_evolve,
    swap_time,
    to_normal_modes,
    two_mode_overlap,
    QuadraticHamiltonian,
)

STACK_DELTA = 0.05
STACK_ALPHA = 2 + 0j
STACK_BETA = 0j
STACK_GRID_DT = 5e-3  # periods; full-swap grid mean error about 9e-10 against the 1e-5 limit


def _announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _mean_error(model, init, times, moments, params):
    ref = propagate_moments(model, init, times, params)
    return float(np.max(np.abs(moments[..., :2] - ref[..., :2])))


@pytest.fixture(scope="module")
def stack_grid_runs():
    """Grid-oracle runs of the correction-law configuration over one full
    swap, shared between the oracle-stack and hygiene criteria."""
    params = DimensionlessParams(STACK_DELTA)
    T = swap_time(params)
    w0 = build_initial_grid(CoherentProduct(STACK_ALPHA, STACK_BETA))
    cfg = IntegratorConfig(dt_factor=STACK_GRID_DT)
    runs = {}
    for model in ModelKind:
        runs[model] = split_step_evolve(w0, model, T, params, cfg, n_samples=41)
    return params, runs


def test_criterion_1_exact_swap_closed_form():
    rng = np.random.default_rng(20260810)
    worst = 1.0
    for delta in (1e-3, 1e-2, 1e-1):
        params = DimensionlessParams(delta)
        T = swap_time(params)
        for _ in range(50):
            alpha, beta = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
            final = propagate_rwa_lab_displacement(alpha, beta, T, params)
            fid = two_mode_overlap(phase_corrected_pair(final, T, params), (beta, alpha))
            worst = min(worst, fid)
    _announce(1, "exact swap, closed form", abs(worst - 1.0) <= 1e-12, f"worst fidelity {worst:.17g}")


def test_criterion_2_first_moment_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        delta = rng.uniform(0.005, 0.1)
        params = DimensionlessParams(delta)
        a0, b0 = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        init = coherent_pair_moments(a0, b0)
        times = np.linspace(0.0, swap_time(params), 1000)
        full = propagate_moments(ModelKind.QG_FULL, init, times, params)
        sceg = propagate_moments(ModelKind.SCEG, init, times, params)
        worst = max(worst, float(np.max(np.abs(full[..., :2] - sceg[..., :2]))))
    _announce(2, "first-moment identity", worst <= 1e-12, f"max componentwise diff {worst:.3e}")


def test_criterion_3_width_dichotomy():
    params = DimensionlessParams(STACK_DELTA)
    a0, b0 = to_normal_modes(STACK_ALPHA, STACK_BETA)
    init = coherent_pair_moments(a0, b0)

    # closed forms
    rng = np.random.default_rng(3)
    sceg_times = rng.uniform(0, swap_time(params), 300)
    sceg_dev = float(np.max(np.abs(propagate_moments(ModelKind.SCEG, init, sceg_times, params)[:, 0, 2] - 0.5)))
    t_star = (math.pi / 2) / (params.omega * params.K_plus)
    full_quarter = propagate_moments(ModelKind.QG_FULL, init, [t_star], params)[0, 0, 2]
    closed_ok = sceg_dev <= 1e-12 and abs(full_quarter - 0.5 / params.K_plus**2) <= 1e-12

    # grid oracle
    w0 = build_initial_grid(CoherentProduct(STACK_ALPHA, STACK_BETA))
    sceg_evo = split_step_evolve(w0, ModelKind.SCEG, swap_time(params) / 2, params, n_samples=21)
    sceg_grid_dev = float(np.max(np.abs(sceg_evo.moments[..., 2] - 0.5)))
    full_evo = split_step_evolve(w0, ModelKind.QG_FULL, t_star, params, n_samples=3)
    full_grid_err = abs(full_evo.moments[-1, 0, 2] - 0.5 / params.K_plus**2)
    grid_ok = sceg_grid_dev <= 5e-6 and full_grid_err <= 1e-5

    _announce(
        3,
        "width dichotomy",
        closed_ok and grid_ok,
        f"closed: sceg dev {sceg_dev:.2e}, full quarter err {abs(full_quarter - 0.5 / params.K_plus**2):.2e}; "
        f"grid: sceg dev {sceg_grid_dev:.2e}, full err {full_grid_err:.2e}",
    )


def test_criterion_4_coherence_condition():
    ok = True
    details = []
    for delta in (0.01, 0.05, 0.1, 0.2):
        params = DimensionlessParams(delta)
        hp_rwa, hm_rwa = mode_hamiltonians(ModelKind.QG_RWA, params)
        ok &= coherence_check(hp_rwa).preserved and coherence_check(hm_rwa).preserved
    ok &= coherence_check(QuadraticHamiltonian(A=0.5, B=0.5)).preserved
    residuals = []
    for delta in (0.01, 0.05, 0.1, 0.2):
        hp, _ = mode_hamiltonians(ModelKind.QG_FULL, DimensionlessParams(delta))
        res = coherence_check(hp)
        ok &= not res.preserved
        residuals.append(abs(res.residual))
    ok &= residuals == sorted(residuals) and residuals[0] > 0
    _announce(4, "coherence condition", ok, f"exact-model residuals {['%.3e' % r for r in residuals]}")


def test_criterion_5_correction_law_and_oracle_stack(stack_grid_runs):
    # (a) the dropped-correction law: max deviation = delta * max(|alpha|, |beta|)
    law_ok = True
    law_details = []
    for delta, alpha, beta in (
        (0.05, 2 + 0j, 0j),
        (0.01, 2 - 1j, 1j),
        (0.1, 3 + 0j, -1 + 0.5j),
    ):
        params = DimensionlessParams(delta)
        a0, b0 = to_normal_modes(alpha, beta)
        tau = np.linspace(0.0, math.pi / delta, 400_001)
        sp = np.sin(params.k_plus * tau)
        sm = np.sin(params.k_minus * tau)
        dev1 = delta * np.abs(np.conj(a0) * sp - np.conj(b0) * sm) / math.sqrt(2)
        dev2 = delta * np.abs(np.conj(a0) * sp + np.conj(b0) * sm) / math.sqrt(2)
        measured = max(dev1.max(), dev2.max())
        predicted = delta * max(abs(alpha), abs(beta))
        assert delta * max(abs(alpha), abs(beta)) <= 0.5
        ratio = measured / predicted
        law_ok &= abs(ratio - 1.0) <= 0.10
        law_details.append(f"{ratio:.4f}")

    # (b) three-way oracle stack on the stack configuration over a full swap
    params, grid_runs = stack_grid_runs
    T = swap_time(params)
    a0, b0 = to_normal_modes(STACK_ALPHA, STACK_BETA)
    init = coherent_pair_moments(a0, b0)
    rk_worst = 0.0
    grid_worst = 0.0
    for model in ModelKind:
        series = integrate_moments(model, init, T, params, n_samples=101)
        rk_worst = max(rk_worst, _mean_error(model, init, series.times, series.moments, params))
        evo = grid_runs[model]
        grid_worst = max(grid_worst, _mean_error(model, init, evo.times, evo.moments, params))
    stack_ok = rk_worst <= 1e-8 and grid_worst <= 1e-5

    _announce(
        5,
        "correction law + oracle stack",
        law_ok and stack_ok,
        f"law ratios {law_details}; rk err {rk_worst:.2e}, grid err {grid_worst:.2e}",
    )


def test_criterion_6_cat_state_dichotomy():
    cfg = ExperimentConfig(
        kind="cat_state", platform=Platform(delta=STACK_DELTA), cat_alpha=2 + 0j, oracle="grid", samples=13
    )
    report = run_cat_state(cfg)
    verdicts = {v.name: v for v in report.verdicts}
    entropy = verdicts["qg_rwa_final_entropy"].observed
    oracle_gap = verdicts["entropy_matches_branch_oracle"].observed
    mean_max = verdicts["sceg_first_moments_frozen"].observed
    purity = verdicts["sceg_purity"].observed
    ok = (
        entropy >= 0.5
        and oracle_gap <= 1e-2
        and mean_max <= 1e-6
        and purity >= 1 - 1e-4
        and report.passed
    )
    _announce(
        6,
        "cat-state dichotomy",
        ok,
        f"entropy {entropy:.4f} (oracle gap {oracle_gap:.2e}), sceg means {mean_max:.2e}, purity defect {1 - purity:.2e}",
    )


def test_criterion_7_feasibility():
    report = run_feasibility(ExperimentConfig(kind="feasibility"))
    row = next(r for r in report.tables["feasibility"].rows if r[0] == "ca40_ion")
    omega_g, T = row[5], row[7]
    ok = 1e-13 <= omega_g <= 1e-11 and T > 1e10 and report.passed
    _announce(7, "feasibility figures", ok, f"omega_g {omega_g:.3e} rad/s, swap time {T:.3e} s")


def test_criterion_8_numerical_hygiene(stack_grid_runs):
    params = DimensionlessParams(STACK_DELTA)
    a0, b0 = to_normal_modes(1 + 0.5j, -0.3 + 0.2j)
    init = coherent_pair_moments(a0, b0)
    t_final = 4 * math.pi

    def rk_err(factor):
        cfg = IntegratorConfig(rk_step_factor=factor, rk_tol=1.0)
        s = integrate_moments(ModelKind.QG_FULL, init, t_final, params, cfg, n_samples=9)
        return _mean_error(ModelKind.QG_FULL, init, s.times, s.moments, params)

    rk_order = math.log2(rk_err(2e-2) / rk_err(1e-2))

    w0 = build_initial_grid(CoherentProduct(1 + 0.5j, -0.3 + 0.2j))

    def grid_err(factor, order):
        evo = split_step_evolve(
            w0, ModelKind.QG_FULL, t_final, params, IntegratorConfig(dt_factor=factor), n_samples=3, order=order
        )
        return _mean_error(ModelKind.QG_FULL, init, evo.times, evo.moments, params)

    strang_order = math.log2(grid_err(1e-3, 2) / grid_err(5e-4, 2))
    grid_order = math.log2(grid_err(2e-2, 4) / grid_err(1e-2, 4))

    _, grid_runs = stack_grid_runs
    drift = max(evo.max_step_norm_drift for evo in grid_runs.values())

    ok = (
        abs(strang_order - 2.0) <= 0.2
        and abs(grid_order - 4.0) <= 0.3
        and abs(rk_order - 4.0) <= 0.3
        and drift < 1e-10
    )
    _announce(
        8,
        "numerical hygiene",
        ok,
        f"strang order {strang_order:.3f}, grid order {grid_order:.3f}, rk4 order {rk_order:.3f}, "
        f"norm drift/step {drift:.2e}",
    )
