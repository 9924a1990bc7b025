import math

import numpy as np
import pytest

from gravswap import experiments
from gravswap import (
    ConfigError,
    DimensionlessParams,
    ExperimentConfig,
    ModelKind,
    PLATFORM_PRESETS,
    Platform,
    emit_report,
    lab_means,
    preset_platform,
    propagate_corrected_displacement,
    run_cat_state,
    run_feasibility,
    run_rwa_validity,
    run_swap,
    to_normal_modes,
)


def _verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict {name!r} in {[v.name for v in report.verdicts]}")


def test_swap_closed_form_all_models():
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.01), alpha=2 + 0j, beta=-1 + 0j, samples=40)
    report = run_swap(cfg)
    assert report.passed
    assert _verdict(report, "qg_rwa_phase_corrected_swap").observed >= 1 - 1e-12
    assert _verdict(report, "first_moment_identity_full_vs_sceg").observed <= 1e-12
    v = _verdict(report, "sceg_swap_fidelity_bound")
    assert v.observed >= v.threshold
    assert "moments" in report.tables and "fidelity" in report.tables and "displacement" in report.tables


def test_swap_equal_amplitudes_is_identity():
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.01), alpha=1 + 0.5j, beta=1 + 0.5j, samples=20)
    report = run_swap(cfg)
    rows = {(r[0], r[1]): r for r in report.tables["fidelity"].rows}
    # the swap target equals the input; the number-conserving model hits it exactly
    assert rows[("qg_rwa", "closed")][3] >= 1 - 1e-12
    # the exact and mean-field models agree with it to the correction bound
    a0 = abs(complex(1, 0.5)) * math.sqrt(2)
    bound = math.exp(-((2 * 0.01 * a0) ** 2))
    assert rows[("sceg", "closed")][3] >= bound - 1e-12
    assert rows[("qg_full", "closed")][3] >= bound - 1e-12


def test_swap_with_ode_oracle_and_random_pairs():
    cfg = ExperimentConfig(
        kind="swap", platform=Platform(delta=0.05), alpha=1 + 0j, beta=0.5j, samples=30, oracle="ode", random_pairs=10
    )
    report = run_swap(cfg)
    assert report.passed
    for model in ("qg_rwa", "qg_full", "sceg"):
        assert _verdict(report, f"{model}_ode_mean_agreement").observed <= 1e-8
    assert _verdict(report, "random_pair_swap_fidelity").observed >= 1 - 1e-12
    assert len(report.tables["random_swaps"].rows) == 10


def test_swap_grid_oracle_single_model():
    cfg = ExperimentConfig(
        kind="swap",
        platform=Platform(delta=0.1),
        alpha=1 + 0j,
        beta=0j,
        samples=20,
        oracle="grid",
        models=(ModelKind.QG_FULL,),
    )
    report = run_swap(cfg)
    assert _verdict(report, "qg_full_grid_mean_agreement").observed <= 1e-5
    assert report.passed


class _GridBuilt(Exception):
    pass


def _run_grid_spec(cfg, monkeypatch):
    """The box a run of `cfg` builds its grid on; the run stops there, before
    any grid array exists."""
    specs = []

    def capture(state, spec):
        specs.append(spec)
        raise _GridBuilt

    monkeypatch.setattr("gravswap.experiments.build_initial_grid", capture)
    with pytest.raises(_GridBuilt):
        (run_cat_state if cfg.kind == "cat_state" else run_swap)(cfg)
    return specs[0]


def test_grid_size_from_config(monkeypatch):
    # sizes only, no array: the swap and cat-state inputs of the benchmark get
    # 64^2 and 80^2, the boxes auto_grid_spec sizes from state and coupling
    swap = ExperimentConfig(kind="swap", platform=Platform(delta=0.1), alpha=2 + 0j, beta=-1 + 0j, oracle="grid")
    cat = ExperimentConfig(kind="cat_state", platform=Platform(delta=0.2), cat_alpha=2 + 0j, beta=0j)
    assert _run_grid_spec(swap, monkeypatch).n == 64
    assert _run_grid_spec(cat, monkeypatch).n == 80


def test_default_grid_swap_meets_grid_agreement():
    # the default numerics must pass their own grid verdicts at the stock
    # tolerance over a full swap, on the grid sized from the state (64^2),
    # and stay within the errors of the previous default (Yoshida's triple
    # jump at dt_factor 5e-3), so a longer default step costs no accuracy
    cfg = ExperimentConfig(
        kind="swap",
        platform=Platform(delta=0.1),
        alpha=2 + 0j,
        beta=-1 + 0j,
        oracle="grid",
        models=(ModelKind.QG_FULL, ModelKind.SCEG),
    )
    assert experiments.GRID_AGREEMENT == 1e-5
    report = run_swap(cfg)
    for model in ("qg_full", "sceg"):
        verdict = _verdict(report, f"{model}_grid_mean_agreement")
        assert verdict.passed and verdict.observed <= 1.2001e-6
    assert _verdict(report, "sceg_width_constancy_grid").observed <= 2.57e-8
    assert report.passed


def test_swap_model_method_matrix():
    # all oracles on: the moments table carries a 3-model x 3-method grid and
    # every cross-method verdict holds
    cfg = ExperimentConfig(
        kind="swap",
        platform=Platform(delta=0.1),
        alpha=1 + 0j,
        beta=0j,
        samples=15,
        oracle="all",
    )
    report = run_swap(cfg)
    assert report.passed
    seen = {(r[1], r[2]) for r in report.tables["moments"].rows}
    models = {"qg_rwa", "qg_full", "sceg"}
    assert seen == {(m, meth) for m in models for meth in ("closed", "ode", "grid")}
    assert _verdict(report, "rwa_vs_exact_mean_bound").passed
    fid_methods = {(r[0], r[1]) for r in report.tables["fidelity"].rows}
    assert fid_methods == {(m, meth) for m in models for meth in ("closed", "ode", "grid")}


def test_swap_requires_positive_coupling():
    with pytest.raises(ConfigError):
        run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.0)))


def test_swap_determinism():
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.02), alpha=1 + 1j, beta=-0.5j, samples=25, random_pairs=5)
    r1 = run_swap(cfg)
    r2 = run_swap(cfg)
    assert r1.tables["moments"].rows == r2.tables["moments"].rows
    assert r1.tables["random_swaps"].rows == r2.tables["random_swaps"].rows
    assert [(v.name, v.observed) for v in r1.verdicts] == [(v.name, v.observed) for v in r2.verdicts]


def test_displacement_rows_match_scalar_closed_form():
    # the table is one call over every sample time; each row must be the
    # exact map at its time: normal-mode and lab amplitudes, widths and the
    # magnitudes of the counter-rotating parts
    params = DimensionlessParams(delta=0.05)
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.05), alpha=2 - 1j, beta=0.5 + 1j, samples=200)
    rows = run_swap(cfg).tables["displacement"].rows
    a0, b0 = to_normal_modes(cfg.alpha, cfg.beta)
    for row in rows[::23] + rows[-1:]:
        (record,), (c1,), (c2,) = propagate_corrected_displacement(a0, b0, row[0], params)
        (x_plus, p_plus, v_plus, _, _), (x_minus, p_minus, v_minus, _, _) = record
        amplitudes = [x_plus, p_plus, x_minus, p_minus, *lab_means(record)]
        want = [v / math.sqrt(2.0) for v in amplitudes] + [v_plus, v_minus, abs(c1), abs(c2)]
        assert np.max(np.abs(np.subtract(row[1:], want))) <= 1e-13


def test_swap_writes_the_displacement_table_past_delta_0_2(tmp_path):
    # the exact map holds up to the expansion limit delta < 1/2
    with pytest.warns(UserWarning, match="exceeds"):
        report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.3), samples=50))
    emit_report(report, tmp_path)
    lines = (tmp_path / "displacement.csv").read_text().splitlines()
    assert len(lines) == 51 and lines[0].endswith("v_xx_plus,v_xx_minus,corr_mag_1,corr_mag_2")


def test_random_pairs_follow_the_seed_stream():
    # pair i is the i-th draw of four uniforms on [-3, 3) from the seed's
    # generator, as (re alpha, im alpha, re beta, im beta)
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.05), random_pairs=7, seed=0)
    rows = run_swap(cfg).tables["random_swaps"].rows
    rng = np.random.default_rng(0)
    for i, row in enumerate(rows):
        assert row[0] == i
        assert list(row[1:5]) == rng.uniform(-3.0, 3.0, size=4).tolist()


def test_rwa_validity_law():
    cfg = ExperimentConfig(
        kind="rwa_validity", deltas=(0.01, 0.1), alpha_mags=(1.0, 10.0, 100.0), samples=20001
    )
    report = run_rwa_validity(cfg)
    assert report.passed
    rows = report.tables["validity"].rows
    by_key = {(r[0], r[1]): r for r in rows}
    # deviation == delta * |alpha| for beta = 0, within the sampling slack
    for (d, mag), row in by_key.items():
        assert row[3] == pytest.approx(d * mag, rel=0.1)
    # crossing appears only past delta |alpha| ~ 1
    assert by_key[(0.01, 1.0)][6] == 0
    assert by_key[(0.1, 100.0)][6] == 1


def test_rwa_validity_sweeps_past_the_corrected_form_limit():
    # the exact map holds past delta = 0.2, where the counter-rotating part
    # falls to 0.917 of the first-order law at delta = 0.3
    cfg = ExperimentConfig(kind="rwa_validity", deltas=(0.2, 0.3), alpha_mags=(1.0, 2.0))
    with pytest.warns(UserWarning, match="exceeds"):
        report = run_rwa_validity(cfg)
    assert [(r[0], r[1]) for r in report.tables["validity"].rows] == [(0.2, 1.0), (0.2, 2.0), (0.3, 1.0), (0.3, 2.0)]
    assert _verdict(report, "deviation_law_delta_0.3_alpha_2").passed


@pytest.mark.parametrize("observed", [math.nan, math.inf, -math.inf])
def test_decided_verdict_fails_on_a_non_finite_observation(observed):
    v = experiments._decided("threshold_crossing", True, observed, "<=", 1.0, "note")
    assert not v.passed
    assert (v.comparison, v.threshold, v.note) == ("<=", 1.0, "note")
    assert experiments._decided("threshold_crossing", True, 0.5, "<=", 1.0).passed


def test_threshold_crossing_fails_on_a_nan_deviation(monkeypatch):
    # a nan deviation is neither crossed nor expected to cross: the outcome
    # agrees, yet nothing was measured
    def nan_displacement(a0, b0, tau, params):
        nan = np.full(len(tau), complex(math.nan))
        return None, nan, nan

    monkeypatch.setattr(experiments, "propagate_corrected_displacement", nan_displacement)
    report = run_rwa_validity(ExperimentConfig(kind="rwa_validity", deltas=(0.01,), alpha_mags=(1.0,)))
    v = _verdict(report, "threshold_crossing_delta_0.01_alpha_1")
    assert not v.passed and math.isnan(v.observed)
    assert (v.comparison, v.threshold) == ("<=", 1.0)


def test_feasibility_presets_and_synthetic():
    cfg = ExperimentConfig(
        kind="feasibility",
        platforms=(
            preset_platform("ca40_ion"),
            Platform("bench", delta=0.01),
            Platform("decoupled", delta=0.0),
        ),
    )
    report = run_feasibility(cfg)
    assert report.passed
    rows = {r[0]: r for r in report.tables["feasibility"].rows}
    ca = rows["ca40_ion"]
    assert 1e-13 < ca[5] < 1e-11  # omega_g within a decade of 1e-12
    assert ca[7] > 1e10 and ca[10] == 1  # flagged impractical
    bench = rows["bench"]
    assert bench[2] == 1.0  # a direct delta is taken at 1 rad/s
    assert bench[7] == pytest.approx(50 * math.pi, rel=1e-12)
    assert bench[10] == 0
    decoupled = rows["decoupled"]
    assert math.isinf(decoupled[7]) and decoupled[10] == 1


def test_cat_state_requires_grid():
    with pytest.raises(ConfigError, match="grid"):
        run_cat_state(ExperimentConfig(kind="cat_state", oracle="none"))


def test_cat_state_smoke():
    # small, fast dichotomy run; the acceptance suite carries the full-size one
    cfg = ExperimentConfig(
        kind="cat_state", platform=Platform(delta=0.1), cat_alpha=1.5 + 0j, oracle="grid", samples=5, dt_factor=1e-2
    )
    report = run_cat_state(cfg)
    assert report.passed
    v = _verdict(report, "qg_rwa_final_entropy")
    assert v.observed > 0.5
    assert _verdict(report, "entropy_matches_branch_oracle").observed <= 1e-2
    assert _verdict(report, "sceg_first_moments_frozen").observed <= 1e-6
    assert _verdict(report, "sceg_purity").observed >= 1 - 1e-4
    assert "entropy" in report.tables


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(oracle="sometimes")
    with pytest.raises(ConfigError):
        ExperimentConfig(samples=1)
    with pytest.raises(ConfigError, match="not both"):
        Platform("bad", physical=None, delta=None)
    with pytest.raises(ConfigError, match="not both"):
        Platform("bad", physical=PLATFORM_PRESETS["ca40_ion"], delta=0.1)
