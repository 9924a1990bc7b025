import csv
import math

import numpy as np
import pytest

from gravswap import experiments
from gravswap import (
    CatProduct,
    ConfigError,
    DimensionlessParams,
    ExperimentConfig,
    ModelKind,
    PLATFORM_PRESETS,
    Platform,
    auto_grid_spec,
    coherent_pair_moments,
    emit_report,
    format_config,
    from_normal_modes,
    integrate_moments,
    lab_means,
    preset_platform,
    propagate_corrected_displacement,
    run_cat_state,
    run_feasibility,
    run_rwa_validity,
    run_swap,
    swap_time,
    to_normal_modes,
)
from gravswap.cli import main as cli_main
from gravswap.config import FIELD_READERS, KINDS


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


def test_swap_notes_the_error_estimate_of_each_ode_run():
    # one note per ode run, with the estimate and step count the gate read
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.05), alpha=1 + 0j, samples=30, oracle="ode")
    report = run_swap(cfg)
    params = cfg.platform.dimensionless()
    pair0 = coherent_pair_moments(*to_normal_modes(1 + 0j, 0j))
    notes = [n for n in report.notes if n.startswith("ode oracle [")]
    assert len(notes) == 3
    for model, note in zip(cfg.models, notes):
        ode = integrate_moments(model, pair0, swap_time(params), params, n_samples=30)
        assert 0.0 < ode.error_estimate <= 1e-8
        assert note == (f"ode oracle [{model.value}]: estimated accumulated error {ode.error_estimate:.3e} "
                        f"over {ode.steps} RK4 steps")


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


def _run_grid_specs(cfg, monkeypatch):
    """The box each model's run of `cfg` builds its grid on, as {model name:
    n}; every run stops there, before any grid array exists."""
    specs = []

    def capture(state, spec):
        specs.append(spec.n)
        raise _GridBuilt

    def each(fn, items):
        # every model's run in this process, in order, each stopped at its grid
        for item in items:
            with pytest.raises(_GridBuilt):
                fn(item)
        raise _GridBuilt

    monkeypatch.setattr("gravswap.experiments.build_initial_grid", capture)
    monkeypatch.setattr("gravswap.experiments.fork_map", each)
    with pytest.raises(_GridBuilt):
        (run_cat_state if cfg.kind == "cat_state" else run_swap)(cfg)
    return dict(zip((m.value for m in cfg.models), specs))


def test_grid_size_from_config(monkeypatch):
    # sizes only, no array: auto_grid_spec sizes each model's box from state,
    # coupling and model.  QG_FULL stretches the width; QG_RWA and SCEG keep
    # the ground width, and QG_RWA conserves the photon number, so their
    # boxes are smaller.  A cat with a partner reaches farthest under SCEG,
    # which rotates its branches on top of the partner's mean, yet QG_FULL's
    # box holds only what QG_FULL reaches: 72^2 over a half extent of 10.30,
    # not SCEG's 90^2 over 11.83
    swap = ExperimentConfig(kind="swap", platform=Platform(delta=0.1), alpha=2 + 0j, beta=-1 + 0j, oracle="grid")
    cat = ExperimentConfig(kind="cat_state", platform=Platform(delta=0.2), cat_alpha=2 + 0j, beta=0j)
    partner = ExperimentConfig(kind="cat_state", models=tuple(ModelKind), cat_alpha=2 + 0j, beta=2 + 0j)
    assert _run_grid_specs(swap, monkeypatch) == {"qg_rwa": 54, "qg_full": 64, "sceg": 60}
    assert _run_grid_specs(cat, monkeypatch) == {"qg_rwa": 50, "qg_full": 80, "sceg": 50}
    assert _run_grid_specs(partner, monkeypatch) == {"qg_rwa": 64, "qg_full": 72, "sceg": 90}
    spec = auto_grid_spec(CatProduct(2 + 0j, 2 + 0j), ModelKind.QG_FULL, delta=0.05)
    assert spec.half_extent == pytest.approx(10.30, abs=5e-3)
    # the defaults: a coherent (1, 0) at 0.05 and a cat of amplitude 2 at 0.05
    assert _run_grid_specs(ExperimentConfig(kind="swap", oracle="grid"), monkeypatch) == dict.fromkeys(
        ("qg_rwa", "qg_full", "sceg"), 40
    )
    assert _run_grid_specs(ExperimentConfig(kind="cat_state"), monkeypatch) == {"qg_rwa": 50, "qg_full": 54, "sceg": 50}


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(
            ExperimentConfig(kind="cat_state", platform=Platform(delta=0.05), cat_alpha=4 + 0j, samples=13), id="cat"
        ),
        pytest.param(
            ExperimentConfig(
                kind="swap",
                platform=Platform(delta=0.01),
                alpha=4 + 0j,
                beta=complex(-2.0, 1.3333333333333333),
                samples=13,
                oracle="grid",
                models=(ModelKind.QG_RWA,),
            ),
            id="swap",
        ),
        pytest.param(
            ExperimentConfig(
                kind="cat_state",
                platform=Platform(delta=0.05),
                cat_alpha=12 + 0j,
                samples=13,
                models=(ModelKind.QG_RWA, ModelKind.SCEG),
            ),
            id="large_cat",
        ),
    ],
)
def test_rwa_record_gap_flow_stays_in_the_box(cfg):
    # few records leave long gaps, over which qg_rwa runs the exact bare flow
    # as chirp-FFT-chirp pieces; the chirp tan(s/2) x of a piece shifts the
    # momenta, and pieces too long for the box leak the run through the
    # position edge: pieces of up to pi/2 leak all three runs, pieces of up
    # to pi/4 the large cat
    report = (run_cat_state if cfg.kind == "cat_state" else run_swap)(cfg)
    assert report.passed


def test_default_grid_swap_meets_grid_agreement():
    # the program's grid step must pass its own grid verdicts at the stock
    # tolerance over a full swap, on the grids sized from the state (64^2 for
    # qg_full, 60^2 for sceg), and stay within the errors of the step it
    # replaced (Yoshida's triple jump at 5e-3 of a period), so the longer
    # step costs no accuracy
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


@pytest.mark.filterwarnings("ignore:coupling ratio delta = 0.45 exceeds 0.2:UserWarning")
@pytest.mark.parametrize("delta, mag", [(1e-3, 1e2), (0.05, 1e4), (0.45, 1e6)])
def test_ode_oracle_passes_where_its_gate_lets_it_run(delta, mag):
    # three cells of the input map (beta = -alpha/2) that the RK4 gate lets
    # run and whose step matrix, rounded next to its diagonal 1, missed
    # ODE_AGREEMENT by up to 17x; the increment form keeps them at 3.5e-10,
    # 4.3e-10 and 4.5e-9
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=delta), alpha=complex(mag), beta=complex(-mag / 2),
                           samples=50, oracle="ode")
    report = run_swap(cfg)
    assert report.passed, [v.name for v in report.verdicts if not v.passed]


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


def test_moments_blocks_hold_one_mode_of_one_series(monkeypatch):
    # swap --oracle all: each (model, method) series goes into moments as a
    # block of its plus rows, then one of its minus rows, each in time order;
    # the rows are those of the records, one per time and mode
    cfg = ExperimentConfig(kind="swap", oracle="all")
    params = cfg.platform.dimensionless()
    pair0 = coherent_pair_moments(*to_normal_modes(cfg.alpha, cfg.beta))
    series = {}  # (model, method) -> (times, records) as the run made them

    def ode(model, *args, **kwargs):
        run = integrate_moments(model, *args, **kwargs)
        series[model.value, "ode"] = run.times, run.moments
        return run

    def grid(*args, **kwargs):
        runs = grid_runs(*args, **kwargs)
        series.update({(model.value, "grid"): (run.times, run.moments) for model, run in runs.items()})
        return runs

    grid_runs = experiments._grid_runs
    monkeypatch.setattr(experiments, "integrate_moments", ode)
    monkeypatch.setattr(experiments, "_grid_runs", grid)
    table = run_swap(cfg).tables["moments"]
    times = np.linspace(0.0, swap_time(params), cfg.samples)
    for model in cfg.models:
        closed = experiments.propagate_moments(model, pair0, times, params)
        if model is ModelKind.QG_FULL:
            closed = propagate_corrected_displacement(*to_normal_modes(cfg.alpha, cfg.beta), times, params)[0]
        series[model.value, "closed"] = times, closed

    labels = [tuple(column[0] for column in block[1:4]) for block in table.blocks]
    assert labels == [(model.value, method, mode) for model in cfg.models for method in ("closed", "ode", "grid")
                      for mode in ("plus", "minus")]
    for block in table.blocks:
        assert all(len(set(column.tolist())) == 1 for column in block[1:4])
        assert np.all(np.diff(block[0]) > 0)
    interleaved = [(t, model, method, mode, *record[k])
                   for (model, method), (ts, records) in series.items()
                   for t, record in zip(ts.tolist(), records.tolist())
                   for k, mode in enumerate(("plus", "minus"))]
    assert len(table.rows) == len(interleaved)
    assert set(table.rows) == set(interleaved)


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
    # every verdict is decided by `_check`, under either comparison
    for comparison in ("<=", ">="):
        v = experiments._check("threshold_crossing", observed, comparison, 1.0, "note")
        assert not v.passed
        assert (v.comparison, v.threshold, v.note) == (comparison, 1.0, "note")
    assert experiments._check("threshold_crossing", 0.5, "<=", 1.0).passed
    assert experiments._check("threshold_crossing", 1.5, ">=", 1.0).passed


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


@pytest.mark.parametrize("delta,beta", [("0.05", "2"), ("0.2", "1+1j")])
def test_cat_state_with_a_partner_passes(delta, beta, tmp_path):
    # a coherent partner moves the mean of the whole state, (0, beta), so
    # the mean-field run keeps that pair's closed-form means, which reach
    # past 1, not zero; the grid keeps them to 5.8e-8 and 4.6e-8
    config = tmp_path / "cat.txt"
    config.write_text(f"[run]\nkind = cat_state\n[params]\ndelta = {delta}\n[state]\ncat_alpha = 2\nbeta = {beta}\n")
    assert cli_main(["cat-state", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    summary = (tmp_path / "r" / "summary.txt").read_text(encoding="utf-8")
    assert "[PASS] sceg_first_moments_frozen" in summary
    with (tmp_path / "r" / "entropy.csv").open(encoding="utf-8") as fh:
        means = [float(row["max_abs_first_moment"]) for row in csv.DictReader(fh) if row["model"] == "sceg"]
    assert max(means) > 1.0


def test_amplitudes_read_off_a_record():
    # each mode's amplitude is (x + ip) / sqrt(2), bit for bit the scalar
    # reading the fidelity table has always printed
    rng = np.random.default_rng(11)
    for _ in range(100):
        pair = coherent_pair_moments(*(complex(*rng.uniform(-4, 4, 2)) for _ in range(2)))
        alpha, beta, width = experiments._amplitudes_from_pair(pair)
        modes = (complex(x / math.sqrt(2.0), p / math.sqrt(2.0)) for x, p in pair[:, :2].tolist())
        assert (alpha, beta) == from_normal_modes(*modes)
        assert width == 0.0
    # a coherent record gives back its amplitudes exactly
    alpha, beta, width = experiments._amplitudes_from_pair(coherent_pair_moments(2 - 3j, 1 + 0.5j))
    assert (alpha, beta) == from_normal_modes(2 - 3j, 1 + 0.5j)
    # the width deviation is the largest relative one over both modes and
    # all three second moments
    inflated = np.array([[1.0, 0.0, 0.6, 0.6, 0.0], [0.0, 0.0, 0.5, 0.5, 0.0]])
    assert experiments._amplitudes_from_pair(inflated)[2] == pytest.approx(0.2, rel=1e-12)
    correlated = np.array([[0.0, 0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5, -0.15]])
    assert experiments._amplitudes_from_pair(correlated)[2] == pytest.approx(0.3, rel=1e-12)


def test_every_kind_has_a_runner():
    assert set(experiments.RUNNERS) == set(KINDS)


def test_cat_state_requires_grid():
    with pytest.raises(ConfigError, match="grid"):
        run_cat_state(ExperimentConfig(kind="cat_state", oracle="none"))


def test_cat_state_smoke():
    # small, fast dichotomy run; the acceptance suite carries the full-size one
    cfg = ExperimentConfig(
        kind="cat_state", platform=Platform(delta=0.1), cat_alpha=1.5 + 0j, oracle="grid", samples=5
    )
    report = run_cat_state(cfg)
    assert report.passed
    v = _verdict(report, "qg_rwa_final_entropy")
    assert v.observed > 0.5
    assert _verdict(report, "entropy_matches_branch_oracle").observed <= 1e-2
    assert _verdict(report, "sceg_first_moments_frozen").observed <= 1e-6
    assert _verdict(report, "sceg_purity").observed >= 1 - 1e-4
    assert "entropy" in report.tables


@pytest.mark.parametrize("models", [tuple(ModelKind), (ModelKind.QG_FULL, ModelKind.SCEG)], ids=["all", "qg_full"])
def test_cat_state_runs_the_listed_models(models):
    # one grid run per listed model, in the listed order, and a final
    # entropy verdict for each quantum one
    cfg = ExperimentConfig(kind="cat_state", models=models, platform=Platform(delta=0.1), cat_alpha=1.5 + 0j, samples=5)
    report = run_cat_state(cfg)
    assert report.passed
    assert list(dict.fromkeys(row[1] for row in report.tables["entropy"].rows)) == [m.value for m in models]
    for model in models:
        if model is not ModelKind.SCEG:
            assert _verdict(report, f"{model.value}_final_entropy").observed > 0.5


@pytest.mark.parametrize("field, key", [("platforms", "run.platforms"), ("deltas", "sweep.deltas"),
                                        ("alpha_mags", "sweep.alpha_mags"), ("models", "run.models")])
@pytest.mark.parametrize("kind", KINDS)
def test_empty_sweeps_refused(kind, field, key):
    # an empty ladder or sweep would give a report that passes with no
    # verdicts; it is refused for every kind that reads it, as the range
    # checks are, and a kind that never reads it echoes and digests its default
    if kind not in FIELD_READERS[field]:
        cfg = ExperimentConfig(kind=kind, **{field: ()})
        assert format_config(cfg) == format_config(ExperimentConfig(kind=kind))
        return
    with pytest.raises(ConfigError, match=rf"^{key}: at least one entry required$"):
        ExperimentConfig(kind=kind, **{field: ()})


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


@pytest.mark.filterwarnings("ignore:coupling ratio delta = .* exceeds 0.2:UserWarning")
@pytest.mark.parametrize("delta, samples", [(0.3, 5), (0.4, 3), (0.4, 5), (0.4, 13), (0.45, 3), (0.45, 5), (0.45, 13)])
def test_strong_coupling_cat_with_few_records_meets_its_oracle(delta, samples):
    # few records leave the grid's full step, whose QG_RWA error follows
    # delta h; the sub-steps keep the entropy within half the bound
    cfg = ExperimentConfig(kind="cat_state", models=(ModelKind.QG_RWA, ModelKind.SCEG),
                           platform=Platform(delta=delta), samples=samples)
    report = run_cat_state(cfg)
    assert report.passed
    v = _verdict(report, "entropy_matches_branch_oracle_series")
    assert v.observed <= 0.5 * v.threshold


def test_cat_oracle_does_not_depend_on_the_partner():
    # the closed-form oracle reads the cat amplitude alone; a partner moves
    # the state by a local displacement, which leaves the entropy unchanged
    def oracle(beta):
        cfg = ExperimentConfig(kind="cat_state", models=(ModelKind.QG_RWA, ModelKind.SCEG),
                               platform=Platform(delta=0.2), cat_alpha=2 + 0j, beta=beta, samples=9)
        report = run_cat_state(cfg)
        assert report.passed
        return np.array([row[3] for row in report.tables["entropy"].rows if row[1] == "qg_rwa"])

    free, partnered = oracle(0j), oracle(2 + 0j)
    assert free.shape == partnered.shape == (9,)
    assert np.max(np.abs(free - partnered)) <= 1e-15
