import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gravswap import (
    PLATFORM_PRESETS,
    CatProduct,
    ConfigError,
    CoherentProduct,
    DimensionlessParams,
    EvolutionError,
    GridSizingError,
    GridSpec,
    GridWavefunction,
    ModelKind,
    auto_grid_spec,
    build_initial_grid,
    coherent_pair_moments,
    derive_dimensionless,
    lab_means,
    lab_means_from_grid,
    moments_from_grid,
    propagate_moments,
    propagate_rwa_lab_displacement,
    schmidt_entropy,
    split_step_evolve,
    swap_time,
    to_normal_modes,
)
from gravswap import grid
from gravswap.grid import LEAKAGE_LIMIT, MAX_GRID_POINTS
from gravswap.moments_ode import step_schedule
from gravswap.params import DELTA_WARN_LIMIT

SQRT2 = math.sqrt(2.0)


def _grid(state, model=ModelKind.QG_FULL, delta=DELTA_WARN_LIMIT):
    """`state` on the box `auto_grid_spec` sizes for `model` at `delta`."""
    return build_initial_grid(state, auto_grid_spec(state, model, delta=delta))


def _grid_steps(t_final, params):
    """The grid's own step count over `t_final`, with no record to space."""
    _, bounds = step_schedule(
        t_final, params, 2, periods=grid.GRID_STEP_PERIODS, budget=grid.MAX_GRID_STEPS, name="grid"
    )
    return int(bounds[-1])


def _mean_error(model, evo, pair0, params):
    ref = propagate_moments(model, pair0, evo.times, params)
    return np.max(np.abs(evo.moments[..., :2] - ref[..., :2]))


# ---------------------------------------------------------------- construction


def test_grid_spec_validation():
    with pytest.raises(GridSizingError):
        GridSpec(n=101, half_extent=8.0)  # odd
    with pytest.raises(GridSizingError, match="GridSpec.n: must be a positive even integer"):
        GridSpec(n=0, half_extent=8.0)
    with pytest.raises(GridSizingError, match="GridSpec.n: .* momentum tail"):
        GridSpec(n=30, half_extent=8.0)  # too small: p_max = 5.89 < 6.04
    assert GridSpec(n=32, half_extent=8.0).p_max == pytest.approx(2.0 * math.pi)  # the floor is the tail alone
    with pytest.raises(GridSizingError, match="GridSpec.n: .* momentum tail"):
        GridSpec(n=64, half_extent=20.0)  # too coarse for the ground state
    spec = GridSpec(n=128, half_extent=10.0)
    assert spec.dx == pytest.approx(20.0 / 128)
    assert GridSpec(n=96, half_extent=9.0).n == 96  # any even n, not only powers of two


def test_vacuum_grid_moments():
    w = build_initial_grid(CoherentProduct(0j, 0j), GridSpec(n=128, half_extent=8.0))
    assert w.norm_squared() == pytest.approx(1.0, abs=1e-12)
    pm, p_edge = moments_from_grid(w)
    assert pm.shape == (2, 5) and p_edge < 1e-12
    assert pm == pytest.approx(coherent_pair_moments(0j, 0j), abs=1e-8)


def test_coherent_grid_moments_match_analytic():
    alpha, beta = 1 + 1j, 0j
    w = _grid(CoherentProduct(alpha, beta))
    x1, p1, x2, p2 = lab_means_from_grid(w)
    assert x1 == pytest.approx(SQRT2, abs=1e-8)
    assert p1 == pytest.approx(SQRT2, abs=1e-8)
    assert abs(x2) < 1e-8 and abs(p2) < 1e-8

    alpha, beta = 2 + 0j, -1 + 0j
    w = _grid(CoherentProduct(alpha, beta))
    want = coherent_pair_moments(*to_normal_modes(alpha, beta))
    got, _ = moments_from_grid(w)
    assert np.max(np.abs(got[:, :2] - want[:, :2])) < 1e-8
    assert got[:, 2:4] == pytest.approx(0.5, abs=1e-8)


def test_cat_grid_structure():
    g = 2.0
    w = _grid(CatProduct(g + 0j, 0j))
    assert w.norm_squared() == pytest.approx(1.0, abs=1e-12)
    x1, p1, x2, p2 = lab_means_from_grid(w)
    assert abs(x1) < 1e-8 and abs(p1) < 1e-8 and abs(x2) < 1e-8
    # two density peaks at +/- sqrt(2) g on the first axis
    prob = np.abs(w.psi) ** 2
    marg = prob.sum(axis=1)
    x = w.spec.x_axis()
    peaks = x[np.where((marg > np.roll(marg, 1)) & (marg > np.roll(marg, -1)) & (marg > marg.max() / 4))]
    assert len(peaks) == 2
    assert sorted(peaks) == pytest.approx([-SQRT2 * g, SQRT2 * g], abs=w.spec.dx)


def test_sizing_errors_and_auto_spec():
    # alpha = 6 at the default coupling needs a half extent of 14.70 under
    # qg_full, 14.20 under qg_rwa (no stretch of the mean or the width) and
    # 14.42 under sceg (the stretched mean at the ground width)
    widths = {model.value: auto_grid_spec(CoherentProduct(6 + 0j), model, delta=0.05).half_extent for model in ModelKind}
    assert widths == pytest.approx({"qg_full": 14.70, "qg_rwa": 14.20, "sceg": 14.42}, abs=5e-3)
    spec = auto_grid_spec(CoherentProduct(20 + 0j, 0j), ModelKind.QG_FULL, delta=DELTA_WARN_LIMIT)
    # large displacement demands momentum range and extent: p_max >= 39.61
    assert spec.n == 1000 and spec.p_max >= spec.half_extent > 39.6
    # a box built by hand is refused by the GridSpec field at fault
    with pytest.raises(GridSizingError, match="GridSpec.n: must be a positive even integer"):
        GridSpec(n=256.0, half_extent=12.0)
    with pytest.raises(GridSizingError, match="GridSpec.half_extent: must be positive"):
        GridSpec(n=128, half_extent=math.inf)


def test_grid_memory_budget():
    # refused from the sizes alone: neither call allocates an array
    with pytest.raises(GridSizingError, match=r"GridSpec.n: .* 64 GiB per complex array"):
        GridSpec(n=65536, half_extent=12.0)
    with pytest.raises(GridSizingError, match=r"state: .* at delta = 0.2, a half extent of 1.633e\+06, needs n ="):
        auto_grid_spec(CatProduct(1e6 + 0j), ModelKind.QG_FULL, delta=DELTA_WARN_LIMIT)
    assert GridSpec(n=MAX_GRID_POINTS, half_extent=12.0).n == 4096


# ---------------------------------------------------------------- overlaps


def test_grid_overlap_cases():
    # <w|v> by grid quadrature
    spec = GridSpec(n=256, half_extent=16.0)
    w = build_initial_grid(CoherentProduct(0j, 0j), spec)
    assert np.vdot(w.psi, w.psi) * spec.dx**2 == pytest.approx(1.0, abs=1e-12)

    # |<0|g>| = exp(-|g|^2/2): needs |g| > 6 to sink below 1e-8
    far = build_initial_grid(CoherentProduct(6.5 + 0j, 0j), spec)
    assert abs(np.vdot(w.psi, far.psi) * spec.dx**2) < 1e-8

    one = build_initial_grid(CoherentProduct(1 + 0j, 0j), spec)
    overlap = np.vdot(w.psi, one.psi) * spec.dx**2
    assert abs(overlap) ** 2 == pytest.approx(math.exp(-1), abs=1e-6)
    # complex value matches the analytic inner product incl. phase:
    # <0|1> = exp(-(0 + 1)/2 + 0 * 1), real
    assert overlap == pytest.approx(math.exp(-0.5), abs=1e-8)


# ---------------------------------------------------------------- entropy


def test_schmidt_entropy_product_state():
    w = _grid(CoherentProduct(1 + 0.5j, -0.5j))
    res = schmidt_entropy(w)
    assert res.entropy < 1e-6
    assert res.purity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("state", [CoherentProduct(1 + 0.5j, -0.5j), CatProduct(2 + 0j)], ids=["coherent", "cat"])
def test_schmidt_entropy_of_a_product_state_is_positive_zero(state):
    # the report prints the entropy as it is: -0 would read as a sign
    res = schmidt_entropy(_grid(state))
    assert res.entropy == 0.0 and math.copysign(1.0, res.entropy) == 1.0


def test_schmidt_entropy_restores_the_blas_thread_count():
    # the SVD runs on one OpenBLAS thread; the caller's count comes back
    get, _ = grid._openblas_threads()
    before = get()
    schmidt_entropy(_grid(CoherentProduct(1 + 0.5j, -0.5j)))
    assert get() == before


def test_schmidt_entropy_two_branch_state():
    # (|g>|g> + |-g>|-g>)/norm with nearly orthogonal branches: one bit
    spec = GridSpec(n=256, half_extent=12.0)
    g = 2.0
    plus = build_initial_grid(CoherentProduct(g + 0j, g + 0j), spec)
    minus = build_initial_grid(CoherentProduct(-g + 0j, -g + 0j), spec)
    from gravswap import GridWavefunction

    psi = plus.psi + minus.psi
    w = GridWavefunction(spec, psi)
    w.psi /= math.sqrt(w.norm_squared())
    res = schmidt_entropy(w)
    assert res.entropy == pytest.approx(math.log(2), abs=1e-3)


# ---------------------------------------------------------------- evolution


def test_free_oscillator_revival():
    params = DimensionlessParams(0.0)
    w = build_initial_grid(CoherentProduct(1 + 0j, 0j), GridSpec(n=128, half_extent=10.0))
    evo = split_step_evolve(w, ModelKind.QG_FULL, 2 * math.pi, params, n_samples=3)
    ov = abs(np.vdot(w.psi, evo.final.psi) * w.spec.dx**2)
    assert ov >= 1 - 1e-6
    assert evo.max_step_norm_drift < 1e-12


@pytest.mark.parametrize("model", list(ModelKind))
def test_grid_tracks_closed_moments_short_run(model):
    params = DimensionlessParams(0.1)
    alpha, beta = 1 + 0j, -0.5 + 0.5j
    pair0 = coherent_pair_moments(*to_normal_modes(alpha, beta))
    w = _grid(CoherentProduct(alpha, beta), model, params.delta)
    evo = split_step_evolve(w, model, 4.0, params, n_samples=5)
    assert evo.moments.shape == (len(evo.times), 2, 5)
    assert _mean_error(model, evo, pair0, params) < 1e-5
    widths_ref = propagate_moments(model, pair0, evo.times, params)[..., 2]
    assert np.max(np.abs(evo.moments[..., 2] - widths_ref)) < 1e-5


def test_rwa_grid_matches_lab_displacement():
    params = DimensionlessParams(0.1)
    alpha, beta = 1 + 0j, 0j
    w = _grid(CoherentProduct(alpha, beta), ModelKind.QG_RWA, params.delta)
    t_final = 3.0
    evo = split_step_evolve(w, ModelKind.QG_RWA, t_final, params, n_samples=3)
    want_alpha, want_beta = propagate_rwa_lab_displacement(alpha, beta, t_final, params)
    x1, p1, x2, p2 = lab_means(evo.moments[-1])
    assert x1 == pytest.approx(SQRT2 * want_alpha.real, abs=1e-5)
    assert p1 == pytest.approx(SQRT2 * want_alpha.imag, abs=1e-5)
    assert x2 == pytest.approx(SQRT2 * want_beta.real, abs=1e-5)
    assert p2 == pytest.approx(SQRT2 * want_beta.imag, abs=1e-5)


def _splitting_error(model, factor, monkeypatch):
    # the bare step: no QG_RWA sub-steps, even at the coarsest factor
    monkeypatch.setattr(grid, "GRID_STEP_PERIODS", factor)
    monkeypatch.setattr(grid, "RWA_STEP_COUPLING", 1.0)
    params = DimensionlessParams(0.1)
    alpha, beta = 1 + 0.5j, -0.3 + 0.2j
    pair0 = coherent_pair_moments(*to_normal_modes(alpha, beta))
    w = build_initial_grid(CoherentProduct(alpha, beta), GridSpec(n=128, half_extent=12.0))
    evo = split_step_evolve(w, model, 2 * math.pi, params, n_samples=3)
    return _mean_error(model, evo, pair0, params)


@pytest.mark.parametrize("model", list(ModelKind))
def test_near_integrable_convergence_order(model, monkeypatch):
    # SBAB2 with its corrector is order 4 for steps up to 8e-2 of a period;
    # the mean-field kick leaves |psi|^2 alone, so SCEG keeps order 4 too,
    # and QG_RWA runs the same table on its coupling alone
    e8, e4, e2, e1 = (_splitting_error(model, f, monkeypatch) for f in (8e-2, 4e-2, 2e-2, 1e-2))
    assert math.log2(e2 / e1) == pytest.approx(4.0, abs=0.3)
    assert math.log2(e4 / e2) == pytest.approx(4.0, abs=0.3)
    assert math.log2(e8 / e4) == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("model", list(ModelKind))
def test_corrector_sign_is_what_makes_order_four(model, monkeypatch):
    # with the corrector's sign flipped the double bracket is doubled, not
    # cancelled, and the step falls back to order 2
    monkeypatch.setattr(grid, "CORRECTOR", -grid.CORRECTOR)
    e2, e1 = (_splitting_error(model, f, monkeypatch) for f in (2e-2, 1e-2))
    assert math.log2(e2 / e1) == pytest.approx(2.0, abs=0.3)


def test_rwa_bare_flow_over_a_long_record_gap():
    # one record gap of 5 > pi: the exact flow of the bare oscillators runs
    # in pieces of at most pi/2, clear of the pole of tan
    params = DimensionlessParams(0.1)
    alpha, beta = 1 + 0.5j, -0.5j
    w = _grid(CoherentProduct(alpha, beta), ModelKind.QG_RWA, params.delta)
    t_final = 5.0
    evo = split_step_evolve(w, ModelKind.QG_RWA, t_final, params, n_samples=2)
    want_alpha, want_beta = propagate_rwa_lab_displacement(alpha, beta, t_final, params)
    want = SQRT2 * np.array([want_alpha.real, want_alpha.imag, want_beta.real, want_beta.imag])
    assert np.max(np.abs(lab_means(evo.moments[-1]) - want)) < 1e-5


def test_cat_state_run_keeps_every_record():
    # the cat-state inputs of the benchmark: a quarter beat is 48 default
    # steps, fewer than the 60 record gaps, so the run steps once per
    # record instead
    params = DimensionlessParams(0.2)
    t_final = swap_time(params) / 2.0
    assert _grid_steps(t_final, params) == 48
    w = _grid(CatProduct(2 + 0j), ModelKind.QG_RWA, params.delta)
    evo = split_step_evolve(w, ModelKind.QG_RWA, t_final, params, n_samples=61, record_entropy=True)
    assert len(evo.times) == len(evo.entropies) == 61
    assert evo.times[-1] == pytest.approx(t_final, rel=1e-12)
    assert np.all(np.diff(evo.times) > 0)


class _CountingFFT:
    """Stands in for the FFT module of `grid`, counting calls by name."""

    def __init__(self):
        self.calls = dict.fromkeys(("fft", "ifft", "fft2", "ifft2"), 0)

    def __getattr__(self, name):
        fn = getattr(np.fft, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def test_every_fft_goes_through_the_module_handle(monkeypatch):
    # the benchmark tracer counts FFTs by swapping `grid.sfft`; a call bound
    # to numpy at import time would escape the count.  A step is two round
    # trips, a record one 2-D transform and two 1-D round trips.
    counting = _CountingFFT()
    monkeypatch.setattr(grid, "sfft", counting)
    params = DimensionlessParams(0.1)
    records, t_final = 4, 2.0
    w = _grid(CoherentProduct(1 + 0j, 0j), ModelKind.QG_FULL, params.delta)
    evo = split_step_evolve(w, ModelKind.QG_FULL, t_final, params, n_samples=records)
    steps = _grid_steps(t_final, params)
    assert len(evo.times) == records and steps > records
    assert counting.calls == {"fft2": 2 * steps + records, "ifft2": 2 * steps, "fft": 2 * records, "ifft": 2 * records}


def test_grid_step_budget_refuses_physical_scale():
    # the ca40 swap takes ~4e18 steps; refused by count, before the run
    # allocates anything
    params = derive_dimensionless(PLATFORM_PRESETS["ca40_ion"])
    w = _grid(CoherentProduct(1 + 0j, 0j), ModelKind.QG_FULL, params.delta)
    with pytest.raises(ConfigError, match=r"params\.delta: .* gives 3\.64e\+18 grid steps"):
        split_step_evolve(w, ModelKind.QG_FULL, swap_time(params), params)
    with pytest.raises(ConfigError, match="params.delta"):
        split_step_evolve(w, ModelKind.QG_FULL, math.inf, params)
    assert _grid_steps(1e-9, DimensionlessParams(0.1)) == 1


def test_sceg_evolution_uses_current_means():
    # a displaced state must feel the mean-field pull: minus-mode frequency
    # differs from the bare one, so the state lags a free oscillator
    params = DimensionlessParams(0.1)
    alpha, beta = 1.5 + 0j, -1.5 + 0j  # pure minus-mode excitation
    pair0 = coherent_pair_moments(*to_normal_modes(alpha, beta))
    w = _grid(CoherentProduct(alpha, beta), ModelKind.SCEG, params.delta)
    t_final = 4.0
    evo = split_step_evolve(w, ModelKind.SCEG, t_final, params, n_samples=3)
    got = evo.moments[-1, :, :2]
    want = propagate_moments(ModelKind.SCEG, pair0, [t_final], params)[0, :, :2]
    free = propagate_moments(ModelKind.SCEG, pair0, [t_final], DimensionlessParams(0.0))[0, :, :2]
    assert np.max(np.abs(got - want)) < 1e-5
    assert np.max(np.abs(got - free)) > 0.1


_SWAP_STATES = {"": CoherentProduct(3j), "pair-": CoherentProduct(2 + 0j, -2j), "cat-": CatProduct(2 + 0j, 1j)}


@pytest.mark.parametrize(
    "model,state",
    [
        pytest.param(model, state, id=f"{prefix}{model}")
        for prefix, state in _SWAP_STATES.items()
        for model in (ModelKind.QG_FULL, ModelKind.SCEG, ModelKind.QG_RWA)
    ],
)
def test_auto_box_holds_a_momentum_swap(model, state):
    # each model's automatic box must hold the whole swap at the
    # warning-limit coupling, where it is sized from the farthest mean the
    # model reaches: a momentum-borne amplitude swings out to p0 / K_minus in
    # x under the exact dynamics and the mean-field model, beyond the
    # resonant envelope sqrt(2) |alpha| that bounds qg_rwa; a pair of equal
    # amplitudes piles into one oscillator; a mean-field cat branch rotates
    # +-g freely on top of the mean of (0, p)
    params = DimensionlessParams(0.2)
    w = build_initial_grid(state, auto_grid_spec(state, model, delta=0.2))
    evo = split_step_evolve(w, model, swap_time(params), params, n_samples=49)
    assert evo.max_boundary_fraction < LEAKAGE_LIMIT
    assert evo.max_p_boundary_fraction < LEAKAGE_LIMIT
    # the means of a cat are those of (0, p), the mean of its two branches
    pair = (state.alpha, state.beta) if isinstance(state, CoherentProduct) else (0j, state.partner)
    pair0 = coherent_pair_moments(*to_normal_modes(*pair))
    assert _mean_error(model, evo, pair0, params) < 1e-3
    if state == CoherentProduct(3j) and model is not ModelKind.QG_RWA:
        # the run reached past the resonant envelope, so the widened mean is what held it
        assert np.max(np.abs(lab_means(evo.moments)[:, 2])) > SQRT2 * abs(state.alpha)


# the benchmark's swap and cat inputs: (state, coupling, run length in swap
# times, records, models); each runs at the program's own step
_BENCH_INPUTS = {
    "swap_": (CoherentProduct(2 + 0j, -1 + 0j), 0.1, 1.0, 51, tuple(ModelKind)),
    "cat_": (CatProduct(2 + 0j, 0j), 0.2, 0.5, 61, (ModelKind.QG_RWA, ModelKind.SCEG)),
}


@pytest.mark.parametrize(
    "inputs,model",
    [
        pytest.param(inputs, model, id=f"{prefix}{model}")
        for prefix, inputs in _BENCH_INPUTS.items()
        for model in inputs[-1]
    ],
)
def test_auto_spec_agrees_with_a_finer_grid(inputs, model):
    # the momentum rule alone sets n: a grid 3/2 as fine over the same box
    # moves no record by more than 1e-12 and no entropy by more than 1e-13,
    # since the time step, not the spacing, sets the grid error
    state, delta, swaps, n_samples, _ = inputs
    params = DimensionlessParams(delta)
    coarse = auto_grid_spec(state, model, delta=delta)
    fine = GridSpec(n=grid._fft_length(3 * coarse.n // 2), half_extent=coarse.half_extent)
    cat = isinstance(state, CatProduct)
    a, b = (
        split_step_evolve(
            build_initial_grid(state, spec), model, swaps * swap_time(params), params,
            n_samples=n_samples, record_entropy=cat,
        )
        for spec in (coarse, fine)
    )
    assert np.array_equal(a.times, b.times)
    assert np.max(np.abs(a.moments - b.moments)) <= 1e-12
    if cat:
        assert np.max(np.abs(a.entropies - b.entropies)) <= 1e-13


def _gaussian_product(spec, x0=0.0, p0=0.0):
    """Normalized ground-width Gaussian centred at (x0, p0) in oscillator 1,
    vacuum in oscillator 2, built past the admission of auto_grid_spec and
    the norm-defect check of build_initial_grid."""
    x = spec.x_axis()
    one = np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x)
    w = GridWavefunction(spec, np.outer(one, np.exp(-0.5 * x**2)))
    w.psi /= math.sqrt(w.norm_squared())
    return w


def test_box_too_small_in_x_refused():
    # a state that reaches the edge of a box built by hand is refused at the
    # first record, on the edge rows (oscillator 1) and on the edge columns
    # (oscillator 2)
    spec = GridSpec(n=128, half_extent=10.0)
    w = _gaussian_product(spec, x0=spec.half_extent - 1.0)
    for psi in (w.psi, w.psi.T):
        with pytest.raises(EvolutionError, match=r"^state: position axis leaked: .* at t = 0\.0 under qg_full at delta = 0\.05$"):
            split_step_evolve(
                GridWavefunction(spec, psi), ModelKind.QG_FULL, 1.0, DimensionlessParams(0.05), n_samples=3
            )


def test_box_too_small_in_p_refused():
    # a state that fits a box built by hand in x but not its p_max = 20.1 is
    # refused at the first record: the momentum edge is the band around
    # n // 2 of the fftfreq order
    spec = GridSpec(n=128, half_extent=10.0)
    w = _gaussian_product(spec, p0=spec.p_max - 1.0)
    assert w.boundary_fraction() < 1e-20  # nothing near the position edge
    with pytest.raises(EvolutionError, match=r"^state: momentum axis leaked: .* at t = 0\.0 under qg_full at delta = 0\.05$"):
        split_step_evolve(w, ModelKind.QG_FULL, 1.0, DimensionlessParams(0.05), n_samples=3)
    # well inside the momentum grid the same run passes and reports its edge mass
    w = _gaussian_product(spec, p0=4.0)
    evo = split_step_evolve(w, ModelKind.QG_FULL, 1.0, DimensionlessParams(0.05), n_samples=3)
    assert 0.0 <= evo.max_p_boundary_fraction < LEAKAGE_LIMIT


def test_evolution_does_not_mutate_input():
    params = DimensionlessParams(0.05)
    w = build_initial_grid(CoherentProduct(1 + 0j, 0j), GridSpec(n=128, half_extent=10.0))
    before = w.psi.copy()
    split_step_evolve(w, ModelKind.QG_FULL, 1.0, params, n_samples=2)
    assert np.array_equal(w.psi, before)


# ---------------------------------------------------------------- independence

_CLOSED_FORM_NAMES = {"K_plus", "K_minus", "k_plus", "k_minus", "to_normal_modes", "from_normal_modes"}


def test_grid_step_never_sees_the_closed_forms():
    # the grid is an oracle for the closed forms only while it evolves the
    # lab-frame H0 and coupling alone: it names no mode frequency (the step
    # schedule it shares with the RK4 oracle counts the steps), no
    # normal-mode transform and no propagate_* series
    names = set()
    for node in ast.walk(ast.parse(Path(grid.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
    assert not {name for name in names if name in _CLOSED_FORM_NAMES or name.startswith("propagate_")}
