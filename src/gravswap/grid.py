"""Two-coordinate wavefunction oracle: split-operator evolution on a grid.

The state lives on an N x N lab-frame grid psi[i, j] = psi(x1_i, x2_j) in
oscillator units, with the FFT momentum grid p = 2 pi fftfreq(N, dx).  Every
model is the two bare lab oscillators H0 = (p1^2 + x1^2 + p2^2 + x2^2)/2 plus
a coupling of size d, the coupling ratio:

    QG_FULL   H0 + 2 d x1 x2
    QG_RWA    H0 + d B,   B = x1 x2 + p1 p2
    SCEG      H0 + 2 d (<x2> x1 + <x1> x2)

H0 has an exact flow of one kinetic FFT round trip: exp(-i s H0) = C K C with
the chirp C = exp(-i tan(s/2) x^2/2) on each axis and K = exp(-i sin(s) p^2/2).
A step of length h therefore splits only the coupling V1 off the exact bare
flow A, with Laskar and Robutel's SBAB2 (Celest. Mech. Dyn. Astron. 80, 39,
2001), kicks outermost:

    B(h/6) A(h/2) B(2h/3) A(h/2) B(h/6)

and a corrector -(h^3/72) W for the double bracket W = {{H0, V1}, V1}, half
on each outer kick: W = 4 d^2 (x1^2 + x2^2) for QG_FULL and, linearised
about the means, 8 d^2 (<x1> x1 + <x2> x2) for SCEG.  The step is order 4.
The chirps of A fold into the kicks beside them and the last kick of a step
merges with the first of the next, so a step costs two round trips; over a
full swap of (2, -1) at d = 0.1 it reaches a mean error of 6.6e-8 in 177
steps (354 round trips), where Blanes and Moan's S6 on the kinetic/potential
split needed 137 (822).  A step starts and ends on a kick, so every record
is taken in position space.

QG_RWA: [H0, B] = 0, so exp(-i tau H) = exp(-i tau H0) exp(-i tau d B)
exactly.  The same step runs on d B alone, kicks d x1 x2 and drifts d p1 p2,
with W = 2 d^3 x1 x2, and the exact H0 flow runs once per record gap, in
pieces of at most pi/2 so that tan stays clear of its pole.

A mean-field kick is two 1-D phase factors, with the means measured right
before it.  A kick changes only the phase of psi, not |psi|^2, so the means
after it equal the means before it: the step stays symmetric in time and
keeps its order.  The grid sees only the lab-frame H0 and coupling, never
the normal modes or their frequencies, so it stays an independent check of
the closed forms.

Norm is never renormalized during evolution; drift is tracked every step and
the run aborts if it exceeds NORM_DRIFT_LIMIT per unit time.  Probability
beyond LEAKAGE_LIMIT on the edge of the position box or of the momentum grid
also aborts (wrap-around would silently corrupt everything after).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .moments_ode import record_bounds
from .params import DELTA_WARN_LIMIT, DimensionlessParams, IntegratorConfig, ModelKind, ParameterError
from .states import SQRT2, check_moments, lab_means

GROUND_SIGMA = math.sqrt(0.5)
# Points per grid axis: one complex128 array of n^2 amplitudes takes
# 16 n^2 bytes, 256 MiB at this cap.
MAX_GRID_POINTS = 4096
EDGE_RING = 2  # rows and columns on each side counted as the edge of a grid
# Largest probability on the edge of the position box or of the momentum grid
# at any record; `auto_grid_spec` sizes every box to keep the state below it.
LEAKAGE_LIMIT = 1e-12
NORM_DRIFT_LIMIT = 1e-8  # largest norm change per unit scaled time


sfft = np.fft  # the FFT module, wrapped by name by the benchmark tracer


# The step, SBAB2 with its corrector: (coupling kicks, bare flows, corrector
# weight), kicks outermost.
_SBAB2 = ((1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), (0.5, 0.5), -1.0 / 72.0)


class GridError(RuntimeError):
    pass


class GridSizingError(GridError):
    pass


class EvolutionError(GridError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Square grid geometry: n points per axis, n even, over [-half_extent,
    half_extent).  Checks only the structure (n, memory budget, a positive
    extent, a momentum grid that holds the ground state's tail beyond its
    edge ring); whether the box holds a state is decided by `auto_grid_spec`."""

    n: int
    half_extent: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 64 and self.n % 2 == 0):
            raise GridSizingError(f"GridSpec.n: must be an even integer >= 64, got {self.n!r}")
        _check_memory(self.n, "GridSpec.n: the grid")
        if not (math.isfinite(self.half_extent) and self.half_extent > 0):
            raise GridSizingError(f"GridSpec.half_extent: must be positive, got {self.half_extent!r}")
        reach = _tail(0.0) + EDGE_RING * math.pi / self.half_extent
        if self.p_max < reach:
            raise GridSizingError(
                f"GridSpec.n: p_max = {self.p_max:.4g} does not hold the ground state's momentum tail, which needs "
                f"{reach:.4g}; increase n to >= {_fft_length(math.ceil(2 * self.half_extent * reach / math.pi))}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    def x_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    def p_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def p_max(self) -> float:
        return math.pi / self.dx


class GridWavefunction:
    """Mutable grid state; `psi` is the complex amplitude array."""

    __slots__ = ("spec", "psi")

    def __init__(self, spec: GridSpec, psi: np.ndarray):
        if psi.shape != (spec.n, spec.n):
            raise GridError(f"amplitude shape {psi.shape} does not match spec n = {spec.n}")
        self.spec = spec
        self.psi = np.ascontiguousarray(psi, dtype=np.complex128)

    def norm_squared(self) -> float:
        return _norm_squared(self.psi, self.spec.dx)

    def boundary_fraction(self, ring: int = EDGE_RING, prob: np.ndarray | None = None) -> float:
        """Share of the position density on the outer `ring` rows and columns
        of the box; `prob`, the density |psi|^2, is computed if not given."""
        if prob is None:
            prob = _density(self.psi)
        return _edge_fraction(prob, _edge_mask(self.spec.n, ring))


@dataclass(frozen=True)
class CoherentProduct:
    """Product of two coherent states |alpha>_1 |beta>_2."""

    alpha: complex
    beta: complex = 0j


@dataclass(frozen=True)
class CatProduct:
    """Even superposition (|g> + |-g>)/norm in oscillator 1, coherent partner
    in oscillator 2.  The normalization carries the overlap cross term
    exp(-2 |g|^2)."""

    cat_amp: complex
    partner: complex = 0j


InitialState = CoherentProduct | CatProduct


def _norm_squared(psi: np.ndarray, dx: float) -> float:
    # sum of squares over the float64 view: no BLAS call (np.vdot wakes a
    # second OpenBLAS thread that then spins) and no temporary array
    v = psi.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", v, v)) * dx**2


def _density(psi: np.ndarray) -> np.ndarray:
    return psi.real**2 + psi.imag**2


def _edge_mask(n: int, ring: int) -> np.ndarray:
    """Axis mask of the outer `ring` points on each side, in centred order
    (that of `x_axis`); `np.fft.ifftshift` of it is the mask in the fftfreq
    order of `p_axis`, where the momentum edge is the band around n // 2."""
    edge = np.zeros(n, dtype=bool)
    edge[:ring] = edge[n - ring :] = True
    return edge


def _edge_fraction(prob: np.ndarray, edge: np.ndarray) -> float:
    """Share of a 2-D density on the rows and columns flagged in `edge`."""
    total = prob.sum()
    if total == 0.0:
        return 0.0
    return float((prob[edge].sum() + prob[np.ix_(~edge, edge)].sum()) / total)


def _check_memory(n: float, cause: str) -> None:
    """Refuses a grid of more than MAX_GRID_POINTS points per axis, before
    anything is allocated; `cause` opens the message."""
    if not n <= MAX_GRID_POINTS:
        raise GridSizingError(
            f"{cause} needs n = {n:.6g} points per axis, "
            f"{16 * n * n / 2**30:.4g} GiB per complex array, beyond the budget of "
            f"{MAX_GRID_POINTS} points ({16 * MAX_GRID_POINTS**2 / 2**30:g} GiB)"
        )


def _fft_length(m: int) -> int:
    """Smallest even n >= max(m, 64) of the form 2^a 3^b 5^c, a length the FFT
    transforms with native radices: each odd 3^b 5^c, times the least power
    of two that reaches m, against the next power of two."""
    m = max(m, 64)
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            best = min(best, 2 * odd << (-(-m // (2 * odd)) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def _farthest_mean(state: InitialState, delta: float) -> float:
    """Bound on |<x>| and |<p>| on either axis, at any time and under every
    model at coupling `delta`, of a coherent pair or of each branch of a cat:
    by Cauchy-Schwarz over the normal modes, whose means stay within rho_+ and
    rho_- / K_- with rho_+^2 + rho_-^2 = 2 (|alpha|^2 + |beta|^2).  The
    mean-field model rotates a cat branch's +-g freely, on top of the mean of
    (0, p); the quantized models move the branch (+-g, p) as a pair."""
    f = math.sqrt(0.5 * (1.0 + 1.0 / (1.0 - 2.0 * delta)))
    if isinstance(state, CoherentProduct):
        return SQRT2 * math.hypot(abs(state.alpha), abs(state.beta)) * f
    g, p = abs(state.cat_amp), abs(state.partner)
    return max(SQRT2 * math.hypot(g, p) * f, SQRT2 * (g + p * f))


def _tail(delta: float) -> float:
    """Distance at which a Gaussian of the widest width the dynamics reach at
    coupling `delta`, the ground width times (1 - 2 delta)^(-1/2) of the exact
    minus mode, falls to LEAKAGE_LIMIT of its peak."""
    return GROUND_SIGMA * math.sqrt(-2.0 * math.log(LEAKAGE_LIMIT) / (1.0 - 2.0 * delta))


def auto_grid_spec(state: InitialState, *, delta: float) -> GridSpec:
    """The grid of `state` under the swap dynamics at coupling `delta`; the
    one rule that sizes every box, before anything is allocated.

    The reach R is the farthest mean any model reaches (`_farthest_mean`)
    plus `_tail(delta)`.  Momentum means stay within the same bound and
    momentum widths grow by (1 + 2 delta)^(1/2) at most, which is less, so
    both the position box and the momentum grid must hold R beyond the
    EDGE_RING points the edge guards of `split_step_evolve` count as the edge.
    The half extent is H = R + EDGE_RING pi / R, and n the shortest even FFT
    length >= 64 with no prime factor above 5 (`_fft_length`) that gives
    p_max = pi / dx >= H.  Then dx <= pi / H and the momentum spacing is
    pi / H, so on either axis the edge ring fits in the margin H - R.  A box
    beyond MAX_GRID_POINTS per axis is refused.  The edge guards of
    `split_step_evolve` catch a state that outgrows the estimate."""
    reach = _farthest_mean(state, delta) + _tail(delta)
    half_extent = reach + EDGE_RING * math.pi / reach
    points = 2.0 * half_extent * half_extent / math.pi  # inf where an amplitude near the float limit makes H inf
    _check_memory(points, f"state: the box that holds it at delta = {delta!r}, a half extent of {half_extent:.4g},")
    return GridSpec(n=_fft_length(math.ceil(points)), half_extent=half_extent)


def _coherent_1d(x: np.ndarray, g: complex) -> np.ndarray:
    x0 = SQRT2 * g.real
    p0 = SQRT2 * g.imag
    return np.pi**-0.25 * np.exp(-0.5 * (x - x0) ** 2 + 1j * (p0 * x - 0.5 * x0 * p0))


def build_initial_grid(state: InitialState, spec: GridSpec | None = None) -> GridWavefunction:
    """Discretize a coherent product or a cat-state product on `spec`, by
    default the box `auto_grid_spec` gives at every coupling up to the warning
    limit.  The result is normalized on the grid; a discretization defect in
    the norm beyond 1e-8 is refused first."""
    if spec is None:
        spec = auto_grid_spec(state, delta=DELTA_WARN_LIMIT)
    x = spec.x_axis()
    if isinstance(state, CoherentProduct):
        one = _coherent_1d(x, complex(state.alpha))
        two = _coherent_1d(x, complex(state.beta))
    elif isinstance(state, CatProduct):
        g = complex(state.cat_amp)
        one = _coherent_1d(x, g) + _coherent_1d(x, -g)
        two = _coherent_1d(x, complex(state.partner))
    else:
        raise ParameterError(f"unknown initial state {state!r}")
    psi = np.outer(one, two)
    w = GridWavefunction(spec, psi)
    n2 = w.norm_squared()
    if isinstance(state, CatProduct):
        # analytic norm of the unnormalized branch sum, cross term included
        expected = 2.0 * (1.0 + math.exp(-2.0 * abs(complex(state.cat_amp)) ** 2))
        defect = abs(n2 / expected - 1.0)
    else:
        defect = abs(n2 - 1.0)
    if defect > 1e-8:
        raise GridSizingError(f"discretized state norm off by {defect:.3e}; grid too small or too coarse")
    w.psi /= math.sqrt(n2)
    return w


def _marginal_means(prob: np.ndarray, coord: np.ndarray):
    """Marginals and total of a 2-D density, and the means of its two axes;
    two sums over the array and no BLAS call, cheap enough for every SCEG
    kick."""
    m1 = prob.sum(axis=1)
    m2 = prob.sum(axis=0)
    total = m1.sum()
    return m1, m2, total, float((coord * m1).sum() / total), float((coord * m2).sum() / total)


def _axis_stats(prob: np.ndarray, coord: np.ndarray) -> tuple[float, float, float, float, float]:
    """means, variances and covariance of the two axes of a 2-D density."""
    m1, m2, total, mean1, mean2 = _marginal_means(prob, coord)
    var1 = float((coord**2 * m1).sum() / total) - mean1**2
    var2 = float((coord**2 * m2).sum() / total) - mean2**2
    cross = float(coord @ prob @ coord / total) - mean1 * mean2
    return mean1, mean2, var1, var2, cross


def _p_density(w: GridWavefunction, axis: int) -> np.ndarray:
    """Re(conj(psi) p psi) for the momentum operator along one axis, applied
    spectrally; no complex temporary outlives the call."""
    p = w.spec.p_axis()
    shape = (-1, 1) if axis == 0 else (1, -1)
    b = sfft.fft(w.psi, axis=axis)
    b *= p.reshape(shape)
    b = sfft.ifft(b, axis=axis)
    prod = w.psi.real * b.real
    prod += w.psi.imag * b.imag
    return prod


def lab_means_from_grid(w: GridWavefunction) -> np.ndarray:
    """Lab-frame means (x1, p1, x2, p2) of a grid state."""
    return lab_means(moments_from_grid(w))


def moments_from_grid(w: GridWavefunction, prob: np.ndarray | None = None, *, return_p_edge: bool = False):
    """Quadrature moments of the normal modes, as a record (2, 5).

    Position moments come from grid summation, momentum moments from the
    discrete Fourier image, and the mixed covariances from spectral
    application of each momentum operator (the i = j entry is the symmetrized
    product; the cross entries commute).  `prob`, the position density
    |psi|^2, is computed if not given.  With `return_p_edge` the result is
    (record, share of the momentum density on the edge of the momentum grid),
    read off the Fourier image the moments use."""
    spec = w.spec
    x = spec.x_axis()
    if prob is None:
        prob = _density(w.psi)
    total = prob.sum()
    mx1, mx2, vx1, vx2, cxx = _axis_stats(prob, x)

    pp = _density(sfft.fft2(w.psi))
    p = spec.p_axis()
    mp1, mp2, vp1, vp2, cpp = _axis_stats(pp, p)

    # cov(x_i, p_j), symmetrized where operators share an axis
    cxp = np.empty((2, 2))
    means_x = (mx1, mx2)
    means_p = (mp1, mp2)
    for j in range(2):
        prod = _p_density(w, axis=j)
        for i in range(2):
            xi = x.reshape((-1, 1)) if i == 0 else x.reshape((1, -1))
            cxp[i, j] = float((xi * prod).sum() / total) - means_x[i] * means_p[j]

    def mode(sign: float) -> tuple[float, ...]:
        return (
            (mx1 + sign * mx2) / SQRT2,
            (mp1 + sign * mp2) / SQRT2,
            0.5 * (vx1 + vx2) + sign * cxx,
            0.5 * (vp1 + vp2) + sign * cpp,
            0.5 * (cxp[0, 0] + cxp[1, 1] + sign * (cxp[0, 1] + cxp[1, 0])),
        )

    record = check_moments((mode(+1.0), mode(-1.0)))
    if return_p_edge:
        return record, _edge_fraction(pp, np.fft.ifftshift(_edge_mask(spec.n, EDGE_RING)))
    return record


@dataclass(frozen=True)
class SchmidtResult:
    entropy: float
    purity: float


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded; both
    do nothing where that library or its symbols are not found.  Looked up on
    first use, so importing this module loads nothing."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        suffix = "64_" if "openblas64" in os.path.basename(path) else ""
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return (lambda: 0), (lambda n: None)


def schmidt_entropy(w: GridWavefunction) -> SchmidtResult:
    """Entanglement entropy (nats) between the two lab oscillators from the
    singular values of the amplitude matrix.  The SVD runs on one OpenBLAS
    thread: at grid sizes a second thread only adds CPU time (about 1.2 ms
    wall and 2.5 ms CPU per call at 80^2 on a 2-vCPU machine, against 0.7 ms
    of each on one), and it can change the result: on the records of the
    benchmark's cat state the singular values differ by up to 3.3e-16
    between one and two threads at 108^2 (5.8e-18 at 80^2), and the report
    prints the entropy to 17 significant digits.

    Importing gravswap sets OPENBLAS_NUM_THREADS to 1 unless it is set, but
    a caller that loads numpy first (a library user, pytest) gets OpenBLAS's
    own default, so the pin stays.  Pinning is no substitute for the
    variable: a thread count set after numpy's import leaves the second
    thread spinning.  A process that imports numpy and this module and then
    works 0.3 s on one thread used a median 0.58 s of CPU with the pin set
    after the import and 0.49 s with the variable set at start (7 runs each,
    2-vCPU VM)."""
    get, put = _openblas_threads()
    before = get()
    put(1)
    try:
        svals = np.linalg.svd(w.psi * w.spec.dx, compute_uv=False)
    finally:
        put(before)
    probs = svals**2
    probs = probs / probs.sum()
    nz = probs[probs > 1e-18]
    entropy = float(-np.sum(nz * np.log(nz)))
    purity = float(np.sum(probs**2))
    return SchmidtResult(entropy=entropy, purity=purity)


def _bare_kinetic(p_sq: np.ndarray, s: float) -> np.ndarray:
    """Momentum factor K = exp(-i sin(s) p^2 / 2) of the bare flow over s;
    exp(-i s H0) = C K C with the chirp C = exp(-i tan(s/2) x^2 / 2)."""
    return np.exp(-0.5j * math.sin(s) * p_sq)


@dataclass
class GridEvolution:
    """Sampled observables of one split-operator run."""

    times: np.ndarray
    moments: np.ndarray  # (n, 2, 5) normal-mode records
    entropies: np.ndarray | None
    purities: np.ndarray | None
    max_step_norm_drift: float
    max_boundary_fraction: float  # position edge
    max_p_boundary_fraction: float  # momentum edge
    final: GridWavefunction


def split_step_evolve(
    w: GridWavefunction,
    model: ModelKind,
    t_final: float,
    params: DimensionlessParams,
    cfg: IntegratorConfig | None = None,
    *,
    n_samples: int = 50,
    record_entropy: bool = False,
) -> GridEvolution:
    """Split-operator evolution of `w` (not mutated) under `model` over
    [0, t_final], in units of 1/omega, in SBAB2 steps with their corrector
    (two kinetic FFT round trips per step).

    Observables are recorded at n_samples step boundaries including both
    endpoints; a run takes at least n_samples - 1 steps, so no two records
    fall on the same boundary.  Refuses (ConfigError) a run beyond the grid
    step budget before allocating anything.  Aborts (EvolutionError) on norm
    drift beyond NORM_DRIFT_LIMIT per unit scaled time, or on probability
    beyond LEAKAGE_LIMIT on the edge of the position box or of the
    momentum grid.
    """
    cfg = cfg or IntegratorConfig()
    if t_final < 0:
        raise ParameterError("t_final must be non-negative")
    kicks, flows, corrector = _SBAB2
    n_samples = max(2, n_samples)
    spec = w.spec
    steps = max(cfg.grid_steps(t_final, params), n_samples - 1) if t_final > 0.0 else 0
    x = spec.x_axis()
    delta = params.delta
    rwa = model is ModelKind.QG_RWA

    psi = w.psi.copy()

    def kinetic(a, phase):
        # full momentum-space round trip
        b = sfft.fft2(a)
        b *= phase
        return sfft.ifft2(b)

    times: list[float] = []
    moments: list[np.ndarray] = []
    entropies: list[float] = []
    purities: list[float] = []
    state = {"max_drift": 0.0, "max_boundary": 0.0, "max_p_boundary": 0.0, "last_norm": None}

    def record(tau: float) -> None:
        cur = GridWavefunction(spec, psi)
        n2 = cur.norm_squared()
        if abs(n2 - 1.0) > NORM_DRIFT_LIMIT * max(tau, 1.0):
            raise EvolutionError(
                f"norm drift |{n2 - 1.0:.3e}| exceeds {NORM_DRIFT_LIMIT:.1e} per unit time at t = {tau!r}"
            )
        prob = _density(psi)
        frac = cur.boundary_fraction(prob=prob)
        if frac > LEAKAGE_LIMIT:
            raise EvolutionError(
                f"position axis leaked: boundary probability {frac:.3e} exceeds leakage limit "
                f"{LEAKAGE_LIMIT:.1e} at t = {tau!r}; widen GridSpec.half_extent"
            )
        pair, p_frac = moments_from_grid(cur, prob, return_p_edge=True)
        if p_frac > LEAKAGE_LIMIT:
            raise EvolutionError(
                f"momentum axis leaked: probability {p_frac:.3e} on the momentum-grid edge exceeds leakage "
                f"limit {LEAKAGE_LIMIT:.1e} at t = {tau!r}; decrease dx (raise GridSpec.n)"
            )
        state["max_boundary"] = max(state["max_boundary"], frac)
        state["max_p_boundary"] = max(state["max_p_boundary"], p_frac)
        times.append(tau)
        moments.append(pair)
        if record_entropy:
            sr = schmidt_entropy(cur)
            entropies.append(sr.entropy)
            purities.append(sr.purity)

    def track_norm() -> None:
        n2 = _norm_squared(psi, spec.dx)
        last = state["last_norm"]
        if last is not None:
            state["max_drift"] = max(state["max_drift"], abs(n2 - last))
        state["last_norm"] = n2

    track_norm()
    record(0.0)

    if steps:
        h = t_final / steps
        x1, x2 = x.reshape((-1, 1)), x.reshape((1, -1))
        p = spec.p_axis()
        p1, p2 = p.reshape((-1, 1)), p.reshape((1, -1))
        x_sq, p_sq = x1**2 + x2**2, p1**2 + p2**2
        # the flow between kicks: the bare flow, whose chirps go into the
        # kicks on either side, or for QG_RWA the drift d p1 p2 of d B
        if rwa:
            chirps = [0.0] * len(flows)
            flow_phase = {b: np.exp(-1j * b * h * delta * (p1 * p2)) for b in set(flows)}
        else:
            chirps = [math.tan(0.5 * b * h) for b in flows]
            flow_phase = {b: _bare_kinetic(p_sq, b * h) for b in set(flows)}
        flow_phases = [flow_phase[b] for b in flows]

        # The position-diagonal factors of a step, each (coupling weight,
        # corrector weight, chirp) in units of h, h^3 and 1: the outer kick,
        # which opens and closes a run of steps between records, the kicks
        # between flows, and the join of one step's last kick with the next
        # step's first.
        edge = (kicks[0], 0.5 * corrector, chirps[0])
        inner = [(kicks[j], 0.0, chirps[j - 1] + chirps[j]) for j in range(1, len(flows))]
        join = (kicks[0] + kicks[-1], corrector, chirps[-1] + chirps[0])

        if model is ModelKind.SCEG:
            half_x_sq = 0.5 * x**2

            def kick(a, c, g, t):
                # separable mean-field kick: one 1-D phase per axis, with the
                # means measured right before it; W is linearised about them
                *_, m1, m2 = _marginal_means(_density(a), x)
                for m_self, m_other, shape in ((m1, m2, (-1, 1)), (m2, m1, (1, -1))):
                    slope = c * h * 2.0 * delta * m_other + g * h**3 * 8.0 * delta**2 * m_self
                    a *= np.exp(-1j * (slope * x + t * half_x_sq)).reshape(shape)

        else:
            # (kick, double bracket W, chirp exponent): QG_FULL kicks
            # V1 = 2 d x1 x2, QG_RWA the d x1 x2 of d B
            if rwa:
                v1, w2, chirp = delta * x1 * x2, 2.0 * delta**3 * x1 * x2, 0.0
            else:
                v1, w2, chirp = 2.0 * delta * x1 * x2, 4.0 * delta**2 * x_sq, 0.5 * x_sq
            phases = {k: np.exp(-1j * (k[0] * h * v1 + k[1] * h**3 * w2 + k[2] * chirp)) for k in {edge, join, *inner}}

            def kick(a, c, g, t):
                a *= phases[c, g, t]

        bare_flow = {}
        bounds = record_bounds(steps, n_samples)
        for i0, i1 in zip(bounds[:-1], bounds[1:]):
            chunk = int(i1 - i0)
            kick(psi, *edge)
            for i in range(chunk):
                for phase, k in zip(flow_phases, [*inner, join if i < chunk - 1 else edge]):
                    psi = kinetic(psi, phase)
                    kick(psi, *k)
                track_norm()
            if rwa:
                # H0 commutes with B: its exact flow over the gap, in pieces
                # of at most pi/2 so the chirp stays clear of the pole of tan
                if chunk not in bare_flow:
                    pieces = math.ceil(chunk * h / (0.5 * math.pi))
                    s = chunk * h / pieces
                    bare_flow[chunk] = (pieces, np.exp(-0.5j * math.tan(0.5 * s) * x_sq), _bare_kinetic(p_sq, s))
                pieces, gap_chirp, gap_kinetic = bare_flow[chunk]
                for _ in range(pieces):
                    psi *= gap_chirp
                    psi = kinetic(psi, gap_kinetic)
                    psi *= gap_chirp
            record(float(i1) * h)

    return GridEvolution(
        times=np.array(times),
        moments=np.array(moments),
        entropies=np.array(entropies) if record_entropy else None,
        purities=np.array(purities) if record_entropy else None,
        max_step_norm_drift=state["max_drift"],
        max_boundary_fraction=state["max_boundary"],
        max_p_boundary_fraction=state["max_p_boundary"],
        final=GridWavefunction(spec, psi),
    )
