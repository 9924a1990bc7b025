"""Physical inputs and the derived dimensionless coupling ladder.

Two identical harmonic oscillators (mass m, trap frequency omega, equilibrium
separation d) that interact only through the Newtonian pair potential reduce,
once the potential is expanded to quadratic order in the displacements, to a
single dimensionless coupling ratio

    delta = omega_g / omega,    omega_g = lam / (m omega),  lam = G m^2 / d^3

The claims are identities in (delta, omega t), so delta is the one physics
input of the library.  Everything downstream works in oscillator units
(hbar = m = omega = 1, lengths in sqrt(hbar/(m omega)), momenta in
sqrt(hbar m omega)) and takes and returns times tau = omega t, in units of
1/omega.  SI values enter only through `PhysicalParams`, and only the
feasibility table turns a time back into seconds.

The derived frequency factors of the symmetric (+) and antisymmetric (-)
normal modes, whose frequencies are k_pm and K_pm in units of omega:

    k_pm     = 1 +/- delta            number-conserving (RWA) factors
    K_pm     = sqrt(1 +/- 2 delta)    exact normal-mode factors

K_minus is real only for delta < 1/2, and the quadratic expansion of the pair
potential is long dead by then, so delta >= 1/2 is rejected outright.  Values
above 0.2 draw a warning instead of an error because numerical verification
deliberately exaggerates the coupling far beyond any physical setting.

The model names and the integrators' step settings live here too, with the
rest of what a config holds, so that parsing and checking a config imports
no numpy.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 kg^-1 s^-2
HBAR = 1.054571817e-34  # J s
ATOMIC_MASS = 1.66053906660e-27  # kg

DELTA_HARD_LIMIT = 0.5
DELTA_WARN_LIMIT = 0.2


class ParameterError(ValueError):
    """Raised for physically invalid or out-of-regime parameters."""


class ConfigError(ValueError):
    """Raised for invalid experiment configuration."""


def _require_positive(owner: str, name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ParameterError(f"{owner}.{name}: must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """SI description of one platform: two traps of mass `mass` (kg) at
    angular frequency `omega` (rad/s), separated by `separation` (m), with
    G and hbar at their CODATA values."""

    mass: float
    omega: float
    separation: float

    def __post_init__(self) -> None:
        for name in ("mass", "omega", "separation"):
            _require_positive("params", name, getattr(self, name))

    @property
    def lam(self) -> float:
        """Quadratic coupling strength G m^2 / d^3 (J m^-2)."""
        return GRAVITATIONAL_CONSTANT * self.mass**2 / self.separation**3

    @property
    def omega_g(self) -> float:
        """Gravitational exchange rate lam / (m omega) (rad/s)."""
        return self.lam / (self.mass * self.omega)

    @property
    def oscillator_length(self) -> float:
        """sqrt(hbar / (m omega)) (m); unit of position in oscillator units."""
        return math.sqrt(HBAR / (self.mass * self.omega))


@dataclass(frozen=True)
class DimensionlessParams:
    """The coupling ratio delta, the one physics input of the library.  All
    derived frequency factors, in units of omega, hang off this record."""

    delta: float

    def __post_init__(self) -> None:
        if not (isinstance(self.delta, (int, float)) and math.isfinite(self.delta)):
            raise ParameterError(f"params.delta: must be a finite number, got {self.delta!r}")
        if self.delta < 0:
            raise ParameterError(f"params.delta: must be non-negative, got {self.delta!r}")
        if self.delta >= DELTA_HARD_LIMIT:
            raise ParameterError(
                f"params.delta: expansion regime violated (delta = {self.delta!r} >= 1/2); "
                "the quadratic expansion of the pair potential assumes the separation "
                "dominates the oscillation amplitudes"
            )
        if self.delta > DELTA_WARN_LIMIT:
            warnings.warn(
                f"coupling ratio delta = {self.delta:.3g} exceeds {DELTA_WARN_LIMIT}; "
                "second-order frequency errors grow as delta^2 and the antisymmetric "
                "mode softens toward instability",
                UserWarning,
                stacklevel=2,
            )

    @property
    def k_plus(self) -> float:
        return 1.0 + self.delta

    @property
    def k_minus(self) -> float:
        return 1.0 - self.delta

    @property
    def K_plus(self) -> float:
        return math.sqrt(1.0 + 2.0 * self.delta)

    @property
    def K_minus(self) -> float:
        return math.sqrt(1.0 - 2.0 * self.delta)


def derive_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Reduce SI inputs to the coupling ratio; rejects delta >= 1/2."""
    return DimensionlessParams(delta=p.omega_g / p.omega)


def swap_time(p: DimensionlessParams) -> float:
    """Scaled time omega t at which the gravitational beat exchanges the two
    oscillators' states, pi / (2 delta).  Unbounded (inf) for zero coupling,
    and for a coupling so small that the quotient overflows."""
    if p.delta == 0.0:
        return math.inf
    return math.pi / (2.0 * p.delta)


class ModelKind(enum.Enum):
    QG_FULL = "qg_full"
    QG_RWA = "qg_rwa"
    SCEG = "sceg"


MODEL_BY_NAME = {m.value: m for m in ModelKind}


# Grid steps per run: a fourth-order step is two kinetic FFT round trips on
# numpy.fft, 0.21 ms on a 64^2 grid, 0.29 ms on 80^2, 0.76 ms on 128^2 and 4.2
# ms on 256^2 (best of 11 swaps, 2-vCPU machine): a budget of 0.6 to 12 hours.
MAX_GRID_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Step sizes of the two numerical oracles.

    Both step factors are in units of one exact-plus-mode period, 2 pi /
    K_plus in scaled time.  The grid factor is the length of one
    fourth-order step (two kinetic FFT round trips) and is capped at 8e-2
    of a period: the measured order of the grid error is still 4.0 to 4.2
    between 8e-2 and 4e-2, at couplings 0.1 and 0.2, so up to the cap the
    error is in the asymptotic regime (from 1.6e-1 down to 8e-2 it strays
    to 3.4 to 4.5).  The default 1.55e-2 leaves a grid mean error of 6.6e-8
    over a full swap of (2, -1) at coupling 0.1.
    """

    dt_factor: float = 1.55e-2
    rk_step_factor: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.dt_factor <= 8e-2):
            raise ParameterError(f"numerics.dt_factor: must be in (0, 8e-2] periods, got {self.dt_factor!r}")
        if not (0.0 < self.rk_step_factor < math.inf):
            raise ParameterError(f"numerics.rk_step_factor: must be finite and positive, got {self.rk_step_factor!r}")

    def grid_step(self, params: DimensionlessParams) -> float:
        """Split-operator step in scaled time (omega t)."""
        return self.dt_factor * 2.0 * math.pi / params.K_plus

    def grid_steps(self, tau_final: float, params: DimensionlessParams) -> int:
        """Composite split-operator steps over `tau_final` (scaled time).

        Refuses a span beyond MAX_GRID_STEPS steps, so an unrunnable grid run
        fails before any array is allocated."""
        steps = tau_final / self.grid_step(params)
        if not steps <= MAX_GRID_STEPS:
            raise ConfigError(
                f"numerics.dt_factor: {self.dt_factor!r} periods gives {steps:.3g} grid steps "
                f"over scaled time {tau_final:.3g}, beyond the budget of {MAX_GRID_STEPS}"
            )
        return max(1, math.ceil(steps))

    def rk_step(self, params: DimensionlessParams) -> float:
        """Runge-Kutta step in scaled time (omega t)."""
        return self.rk_step_factor * 2.0 * math.pi / params.K_plus


# Order-of-magnitude feasibility presets.  The ion separation is taken at the
# crystal lattice scale, which wildly exaggerates the coupling relative to any
# realizable two-ion trap and still leaves a ~10^4-year swap.
PLATFORM_PRESETS: dict[str, PhysicalParams] = {
    "ca40_ion": PhysicalParams(mass=40.0 * ATOMIC_MASS, omega=1.0e6, separation=1.0e-10),
}
