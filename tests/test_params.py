import math

import pytest

from gravswap import (
    ATOMIC_MASS,
    DimensionlessParams,
    ParameterError,
    PhysicalParams,
    PLATFORM_PRESETS,
    derive_dimensionless,
    swap_time,
)


def test_ca40_preset_coupling_order_of_magnitude():
    p = PLATFORM_PRESETS["ca40_ion"]
    assert p.mass == pytest.approx(40 * ATOMIC_MASS)
    # exchange rate lands within a decade of 1e-12 Hz
    assert 1e-13 < p.omega_g < 1e-11
    dp = derive_dimensionless(p)
    assert dp.omega == p.omega
    assert 0 < dp.delta < 1e-17


def test_decoupled_limit():
    dp = DimensionlessParams(delta=0.0)
    assert dp.omega_g == 0.0
    assert dp.k_plus == dp.k_minus == 1.0
    assert dp.K_plus == dp.K_minus == 1.0
    assert swap_time(dp) == math.inf


def test_frequency_factors_delta_002():
    dp = DimensionlessParams(delta=0.02)
    assert dp.k_plus == pytest.approx(1.02, abs=0)
    assert dp.K_plus == pytest.approx(math.sqrt(1.04), abs=0)
    assert abs(dp.K_plus - dp.k_plus) < 4e-4
    assert abs(dp.K_minus - dp.k_minus) < 4e-4


@pytest.mark.parametrize(
    "delta,omega,expected",
    [(0.01, 1.0, 50 * math.pi), (0.1, 2.0, math.pi / 0.4)],
)
def test_swap_time_values(delta, omega, expected):
    assert swap_time(DimensionlessParams(delta, omega)) == pytest.approx(expected, rel=1e-15)


def test_delta_hard_limit():
    with pytest.raises(ParameterError, match="expansion regime violated"):
        DimensionlessParams(delta=0.5)
    with pytest.raises(ParameterError):
        DimensionlessParams(delta=0.6)
    with pytest.raises(ParameterError):
        DimensionlessParams(delta=-0.1)


def test_delta_warn_band():
    with pytest.warns(UserWarning, match="exceeds 0.2"):
        DimensionlessParams(delta=0.3)
    # 0.2 itself is fine
    DimensionlessParams(delta=0.2)


def test_physical_validation():
    with pytest.raises(ParameterError, match="params.mass"):
        PhysicalParams(mass=-1.0, omega=1.0, separation=1.0)
    with pytest.raises(ParameterError, match="params.separation"):
        PhysicalParams(mass=1.0, omega=1.0, separation=0.0)


def test_separation_scaling_exact():
    # doubling d divides lam and omega_g by exactly 8 (power-of-two scale)
    base = PhysicalParams(mass=1e-3, omega=10.0, separation=0.25)
    scaled = PhysicalParams(mass=1e-3, omega=10.0, separation=0.5)
    assert scaled.lam == base.lam / 8.0
    assert scaled.omega_g == base.omega_g / 8.0


def test_separation_scaling_general():
    base = PhysicalParams(mass=2.5e-2, omega=3.0, separation=0.7)
    c = 1.7
    scaled = PhysicalParams(mass=2.5e-2, omega=3.0, separation=0.7 * c)
    assert scaled.lam == pytest.approx(base.lam / c**3, rel=1e-14)
    assert scaled.omega_g == pytest.approx(base.omega_g / c**3, rel=1e-14)


def test_si_round_trip():
    p = PhysicalParams(mass=1e-6, omega=2.3e4, separation=1e-3)
    dp = derive_dimensionless(p)
    assert dp.omega == p.omega
    assert dp.omega_g == pytest.approx(p.omega_g, rel=1e-15)


def test_exact_vs_rwa_frequency_ratio_band():
    # the exact-to-RWA frequency ratio K_pm / k_pm stays within delta^2 of unity up to delta = 0.2
    for delta in [0.005, 0.02, 0.05, 0.1, 0.15, 0.2]:
        dp = DimensionlessParams(delta)
        for ratio in (dp.K_plus / dp.k_plus, dp.K_minus / dp.k_minus):
            assert 1 - delta**2 <= ratio <= 1 + delta**2
