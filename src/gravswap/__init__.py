"""Pairs of gravitationally coupled oscillators under three dynamics models.

The library evolves two identical trapped oscillators coupled by the
quadratically expanded Newtonian pair potential under

  * the exact quadratic quantum Hamiltonian (QG_FULL),
  * its number-conserving rotating-wave truncation (QG_RWA), and
  * the mean-field Schroedinger-Newton coupling (SCEG),

via mutually independent paths (closed forms, moment-ODE integration,
split-operator grid evolution), and packages the headline comparisons --
coherent-state swapping, RWA breakdown, the superposition/entanglement
dichotomy, and platform feasibility -- as reproducible experiments.
"""

import importlib
import os

# OpenBLAS reads its thread count once, when numpy loads it, and a second
# thread spins idle beside the grid's work and the forked model runs; so one
# thread is the default here, before any numpy import.  A value the user set
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each exported name is loaded from its module on first access (PEP 562), so
# importing the package, or its numpy-free config modules, loads no numpy.
_EXPORTS = {
    "params": (
        "ATOMIC_MASS", "ConfigError", "DimensionlessParams", "GRAVITATIONAL_CONSTANT", "HBAR",
        "ModelKind", "ParameterError", "PhysicalParams", "PLATFORM_PRESETS",
        "derive_dimensionless", "swap_time",
    ),
    "config": (
        "ExperimentConfig", "Platform", "config_digest", "format_config", "parse_config", "parse_config_text",
        "preset_platform",
    ),
    "states": (
        "MOMENT_FIELDS", "MomentError", "cat_pair_entropy", "check_moments", "coherent_overlap",
        "coherent_pair_moments", "from_normal_modes", "lab_means", "moments_of_coherent", "to_normal_modes",
        "two_mode_overlap", "uncertainty_product",
    ),
    "analytic": (
        "QuadraticHamiltonian", "mode_hamiltonians", "phase_corrected_pair", "propagate_corrected_displacement",
        "propagate_moments", "propagate_rwa_lab_displacement", "template_generator",
    ),
    "moments_ode": ("IntegrationError", "MomentSeries", "ToleranceError", "integrate_moments"),
    "grid": (
        "CatProduct", "CoherentProduct", "EvolutionError", "GridError", "GridEvolution", "GridSizingError",
        "GridSpec", "GridWavefunction", "auto_grid_spec", "build_initial_grid", "lab_means_from_grid",
        "moments_from_grid", "schmidt_entropy", "split_step_evolve",
    ),
    "experiments": (
        "ExperimentReport", "Verdict", "run_cat_state", "run_feasibility", "run_rwa_validity", "run_swap",
    ),
    "report": ("ReplayMismatchError", "ReportError", "emit_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
