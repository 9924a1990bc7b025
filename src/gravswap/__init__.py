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

import os

# OpenBLAS reads its thread count once, when numpy loads it, and a second
# thread spins idle beside the grid's work and the forked model runs; so one
# thread is the default here, before any numpy import.  A value the user set
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .params import (
    ATOMIC_MASS,
    DimensionlessParams,
    GRAVITATIONAL_CONSTANT,
    HBAR,
    ParameterError,
    PhysicalParams,
    PLATFORM_PRESETS,
    derive_dimensionless,
    swap_time,
)
from .states import (
    MOMENT_FIELDS,
    DisplacementEstimate,
    MomentError,
    branch_schmidt_entropy,
    check_moments,
    coherent_inner,
    coherent_overlap,
    coherent_pair_moments,
    displacement_from_moments,
    from_normal_modes,
    lab_means,
    moments_of_coherent,
    to_normal_modes,
    two_mode_overlap,
    uncertainty_product,
)
from .analytic import (
    CoherenceResult,
    CorrectedDisplacement,
    ModelKind,
    QuadraticHamiltonian,
    coherence_check,
    mode_hamiltonians,
    phase_corrected_pair,
    propagate_corrected_displacement,
    propagate_moments,
    propagate_rwa_displacement,
    propagate_rwa_lab_displacement,
    template_moment_rhs,
)
from .moments_ode import (
    IntegrationError,
    IntegratorConfig,
    MomentSeries,
    StepUnderflowError,
    ToleranceError,
    integrate_moments,
)
from .grid import (
    CatProduct,
    CoherentProduct,
    EvolutionError,
    GridError,
    GridEvolution,
    GridSizingError,
    GridSpec,
    GridWavefunction,
    auto_grid_spec,
    build_initial_grid,
    lab_means_from_grid,
    moments_from_grid,
    schmidt_entropy,
    split_step_evolve,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    Platform,
    Tolerances,
    Verdict,
    preset_platform,
    run_cat_state,
    run_feasibility,
    run_rwa_validity,
    run_swap,
)
from .config import config_digest, format_config, parse_config, parse_config_text
from .report import ReplayMismatchError, emit_report
