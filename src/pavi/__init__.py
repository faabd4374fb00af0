"""Particle-based mean-field variational inference with verification tooling.

The package approximates a target density exp(-V) by the closest product
distribution, evolving an m-by-N particle array whose per-coordinate drift is
a batched average of partial derivatives over the current product empirical
measure.  A grid fixed-point solver and a closed-form Gaussian path provide
independent references, and a Wasserstein-2 suite measures convergence.
"""

__version__ = "0.1.0"

from .dynamics import (
    RunConfig,
    corollary_schedule,
    exact_step,
    pavi_step,
    run,
    validate_config,
)
from .errors import (
    ConfigError,
    DivergenceError,
    OracleConvergenceError,
    PaviError,
)
from .metrics import (
    GaussianMarginal,
    ReferenceProduct,
    grad_moment_check,
    w2_1d_empirical,
    w2_product_empirical,
    w2_reference_profile,
)
from .oracle import (
    GridDensity,
    GridProduct,
    apply_transform,
    fixed_point_solve,
    gaussian_mfvi_solution,
    grid_reference,
    initial_grid_product,
    load_reference,
    sample_reference,
    save_reference,
    vbar_on_grid,
)
from .particles import (
    ParticleArray,
    RngStream,
    coordinate_means,
    init_particles,
    sample_product,
)
from .potentials import (
    PerturbedQuadraticPotential,
    Potential,
    QuadraticPotential,
    potential_from_config,
)
from .reports import ConvergenceReport, RateFit, SweepResult, rate_fit

__all__ = [name for name in dir() if not name.startswith("_")]
