"""Pseudospectral laboratory for quadratic Klein-Gordon systems.

The package evolves coupled scalar fields in their half-wave formulation on
periodic grids, runs the associated Duhamel fixed-point iteration, measures
variation-type norms of sampled trajectories, and numerically stress-tests
the family of inequalities that controls the small-data theory.
"""

from .dynamics import (
    CauchyData,
    InstabilityError,
    PicardReport,
    ScatteringResult,
    Trajectory,
    conserved_energy,
    decompose,
    evolve,
    free_trajectory,
    initial_pair,
    linear_exact,
    picard_iterate,
    reconstruct,
    scattering_state,
)
from .grid import (
    DyadicIndex,
    FrequencyLattice,
    GridSpec,
    SpaceTimeField,
    SpectralField,
    annulus_profile,
    bracket_multiplier,
    bump_profile,
    dyadic_scales,
    forward_transform,
    free_propagate,
    gaussian_bump,
    inverse_transform,
    l2_norm,
    lp_project,
    lp_weights,
    modulation_energy,
    modulation_project,
    modulation_weights,
    random_field,
    sobolev_norm,
)
from .harness import (
    BilinearCase,
    ShellSpec,
    VerificationRecord,
    ball_mode_set,
    bilinear_sweep,
    cap_mode_set,
    convolution_support_constant,
    shell_intersection_volume,
    strauss_exponent,
    strichartz_admissible,
    sweep_uniformity,
    verify_bilinear,
    verify_modulation_bound,
    verify_nonresonance_bound,
    verify_trilinear,
)
from .system import (
    MassSystem,
    Monomial,
    check_nonresonance,
    evaluate_nonlinearity,
    free_system,
    resonance_function,
    scalar_system,
    smallest_bracket,
)
from .variation import (
    ModulationReport,
    Partition,
    SampledPath,
    best_partition,
    check_mod_projection_bound,
    increment_table,
    p_variation,
    v2_pm_norm,
    xs_proxy_norm,
)

__version__ = "0.1.0"
