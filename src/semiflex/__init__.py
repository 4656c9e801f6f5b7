"""Discrete semiflexible polymer toolkit.

A chain of N+2 heights carries the bending energy
eps * sum_j Phi(laplacian(phi)_j / eps).  The package provides exact and MCMC
samplers for the free and boundary-pinned ensembles, closed-form Gaussian
covariance analytics for the rescaled bridge, tilt equations and sharp
asymptotics for boundary large deviations, a transfer-operator solver for
tube-confinement free energies, and a brute-force enumeration oracle that
validates all of it at desk scale.
"""

from .model import (
    BoundaryConditions,
    ContinuumProfile,
    EnergyCheckRow,
    GaussianPotential,
    IncrementPath,
    ModelParams,
    PartialSums,
    PolymerConfig,
    Potential,
    PowerLawPotential,
    TabulatedPotential,
    ThetaPath,
    continuum_energy_check,
    discretize_profile,
    from_increments,
    gradient,
    hamiltonian,
    laplacian,
    map_boundary,
    partial_sums,
    theta_path,
    to_increments,
)
from .gaussian import (
    ConditionedSpec,
    GridTimes,
    conditional_gaussian,
    exact_boundary_density,
    matrix_from_csv,
    matrix_to_csv,
    q_matrix,
    sigma2_increment,
    theta_cov,
    theta_mean,
    xy_moments,
)
from .sampling import (
    ChainSettings,
    IncrementDistribution,
    ThetaStats,
    build_increment_dist,
    estimate_theta_stats,
    sample_bridge_mcmc,
    sample_free,
    sample_gaussian_bridge,
    samples_from_csv,
    samples_from_frame,
    samples_to_csv,
    samples_to_frame,
)
from .ldp import (
    LogMgf,
    TiltSolution,
    l_infinity,
    ld_rate,
    limit_log_mgf,
    log_mgf,
    macro_boundary,
    mean_profile,
    sharp_ld_probability,
    solve_tilts,
    step_log_mgf,
)
from .confinement import (
    FitResult,
    MCSurvival,
    PowerResult,
    SweepRow,
    TransferOperator,
    TubeSpec,
    build_transfer,
    confinement_sweep,
    exponent_fit,
    free_energy,
    mc_survival,
    power_iteration,
    survival_probability,
    tube_radius,
)
from .oracle import (
    EnumerationResult,
    EnumerationSpec,
    enumerate_configs,
    gaussian_functional_density,
    mapped_boundary_density,
)

__version__ = "0.1.0"
