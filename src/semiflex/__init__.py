"""Discrete semiflexible polymer toolkit.

A chain of N+2 heights phi carries the bending energy
eps * sum_j Phi(lap_j / eps), with lap_j the second difference of phi at
site j.  The package provides exact and MCMC samplers for the free and
boundary-pinned ensembles, closed-form Gaussian covariance analytics for the
rescaled bridge, tilt equations and sharp asymptotics for boundary large
deviations, a transfer-operator solver for tube-confinement free energies,
and a brute-force enumeration oracle that validates all of it at desk scale.
"""

from .model import (
    BoundaryConditions,
    ContinuumProfile,
    EnergyCheckRow,
    GaussianPotential,
    ModelParams,
    Potential,
    PowerLawPotential,
    TabulatedPotential,
    continuum_energy_check,
    hamiltonian,
    map_boundary,
)
from .gaussian import (
    ConditionedSpec,
    GridTimes,
    exact_boundary_density,
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
    macro_boundary,
    mean_profile,
    sharp_ld_probability,
    solve_tilts,
    step_log_mgf,
)
from .confinement import (
    FitResult,
    PowerResult,
    SweepRow,
    TransferOperator,
    TubeSpec,
    build_transfer,
    confinement_sweep,
    exponent_fit,
    free_energy,
    power_iteration,
    survival_probability,
    tube_radius,
)
from .oracle import (
    EnumerationResult,
    EnumerationSpec,
    MarginalCheck,
    bridge_marginal_check,
    cross_check_sweep,
    enumerate_configs,
    gaussian_functional_density,
    mapped_boundary_density,
    path_sum_check,
)

__version__ = "0.1.0"
