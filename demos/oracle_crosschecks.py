"""Everything at desk scale against the exhaustive oracle.

N <= 6 with increments on {-1, 0, 1} is small enough to sum over every
configuration, which checks the transfer path sum, the bridge MCMC, and
the exact boundary density from three independent directions.
"""

import math

from semiflex.gaussian import exact_boundary_density
from semiflex.model import BoundaryConditions, GaussianPotential, ModelParams
from semiflex.oracle import bridge_marginal_check, mapped_boundary_density, path_sum_check
from semiflex.sampling import ChainSettings, sample_bridge_mcmc

SUPPORT = (-1.0, 0.0, 1.0)


def survival_check():
    print("transfer path sum vs enumeration, P(|phi_k| <= R for all k)")
    for n in (4, 5, 6):
        params = ModelParams(n, 1.0, float(n), height_mode="discrete")
        ps, exact = path_sum_check(params, GaussianPotential(1.0), SUPPORT, 1.3)
        print(f"  N={n}: path sum {ps:.12f}, enumeration {exact:.12f}, "
              f"diff {abs(ps - exact):.1e}")


def marginal_check():
    n = 5
    params = ModelParams(n, 1.0, float(n), height_mode="discrete")
    pot = GaussianPotential(1.0)
    settings = ChainSettings(seed=3, n_samples=120_000, burn_in=500, thin=2,
                             n_chains=32)
    samples = sample_bridge_mcmc(params, pot, BoundaryConditions(0.0, 0.0, 0.0),
                                 settings, truncation=1.0)
    sites, values = (2, 3, 4), (-1.0, 0.0, 1.0)
    check = bridge_marginal_check(samples, params, pot, SUPPORT, sites, values)
    print(f"MCMC site marginals vs enumeration, N={n}, zero bridge")
    for j, sampled, exact in zip(sites, check.sampled, check.exact):
        for v, p_hat, p in zip(values, sampled, exact):
            print(f"  P(phi_{j} = {v:+.0f}): mcmc {p_hat:.4f}, exact {p:.4f}")


def density_check():
    # the closed form takes slopes in standardized step units; after the
    # sqrt(N) substitution the two densities differ by the constant Jacobian
    print("exact boundary density vs brute-force change of variables")
    for n in (3, 5, 10):
        root = math.sqrt(n)
        rs = [mapped_boundary_density(n, 1.0, 1.0, root * xl, root * xr)
              / exact_boundary_density(n, 1.0, 1.0, xl, xr)
              for xl, xr in ((0.0, 0.0), (0.1, -0.05), (0.3, 0.2))]
        print(f"  N={n:2d}: ratio {rs[0]:.6f}, spread over slope pairs "
              f"{max(rs) - min(rs):.1e}, N^2/(c(N+1)) = {n * n / (n + 1.0):.6f}")


def main():
    survival_check()
    marginal_check()
    density_check()


if __name__ == "__main__":
    main()
