"""Discrete semiflexible polymer toolkit.

A chain of N+2 heights phi carries the bending energy
eps * sum_j Phi(lap_j / eps), with lap_j the second difference of phi at
site j.  The package provides exact and MCMC samplers for the free and
boundary-pinned ensembles, closed-form Gaussian covariance analytics for the
rescaled bridge, tilt equations and sharp asymptotics for boundary large
deviations, a transfer-operator solver for tube-confinement free energies,
and a brute-force enumeration oracle that validates all of it at desk scale.

The package re-exports nothing: import each name from its module, as in
`from semiflex.model import hamiltonian`.
"""

__version__ = "0.1.0"
