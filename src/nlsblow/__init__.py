"""Numerical laboratory for minimal-mass blow-up of the 2D cubic NLS.

The equation is i u_t = -Δu - k(x)|u|^2 u on R^2 with a smooth bounded
inhomogeneity k. The package builds the ground state Q of ΔQ - Q + Q^3 = 0,
the linearized operators around it, the refined blow-up profile that absorbs
the Taylor expansion of k at a nondegenerate maximum, the modulation
dynamical systems, a split-step spectral simulator, and the fitting/diagnostic
machinery that extracts the modulation parameters from a simulated field.

Importing the package loads only the radial layer; ``nlsblow.lab.get_lab``
builds the lab (Q, its moments, L± and ρ) once per process.
"""

from .radial import RadialGrid, RadialFunction, Moments, solve_ground_state, quadrature

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "Moments",
    "solve_ground_state",
    "quadrature",
]

__version__ = "0.1.0"
