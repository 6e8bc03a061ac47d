"""Shared, cached build of the ground-state stack (grid, Q, moments, L±, ρ).

Everything downstream (profile construction, simulation initialization,
decomposition windows) reads from one Lab instance, so the expensive pieces
are computed once per grid.  A Lab is complete when it is built: its
``LinearizedOps`` holds every band and kernel vector and ρ, solved once
there; ``Lab.rho`` reads it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import PolarGrid
from .radial import RadialGrid, RadialFunction, Moments, quadrature, solve_ground_state, moments
from .linops import LinearizedOps

DEFAULT_R_MAX = 30.0
DEFAULT_N = 8192
N_THETA = 64           # angles of Lab.polar


@dataclass
class Lab:
    grid: RadialGrid
    Q: RadialFunction
    moments: Moments
    ops: LinearizedOps

    @property
    def rho(self) -> RadialFunction:
        return self.ops.rho

    @property
    def dQ(self) -> np.ndarray:
        return self.ops.dQ

    @property
    def polar(self) -> PolarGrid:
        """The one polar grid of the profile's fields: this radial grid × N_THETA angles."""
        return PolarGrid(self.grid.r_max, self.grid.n, N_THETA)

    @property
    def rho_Q(self) -> float:
        """(ρ, Q) -- nondegenerate, equals ||yQ||²/2."""
        return quadrature(self.rho.values * self.Q.values, self.grid)

    @property
    def y2Q_rho(self) -> float:
        """(|y|²Q, ρ)."""
        r = self.grid.nodes
        return quadrature(r ** 2 * self.Q.values * self.rho.values, self.grid)


def get_lab(r_max: float = DEFAULT_R_MAX, n: int = DEFAULT_N, tol: float = 1e-10) -> Lab:
    """The lab on (r_max, n, tol), built once per process however it is called."""
    return _build_lab(float(r_max), int(n), float(tol))


@lru_cache(maxsize=8)
def _build_lab(r_max: float, n: int, tol: float) -> Lab:
    grid = RadialGrid(r_max, n)
    Q = solve_ground_state(grid, tol=tol)
    return Lab(grid=grid, Q=Q, moments=moments(Q), ops=LinearizedOps(Q))
