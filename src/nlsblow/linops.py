"""Linearized operators L± around the ground state, per angular harmonic.

On the mode-m radial part of a field f_m(r) e^{imθ},

    L± f = -f'' - f'/r + (m²/r²) f + f - c Q² f,   c = 3 (L+), c = 1 (L-).

The bands are those of ``radial.operator_banded`` (4th-order pentadiagonal,
parity ghosts at r=0, Dirichlet row at r_max).  The lab builds its bands
for m = 0..M_MAX and its kernel vectors once, when it builds its one
``LinearizedOps``.  The kernel modes -- L+ at m=1 (radial part Q') and L- at
m=0 (Q itself) -- are solved by deflation: the source's left-kernel
component (refused above SOLVABILITY_THRESHOLD) is removed, the banded
system solved, and the solution projected orthogonal to the kernel.  A
complex source is solved as two real columns, its real and imaginary parts,
in one ``solve_banded``, deflated and gauged together.
"""

from typing import Literal

import numpy as np
from scipy.linalg import solve_banded

from .radial import (RadialGrid, RadialFunction, banded_matvec, derivative,
                     laplacian_banded, operator_banded, quadrature)

M_MAX = 4                      # largest angular mode the operators accept
SOLVABILITY_THRESHOLD = 1e-8   # largest relative kernel projection a source may have
CANCELLATION_NT = 64           # angles of cancellation_moment's angular quadrature

OpName = Literal["plus", "minus"]


class SolvabilityViolated(RuntimeError):
    """Source has a kernel component: the elliptic system is not invertible.

    Signals a wrong source construction upstream -- the adjusted constants
    must make each system solvable.
    """


class ModeError(ValueError):
    """Angular mode index exceeds M_MAX."""


KERNEL_MODES = (("plus", 1), ("minus", 0))   # (op, m) of the kernels Q' and Q


def _transpose_banded(ab: np.ndarray) -> np.ndarray:
    n = ab.shape[1]
    abT = np.zeros_like(ab)
    for k in (-2, -1, 0, 1, 2):
        i0, i1 = max(0, -k), min(n, n - k)
        abT[2 - k, i0 + k:i1 + k] = ab[2 + k, i0:i1]
    return abT


def _null_vector(ab: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """The unit near-null vector of band ab that k0 approximates, signed like k0."""
    k = k0 / np.linalg.norm(k0)
    for _ in range(2):   # inverse iteration onto the near-null direction
        x = solve_banded((2, 2), ab, k)
        x /= np.linalg.norm(x)
        if np.dot(x, k0) < 0:
            x = -x
        k = x
    return k


class LinearizedOps:
    """L± around Q: Laplacian bands lap[m], L± bands bands[op, m], kernels, all built here."""

    def __init__(self, Q: RadialFunction):
        self.Q = Q
        self.grid = Q.grid
        self.dQ = derivative(Q.values, self.grid, parity=+1)
        q2 = Q.values ** 2
        pot = {"plus": 1.0 - 3.0 * q2, "minus": 1.0 - q2}
        self.lap = tuple(laplacian_banded(self.grid, m) for m in range(M_MAX + 1))
        self.bands = {(op, m): operator_banded(self.lap[m], m, pot[op], self.grid.h)
                      for op in pot for m in range(M_MAX + 1)}
        self.kernels = {}
        for op, m in KERNEL_MODES:
            k0 = self.dQ.copy() if op == "plus" else Q.values.copy()
            if op == "plus":
                k0[0] = 0.0
            self.kernels[op, m, "right"] = _null_vector(self.bands[op, m], k0)
            w = _null_vector(_transpose_banded(self.bands[op, m]), k0 * self.grid.nodes)
            # constraint rows (f(0)=0 for m>=1, Dirichlet at r_max) never
            # see the source, so the solvability functional ignores them
            if m >= 1:
                w[0] = 0.0
            w[-1] = 0.0
            self.kernels[op, m, "left"] = w / np.linalg.norm(w)

    def _check_mode(self, m: int):
        if abs(m) > M_MAX:
            raise ModeError(f"|m|={abs(m)} exceeds M_MAX={M_MAX}")

    def is_kernel_mode(self, op: OpName, m: int) -> bool:
        return (op, abs(m)) in KERNEL_MODES

    def kernel_vector(self, op: OpName, m: int, side: str = "right") -> np.ndarray:
        """Discrete kernel radial part (Q' for L+ at |m|=1, Q for L- at m=0).

        side="left" returns the left null vector (≈ r times the right one for
        this nearly self-adjoint discretization); sources are solvable exactly
        when orthogonal to it.
        """
        return self.kernels[op, abs(m), side]

    # -- apply / solve ---------------------------------------------------

    def apply(self, op: OpName, values: np.ndarray, m: int) -> np.ndarray:
        """L±f for the mode-m radial part; row 0 is recomputed physically.

        For m=0 the origin row is the 4th-order L'Hopital stencil already;
        for m>=1 the matrix row is the constraint f(0)=0, so the returned
        value at r=0 is set to 0 (all m>=1 fields vanish there).
        """
        self._check_mode(m)
        out = banded_matvec(self.bands[op, abs(m)], np.asarray(values))
        if abs(m) >= 1:
            out[0] = 0.0
        # Dirichlet row applied L to a decayed tail: report 0 there
        out[-1] = 0.0
        return out

    def solvability_defect(self, op: OpName, values: np.ndarray, m: int,
                           scale: float = 0.0) -> float:
        """Size of the source component along the kernel of (op, m).

        Uses the left null vector of the discrete operator, so a defect of
        zero means the banded system is consistent to machine precision.  The
        projection is divided by max(‖values‖, scale): `scale` is the size the
        source's roundoff is relative to, when that exceeds the source itself.
        """
        if not self.is_kernel_mode(op, m):
            return 0.0
        den = max(vector_norm(values), scale)
        if den == 0.0:
            return 0.0
        w = self.kernel_vector(op, m, side="left")
        return float(abs(np.dot(w, values)) / den)

    def solve(self, op: OpName, gvalues: np.ndarray, m: int, scale: float = 0.0) -> np.ndarray:
        """Solve L±f = g at mode m; gauge f ⟂ kernel in the r dr pairing.

        Raises SolvabilityViolated when a kernel mode receives a source whose
        `solvability_defect` (with `scale`) exceeds SOLVABILITY_THRESHOLD.  A
        complex source is measured once, as a whole: a part that is small next
        to the other carries the other's roundoff, so its own relative defect
        has no meaning.
        """
        self._check_mode(m)
        g = np.asarray(gvalues)
        if self.is_kernel_mode(op, m):
            defect = self.solvability_defect(op, g, m, scale)
            if defect > SOLVABILITY_THRESHOLD:
                raise SolvabilityViolated(
                    f"source projection on kernel of L{op} (m={m}) is {defect:.2e} "
                    f"(> {SOLVABILITY_THRESHOLD:.0e}); check the source assembly")
        rhs = np.stack([g.real, g.imag], axis=1) if np.iscomplexobj(g) else g.astype(float)
        rhs[-1] = 0.0                   # Dirichlet
        if abs(m) >= 1:
            rhs[0] = 0.0                # origin constraint row
        if self.is_kernel_mode(op, m):
            f = self._solve_kernel_mode(op, abs(m), rhs)
        else:
            f = solve_banded((2, 2), self.bands[op, abs(m)], rhs)
        return f[:, 0] + 1j * f[:, 1] if f.ndim == 2 else f

    def _solve_kernel_mode(self, op: OpName, m: int, rhs: np.ndarray) -> np.ndarray:
        """Deflated banded solve on a kernel mode, of one or two source columns.

        The banded factorization is backward stable, so after removing the
        left-kernel component of the source, the only contamination in the
        solution is along the kernel itself; the gauge projection removes it.
        """
        w = self.kernel_vector(op, m, side="left")
        k = self.kernel_vector(op, m)
        rhs = rhs - np.multiply.outer(w, w @ rhs)
        f = solve_banded((2, 2), self.bands[op, m], rhs)
        d = k * self.grid.nodes          # gauge pairing weight r dr
        return f - np.multiply.outer(k, d @ f / np.dot(d, k))

    # -- derived objects ---------------------------------------------------

    def compute_rho(self) -> RadialFunction:
        """The even solution of L+ρ = |y|²Q (m=0, no kernel obstruction)."""
        g = self.grid.nodes ** 2 * self.Q.values
        rho = self.solve("plus", g, m=0)
        return RadialFunction(self.grid, rho)

    def cancellation_moment(self, j: int, l: int) -> float:
        """(y_j y_l Q³, ΛQ) with the angular factor done by honest quadrature."""
        theta = np.linspace(0.0, 2 * np.pi, CANCELLATION_NT, endpoint=False)
        cs = np.stack([np.cos(theta), np.sin(theta)])
        ang = np.mean(cs[j] * cs[l])
        r = self.grid.nodes
        q = self.Q.values
        lam_q = q + r * self.dQ
        radial = quadrature(r ** 2 * q ** 3 * lam_q, self.grid)
        return float(ang * radial)

    def identity_residuals(self) -> dict:
        """Relative residuals of the kernel/generalized-kernel relations."""
        g = self.grid
        r = g.nodes
        q = self.Q.values
        dq = self.dQ
        lam_q = q + r * dq
        lap_q = q - q ** 3              # exact through the discrete equation
        rho = self.compute_rho()

        def rel(resid, ref):
            return norm2d(resid, g) / norm2d(ref, g)

        out = {
            "Lminus_Q": norm2d(self.apply("minus", q, 0), g) / norm2d(q, g),
            "Lplus_gradQ": norm2d(self.apply("plus", dq, 1), g) / norm2d(dq, g),
            "Lplus_LambdaQ": rel(self.apply("plus", lam_q, 0) + 2 * q, 2 * q),
            "Lminus_yQ": rel(self.apply("minus", r * q, 1) + 2 * dq, 2 * dq),
            "Lminus_y2Q": rel(self.apply("minus", r ** 2 * q, 0) + 4 * lam_q, 4 * lam_q),
            "Lplus_rho": rel(self.apply("plus", rho.values, 0) - r ** 2 * q, r ** 2 * q),
            "Lplus_DeltaQ": rel(self.apply("plus", lap_q, 0) - 6 * dq ** 2 * q, 6 * dq ** 2 * q),
        }
        return out


def vector_norm(values: np.ndarray) -> float:
    """Euclidean norm of samples, scaled by their largest magnitude so it cannot underflow."""
    mag = np.abs(np.asarray(values))
    top = np.max(mag)
    return 0.0 if top == 0.0 else float(top * np.linalg.norm(mag / top))


def norm2d(values: np.ndarray, grid: RadialGrid) -> float:
    """L²(R²) norm of a single-harmonic radial part (measure 2π r dr)."""
    return float(np.sqrt(quadrature(np.abs(np.asarray(values)) ** 2, grid)))
