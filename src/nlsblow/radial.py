"""Radial grids, quadrature with the 2D measure, the discretization, and Q.

Q is the positive radial solution of ΔQ - Q + Q^3 = 0 in R^2, i.e.

    Q'' + Q'/r - Q + Q^3 = 0,   Q'(0) = 0,   Q(r) -> 0,

obtained by a collocation Newton on the full grid from the closed-form
start START_AMPLITUDE·sech²(START_RATE·r).  The positive radial solution is
unique (Kwong 1989), so Newton lands on the same samples from any start in
its basin, and it alone owns the accuracy.  The independent oracle for Q(0),
a shooting bisection, lives with the tests.  All integrals carry the 2D
measure 2π r dr, by one composite-Simpson weight vector per grid
(``RadialGrid.weights``), and stop at r_max, where the Dirichlet row keeps
Q(r_max) = 0.

The package's one radial discretization is here: 4th-order differences with
parity ghosts f(-r) = (-1)^m f(r) at r = 0 and zero ghosts past r_max, as
the stencil of ``derivative`` and as solve_banded (2, 2) bands of the mode-m
Laplacian (``laplacian_banded``) and of -Δ_m + V (``operator_banded``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with n nodes (nodes[0] = 0)."""

    r_max: float
    n: int

    def __post_init__(self):
        if self.r_max <= 0 or self.n < 8:
            raise ValueError("need r_max > 0 and n >= 8")

    @property
    def h(self) -> float:
        return self.r_max / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-Simpson weights of ∫_0^r_max f(r) r dr: Σ weights·f.

        h/3·[1, 4, 2, …, 4, 1] over an even number of intervals.  An odd
        number ends with Cartwright's last-interval correction (scipy's
        ``simpson`` since 1.11): h/3·[1, 4, …, 4, 1] up to node n−2, then
        −h/12, +2h/3, +5h/12 on the last three nodes.
        """
        h = self.h
        w = np.zeros(self.n)
        even = self.n - 1 - (self.n - 1) % 2        # the Simpson part's last node
        w[0:even + 1:2] = 2.0 * h / 3.0
        w[1:even:2] = 4.0 * h / 3.0
        w[0] = w[even] = h / 3.0
        if even < self.n - 1:
            w[-3:] += np.array([-1.0, 8.0, 5.0]) * (h / 12.0)
        return w * self.nodes


@dataclass
class RadialFunction:
    """Sampled radial profile on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values length must match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in radial profile")


@dataclass(frozen=True)
class Moments:
    """The ground-state integrals that enter every constant of the expansion."""

    massQ: float      # ∫ Q^2
    quarticQ: float   # ∫ Q^4
    ymomQ: float      # ∫ |y|^2 Q^2 = ||yQ||^2
    gradQ: float      # ∫ |∇Q|^2

    def __post_init__(self):
        for name in ("massQ", "quarticQ", "ymomQ", "gradQ"):
            if getattr(self, name) <= 0:
                raise ValueError(f"moment {name} must be positive")


TAIL_DECADES = 1.0     # width of the fit window of fit_tail_rate, in decades of |f|
TAIL_FLOOR_REL = 1e-9  # the window's floor relative to max|f|


def fit_tail_rate(grid: RadialGrid, values: np.ndarray) -> float:
    """Fit d(log|f|)/dr over the last clean decade of amplitude (about -1 for Q).

    A diagnostic of how well a profile has decayed; no integral uses it.  The
    window is the decade of |f| just above max(TAIL_FLOOR_REL*max|f|, |f(r_max)|),
    which keeps the fit off the numerical noise floor of solved profiles.
    Returns 0.0 for profiles with no usable tail (e.g. all zeros).
    """
    v = np.abs(np.asarray(values))
    vmax = v.max()
    if vmax == 0.0:
        return 0.0
    tail_val = max(v[-1], vmax * TAIL_FLOOR_REL)
    lo, hi = tail_val * (1.0 - 1e-12), tail_val * 10.0**TAIL_DECADES
    mask = (v >= lo) & (v <= hi) & (grid.nodes > 0.25 * grid.r_max)
    if mask.sum() < 4:
        return 0.0
    r = grid.nodes[mask]
    coef = np.polyfit(r, np.log(v[mask]), 1)
    return float(coef[0])


def quadrature(values: np.ndarray, grid: RadialGrid) -> float:
    """2π ∫_0^r_max f(r) r dr by composite Simpson on the grid's nodes."""
    return float(2.0 * np.pi * (grid.weights @ np.asarray(values)))


# ----------------------------------------------------------------------
# derivative stencils (4th order, parity-aware at the origin)
# ----------------------------------------------------------------------

def derivative(values: np.ndarray, grid: RadialGrid, parity: int = +1) -> np.ndarray:
    """4th-order first derivative of a radial sample.

    parity=+1 for even extensions f(-r)=f(r) (m even), -1 for odd (m odd).
    Beyond r_max the function is treated as zero (profiles there are below
    roundoff of the maximum for well-localized fields).
    """
    f = np.asarray(values)
    h = grid.h
    n = grid.n
    out = np.empty_like(f)
    # centered interior: (f_{i-2} - 8 f_{i-1} + 8 f_{i+1} - f_{i+2}) / 12h
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    s = float(parity)
    # i = 0: ghosts f_{-1} = s f_1, f_{-2} = s f_2
    out[0] = (s * f[2] - 8 * s * f[1] + 8 * f[1] - f[2]) / (12 * h)
    # i = 1: ghost f_{-1} = s f_1
    out[1] = (s * f[1] - 8 * f[0] + 8 * f[2] - f[3]) / (12 * h)
    # right edge: zero ghosts (decayed tail)
    out[n - 2] = (f[n - 4] - 8 * f[n - 3] + 8 * f[n - 1] - 0.0) / (12 * h)
    out[n - 1] = (f[n - 3] - 8 * f[n - 2] + 0.0 - 0.0) / (12 * h)
    return out


def _d2_rows(h):
    """4th-order second-derivative band coefficients (interior)."""
    return np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)


def _d1_rows(h):
    return np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)


def laplacian_banded(grid: RadialGrid, m: int) -> np.ndarray:
    """Banded (5-diagonal) 2D radial Laplacian at harmonic m: f'' + f'/r - m²f/r².

    Row 0 carries the origin condition: the L'Hopital value 2f''(0) for m=0,
    the Dirichlet row f(0)=0 for m >= 1.  Parity ghosts f(-r) = (-1)^m f(r)
    keep 4th order at i=1; zero ghosts beyond r_max (decayed tail).
    """
    n = grid.n
    h = grid.h
    r = grid.nodes
    c2 = _d2_rows(h)
    c1 = _d1_rows(h)
    ab = np.zeros((5, n))  # diagonals: ab[0]=k=+2 ... ab[4]=k=-2 (solve_banded layout)

    rows = np.arange(1, n - 1)
    ri = r[rows]
    for d in range(-2, 3):
        cols = rows + d
        keep = (cols >= 0) & (cols < n)          # zero ghosts beyond r_max
        ab[2 - d, cols[keep]] = (c2[d + 2] + c1[d + 2] / ri)[keep]
    # parity ghost f(-h) = (-1)^m f(h): row 1's k=-2 coefficient lands on its diagonal
    ab[2, 1] += (-1.0) ** m * (c2[0] + c1[0] / r[1])
    ab[2, rows] += -m * m / ri ** 2
    if m == 0:
        # Δf(0) = 2 f''(0) = (16 f1 - f2 - 15 f0) / (3 h²) to 4th order
        ab[2, 0] = -15.0 / (3 * h * h)
        ab[1, 1] = 16.0 / (3 * h * h)
        ab[0, 2] = -1.0 / (3 * h * h)
    else:
        ab[2, 0] = 1.0  # caller interprets row 0 as f(0)=0 constraint
    return ab


def banded_matvec(ab: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A @ f for A in solve_banded (2, 2) layout, ab[2 + i - j, j] = A[i, j].

    The five diagonal products are summed in ascending column order, as a
    CSR row product sums them, so the result is that of the sparse matrix.
    """
    n = ab.shape[1]
    out = np.zeros(n, dtype=np.result_type(ab, f))
    for k in range(-2, 3):            # column j = i + k
        i0, i1 = max(0, -k), min(n, n - k)
        out[i0:i1] += ab[2 - k, i0 + k:i1 + k] * f[i0 + k:i1 + k]
    return out


def operator_banded(lap: np.ndarray, m: int, potential: np.ndarray, h: float) -> np.ndarray:
    """-Δ_m + potential(r) from the mode-m band lap, spacing h (row 0: origin / f(0)=0)."""
    ab = -lap
    pot = np.broadcast_to(potential, (lap.shape[1],))
    if m == 0:
        ab[2, :] += pot
    else:
        # the f(0)=0 row (the -lap put -1 there), as large as the rows below it,
        # so that partial pivoting keeps it and a solution has f(0) = 0 exactly
        ab[2, 0] = 1.0 / (h * h)
        ab[2, 1:] += pot[1:]
        ab[1, 0] = 0.0
        ab[0, 0] = 0.0
    # Dirichlet at r_max
    ab[:, -1] = 0.0
    ab[2, -1] = 1.0
    ab[3, -1] = 0.0
    ab[4, -1] = 0.0
    # zero couplings INTO the last node from interior rows are fine (tail ~ 0)
    return ab


# ----------------------------------------------------------------------
# ground state
# ----------------------------------------------------------------------

START_AMPLITUDE = 2.2   # Newton's start: START_AMPLITUDE·sech²(START_RATE·r), 0 at r_max
START_RATE = 0.8


def solve_ground_state(grid: RadialGrid, tol: float = 1e-10) -> RadialFunction:
    """Ground state on the grid: Newton from a closed-form start.

    The start is START_AMPLITUDE·sech²(START_RATE·r) with its last node at 0.
    The positive radial solution is unique, so any start in Newton's basin
    gives the same samples.  Newton owns the accuracy: it solves the
    4th-order collocation system (-Δ_h + 1)Q - Q^3 = 0 with Q'(0)=0 and
    Q(r_max)=0, so the returned samples satisfy the discrete equation to
    pointwise residual <= tol.  The shape check looks at the samples above
    tol only (`_positive_decreasing`).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if grid.r_max < 15:
        raise ValueError("r_max >= 15 required for a trustworthy tail")
    e = np.exp(-2.0 * START_RATE * grid.nodes)      # sech²x = 4e^{-2x}/(1+e^{-2x})², no overflow
    q = 4.0 * START_AMPLITUDE * e / (1.0 + e) ** 2
    q[-1] = 0.0
    q = _newton(grid, q, tol)
    if not _positive_decreasing(q, tol):
        raise RuntimeError("ground state not positive decreasing; grid too coarse?")
    return RadialFunction(grid, q)


def _positive_decreasing(q: np.ndarray, floor: float) -> bool:
    """Whether q starts above floor, falls strictly while it stays above
    floor, and keeps within ±floor from the first node at or under it on.

    A residual of floor moves Newton's samples by about floor, since
    (-Δ + 1 - 3Q²)^{-1} is O(1) off the core: a sample under floor carries
    no sign, and where Q falls under roundoff (1e-36 at r = 82) its samples
    may take either.
    """
    below = np.flatnonzero(q <= floor)
    core = below[0] if below.size else q.size
    return bool(core > 0 and np.all(np.diff(q[:core]) < 0)
                and np.all(np.abs(q[core:]) <= floor))


def _newton(grid: RadialGrid, q: np.ndarray, tol: float) -> np.ndarray:
    """Newton on the collocation system from the start q, stopped at tol or at its
    roundoff floor; raises RuntimeError if the best iterate misses tol."""
    lap = laplacian_banded(grid, 0)

    def residual(qv):
        res = -banded_matvec(lap, qv) + qv - qv ** 3
        res[-1] = qv[-1]         # Dirichlet row
        return res

    best, best_q = np.inf, q
    for _ in range(40):
        res = residual(q)
        rnorm = np.max(np.abs(res))
        if rnorm < best:
            best, best_q = rnorm, q
        if rnorm <= tol:
            break
        if rnorm > 4.0 * best:   # stalled at the roundoff floor
            break
        jac_banded = operator_banded(lap, 0, 1.0 - 3.0 * q ** 2, grid.h)
        q = q + solve_banded((2, 2), jac_banded, -res)
    q = best_q
    if best > tol:
        raise RuntimeError(
            f"ground-state Newton stalled at residual {best:.2e} > tol {tol:.0e}; "
            "the roundoff floor scales like 1/h^2, so loosen tol or refine less")
    return q


def moments(Q: RadialFunction) -> Moments:
    """Mass, quartic, y-moment and gradient integrals of the ground state."""
    q, g = Q.values, Q.grid
    dq = derivative(q, g, parity=+1)
    return Moments(
        massQ=quadrature(q * q, g),
        quarticQ=quadrature(q ** 4, g),
        ymomQ=quadrature(g.nodes ** 2 * q * q, g),
        gradQ=quadrature(dq * dq, g),
    )
