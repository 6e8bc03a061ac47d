"""Angular-harmonic fields, and the polar product grid they are sampled on.

An AngularField F(y) = Σ_m f_m(r) e^{imθ} keeps each f_m sampled on the
shared radial grid.  Real fields carry conjugate-symmetric components
f_{-m} = conj(f_m).  Mode products are exact convolutions in m; parameter-
space calculus on the profile expansion never touches these radial arrays.
Off the grid, a field is interpolated in r by the package's one cubic spline:
``spline`` builds a not-a-knot ``Spline``, bitwise scipy's CubicSpline, anew
on each evaluation (nothing is cached; a caller that evaluates many point
sets passes one spline to each), through all real and imaginary parts at
once.  ``at`` takes cartesian points y of shape (..., 2), is exactly 0 past
r_max, evaluates the spline only at the points within r_max, AT_BLOCK points
at a time into one (columns, points) block, and sums the modes by Horner in
z = e^{iθ} = (y₁ + i y₂)/r (z = 1 at r = 0; no angle is formed), so its
last bits differ from a per-mode Σ f_m e^{imθ}; a mode-0-only field is its
spline's values exactly.  Each point's value is independent of the other
points of the call, so ``in_blocks`` can take any pointwise evaluator of the
package (``kmodel``'s k, ``profile.modulated``) through a box AT_BLOCK points
at a time without changing a bit.

A PolarGrid is the (r, θ) product grid on which every sampled polar field
lives: r_j = j·h on [0, r_max] (n_r nodes, r_0 = 0) and θ_k = 2πk/n_θ.
Samples are arrays of shape (n_r, n_θ), and ``points`` holds the nodes as
cartesian points r(cos θ, sin θ), shape (n_r, n_θ, 2).  The grid owns the
three operations on samples, with these conventions:

- Modes: the FFT along θ divided by n_θ, so f(r, θ_k) = Σ_c F[:, c] e^{i m_c θ_k}.
  Columns are in np.fft order: column c carries m_c = c for c ≤ n_θ/2 and
  c − n_θ above (an even n_θ's Nyquist column counts as +n_θ/2).
- Gradient (∂_r, r⁻¹∂_θ): ∂_r is radial.derivative, 4th order, applied to
  each mode with the parity (−1)^m of r^|m| e^{imθ} at the origin (ghost
  values F(−r) = (−1)^m F(r)) and zero ghosts past r_max.  r⁻¹∂_θ has modes
  i m F / r, and is set to 0 on the r = 0 row.
- Integral: ∫ f r dr dθ, the radial grid's composite-Simpson weight vector
  (``RadialGrid.weights``) contracted with the sum over θ, times the
  uniform rule's 2π/n_θ (exact for trigonometric polynomials of degree
  below n_θ).  ``weights`` holds the same rule as one (n_r, n_θ) array, for
  contracting many integrands at once.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict

import numpy as np
from scipy.linalg import solve_banded

from .radial import RadialGrid, derivative, quadrature

AT_BLOCK = 2 ** 15     # points per evaluation in AngularField.at and in_blocks


def in_blocks(fn: Callable, y: np.ndarray, dtype) -> np.ndarray:
    """fn of the cartesian points y of shape (..., 2), at most AT_BLOCK points at a time.

    fn maps an (m, 2) block of points to its m values, each point's value
    independent of the others, so the result, of shape y.shape[:-1], is
    fn(y) bit for bit and no temporary outgrows a block.  The blocks are
    near-equal, so none holds a lone point when y holds more: numpy's
    matmul takes another path on one row (β·y in ``ParamPoint.phase``), and
    its bits differ from the many-row path.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape[:-1], dtype=dtype)
    points, values = y.reshape(-1, 2), out.reshape(-1)
    count = max(1, -(-values.size // AT_BLOCK))
    bounds = [values.size * j // count for j in range(count + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        values[start:stop] = fn(points[start:stop])
    return out if out.ndim else out[()]


def angular_modes(fn: Callable, max_deg: int) -> Dict[int, complex]:
    """Fourier coefficients of θ -> fn(cosθ, sinθ), exact for trig polynomials.

    Returns {m: c_m} with fn(θ) = Σ c_m e^{imθ}, coefficients below 1e-13 of
    the largest dropped.
    """
    nt = 4 * max_deg + 8
    theta = np.arange(nt) * (2 * np.pi / nt)
    vals = fn(np.cos(theta), np.sin(theta))
    c = np.fft.fft(np.asarray(vals, dtype=complex)) / nt
    scale = np.max(np.abs(c)) + 1e-300
    ms = np.arange(-max_deg, max_deg + 1)
    cm = c[ms % nt]
    keep = np.abs(cm) > 1e-13 * scale
    return dict(zip(ms[keep].tolist(), cm[keep].tolist()))


class Spline:
    """Piecewise polynomials in r, one per column, evaluated as scipy's PPoly: column j is
    0.0 + c[j, K−1, i], then + c[j, k, i]·z for z = s, s·s, s·s·s, with s = r − x_i on the
    piece i = searchsorted(x, r, 'right') − 1 clipped to [0, n − 2] (the end pieces extrapolate)."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    @classmethod
    def not_a_knot(cls, x: np.ndarray, y: np.ndarray) -> "Spline":
        """scipy's CubicSpline(x, y.T), n ≥ 4, by its arithmetic: its slope system with the
        not-a-knot end rows, its solve_banded call, then each piece's Hermite cubic."""
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        A = np.array([np.r_[0.0, d0, dx[:-1]], np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
                      np.r_[dx[1:], d1, 0.0]])           # the bands, upper to lower
        b = np.empty(y.shape)
        b[:, 0] = ((dx[0] + 2 * d0) * dx[1] * slope[:, 0] + dx[0] * dx[0] * slope[:, 1]) / d0
        b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
        b[:, -1] = (dx[-1] * dx[-1] * slope[:, -2] + (2 * d1 + dx[-1]) * dx[-2] * slope[:, -1]) / d1
        s = solve_banded((1, 1), A, b.T, overwrite_b=True, check_finite=False).T
        t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], y[:, :-1]), 1))

    def derivative(self) -> "Spline":
        return Spline(self.x, self.c[:, :-1] * np.arange(self.c.shape[1] - 1, 0, -1.0)[:, None])

    def __call__(self, r: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Values at the points r, shape (columns, points), into out if given."""
        i = np.searchsorted(self.x, r, side="right") - 1      # take's mode="clip" clips it
        s = r - self.x[:-1].take(i, mode="clip")
        powers = (s, s * s, s * s * s)
        out = np.empty((self.c.shape[0], r.size)) if out is None else out
        term = np.empty(r.size)
        for cj, o in zip(self.c, out):
            cj[-1].take(i, out=o, mode="clip")
            o += 0.0                              # PPoly's 0.0 + c: -0.0 becomes 0.0
            for ck, z in zip(cj[-2::-1], powers):
                o += np.multiply(ck.take(i, out=term, mode="clip"), z, out=term)
        return out


@dataclass(frozen=True)
class PolarGrid:
    """Uniform (r, θ) product grid; the defaults are the modulation-fit grid."""

    r_max: float = 25.0
    n_r: int = 500
    n_theta: int = 64

    @property
    def radial(self) -> RadialGrid:
        return RadialGrid(self.r_max, self.n_r)

    @property
    def r(self) -> np.ndarray:
        return self.radial.nodes

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2 * np.pi / self.n_theta)

    @property
    def points(self) -> np.ndarray:
        """The nodes as cartesian points r(cos θ, sin θ), shape (n_r, n_θ, 2)."""
        unit = np.stack([np.cos(self.theta), np.sin(self.theta)], axis=-1)
        return self.r[:, None, None] * unit

    @property
    def m(self) -> np.ndarray:
        """The mode number of each FFT column."""
        c = np.arange(self.n_theta)
        return np.where(c <= self.n_theta // 2, c, c - self.n_theta)

    def modes(self, vals: np.ndarray) -> np.ndarray:
        """Samples -> modes (FFT along θ, np.fft column order)."""
        return np.fft.fft(vals, axis=1) / self.n_theta

    def samples(self, modes: np.ndarray) -> np.ndarray:
        """Modes -> samples: Σ_c F[..., c] e^{i m_c θ} at every θ_k (last axis)."""
        return np.fft.ifft(modes, axis=-1) * self.n_theta

    def over_r_dtheta(self, modes: np.ndarray) -> np.ndarray:
        """Modes of r⁻¹∂_θ f, i m F / r, with the r = 0 row set to 0."""
        r = self.r[:, None]
        return np.divide(1j * self.m * modes, r, out=np.zeros_like(modes, dtype=complex),
                         where=r > 0)

    def gradient(self, vals: np.ndarray):
        """(∂_r f, r⁻¹∂_θ f) of samples; real samples give real derivatives."""
        F = self.modes(vals)
        dF = np.empty_like(F)
        odd = self.m % 2 == 1
        dF[:, ~odd] = derivative(F[:, ~odd], self.radial, parity=+1)
        dF[:, odd] = derivative(F[:, odd], self.radial, parity=-1)
        dr, dth = self.samples(dF), self.samples(self.over_r_dtheta(F))
        if not np.iscomplexobj(vals):
            return dr.real, dth.real
        return dr, dth

    def integral(self, vals: np.ndarray) -> float:
        """∫ vals r dr dθ of real samples: the radial weights against Σ_θ vals."""
        return float(self.radial.weights @ np.sum(vals, axis=1) * (2 * np.pi / self.n_theta))

    @cached_property
    def weights(self) -> np.ndarray:
        """integral's rule as samples, Σ weights·f ≈ ∫ f r dr dθ, built once per grid."""
        return np.repeat((self.radial.weights * (2 * np.pi / self.n_theta))[:, None],
                         self.n_theta, axis=1)


class AngularField:
    """dict of mode -> complex radial samples, with pointwise-exact algebra."""

    __slots__ = ("grid", "comps")

    def __init__(self, grid: RadialGrid, comps: Dict[int, np.ndarray] = None):
        self.grid = grid
        self.comps = {}
        if comps:
            for m, v in comps.items():
                v = np.asarray(v, dtype=complex)
                if v.shape != (grid.n,):
                    raise ValueError("component length must match grid")
                self.comps[int(m)] = v

    # ---- construction helpers ----------------------------------------

    @classmethod
    def radial(cls, grid: RadialGrid, values: np.ndarray) -> "AngularField":
        return cls(grid, {0: np.asarray(values, dtype=complex)})

    @classmethod
    def from_angular(cls, grid: RadialGrid, radial_values: np.ndarray,
                     fn: Callable, max_deg: int) -> "AngularField":
        """radial_values(r) times the angular polynomial fn(cosθ, sinθ)."""
        cs = angular_modes(fn, max_deg)
        rv = np.asarray(radial_values, dtype=complex)
        return cls(grid, {m: c * rv for m, c in cs.items()})

    # ---- algebra -------------------------------------------------------

    def __add__(self, other: "AngularField") -> "AngularField":
        out = {m: v.copy() for m, v in self.comps.items()}
        for m, v in other.comps.items():
            out[m] = out.get(m, 0.0) + v
        return AngularField(self.grid, out)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "AngularField":
        if isinstance(scalar, AngularField):
            return self.product(scalar)
        return AngularField(self.grid, {m: v * scalar for m, v in self.comps.items()})

    __rmul__ = __mul__

    def product(self, other: "AngularField") -> "AngularField":
        out: Dict[int, np.ndarray] = {}
        for ma, va in self.comps.items():
            for mb, vb in other.comps.items():
                m = ma + mb
                out[m] = out.get(m, 0.0) + va * vb
        return AngularField(self.grid, out)

    def max_mode(self) -> int:
        return max((abs(m) for m in self.comps), default=0)

    def norm(self) -> float:
        """L²(R²) norm via the mode-orthogonality 2π Σ_m ∫ |f_m|² r dr."""
        return float(np.sqrt(sum(quadrature(np.abs(v) ** 2, self.grid)
                                 for v in self.comps.values())))

    # ---- evaluation -----------------------------------------------------

    def on_native(self, polar: PolarGrid) -> np.ndarray:
        """Samples on polar's grid, whose radial grid must be this field's.

        Mode m goes to FFT column m % n_θ, which samples e^{imθ} exactly
        even for |m| ≥ n_θ/2 (where it aliases onto that column).
        """
        if polar.radial != self.grid:
            raise ValueError("polar grid must share the field's radial grid")
        modes = np.zeros((self.grid.n, polar.n_theta), dtype=complex)
        for m, v in self.comps.items():
            modes[:, m % polar.n_theta] += v
        return polar.samples(modes)

    def spline(self) -> Spline:
        """One cubic spline in r through the columns [Re f_m …, Im f_m …], comps order."""
        vals = np.array(list(self.comps.values())).reshape(len(self.comps), self.grid.n)
        return Spline.not_a_knot(self.grid.nodes, np.concatenate([vals.real, vals.imag]))

    def at(self, y: np.ndarray, spline=None) -> np.ndarray:
        """Evaluate at cartesian points y of shape (..., 2) (spline in r, zero beyond r_max).

        Horner in z = (y₁ + i y₂)/r from the top mode down to min(m_min, 0),
        then times conj(z)^{|min(m_min, 0)|}.  ``spline``, this field's
        ``spline()``, saves rebuilding it on each call.
        """
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1], dtype=complex)
        if not self.comps:
            return out
        y = y.reshape(-1, 2)
        r = np.sqrt(y[:, 0] ** 2 + y[:, 1] ** 2)
        inside = np.flatnonzero(r <= self.grid.r_max)
        spl = self.spline() if spline is None else spline
        nm = len(self.comps)
        column = {m: j for j, m in enumerate(self.comps)}
        top, low = max(max(column), 0), min(min(column), 0)
        block = np.empty((2 * nm, min(inside.size, AT_BLOCK)))
        for start in range(0, inside.size, AT_BLOCK):
            idx = inside[start:start + AT_BLOCK]
            ri = r[idx]
            vals = spl(ri, out=block[:, :idx.size])
            z = np.ones(idx.size, dtype=complex)
            np.divide(y[idx, 0] + 1j * y[idx, 1], ri, out=z, where=ri > 0)
            acc = np.zeros(idx.size, dtype=complex)
            for m in range(top, low - 1, -1):
                if m < top:
                    acc = acc * z        # `*=` rounds a one-element product otherwise
                j = column.get(m)
                if j is not None:
                    acc.real += vals[j]
                    acc.imag += vals[nm + j]
            if low < 0:
                np.conjugate(z, out=z)
                for _ in range(-low):
                    acc = acc * z
            out.flat[idx] = acc
        return out
