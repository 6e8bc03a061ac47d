"""Split-step spectral solver for i u_t = -Δu - k(x)|u|²u on a periodic box.

A step of length dt composes Strang steps N(c/2)·L(c)·N(c/2) with lengths
c = w·dt: the weights are (1,) for Strang and the triple jump (g1, g2, g1)
for order 4.  N(τ)u = u·e^{iτk|u|²} is the exact nonlinear flow and
L(τ) = e^{iτΔ} the spectral linear flow.  N keeps |u| pointwise, so
N(a)·N(b) = N(a + b) and adjacent nonlinear sub-steps merge ("first same as
last"): a Strang step costs one nonlinear sub-step, a triple jump three.
`Stepper.step_values` therefore returns the state with its last nonlinear
half-step still pending, as a carry that the next step's first sub-step
absorbs.  `run` steps the bare array and closes the state only where a
series row, a dt refresh or a snapshot reads it, and after the last step.
Mass is conserved to roundoff by construction, so Σ|u|² turns non-finite
only through a non-finite sample: that one reduction is each step's NaN
test.  The time step follows the collapsing scale through dt = c_dt · λ_est².

A series row (mass, energy, momentum, ‖∇u‖ and λ_est) costs one fft2: by
Parseval, ∫|∇u|² and the momentum are moments of |û|²
(`Stepper.gradient_moments`), and mass and ∫k|u|⁴ come from |u|² on the grid.
`conserved` takes the same invariants through the physical gradient
(`Stepper.gradient`, three transforms); it is the reference path the rows
are tested against.

Every array a `Stepper` transforms lives in an (n, n + ROW_PAD) buffer whose
last ROW_PAD columns are zero; callers see its (n, n) view.  A row of 1024
complex values is 16 KiB, so without the pad the column pass of an fft2
reads addresses a power of two apart, which share cache sets; the pad took
an in-place fft2 at n = 1024 from 39 to 26 ms on a 2-core x86 host.  The
stepped states (`step_values`, `nonlinear`) are such views, and a snapshot
file holds only the view.  Each transform and pointwise product does the
same arithmetic on the same values as on (n, n) arrays, so the results are
bitwise those of the unpadded layout.

The box-sized arrays of a run, each alive only while it is read:

- across a step: the state u (padded complex), the cached propagator of
  each sub-step length (padded complex, 1 for Strang, 2 for the triple
  jump), the k samples (n² real) and the dealiasing mask (n² bytes);
- within a step: one padded buffer per nonlinear sub-step, its output, in
  whose imaginary part θ = τk|u|² is built; the input state lives until
  the step returns, and a dt refresh builds a new propagator from one n²
  real temporary;
- on a step that closes the state: the closed state (padded complex); for
  its series row or refresh |u|² and k|u|⁴ (n² real each), then the
  spectrum copy (padded complex) and |û|² (n² real);
- field0 until the first step, when the state moves into the padded
  layout; past that only a reference that the caller keeps holds it.
"""

import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.fft as _fft


class ResolutionBreach(RuntimeError):
    """The collapsing core fell under the grid resolution floor."""


class BlowupNaN(RuntimeError):
    """NaN detected during stepping (unstable dt or unresolved collapse)."""


def box_points(L: float, n: int) -> np.ndarray:
    """The (n, n, 2) nodes (x_i, x_j), x_j = -L + j·h with h = 2L/n, of the box."""
    x = -L + (2.0 * L / n) * np.arange(n)
    points = np.empty((n, n, 2))
    points[..., 0] = x[:, None]
    points[..., 1] = x[None, :]
    return points


@dataclass
class ComplexField2D:
    """Complex field on the uniform periodic grid [-L, L)²."""

    L: float
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.values.shape[0]
        if self.values.shape != (n, n) or n < 1 or n & (n - 1):
            raise ValueError("values must be square with n a power of two >= 1")
        if not np.all(np.isfinite(self.values)):
            raise BlowupNaN(f"non-finite field samples at t = {self.t:.6g}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    def copy(self) -> "ComplexField2D":
        return ComplexField2D(self.L, self.values.copy(), self.t)


@dataclass
class SimConfig:
    """Step policy and termination rules for one run (the box is the field's)."""

    c_dt: float = 0.05
    t_stop: Optional[float] = None
    lam_stop: Optional[float] = None
    splitting_order: int = 2       # 2 (Strang) or 4 (triple-jump composition)
    dt_refresh_every: int = 10
    series_stride: int = 5
    snapshot_stride: int = 50
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.splitting_order not in (2, 4):
            raise ValueError("splitting_order must be 2 or 4")


# One 64-byte cache line of complex128 values per row: the rows of a padded
# buffer no longer start a power of two apart.
ROW_PAD = 4


def _phase(theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^{iθ} of a real array, as cos θ + i sin θ written into one complex
    buffer (a new one, or out); θ may be out.imag, which sin overwrites last."""
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


class Stepper:
    """Precomputed spectral machinery for one (L, n, k) combination.

    `step_values` advances the split-step state; `gradient_moments` gives a
    series row's gradient sums from one fft2, and `gradient` the physical
    gradient behind the reference invariants of `conserved`.

    Each transform runs in place on the (n, n) view of a zero-padded
    (n, n + ROW_PAD) buffer (see the module docstring).  `nonlinear` takes
    the states it made as they are and copies any other input into the
    layout once; `linear` transforms such a state in place; the spectral
    diagnostics copy their input and leave it unwritten.
    """

    def __init__(self, L: float, n: int, k_values: np.ndarray, splitting_order: int = 2):
        self.L = float(L)
        self.n = int(n)
        self.k = np.asarray(k_values, dtype=float)
        if self.k.shape not in ((n, n), ()):
            raise ValueError("k must be scalar or an (n, n) sample")
        h = 2.0 * L / n
        freq = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        self.kx = freq[:, None]
        self.ky = freq[None, :]
        self._padded_shape = (self.n, self.n + ROW_PAD)
        f = np.fft.fftfreq(n)
        self._dealias_mask = (np.abs(f[:, None]) > 1.0 / 3.0) | (np.abs(f[None, :]) > 1.0 / 3.0)
        if splitting_order == 2:
            self._weights = (1.0,)
        else:
            g1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
            self._weights = (g1, 1.0 - 2.0 * g1, g1)
        self._prop_cache = {}

    def _propagator(self, tau: float) -> np.ndarray:
        """e^{-iτ|k|²}, dealiased, computed once per sub-step length τ, as the
        view of a padded buffer whose padding is 0."""
        prop = self._prop_cache.get(tau)
        if prop is None:
            theta = self.kx ** 2 + self.ky ** 2
            theta *= -tau
            prop = _phase(theta, out=self._zeros())
            prop[self._dealias_mask] = 0.0
            self._prop_cache[tau] = prop
        return prop

    def _zeros(self) -> np.ndarray:
        """The (n, n) view of a new zero buffer in the padded layout."""
        return np.zeros(self._padded_shape, dtype=complex)[:, :self.n]

    def _buffer(self, u: np.ndarray) -> Optional[np.ndarray]:
        """u's padded buffer when u is the (n, n) view of one, else None."""
        base = u.base
        if (isinstance(base, np.ndarray) and base.shape == self._padded_shape
                and base.dtype == complex and u.strides == base.strides
                and u.ctypes.data == base.ctypes.data):
            return base
        return None

    def _padded(self, u: np.ndarray) -> np.ndarray:
        """u's padded buffer, or a new padded buffer holding a copy of u."""
        buf = self._buffer(u)
        if buf is None:
            view = self._zeros()
            view[...] = u
            buf = view.base
        return buf

    def nonlinear(self, u: np.ndarray, tau: float) -> np.ndarray:
        """N(τ)u = u·e^{iτk|u|²}, as the view of a new padded buffer.

        θ = τk|u|² is built in the output's imaginary part (its real part
        holds Im(u)² on the way), so no real temporary is allocated.  θ and
        the product run over the whole buffer; its padding stays 0 because
        |0|² = 0, and k multiplies the view only.
        """
        buf = self._padded(u)
        out = np.empty(self._padded_shape, dtype=complex)
        theta = out.imag
        np.multiply(buf.real, buf.real, out=theta)
        np.multiply(buf.imag, buf.imag, out=out.real)
        theta += out.real
        theta[:, :self.n] *= self.k
        theta *= tau
        _phase(theta, out=out)
        out *= buf
        return out[:, :self.n]

    def linear(self, u: np.ndarray, tau: float) -> np.ndarray:
        """L(τ)u = e^{iτΔ}u through one fft2/ifft2 pair, written into u, a
        state that `nonlinear` made.

        The propagator multiplies u's whole contiguous buffer: both
        paddings are 0, so they stay 0.
        """
        _in_place(_fft.fft2, u)
        buf = self._buffer(u)
        buf *= self._propagator(tau).base
        _in_place(_fft.ifft2, u)
        return u

    def step_values(self, u: np.ndarray, dt: float, carry: float = 0.0):
        """One step from u, whose nonlinear sub-step of length carry is pending.

        Returns (v, carry'): the state after the step is N(carry')v.  The
        propagator cache keeps only this step's sub-step lengths, because dt
        changes at every refresh and an old dt never returns.
        """
        taus = [w * dt for w in self._weights]
        self._prop_cache = {tau: p for tau, p in self._prop_cache.items() if tau in taus}
        for tau in taus:
            u = self.linear(self.nonlinear(u, carry + 0.5 * tau), tau)
            carry = 0.5 * tau
        return u, carry

    def _spectrum(self, u: np.ndarray) -> np.ndarray:
        """û as the view of a new padded buffer; u is not written."""
        u_hat = self._zeros()
        u_hat[...] = u
        _in_place(_fft.fft2, u_hat)
        return u_hat

    def gradient(self, u: np.ndarray):
        """(∂_x u, ∂_y u) on the grid, through one fft2 and two ifft2; ∂_y u
        is formed in û's buffer."""
        u_hat = self._spectrum(u)
        ux = self._zeros()
        for d, kk in ((ux, self.kx), (u_hat, self.ky)):
            np.multiply(1j * kk, u_hat, out=d)
            _in_place(_fft.ifft2, d)
        return ux, u_hat

    def gradient_moments(self, u: np.ndarray):
        """(Σ|∇u|², Im Σ ∂_x u ū, Im Σ ∂_y u ū) over the grid, from one fft2.

        By Parseval these are (Σ|k|²|û|², Σk_x|û|², Σk_y|û|²)/n².  The row
        and column sums of |û|² are taken once, so each moment is a dot
        product of length n.  u is not overwritten.
        """
        power = np.abs(self._spectrum(u))
        np.square(power, out=power)
        px, py = power.sum(axis=1), power.sum(axis=0)      # over k_y, over k_x
        kx, ky = self.kx.ravel(), self.ky.ravel()
        n2 = float(self.n) ** 2
        return (((kx * kx) @ px + (ky * ky) @ py) / n2, (kx @ px) / n2, (ky @ py) / n2)

    def spectral_tail_fraction(self, u: np.ndarray) -> float:
        """Fraction of u's spectral energy in the dealiased top third of wavenumbers."""
        power = np.abs(self._spectrum(u))
        np.square(power, out=power)
        return float(np.sum(power[self._dealias_mask]) / (np.sum(power) + 1e-300))


def _in_place(transform, u: np.ndarray):
    """Write transform(u) into u.  scipy transforms a complex view in place
    when it may overwrite it, and returns a new view of u's memory; the copy
    back covers any backend that returns other memory."""
    out = transform(u, overwrite_x=True)
    if out.ctypes.data != u.ctypes.data or out.strides != u.strides:
        u[...] = out


def _invariants(field: ComplexField2D, stepper: Stepper, grad_sums):
    """(mass, ∫|∇u|², energy, momentum) of a field, given its gradient's grid
    sums (Σ|∇u|², Im Σ ∂_x u ū, Im Σ ∂_y u ū); mass and ∫k|u|⁴ come from |u|²."""
    u = field.values
    h2 = field.h ** 2
    rho = np.abs(u)
    np.square(rho, out=rho)
    grad2 = float(grad_sums[0]) * h2
    quartic = stepper.k * rho
    quartic *= rho
    energy = 0.5 * grad2 - 0.25 * float(np.sum(quartic)) * h2
    return (float(np.sum(rho)) * h2, grad2, energy,
            np.array([float(grad_sums[1]) * h2, float(grad_sums[2]) * h2]))


def _scale(mass: float, grad2: float, grad_ref: float, mass_ref: float) -> float:
    return float(np.sqrt(grad_ref * mass / mass_ref / grad2))


def conserved(field: ComplexField2D, k_values, stepper: Optional[Stepper] = None):
    """(mass, energy, momentum): ∫|u|², ½∫|∇u|² - ¼∫k|u|⁴, Im∫∇u ū.

    The reference path: the gradient's sums come from the physical gradient.
    """
    if stepper is None:
        stepper = Stepper(field.L, field.n, np.asarray(k_values, dtype=float))
    u = field.values
    ux, uy = stepper.gradient(u)
    grad_sums = (np.sum(np.abs(ux) ** 2 + np.abs(uy) ** 2),
                 np.sum((ux * np.conj(u)).imag), np.sum((uy * np.conj(u)).imag))
    mass, _, energy, mom = _invariants(field, stepper, grad_sums)
    return mass, energy, mom


def lambda_proxy(field: ComplexField2D, stepper: Stepper, grad_ref: float,
                 mass_ref: float) -> float:
    """Scale estimate ||∇Q||·sqrt(mass ratio)/||∇u|| (refreshes the dt policy),
    from the same one-fft2 invariants as a series row."""
    mass, grad2, _, _ = _invariants(field, stepper, stepper.gradient_moments(field.values))
    return _scale(mass, grad2, grad_ref, mass_ref)


def pseudo_conformal_field(Q_of_r: Callable, C0: float, t: float,
                           X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The exact homogeneous blow-up solution (C0/|t|)Q(C0|x|/|t|)e^{i|x|²/4t - iC0²/t}."""
    if t >= 0:
        raise ValueError("the exact solution is evaluated at t < 0")
    r = np.hypot(X, Y)
    amp = (C0 / abs(t)) * Q_of_r(C0 * r / abs(t))
    return amp * np.exp(1j * (r ** 2 / (4.0 * t) - C0 ** 2 / t))


def init_from_profile(u1: Callable, lam1: float, t1: float, L: float, n: int) -> ComplexField2D:
    """Initial data u(t1, x) = u1(x) on the box, from the point evaluator u1 of an
    ansatz whose core scale is λ1 (refused under 8 grid spacings)."""
    h = 2.0 * L / n
    if lam1 < 8.0 * h:
        raise ResolutionBreach(
            f"core scale λ = {lam1:.4g} under 8 grid spacings (h = {h:.4g})")
    return ComplexField2D(L, u1(box_points(L, n)), t1)


@dataclass
class RunResult:
    series: dict
    snapshots: list
    reason: str


def run(config: SimConfig, field0: ComplexField2D, k_values, grad_ref: float,
        mass_ref: float, snapshot_sink: Optional[Callable] = None) -> RunResult:
    """Advance with the adaptive dt policy, recording series and snapshots.

    The box (L, n) is field0's.  Snapshot emission is synchronous (single
    writer, bounded by construction); a custom sink may stream fields to disk
    instead of keeping them in memory.  Across a step the run holds only the
    state; a closed state lives until its row, refresh and snapshot are taken.
    """
    L, h = field0.L, field0.h
    if config.lam_stop is not None and config.lam_stop <= 4.0 * h:
        raise ValueError(f"lam_stop = {config.lam_stop:.4g} must exceed 4 grid spacings "
                         f"(4h = {4.0 * h:.4g})")
    stepper = Stepper(L, field0.n, np.asarray(k_values, dtype=float),
                      splitting_order=config.splitting_order)
    u, t, carry = field0.values, field0.t, 0.0     # the current state is N(carry)·u at t
    series = {k: [] for k in ("t", "mass", "energy", "momentum_x", "momentum_y",
                              "grad_norm", "lambda_proxy")}
    snapshots = []

    def close() -> ComplexField2D:
        return ComplexField2D(L, stepper.nonlinear(u, carry), t)

    def record_series(field: ComplexField2D) -> float:
        """Append field's row; returns its λ_est."""
        mass, grad2, energy, mom = _invariants(field, stepper,
                                               stepper.gradient_moments(field.values))
        lam_est = _scale(mass, grad2, grad_ref, mass_ref)
        for key, val in zip(series, (field.t, mass, energy, mom[0], mom[1],
                                     float(np.sqrt(grad2)), lam_est)):
            series[key].append(val)
        return lam_est

    emit_snapshot = snapshots.append if snapshot_sink is None else snapshot_sink

    # a series row's λ_est is lambda_proxy of the same state, so a dt refresh
    # on a recorded step reuses it instead of taking a second fft2
    lam_est = record_series(field0)
    dt = config.c_dt * lam_est ** 2
    emit_snapshot(field0)
    u = stepper._zeros()      # the state moves into the padded layout now, so that
    u[...] = field0.values    # field0 is free to go if the caller holds no reference
    del field0
    recorded = snapped = True      # the current state is already emitted
    reason = "max_steps"
    for istep in range(config.max_steps):
        if config.lam_stop is not None and lam_est < config.lam_stop:
            reason = "lam_stop"
            break
        if lam_est < 4.0 * h:
            raise ResolutionBreach(
                f"λ_est = {lam_est:.4g} fell under 4 grid spacings at t = {t:.6g}")
        if config.t_stop is not None:
            remaining = config.t_stop - t
            if remaining <= 1e-14 * max(1.0, abs(config.t_stop)):
                reason = "t_stop"
                break
            dt_step = min(dt, remaining)
        else:
            dt_step = dt
        u, carry = stepper.step_values(u, dt_step, carry)
        t += dt_step
        buf = stepper._padded(u)        # Σ|u|² over the buffer: its padding is 0
        if not np.isfinite(np.vdot(buf, buf)):
            raise BlowupNaN(f"non-finite field samples at t = {t:.6g}")
        recorded = (istep + 1) % config.series_stride == 0
        refresh = (istep + 1) % config.dt_refresh_every == 0
        snapped = (istep + 1) % config.snapshot_stride == 0
        if recorded or refresh or snapped:
            field = close()
            lam_row = record_series(field) if recorded else None
            if refresh:
                lam_est = lam_row if recorded else lambda_proxy(field, stepper, grad_ref,
                                                                mass_ref)
                dt = config.c_dt * lam_est ** 2
            if snapped:
                emit_snapshot(field)
            del field
    if not (recorded and snapped):
        field = close()
        if not recorded:
            record_series(field)
        if not snapped:
            emit_snapshot(field)
    return RunResult(series={k: np.array(v) for k, v in series.items()},
                     snapshots=snapshots, reason=reason)


# ----------------------------------------------------------------------
# snapshot files: header (n, L, t as little-endian 64-bit values), payload
# row-major interleaved re/im float64 (= numpy '<c16' layout)
# ----------------------------------------------------------------------

def write_snapshot(path, field: ComplexField2D):
    """Write a snapshot file; a padded or non-'<c16' field costs one copy."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Qdd", field.n, field.L, field.t))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16"))


def read_snapshot(path) -> ComplexField2D:
    """Read a snapshot file; a bad header or payload raises ValueError naming it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(24)
        n = struct.unpack_from("<Q", head)[0] if len(head) == 24 else 0
        ok = n >= 1 and not n & (n - 1) and size == 24 + 16 * n * n
        if ok:
            data = np.empty((n, n), dtype="<c16")
            ok = fh.readinto(data) == data.nbytes      # the file may shrink after fstat
    if not ok:
        raise ValueError(f"{path}: {size} bytes with n = {n}; a snapshot has n a power "
                         "of two >= 1 and 24 + 16·n² bytes")
    _, L, t = struct.unpack("<Qdd", head)
    return ComplexField2D(float(L), data, float(t))
