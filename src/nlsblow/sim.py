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

A step allocates no box-sized array.  The nonlinear kick writes N(τ)u into
the state's own buffer, KICK_BLOCK values of whole rows at a time, with
θ = τk|u|² and e^{iθ} in one block-sized complex temporary.  The linear
flow transforms the same buffer in place and runs each second 1D pass on
the kept lines only (`Stepper.linear`).  The propagator zeroes every
wavenumber of the top third of either axis (the 2/3 rule), so a cut row
of the forward transform's axis-1 pass is multiplied by 0 and can be zeroed
untransformed, and a cut column of the inverse's axis-0 pass holds only
zeros, whose transform is zero.  The kept lines go through the passes of
fft2 and ifft2 in pocketfft's own order, axis 0 then axis 1, each line by
the same arithmetic; ifft2 scales by 1/n² once and the pruned inverse by
1/n on each axis, which is exact for n a power of two.  The steps are
therefore bitwise those of the full transforms.

The kick's phase is exact where it is small.  For |θ| < PHASE_EXACT = 2^-27
the correctly rounded cos θ is 1.0 and sin θ is θ: cos θ = 1 - θ²/2 + ...
rounds to 1 while θ²/2 is under half an ulp below 1 (2^-54), that is
|θ| < 2^-26.5, and sin θ = θ(1 - θ²/6 + ...) rounds to θ while θ²/6 is
under the relative half ulp (at least 2^-54), that is |θ| < 2^-25.7.  2^-27
is the power of two under both, and numpy's cos and sin meet it to the bit
(tests/test_sim.py holds them to it).  A collapsing state is a core that
decays like e^{-r} over a background near 0, so along a collapse run on
the production box about 97% of θ lie under it.  The kick takes cos and
sin only on the column span of each row block where some |θ| does not,
and writes e^{iθ} = 1 + iθ elsewhere, so every result is bitwise that of
cos and sin everywhere.

The box-sized arrays of a run, each alive only while it is read:

- across a step: the state u (padded complex), the cached propagator of
  each sub-step length (padded complex, 1 for Strang, 2 for the triple
  jump), the k samples (n² real) and the dealiasing mask (n² bytes);
- within a step: nothing new, except that the first step after a dt
  refresh builds its propagator from one n² real temporary;
- on a step that closes the state: the closed state (padded complex); for
  its series row or refresh |u|² and k|u|⁴ (n² real each), then the
  spectrum copy (padded complex) and |û|² (n² real);
- field0 until the first step, when the state is copied into the padded
  layout; past that only a reference that the caller keeps holds it.
"""

import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.fft as _fft


_SIZE_RULE = "values must be square with n a power of two >= 1"


def _power_of_two(n: int) -> bool:
    return n >= 1 and not n & (n - 1)


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
        if self.values.shape != (n, n) or not _power_of_two(n):
            raise ValueError(_SIZE_RULE)
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


# Steps a run takes at most: a cap, not a config key, so every run ends.
MAX_STEPS = 2_000_000

# One 64-byte cache line of complex128 values per row: the rows of a padded
# buffer no longer start a power of two apart.
ROW_PAD = 4

# Values per row block of the nonlinear kick (fields.AT_BLOCK's size): e^{iθ}
# of a block, 512 KiB of complex values, is still in cache for the product.
KICK_BLOCK = 2 ** 15

# Below this |θ|, cos θ rounds to 1.0 and sin θ to θ (the module docstring
# says why), so the kick writes e^{iθ} = 1 + iθ without calling them.
PHASE_EXACT = 2.0 ** -27


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
    (n, n + ROW_PAD) buffer (see the module docstring).  `step_values` and
    `linear` write into a state in that layout and copy any other input into
    it once; `nonlinear` writes a new state; the spectral diagnostics copy
    their input and leave it unwritten.
    """

    def __init__(self, L: float, n: int, k_values: np.ndarray, splitting_order: int = 2):
        if not _power_of_two(int(n)):
            raise ValueError(_SIZE_RULE)
        if splitting_order not in (2, 4):
            raise ValueError("splitting_order must be 2 or 4")
        self.L = float(L)
        self.n = int(n)
        self.k = np.asarray(k_values, dtype=float)
        if self.k.shape not in ((n, n), ()):
            raise ValueError("k must be scalar or an (n, n) sample")
        self._k_rows = np.broadcast_to(self.k, (n, n))
        h = 2.0 * L / n
        freq = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        self.kx = freq[:, None]
        self.ky = freq[None, :]
        self._padded_shape = (self.n, self.n + ROW_PAD)
        cut = np.abs(np.fft.fftfreq(n)) > 1.0 / 3.0
        self._dealias_mask = cut[:, None] | cut[None, :]
        # fftfreq puts the cut wavenumbers in one middle run [a, b), so the
        # kept ones are the runs [0, a) and [b, n)
        cut_at = np.flatnonzero(cut)
        a, b = (int(cut_at[0]), int(cut_at[-1]) + 1) if cut_at.size else (n, n)
        self._cut = slice(a, b)
        self._kept = tuple(s for s in (slice(0, a), slice(b, n)) if s.start < s.stop)
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

    def _padded(self, u: np.ndarray) -> np.ndarray:
        """u's padded buffer when u is the (n, n) view of one, else a new
        padded buffer holding a copy of u."""
        base = u.base
        if (isinstance(base, np.ndarray) and base.shape == self._padded_shape
                and base.dtype == complex and u.strides == base.strides
                and u.ctypes.data == base.ctypes.data):
            return base
        view = self._zeros()
        view[...] = u
        return view.base

    def _kick(self, buf: np.ndarray, tau: float, out: np.ndarray):
        """Write N(τ) of the padded buffer buf into the padded buffer out,
        which may be buf, KICK_BLOCK values of whole rows at a time.

        θ = τk|u|² is built in the imaginary part of one block-sized complex
        temporary (its real part holds Im(u)² on the way), e^{iθ} over it,
        then out = e^{iθ}·u with e^{iθ} the first factor: swapped factors
        can round a complex product differently.  The padding of θ is 0,
        because |0|² = 0 and k multiplies the view only, so out's padding
        is 0.

        cos and sin run only on the block's live columns, the span from the
        first to the last column holding some |θ| >= PHASE_EXACT or a
        non-finite θ, whose NaN they pass on; outside it e^{iθ} is 1 + iθ,
        the correctly rounded cos and sin there (2^-27 is under the 2^-26.5
        where cos θ stops rounding to 1 and the 2^-25.7 where sin θ stops
        rounding to θ), so the result is bitwise that of cos and sin
        everywhere.  A localized state leaves most blocks with no live
        column at all.  The test is on |θ|: a merged middle kick of the
        triple jump has τ < 0, and k may have either sign.
        """
        rows = max(1, KICK_BLOCK // buf.shape[1])
        phase = np.empty((rows, buf.shape[1]), dtype=complex)
        for i in range(0, self.n, rows):
            b = buf[i:i + rows]
            e = phase[:len(b)]
            theta = e.imag
            np.multiply(b.real, b.real, out=theta)
            np.multiply(b.imag, b.imag, out=e.real)
            theta += e.real
            theta[:, :self.n] *= self._k_rows[i:i + rows]
            theta *= tau
            dead = theta.max(axis=0) < PHASE_EXACT        # NaN compares False: live
            dead &= theta.min(axis=0) > -PHASE_EXACT
            live = np.flatnonzero(~dead)
            c0, c1 = (live[0], live[-1] + 1) if live.size else (0, 0)
            e.real[:, :c0] = 1.0
            e.real[:, c1:] = 1.0
            _phase(theta[:, c0:c1], out=e[:, c0:c1])
            np.multiply(e, b, out=out[i:i + rows])

    def nonlinear(self, u: np.ndarray, tau: float) -> np.ndarray:
        """N(τ)u = u·e^{iτk|u|²}, as the view of a new padded buffer; u is
        not written."""
        out = np.empty(self._padded_shape, dtype=complex)
        self._kick(self._padded(u), tau, out)
        return out[:, :self.n]

    def linear(self, u: np.ndarray, tau: float) -> np.ndarray:
        """L(τ)u = e^{iτΔ}u, written into u's buffer when u is in the padded
        layout, else into a padded copy of u; returns its (n, n) view.

        The forward transform runs along axis 0 over every column, then
        along axis 1 over the kept rows, and the half-transformed cut rows
        are zeroed.  The inverse runs along axis 0 over the kept columns,
        then along axis 1 over every row.  The module docstring says why
        this gives the bits of fft2 and ifft2.
        """
        buf = self._padded(u)
        u = buf[:, :self.n]
        prop = self._propagator(tau).base
        _in_place(_fft.fft2, u, axes=(0,))
        for rows in self._kept:
            _in_place(_fft.fft2, u[rows], axes=(1,))
            buf[rows] *= prop[rows]
        buf[self._cut] = 0.0
        for cols in self._kept:
            _in_place(_fft.ifft2, u[:, cols], axes=(0,))
        _in_place(_fft.ifft2, u, axes=(1,))
        return u

    def step_values(self, u: np.ndarray, dt: float, carry: float = 0.0):
        """One step from u, whose nonlinear sub-step of length carry is pending.

        Returns (v, carry'): the state after the step is N(carry')v.  A
        state in the padded layout (one that `step_values` or `nonlinear`
        returned) is stepped in place and v is a view of its buffer; any
        other u is copied once and left unwritten.  The propagator cache
        keeps only this step's sub-step lengths, because dt changes at every
        refresh and an old dt never returns.
        """
        taus = [w * dt for w in self._weights]
        self._prop_cache = {tau: p for tau, p in self._prop_cache.items() if tau in taus}
        buf = self._padded(u)
        u = buf[:, :self.n]
        for tau in taus:
            self._kick(buf, carry + 0.5 * tau, buf)
            self.linear(u, tau)
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


def _in_place(transform, u: np.ndarray, axes=(-2, -1)):
    """Write transform(u) along axes into u.  scipy transforms a complex view
    in place when it may overwrite it, and returns a new view of u's memory;
    the copy back covers any backend that returns other memory."""
    out = transform(u, axes=axes, overwrite_x=True)
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


def run(field0: ComplexField2D, k_values, grad_ref: float, mass_ref: float,
        snapshot_sink: Callable, *, c_dt: float, t_stop: Optional[float],
        lam_stop: Optional[float], splitting_order: int, dt_refresh_every: int,
        series_stride: int, snapshot_stride: int, max_steps: int = MAX_STEPS):
    """Advance with the adaptive dt policy dt = c_dt·λ_est²; returns
    (series, reason), reason the stop rule that ended the run.

    The box (L, n) is field0's.  The keyword settings are the config's
    ``sim`` keys less ``t_start``, with no defaults here (config.SCHEMA
    holds them); t_stop and lam_stop may be None.  field0, every
    snapshot_stride-th state and the last state go to snapshot_sink, each
    once and synchronously; the run keeps none of them.  Across a step the
    run holds only the state; a closed state lives until its row, refresh
    and snapshot are taken.
    """
    L, h = field0.L, field0.h
    if lam_stop is not None and lam_stop <= 4.0 * h:
        raise ValueError(f"lam_stop = {lam_stop:.4g} must exceed 4 grid spacings "
                         f"(4h = {4.0 * h:.4g})")
    stepper = Stepper(L, field0.n, np.asarray(k_values, dtype=float),
                      splitting_order=splitting_order)
    u, t, carry = field0.values, field0.t, 0.0     # the current state is N(carry)·u at t
    series = {k: [] for k in ("t", "mass", "energy", "momentum_x", "momentum_y",
                              "grad_norm", "lambda_proxy")}

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

    # a series row's λ_est is lambda_proxy of the same state, so a dt refresh
    # on a recorded step reuses it instead of taking a second fft2
    lam_est = record_series(field0)
    dt = c_dt * lam_est ** 2
    snapshot_sink(field0)
    u = stepper._zeros()      # the state moves into the padded layout now, so that
    u[...] = field0.values    # field0 is free to go if the caller holds no reference
    del field0
    recorded = snapped = True      # the current state is already emitted
    reason = "max_steps"
    for istep in range(max_steps):
        if lam_stop is not None and lam_est < lam_stop:
            reason = "lam_stop"
            break
        if lam_est < 4.0 * h:
            raise ResolutionBreach(
                f"λ_est = {lam_est:.4g} fell under 4 grid spacings at t = {t:.6g}")
        if t_stop is not None:
            remaining = t_stop - t
            if remaining <= 1e-14 * max(1.0, abs(t_stop)):
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
        recorded = (istep + 1) % series_stride == 0
        refresh = (istep + 1) % dt_refresh_every == 0
        snapped = (istep + 1) % snapshot_stride == 0
        if recorded or refresh or snapped:
            field = close()
            lam_row = record_series(field) if recorded else None
            if refresh:
                lam_est = lam_row if recorded else lambda_proxy(field, stepper, grad_ref,
                                                                mass_ref)
                dt = c_dt * lam_est ** 2
            if snapped:
                snapshot_sink(field)
            del field
    if not (recorded and snapped):
        field = close()
        if not recorded:
            record_series(field)
        if not snapped:
            snapshot_sink(field)
    return {k: np.array(v) for k, v in series.items()}, reason


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
        ok = _power_of_two(n) and size == 24 + 16 * n * n
        if ok:
            data = np.empty((n, n), dtype="<c16")
            ok = fh.readinto(data) == data.nbytes      # the file may shrink after fstat
    if not ok:
        raise ValueError(f"{path}: {size} bytes with n = {n}; a snapshot has n a power "
                         "of two >= 1 and 24 + 16·n² bytes")
    _, L, t = struct.unpack("<Qdd", head)
    return ComplexField2D(float(L), data, float(t))
