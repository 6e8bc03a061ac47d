"""Extraction of (b, λ, β, α, γ) and ε from a field by orthogonality fitting.

The decomposition u(x) = k(α)^{-1/2} λ^{-1} (Q_P + ε)((x-α)/λ) e^{iγ} is fixed
by seven scalar conditions pairing ε against the phase-dressed profile
Q_P = Σ + iΘ and ρ e^{iφ}: translations, boosts, scaling, phase-curvature and
phase directions.  Each condition is ∫ a·ε₁ + b·ε₂ = 0 for one window pair
(a, b) of ``condition_window_pairs``, the only place the windows are written.
All seven integrals are one contraction with ``PolarGrid.weights``.

A damped Newton iteration solves them in the seven parameters.  Its Jacobian
is analytic.  With V = Q_P + ε = √k(α) λ e^{-iγ} u(α + λy) and the phase
φ = -b|y|²/4 + β·y:

    ∂_γ ε = -iV
    ∂_λ ε = (V + r∂_r V)/λ - e^{iφ} ∂_λ P_P
    ∂_αj ε = (∂_j k(α) / 2k(α)) V + ∂_yj V / λ - e^{iφ} ∂_αj P_P
    ∂_b ε = -e^{iφ} ∂_b P_P + i(r²/4) Q_P
    ∂_βj ε = -e^{iφ} ∂_βj P_P - i y_j Q_P

∇V is ∇Q_P plus the fit grid's gradient of ε, and ∂_p P_P reweights the
fit's per-term mode samples.  So the Jacobian takes no field sample;
each line-search trial takes one.  The Jacobian pairs ∂ε with the windows
held fixed.  It drops ∫ ∂(a, b)·ε, the variation of the windows, which is
O(‖ε‖).  Newton then converges linearly, with a contraction factor O(‖ε‖),
not quadratically; near the soliton manifold that costs about as many steps.
A step is taken only if it lowers the largest condition value.  The
conditions also vanish far off the soliton manifold, so a root with
‖ε‖_L2 > ``EPS_L2_FACTOR``·‖Q‖_L2 raises ``NewtonDiverged``.  A simulation
field is cubic-spline prefiltered once, when its ``FieldSampler`` is built,
so each evaluation only interpolates.

A ``Fit`` holds one expansion on one polar fit grid, within the lab's radius
(the lab's splines extrapolate past it).  Each term's (value, ∂_r) mode
samples on the grid's radii, Q's first, form one (2, term, r, mode) array;
P_P, ∂_r P_P and the six ∂_p P_P are ``tensordot``s of its parts with the
weights of ``ProfileExpansion.coefficients``.  The fit samples u at α + λ·``points``.  Its
methods give the windows, ε, the conditions and their Jacobian at P, and one
fit serves every ``decompose(u, guess, fit)`` of a run.  Along a run the
parameters follow the modulation ODE, so ``nlsblow analyze`` guesses each
snapshot by ``modeqs.integrate`` from the previous root to the snapshot's t;
that prediction minus the root is its ode_gap.csv.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .fields import AngularField, PolarGrid
from .profile import ParamPoint, ProfileExpansion, modulated
from .sim import ComplexField2D, Stepper, box_points

TOL_FACTOR = 1e-9      # Newton tolerance on the conditions, times ∫Q²
EPS_L2_FACTOR = 0.1    # largest accepted ‖ε‖_L2, times ‖Q‖_L2
MAX_ITER = 40
SPLINE_ORDER = 3       # interpolation of a simulation field on the fit grid
FIT_WINDOW_FRAC = 0.5  # trailing share of the λ series that fit_rate fits
RANDOM_EPS_L2 = 1e-3   # ‖ε‖_L2 of constrained_random_eps
RANDOM_EPS_BUMPS = 6   # Gaussian bumps summed by constrained_random_eps


class NewtonDiverged(RuntimeError):
    """The field is too far from the soliton manifold for this guess."""


class NonMonotoneSeries(ValueError):
    """The λ series is not decreasing: no blow-up window to fit."""


# ----------------------------------------------------------------------
# the radial cutoff φ of the Morawetz multiplier
# ----------------------------------------------------------------------

def _quintic_blend():
    # match value/slope/curvature of ψ=r at r=1 and ψ=3-e^{-r} at r=2
    rows = []
    rhs = []
    for r0, vals in ((1.0, (1.0, 1.0, 0.0)),
                     (2.0, (3.0 - np.exp(-2.0), np.exp(-2.0), -np.exp(-2.0)))):
        rows.append([r0 ** k for k in range(6)])
        rhs.append(vals[0])
        rows.append([k * r0 ** (k - 1) if k else 0.0 for k in range(6)])
        rhs.append(vals[1])
        rows.append([k * (k - 1) * r0 ** (k - 2) if k > 1 else 0.0 for k in range(6)])
        rhs.append(vals[2])
    return np.linalg.solve(np.array(rows), np.array(rhs))


_BLEND = _quintic_blend()
_BLEND_D = np.polynomial.polynomial.polyder(_BLEND)


def phi_prime(r):
    """ψ = φ' of the virial cutoff: r below 1, 3 - e^{-r} beyond 2, C² blend."""
    r = np.asarray(r, dtype=float)
    mid = np.polynomial.polynomial.polyval(r, _BLEND)
    return np.where(r <= 1.0, r, np.where(r >= 2.0, 3.0 - np.exp(-r), mid))


def phi_second(r):
    r = np.asarray(r, dtype=float)
    mid = np.polynomial.polynomial.polyval(r, _BLEND_D)
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, np.exp(-r), mid))


# ----------------------------------------------------------------------
# the fit and the field sampler
# ----------------------------------------------------------------------

def _radial_samples(f: AngularField, r: np.ndarray) -> dict:
    """{m: (f_m(r), ∂_r f_m(r))}, both from the field's one spline."""
    spl = f.spline()
    v, dv = spl(r), spl.derivative()(r)
    nm = len(f.comps)
    return {m: (v[:, j] + 1j * v[:, nm + j], dv[:, j] + 1j * dv[:, nm + j])
            for j, m in enumerate(f.comps)}


class Fit:
    """One expansion on one polar fit grid, with its per-term mode samples built once:
    ``samples[:, term, :, c]`` are the term's (value, ∂_r) at mode ``m[c]``."""

    def __init__(self, expansion: ProfileExpansion, grid: PolarGrid = PolarGrid()):
        lab = expansion.lab
        # past the lab's r_max its splines extrapolate: Q and ρ grow there
        if grid.r_max > lab.grid.r_max:
            raise ValueError(f"fit r_max = {grid.r_max} exceeds the lab's r_max = "
                             f"{lab.grid.r_max}")
        # the im/r term reads m off the FFT column, which aliases once 2|m| >= n_θ
        top = max(f.max_mode() for f in expansion.terms.values())
        if 2 * top >= grid.n_theta:
            raise ValueError(f"n_theta = {grid.n_theta} cannot resolve the expansion's "
                             f"modes up to |m| = {top}; it must exceed {2 * top}")
        self.expansion = expansion
        self.grid = grid
        self.model = expansion.model
        self.rho = _radial_samples(AngularField.radial(lab.grid, lab.rho.values), grid.r)[0][0].real
        self.m = np.array(sorted({m for f in expansion.terms.values() for m in f.comps}))
        column = {m: c for c, m in enumerate(self.m)}
        self.samples = np.zeros((2, len(expansion.terms), grid.n_r, self.m.size), dtype=complex)
        for t, f in enumerate(expansion.terms.values()):
            for m, vd in _radial_samples(f, grid.r).items():
                self.samples[:, t, :, column[m]] = vd

    def _modes(self, weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Σ_term weights[..., term]·samples[term] in FFT columns, shape (..., n_r, n_θ)."""
        part = np.tensordot(weights, samples, axes=1)
        modes = np.zeros(part.shape[:-1] + (self.grid.n_theta,), dtype=complex)
        modes[..., self.m % self.grid.n_theta] = part
        return modes

    def eval_with_grad(self, P: ParamPoint):
        """P_P values, ∂_r P_P and (1/r)∂_θ P_P on the fit grid."""
        g = self.grid
        coeffs = np.array(list(self.expansion.coefficients(P).values()))
        modes_v, modes_d = (self._modes(coeffs, part) for part in self.samples)
        return g.samples(modes_v), g.samples(modes_d), g.samples(g.over_r_dtheta(modes_v))

    def parameter_derivatives(self, P: ParamPoint) -> np.ndarray:
        """∂P_P/∂(b, λ, β1, β2, α1, α2) on the fit grid, shape (6, n_r, n_θ)."""
        slopes = np.array([list(self.expansion.coefficients(P, i).values()) for i in range(6)])
        return self.grid.samples(self._modes(slopes, self.samples[0]))

    def window_fields(self, P: ParamPoint) -> dict:
        """Σ, Θ, their cartesian gradients, ΛΣ/ΛΘ, ρ1/ρ2 and e^{iφ} at parameters P."""
        grid = self.grid
        r = grid.r[:, None]
        theta = grid.theta[None, :]
        Pv, dPr, dPth = self.eval_with_grad(P)
        ct, st = np.cos(theta), np.sin(theta)
        eip = np.exp(1j * P.phase(grid.points))
        QP = Pv * eip
        u_r, u_th = P.phase_gradient(r, theta)
        grad_r = (dPr + 1j * Pv * u_r) * eip
        grad_th = (dPth + 1j * Pv * u_th) * eip
        gx = ct * grad_r - st * grad_th
        gy = st * grad_r + ct * grad_th
        lam_qp = QP + r * grad_r
        rho_c = self.rho[:, None] * eip
        return {"QP": QP, "gx": gx, "gy": gy, "LamQP": lam_qp, "rho": rho_c,
                "ct": ct, "st": st, "eip": eip}

    def epsilon_at(self, P: ParamPoint, usample: "FieldSampler"):
        """ε = √k(α) λ e^{-iγ} u(α + λy) - Q_P on the fit grid, and the windows at P."""
        uvals = usample(P.alpha + P.lam * self.grid.points)
        k_alpha = float(self.model.k(P.alpha))
        w = self.window_fields(P)
        eps = np.sqrt(k_alpha) * P.lam * uvals * np.exp(-1j * P.gamma) - w["QP"]
        return eps, w

    def _pair_with_windows(self, fields, w: dict) -> np.ndarray:
        """∫ a_i·Re f_j + b_i·Im f_j for the 7 condition windows and each field f_j.

        ``fields`` is an iterable of k complex samples arrays; the result has
        shape (7, k).
        """
        grid = self.grid
        # weighted windows interleaved (a, b) per node, as a complex sample's (Re, Im)
        windows = np.empty((7, grid.weights.size, 2))
        for i, (a, b) in enumerate(condition_window_pairs(w, grid)[:7]):
            windows[i, :, 0] = (a * grid.weights).ravel()
            windows[i, :, 1] = (b * grid.weights).ravel()
        windows = windows.reshape(7, -1)
        return np.array([windows @ np.ascontiguousarray(f, dtype=complex).view(float).ravel()
                         for f in fields]).T

    def condition_values(self, eps: np.ndarray, w: dict) -> np.ndarray:
        """The seven orthogonality values ∫ a·ε₁ + b·ε₂, one per window pair."""
        return self._pair_with_windows([eps], w)[:, 0]

    def jacobian(self, P: ParamPoint, eps: np.ndarray, w: dict) -> np.ndarray:
        """∂(conditions)/∂(b, λ, β1, β2, α1, α2, γ) at P with the windows held fixed.

        ``eps`` and ``w`` are those of the evaluation at P (see the module
        docstring for each ∂ε); no field sample is taken.
        """
        grid = self.grid
        r = grid.r[:, None]
        ct, st, QP = w["ct"], w["st"], w["QP"]
        V = QP + eps
        eps_r, eps_th = grid.gradient(eps)
        Vx = w["gx"] + ct * eps_r - st * eps_th
        Vy = w["gy"] + st * eps_r + ct * eps_th
        dlogk = self.model.grad_k(P.alpha) / (2.0 * float(self.model.k(P.alpha)))
        dP = w["eip"] * self.parameter_derivatives(P)     # e^{iφ} ∂_p P_P

        def d_eps():     # one at a time, so only one ∂ε is held
            yield -dP[0] + 0.25j * r ** 2 * QP
            yield (w["LamQP"] + eps + r * eps_r) / P.lam - dP[1]
            yield -dP[2] - 1j * r * ct * QP
            yield -dP[3] - 1j * r * st * QP
            yield dlogk[0] * V + Vx / P.lam - dP[4]
            yield dlogk[1] * V + Vy / P.lam - dP[5]
            yield -1j * V

        return self._pair_with_windows(d_eps(), w)


class FieldSampler:
    """Samples a simulation field (bicubic) or an exact evaluator.

    A simulation field reads 0 outside the box [-L, L]², so a fit disk that
    leaves the box does not see the field's periodic image.
    """

    def __init__(self, u: Union[ComplexField2D, Callable]):
        if isinstance(u, ComplexField2D):
            self.field = u
            self.t = u.t
            self.coeffs = spline_filter(u.values, SPLINE_ORDER, output=complex,
                                        mode="grid-wrap")
        else:
            self.field = None
            self.call = u
            self.t = getattr(u, "t", 0.0)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self.field is None:
            return self.call(pts)
        f = self.field
        idx = (pts + f.L) / f.h
        vals = map_coordinates(self.coeffs, [idx[..., 0], idx[..., 1]], order=SPLINE_ORDER,
                               mode="grid-wrap", prefilter=False)
        vals[np.any(np.abs(pts) > f.L, axis=-1)] = 0.0
        return vals


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------

@dataclass
class Decomposition:
    params: ParamPoint
    epsilon: np.ndarray          # on the polar fit grid, rescaled variables
    fit_grid: PolarGrid
    residuals: np.ndarray        # the 7 orthogonality values at the solution
    jacobian_cond: float         # of the analytic Jacobian at the solution
    eps_l2: float
    eps_h1: float
    newton_iterations: int       # Newton steps taken from the guess


def condition_window_pairs(dec_windows: dict, grid: PolarGrid):
    """The (ε₁, ε₂) window pairs of the 7 conditions plus the mass direction."""
    w = dec_windows
    r = grid.r[:, None]
    S, T = w["QP"].real, w["QP"].imag
    pairs = [
        (-w["gx"].imag, w["gx"].real),
        (-w["gy"].imag, w["gy"].real),
        (r * w["ct"] * S, r * w["ct"] * T),
        (r * w["st"] * S, r * w["st"] * T),
        (-w["LamQP"].imag, w["LamQP"].real),
        (r ** 2 * S, r ** 2 * T),
        (-w["rho"].imag, w["rho"].real),
        (S, T),
    ]
    return pairs


def decompose(u: Union[ComplexField2D, Callable], guess: ParamPoint, fit: Fit) -> Decomposition:
    """Newton solve of the seven orthogonality conditions in the parameters.

    The Newton unknowns are the first seven entries of ``guess.to_vector()``;
    the clock t is the field's, and s is 0 (a snapshot has no rescaled
    clock).  The guess must be in the Newton basin (along a run, the
    modulation ODE from the previous snapshot's root); raises NewtonDiverged
    otherwise.
    """
    if guess.lam <= 0:
        raise ValueError("lambda must be positive")
    usample = FieldSampler(u)
    grid = fit.grid
    tol = TOL_FACTOR * fit.expansion.lab.moments.massQ

    def point(pv) -> ParamPoint:
        return ParamPoint.from_vector(np.append(pv, (0.0, usample.t)))

    def evaluate(pv):
        P = point(pv)
        eps, w = fit.epsilon_at(P, usample)
        return fit.condition_values(eps, w), P, eps, w

    p = guess.to_vector()[:7]
    R, P, eps, w = evaluate(p)
    iterations = 0
    while np.max(np.abs(R)) > tol:
        if iterations == MAX_ITER:
            raise NewtonDiverged(f"orthogonality residual {np.max(np.abs(R)):.2e} > {tol:.2e} "
                                 f"after {MAX_ITER} iterations")
        try:
            step_vec = np.linalg.solve(fit.jacobian(P, eps, w), -R)
        except np.linalg.LinAlgError as err:
            raise NewtonDiverged(f"singular Jacobian: {err}")
        scale = 1.0
        for _ in range(8):
            trial = p + scale * step_vec
            if trial[1] > 0:
                trial_eval = evaluate(trial)
                if np.max(np.abs(trial_eval[0])) < np.max(np.abs(R)):
                    p, (R, P, eps, w) = trial, trial_eval
                    break
            scale *= 0.5
        else:
            raise NewtonDiverged("line search failed; guess outside the basin")
        iterations += 1
    cond = float(np.linalg.cond(fit.jacobian(P, eps, w)))

    l2 = np.sqrt(grid.integral(np.abs(eps) ** 2))
    eps_max = EPS_L2_FACTOR * np.sqrt(fit.expansion.lab.moments.massQ)
    if l2 > eps_max:
        raise NewtonDiverged(f"eps_L2 {l2:.3g} > {eps_max:.3g}: a root off the soliton manifold")
    dr_eps, dth_eps = grid.gradient(eps)
    h1 = np.sqrt(l2 ** 2 + grid.integral(np.abs(dr_eps) ** 2 + np.abs(dth_eps) ** 2))
    return Decomposition(params=P, epsilon=eps, fit_grid=grid, residuals=R,
                         jacobian_cond=cond, eps_l2=float(l2), eps_h1=float(h1),
                         newton_iterations=iterations)


# ----------------------------------------------------------------------
# blow-up law fit
# ----------------------------------------------------------------------

@dataclass
class FitReport:
    T_est: float
    C0_est: float
    window: tuple
    residual: float


def fit_rate(ts, lams) -> FitReport:
    """Least squares of λ against (T-t)/C0 over the trailing window."""
    ts = np.asarray(ts, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if ts.size < 10:
        raise ValueError("need at least 10 samples")
    if not np.all(np.diff(lams) < 0):
        raise NonMonotoneSeries("λ series must be strictly decreasing")
    n0 = int(np.floor(ts.size * (1.0 - FIT_WINDOW_FRAC)))
    tw, lw = ts[n0:], lams[n0:]
    A = np.stack([np.ones_like(tw), tw], axis=1)
    coef, *_ = np.linalg.lstsq(A, lw, rcond=None)
    a, bslope = coef
    if bslope >= 0:
        raise NonMonotoneSeries("fitted λ slope is nonnegative")
    C0_est = -1.0 / bslope
    T_est = a * C0_est
    resid = float(np.sqrt(np.mean((A @ coef - lw) ** 2)))
    if T_est <= tw[-1]:
        raise ValueError("fitted blow-up time is not beyond the last sample")
    return FitReport(T_est=float(T_est), C0_est=float(C0_est),
                     window=(float(tw[0]), float(tw[-1])), residual=resid)


# ----------------------------------------------------------------------
# diagnostics: the mixed energy/Morawetz functional and the virial boundary
# ----------------------------------------------------------------------

def lyapunov_I(dec_params: ParamPoint, u: ComplexField2D, w: ComplexField2D,
               A: float, stepper: Stepper) -> float:
    """I = ½∫|∇ũ|² + ½∫|ũ|²/λ² - ∫k[F(w+ũ)-F(w)-F'(w)ũ] + boundary term.

    F(v) = |v|⁴/4; the boundary term is ½(b/λ) Im ∫ A∇φ((x-α)/(Aλ))·∇ũ ū.
    ``stepper`` is a Stepper on the box of u, holding the k samples (or a
    scalar k).  Each integral is one contraction over the box.
    """
    if A < 10:
        raise ValueError("A must be at least 10")
    if (stepper.L, stepper.n) != (u.L, u.n):
        raise ValueError(f"stepper box (L, n) = ({stepper.L}, {stepper.n}) differs from the "
                         f"field's ({u.L}, {u.n})")
    lam, b, alpha = dec_params.lam, dec_params.b, dec_params.alpha
    ut = u.values - w.values
    h2 = u.h ** 2
    ux, uy = stepper.gradient(ut)
    kin = 0.5 * (np.vdot(ux, ux).real + np.vdot(uy, uy).real) * h2
    low = 0.5 * np.vdot(ut, ut).real * h2 / lam ** 2
    # k[F(w+ũ) - F(w) - F'(w)ũ] with F(v) = |v|⁴/4 and F'(w)ũ = Re(|w|² w ũ̄)
    aw = w.values.real ** 2 + w.values.imag ** 2
    nonlin = u.values.real ** 2 + u.values.imag ** 2
    nonlin *= nonlin
    nonlin -= aw * aw
    nonlin *= 0.25
    cross = w.values.real * ut.real
    cross += w.values.imag * ut.imag
    cross *= aw
    nonlin -= cross
    k = stepper.k
    pot = (np.vdot(k, nonlin) if k.ndim else k * nonlin.sum()) * h2
    # A∇φ(z)·∇ũ with z = (x-α)/(Aλ) and ∇φ(z) = ψ(|z|) z/|z|, on the box axes
    x = -u.L + u.h * np.arange(u.n)
    zx = ((x - alpha[0]) / (A * lam))[:, None]
    zy = ((x - alpha[1]) / (A * lam))[None, :]
    rz = np.hypot(zx, zy)
    psi_over_r = np.ones_like(rz)     # ψ(r) = r for r ≤ 1, the origin's limit included
    far = rz > 1.0
    psi_over_r[far] = phi_prime(rz[far]) / rz[far]
    ux *= zx
    uy *= zy
    ux += uy
    ux *= psi_over_r
    bterm = 0.5 * (b / lam) * A * np.vdot(ut, ux).imag * h2
    return float(kin + low - pot + bterm)


def virial_boundary(dec: Decomposition, A: float, ymomQ: float) -> float:
    """-(b/λ)||yQ||²/4 + (1/2λ) Im ∫ A∇φ(y/A)·∇ε ε̄ in rescaled variables."""
    if A < 10:
        raise ValueError("A must be at least 10")
    g = dec.fit_grid
    lam, b = dec.params.lam, dec.params.b
    dr_eps, _ = g.gradient(dec.epsilon)
    psi = phi_prime(g.r / A)[:, None]
    term = 0.5 / lam * g.integral((A * psi * dr_eps * np.conj(dec.epsilon)).imag)
    return float(-(b / lam) * ymomQ / 4.0 + term)


def constrained_random_eps(dec_windows: dict, grid: PolarGrid, rng) -> np.ndarray:
    """A random smooth ε satisfying the 7 conditions and the mass direction."""
    r = grid.r[:, None]
    th = grid.theta[None, :]
    eps = np.zeros((grid.n_r, grid.n_theta), dtype=complex)
    for _ in range(RANDOM_EPS_BUMPS):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = rng.integers(0, 4)
        width = rng.uniform(1.0, 3.0)
        eps += (c[0] * np.cos(m * th) + c[1] * np.sin(m * th)) \
            * (r ** m * np.exp(-r ** 2 / (2 * width ** 2)))
    pairs = condition_window_pairs(dec_windows, grid)
    nw = len(pairs)
    gram = np.empty((nw, nw))
    vals = np.empty(nw)
    for i, (a_i, b_i) in enumerate(pairs):
        vals[i] = grid.integral(a_i * eps.real + b_i * eps.imag)
        for j, (a_j, b_j) in enumerate(pairs):
            gram[i, j] = grid.integral(a_i * a_j + b_i * b_j)
    coef = np.linalg.solve(gram, vals)
    for c, (a_i, b_i) in zip(coef, pairs):
        eps -= c * (a_i + 1j * b_i)
    scale = np.sqrt(grid.integral(np.abs(eps) ** 2))
    return eps * (RANDOM_EPS_L2 / scale)


def rescaled_perturbation(eps: np.ndarray, grid: PolarGrid, params: ParamPoint,
                          model, L: float, n: int) -> np.ndarray:
    """ũ(x) = k(α)^{-1/2} λ^{-1} ε((x-α)/λ) e^{iγ} sampled on the box."""
    # spectral in θ, spline in r, zero beyond r_max
    field = AngularField(grid.radial, dict(zip(grid.m, grid.modes(eps).T)))
    return modulated(field.at, params.lam, params.alpha, params.gamma,
                     float(model.k(params.alpha)), box_points(L, n))
