"""Extraction of (b, λ, β, α, γ) and ε from a field by orthogonality fitting.

The decomposition u(x) = k(α)^{-1/2} λ^{-1} (Q_P + ε)((x-α)/λ) e^{iγ} is fixed
by seven scalar conditions pairing ε against the phase-dressed profile
Q_P = Σ + iΘ and ρ e^{iφ}: translations, boosts, scaling, phase-curvature and
phase directions.  Each condition is ∫ a·ε₁ + b·ε₂ = 0 for one window pair
(a, b) of ``condition_window_pairs``, the only place the windows are written.
``Fit.window_fields`` weights them once per evaluated point into one
(7, 2·n_r·n_θ) matrix, and the conditions and every column of the Jacobian
at that point are products of that matrix with a field's (Re, Im) samples.

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
each line-search trial takes one.  ε_H1 reads the gradient of ε that the
root's Jacobian took, and ``virial_boundary`` its ∂_r ε, kept as
``Decomposition.eps_dr``.  The Jacobian pairs ∂ε with the windows
held fixed.  It drops ∫ ∂(a, b)·ε, the variation of the windows, which is
O(‖ε‖).  Newton then converges linearly, with a contraction factor O(‖ε‖),
not quadratically; near the soliton manifold that costs about as many steps.
A step is taken only if it lowers the largest condition value, and only
then is the Jacobian built, while the accepted point's windows are alive.  The
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

from .fields import AT_BLOCK, AngularField, PolarGrid
from .profile import ParamPoint, ProfileExpansion
from .sim import ComplexField2D, Stepper

TOL_FACTOR = 1e-9      # Newton tolerance on the conditions, times ∫Q²
EPS_L2_FACTOR = 0.1    # largest accepted ‖ε‖_L2, times ‖Q‖_L2
MAX_ITER = 40
SPLINE_ORDER = 3       # interpolation of a simulation field on the fit grid
FIT_WINDOW_FRAC = 0.5  # trailing share of the λ series that fit_rate fits


class NewtonDiverged(RuntimeError):
    """The field is too far from the soliton manifold for this guess.  ``numbers``
    holds decompose's last accepted max|R| (condition_residual), its Newton
    steps (newton_iterations) and, when that is the reason, the root's eps_L2."""

    def __init__(self, message: str, **numbers):
        super().__init__(message)
        self.numbers = numbers


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


def phi_prime(r):
    """ψ = φ' of the virial cutoff: r below 1, 3 - e^{-r} beyond 2, C² blend."""
    r = np.asarray(r, dtype=float)
    mid = np.polynomial.polynomial.polyval(r, _BLEND)
    return np.where(r <= 1.0, r, np.where(r >= 2.0, 3.0 - np.exp(-r), mid))


# ----------------------------------------------------------------------
# the fit and the field sampler
# ----------------------------------------------------------------------

def _radial_samples(f: AngularField, r: np.ndarray) -> dict:
    """{m: (f_m(r), ∂_r f_m(r))}, both from the field's one spline."""
    spl = f.spline()
    v, dv = spl(r), spl.derivative()(r)
    nm = len(f.comps)
    return {m: (v[j] + 1j * v[nm + j], dv[j] + 1j * dv[nm + j])
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
        """Σ, Θ, their cartesian gradients, ΛΣ/ΛΘ, ρ1/ρ2, e^{iφ} and ``windows``, the weighted
        condition windows at P: (7, 2·n_r·n_θ), (a, b) per node as a sample's (Re, Im)."""
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
        w = {"QP": QP, "gx": gx, "gy": gy, "LamQP": lam_qp, "rho": rho_c,
             "ct": ct, "st": st, "eip": eip}
        windows = np.empty((7, grid.weights.size, 2))
        for i, (a, b) in enumerate(condition_window_pairs(w, grid)):
            windows[i, :, 0] = (a * grid.weights).ravel()
            windows[i, :, 1] = (b * grid.weights).ravel()
        w["windows"] = windows.reshape(7, -1)
        return w

    def epsilon_at(self, P: ParamPoint, usample: "FieldSampler"):
        """ε = √k(α) λ e^{-iγ} u(α + λy) - Q_P on the fit grid, and the windows at P."""
        uvals = usample(P.alpha + P.lam * self.grid.points)
        k_alpha = float(self.model.k(P.alpha))
        w = self.window_fields(P)
        eps = np.sqrt(k_alpha) * P.lam * uvals * np.exp(-1j * P.gamma) - w["QP"]
        return eps, w

    def condition_values(self, eps: np.ndarray, w: dict) -> np.ndarray:
        """The seven orthogonality values ∫ a·ε₁ + b·ε₂, one per window pair."""
        return w["windows"] @ np.ascontiguousarray(eps, dtype=complex).view(float).ravel()

    def jacobian(self, P: ParamPoint, eps: np.ndarray, w: dict, eps_grad: tuple) -> np.ndarray:
        """∂(conditions)/∂(b, λ, β1, β2, α1, α2, γ) at P with the windows held fixed.

        ``eps`` and ``w`` are those of the evaluation at P, and ``eps_grad`` is
        ``grid.gradient(eps)`` (see the module docstring for each ∂ε); no
        field sample is taken.
        """
        grid = self.grid
        r = grid.r[:, None]
        ct, st, QP = w["ct"], w["st"], w["QP"]
        V = QP + eps
        eps_r, eps_th = eps_grad
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

        return np.array([self.condition_values(f, w) for f in d_eps()]).T


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
    eps_dr: np.ndarray           # its ∂_r ε, as the root's Jacobian took it
    fit_grid: PolarGrid
    residuals: np.ndarray        # the 7 orthogonality values at the solution
    jacobian_cond: float         # of the analytic Jacobian at the solution
    eps_l2: float
    eps_h1: float
    newton_iterations: int       # Newton steps taken from the guess


def condition_window_pairs(dec_windows: dict, grid: PolarGrid):
    """The (ε₁, ε₂) window pairs of the 7 conditions."""
    w = dec_windows
    r = grid.r[:, None]
    S, T = w["QP"].real, w["QP"].imag
    return [
        (-w["gx"].imag, w["gx"].real),
        (-w["gy"].imag, w["gy"].real),
        (r * w["ct"] * S, r * w["ct"] * T),
        (r * w["st"] * S, r * w["st"] * T),
        (-w["LamQP"].imag, w["LamQP"].real),
        (r ** 2 * S, r ** 2 * T),
        (-w["rho"].imag, w["rho"].real),
    ]


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

    def evaluate(pv, bar=None):
        # (R, P, ε, Jacobian, ∇ε) at pv, or None if max|R| is not below bar; the windows
        # die here, and ∇ε too unless pv is the root
        P = point(pv)
        eps, w = fit.epsilon_at(P, usample)
        R = fit.condition_values(eps, w)
        if bar is None or np.max(np.abs(R)) < bar:
            grad = grid.gradient(eps)
            return (R, P, eps, fit.jacobian(P, eps, w, grad),
                    grad if np.max(np.abs(R)) <= tol else None)
        return None

    def diverged(message, **numbers) -> NewtonDiverged:
        return NewtonDiverged(message, condition_residual=float(np.max(np.abs(R))),
                              newton_iterations=iterations, **numbers)

    p = guess.to_vector()[:7]
    R, P, eps, jac, grad = evaluate(p)
    iterations = 0
    while np.max(np.abs(R)) > tol:
        if iterations == MAX_ITER:
            raise diverged(f"orthogonality residual {np.max(np.abs(R)):.2e} > {tol:.2e} "
                           f"after {MAX_ITER} iterations")
        try:
            step_vec = np.linalg.solve(jac, -R)
        except np.linalg.LinAlgError as err:
            raise diverged(f"singular Jacobian: {err}")
        scale = 1.0
        for _ in range(8):
            trial = p + scale * step_vec
            if trial[1] > 0:
                trial_eval = evaluate(trial, np.max(np.abs(R)))
                if trial_eval is not None:
                    p, (R, P, eps, jac, grad) = trial, trial_eval
                    break
            scale *= 0.5
        else:
            raise diverged("line search failed; guess outside the basin")
        iterations += 1
    cond = float(np.linalg.cond(jac))

    l2 = np.sqrt(grid.integral(np.abs(eps) ** 2))
    eps_max = EPS_L2_FACTOR * np.sqrt(fit.expansion.lab.moments.massQ)
    if l2 > eps_max:
        raise diverged(f"eps_L2 {l2:.3g} > {eps_max:.3g}: a root off the soliton manifold",
                       eps_L2=float(l2))
    h1 = np.sqrt(l2 ** 2 + grid.integral(np.abs(grad[0]) ** 2 + np.abs(grad[1]) ** 2))
    return Decomposition(params=P, epsilon=eps, eps_dr=grad[0], fit_grid=grid, residuals=R,
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

def _square_sum(v: np.ndarray) -> float:
    """Σ|v|² as np.vdot(v, v), whose two flattened copies of a padded view become one."""
    c = np.ascontiguousarray(v)
    return np.vdot(c, c).real


def lyapunov_I(dec_params: ParamPoint, u: ComplexField2D, w: ComplexField2D,
               A: float, stepper: Stepper) -> float:
    """I = ½∫|∇ũ|² + ½∫|ũ|²/λ² - ∫k[F(w+ũ)-F(w)-F'(w)ũ] + boundary term.

    F(v) = |v|⁴/4; the boundary term is ½(b/λ) Im ∫ A∇φ((x-α)/(Aλ))·∇ũ ū.
    ``stepper`` is a Stepper on the box of u, holding the k samples (or a
    scalar k).  Each integral is one contraction over the box; the
    pointwise factors are formed fields.AT_BLOCK points (whole rows) at a time.
    """
    if A < 10:
        raise ValueError("A must be at least 10")
    if (stepper.L, stepper.n) != (u.L, u.n):
        raise ValueError(f"stepper box (L, n) = ({stepper.L}, {stepper.n}) differs from the "
                         f"field's ({u.L}, {u.n})")
    lam, b, alpha = dec_params.lam, dec_params.b, dec_params.alpha
    ut = u.values - w.values
    h2 = u.h ** 2
    low = 0.5 * np.vdot(ut, ut).real * h2 / lam ** 2
    block = max(1, AT_BLOCK // u.n)            # whole rows, about AT_BLOCK points
    rows = [slice(i, i + block) for i in range(0, u.n, block)]
    # k[F(w+ũ) - F(w) - F'(w)ũ] with F(v) = |v|⁴/4 and F'(w)ũ = Re(|w|² w ũ̄),
    # formed AT_BLOCK points at a time into the one integrand
    nonlin = np.empty(ut.shape)
    for r in rows:
        uv, wv, utv = u.values[r], w.values[r], ut[r]
        aw = wv.real ** 2 + wv.imag ** 2
        nl = uv.real ** 2 + uv.imag ** 2
        nl *= nl
        nl -= aw * aw
        nl *= 0.25
        cross = wv.real * utv.real
        cross += wv.imag * utv.imag
        cross *= aw
        nl -= cross
        nonlin[r] = nl
    k = stepper.k
    pot = (np.vdot(k, nonlin) if k.ndim else k * nonlin.sum()) * h2
    del nonlin
    ux, uy = stepper.gradient(ut)
    kin = 0.5 * (_square_sum(ux) + _square_sum(uy)) * h2
    # A∇φ(z)·∇ũ with z = (x-α)/(Aλ) and ∇φ(z) = ψ(|z|) z/|z|, on the box axes
    x = -u.L + u.h * np.arange(u.n)
    zx = ((x - alpha[0]) / (A * lam))[:, None]
    zy = ((x - alpha[1]) / (A * lam))[None, :]
    ux *= zx
    uy *= zy
    ux += uy
    del uy
    for r in rows:
        rz = np.hypot(zx[r], zy)
        psi_over_r = np.ones_like(rz)     # ψ(r) = r for r ≤ 1, the origin's limit included
        far = rz > 1.0
        psi_over_r[far] = phi_prime(rz[far]) / rz[far]
        ux[r] *= psi_over_r
    bterm = 0.5 * (b / lam) * A * np.vdot(ut, ux).imag * h2
    return float(kin + low - pot + bterm)


def virial_boundary(dec: Decomposition, A: float, ymomQ: float) -> float:
    """-(b/λ)||yQ||²/4 + (1/2λ) Im ∫ A∇φ(y/A)·∇ε ε̄ in rescaled variables."""
    if A < 10:
        raise ValueError("A must be at least 10")
    g = dec.fit_grid
    lam, b = dec.params.lam, dec.params.b
    psi = phi_prime(g.r / A)[:, None]
    term = 0.5 / lam * g.integral((A * psi * dec.eps_dr * np.conj(dec.epsilon)).imag)
    return float(-(b / lam) * ymomQ / 4.0 + term)

