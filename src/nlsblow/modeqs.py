"""Modulation dynamical systems and the s⁻²-potential linear ODE toolbox.

The leading-order closed system for the parameters, in the rescaled time s
(ds/dt = 1/λ²), is

    b_s = -b² + d0(α,α),   λ_s = -bλ,   α_s = 2βλ,
    β_s = -bβ + B(λ, α),   γ_s = 1 + |β|² - d1(α,α),
    s_s = 1,               t_s = λ²,

with the quadratic forms d0, d1 and the β forcing B(λ, α) = c0(α)λ + β3λ³
from the profile constants.  The system is written once, as the table
``ProfileConstants.laws`` that also builds the profile and its residual;
``law_matrices`` turns it into the matrices ``modulation_rhs`` evaluates.
The state is ``profile.ParamPoint``, in its vector layout
[b, λ, β1, β2, α1, α2, γ, s, t]: both clocks are integrated states, and
either one can be the independent variable of ``integrate``.  It takes
Dormand & Prince's 5(4) steps (J. Comput. Appl. Math. 6, 1980) with
Shampine's dense output (Math. Comp. 46, 1986) as scipy's
``solve_ivp(method="RK45", dense_output=True)`` does, literal for literal and
bit for bit, without scipy.  Only ``quad`` and ``integrate_linear_system``
import scipy.integrate, so loading this module, and ``integrate``, does not.

The separate 2x2 system Z_s = [[0,-2],[ς/s²,0]] Z + F with its closed-form
basis and variation-of-constants bound is the a-priori toolbox used to tame
the polynomially growing null-space directions.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profile import ParamPoint, ProfileConstants


def quad(*args, **kwargs):
    # tight-tolerance tails of oscillatory integrands trip the roundoff
    # warning long after the requested accuracy is reached
    import scipy.integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(*args, **kwargs)


RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12
LAM_MIN_DEFAULT = 1e-6
QUAD_TOL = 1e-12       # absolute and relative tolerance of decaying_solution's integrals
LINEAR_RTOL = 1e-12    # rtol of integrate_linear_system

# scipy's RK45 tableau; the stage abscissae C are not needed, since no right
# side here reads its clock
RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10   # the step-size controller
ROOT_TOL = 4 * np.finfo(float).eps     # xtol = rtol of solve_ivp's event roots


def existence_initial_state(t1: float, C0: float, gamma0: float = 0.0) -> ParamPoint:
    """The backwards-integration data: b = -t1/C0², λ = -t1/C0, α = β = 0.

    The rescaled clock starts at s1 = C0²/|t1| so that λ(s)·s -> C0 exactly
    along the unperturbed conformal ray.
    """
    if t1 >= 0:
        raise ValueError("t1 must be negative (blow-up at t = 0)")
    return ParamPoint(b=-t1 / C0 ** 2, lam=-t1 / C0, gamma=gamma0 - C0 ** 2 / t1,
                      s=C0 ** 2 / abs(t1), t=t1)


def law_matrices(constants: ProfileConstants):
    """The law table as (exponents, coeffs): row i of coeffs weighs the monomials
    whose powers of (b, λ, β1, β2, α1, α2) are the rows of exponents."""
    laws = constants.laws()
    monos = sorted({mono for law in laws for mono in law})
    return np.array(monos), np.array([[law.get(mono, 0.0) for mono in monos] for law in laws])


def modulation_rhs(vec: np.ndarray, exponents: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Right side of the closed modulation system in s (ParamPoint vector layout)."""
    return coeffs @ np.prod(vec[:6] ** exponents, axis=1)


@dataclass
class Trajectory:
    """Dense modulation trajectory, one ParamPoint vector per row."""

    states: np.ndarray          # (n, 9) rows in ParamPoint vector layout
    status: str = "completed"

    @property
    def b(self):
        return self.states[:, 0]

    @property
    def lam(self):
        return self.states[:, 1]

    @property
    def beta(self):
        return self.states[:, 2:4]

    @property
    def alpha(self):
        return self.states[:, 4:6]

    @property
    def gamma(self):
        return self.states[:, 6]

    @property
    def s(self):
        return self.states[:, 7]

    @property
    def t(self):
        return self.states[:, 8]

    def state(self, i: int) -> ParamPoint:
        return ParamPoint.from_vector(self.states[i])

    def csv_rows(self):
        header = ["s", "t", "b", "lambda", "beta1", "beta2",
                  "alpha1", "alpha2", "gamma", "b_over_lambda"]
        rows = [[v[7], v[8], v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[0] / v[1]]
                for v in self.states]
        return header, rows


class StepUnderflow(RuntimeError):
    """The integrator stalled approaching the λ -> 0 degeneracy."""


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, x0, x1, y0, rtol, atol, lam_min):
    """Dormand–Prince steps of y' = fun(y) from x0 toward x1, as scipy's RK45 takes them.

    Returns one (x_old, h, y_old, Q) per step for ``_dense``; the end, which
    is the root of λ = lam_min if λ - lam_min reaches 0 within a step; and
    whether it did.
    """
    direction = np.sign(x1 - x0)
    x, y, f = x0, y0, fun(y0)
    # scipy's select_initial_step (Hairer, Nørsett & Wanner, Sec. II.4)
    length = abs(x1 - x0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = _rms((fun(y + h0 * direction * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, length)
    K = np.empty((7, y.size))
    steps, g = [], y[1] - lam_min
    while True:
        min_step = 10 * np.abs(np.nextafter(x, direction * np.inf) - x)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepUnderflow("Required step size is less than spacing between numbers.")
            x_new = x + h_abs * direction
            if direction * (x_new - x1) > 0:
                x_new = x1
            h = x_new - x
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(y + np.dot(K[:s].T, RK_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, RK_B)
            K[-1] = f_new = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, RK_E) * h / scale)
            if error < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** -0.2)
            rejected = True
        factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error ** -0.2)
        h_abs *= min(1, factor) if rejected else factor     # no growth after a rejection
        steps.append((x, h, y, K.T.dot(RK_P)))
        x, y, f = x_new, y_new, f_new
        g_new = y[1] - lam_min
        if g <= 0 <= g_new or g_new <= 0 <= g:
            return steps, _bisect(lambda xi: _poly(steps[-1], np.array([xi]))[1, 0] - lam_min,
                                  steps[-1][0], x), True
        if direction * (x - x1) >= 0:
            return steps, x, False
        g = g_new


def _bisect(g, a, b):
    """A root of g between a and b, across which g changes sign, to ROOT_TOL."""
    ga = g(a)
    while abs(b - a) >= ROOT_TOL * (1 + abs(b)):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0:
            return m
        a, b = (m, b) if (gm < 0) == (ga < 0) else (a, m)
    return b


def _poly(step, xs):
    """One step's dense output h·Q·(θ, θ², θ³, θ⁴) + y_old at xs, θ = (x - x_old)/h."""
    x_old, h, y_old, Q = step
    p = np.cumprod(np.tile((xs - x_old) / h, (Q.shape[1], 1)), axis=0)
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


def _dense(steps, end, xs):
    """The dense output at xs as solve_ivp's OdeSolution evaluates it: in ascending
    order, one ``_poly`` per run of points in one step."""
    ends, last = np.array([step[0] for step in steps] + [end]), len(steps) - 1
    ascending = ends[-1] >= ends[0]
    order = np.argsort(xs)
    x_sorted = xs[order]
    seg = np.searchsorted(ends if ascending else ends[::-1], x_sorted,
                          side="left" if ascending else "right") - 1
    seg = np.clip(seg, 0, last) if ascending else last - np.clip(seg, 0, last)
    out = np.empty((steps[0][2].size, xs.size))
    for run in np.split(np.arange(xs.size), np.flatnonzero(np.diff(seg)) + 1):
        out[:, order[run]] = _poly(steps[seg[run[0]]], x_sorted[run])
    return out


def integrate(state0: ParamPoint, constants: ProfileConstants, s_span=None,
              t_span=None, rtol: float = RTOL_DEFAULT, atol: float = ATOL_DEFAULT,
              lam_min: float = LAM_MIN_DEFAULT, n_points: int = 400) -> Trajectory:
    """Integrate the closed system in s (or in t with t_span), adaptively (RK45).

    The independent variable is one of the two clocks, and the right side is
    the s system divided by that clock's own rate (1 for s, λ² for t), so
    both clocks come out as integrated states.  The span is (start, end) and
    starts at the state's own clock.  Stops cleanly at λ = lam_min; forward
    and backward spans both work.  The states are solve_ivp's, bit for bit.
    """
    if state0.lam <= 0:
        raise ValueError("lambda must be positive")
    if (s_span is None) == (t_span is None):
        raise ValueError("provide exactly one of s_span, t_span")
    # the clock's entry of the ParamPoint vector
    name, span, clock = ("s", s_span, 7) if t_span is None else ("t", t_span, 8)
    span = np.asarray(span, dtype=float)
    if span.shape != (2,):
        raise ValueError(f"{name}_span must be two numbers (start, end), got {span.tolist()}")
    v0 = state0.to_vector()
    if abs(span[0] - v0[clock]) > 1e-12 * max(1.0, abs(span[0])):
        raise ValueError(f"{name}_span must start at the state's own {name}")
    xs = np.linspace(span[0], span[1], n_points)
    if span[1] == span[0]:
        # solve_ivp takes no step: the state at every point, stopped if λ is at lam_min
        return Trajectory(states=np.tile(v0, (n_points, 1)),
                          status="lam_min" if v0[1] == lam_min else "completed")

    exponents, coeffs = law_matrices(constants)

    def rhs(v):
        f = modulation_rhs(v, exponents, coeffs)
        return f / f[clock]

    steps, end, stopped = _rk45(rhs, span[0], span[1], v0, rtol, atol, lam_min)
    direction = np.sign(span[1] - span[0])
    xs = xs[(xs - span[0]) * direction <= (end - span[0]) * direction + 1e-300]
    return Trajectory(states=_dense(steps, end, xs).T,
                      status="lam_min" if stopped else "completed")


# ----------------------------------------------------------------------
# the s⁻² linear system: closed-form basis and variation of constants
# ----------------------------------------------------------------------

@dataclass
class AppendixBSystem:
    """Z_s = [[0,-2],[ς/s²,0]] Z + F with its closed-form fundamental pair."""

    varsig: float
    z_plus: Callable
    z_minus: Callable
    dz_plus: Callable
    dz_minus: Callable
    wronskian: float
    regime: str

    def Z_plus(self, s):
        return np.stack([self.z_plus(s), -0.5 * self.dz_plus(s)])

    def Z_minus(self, s):
        return np.stack([self.z_minus(s), -0.5 * self.dz_minus(s)])

    def homogeneous_residual(self, s):
        """max residual of both basis columns in the first-order system."""
        out = 0.0
        for Z, dz, name in ((self.Z_plus, self.dz_plus, "+"), (self.Z_minus, self.dz_minus, "-")):
            h = 1e-6 * np.maximum(s, 1.0)
            dZ = (Z(s + h) - Z(s - h)) / (2 * h)
            v = Z(s)
            rhs = np.stack([-2.0 * v[1], self.varsig / s ** 2 * v[0]])
            out = max(out, float(np.max(np.abs(dZ - rhs))))
        return out


def basis(varsig: float) -> AppendixBSystem:
    """Closed-form fundamental pair of z_ss + 2ς z/s² = 0 as a 2x2 system.

    The Wronskian is the determinant of the fundamental matrix
    [[z, -z_s/2]] pair, constant in s since the system is trace-free.
    """
    if varsig <= 0:
        raise ValueError("varsig must be positive")
    if varsig < 0.125:
        root = np.sqrt(1.0 - 8.0 * varsig)
        tp, tm = 0.5 * (1 + root), 0.5 * (1 - root)
        return AppendixBSystem(
            varsig=varsig,
            z_plus=lambda s: s ** tp, dz_plus=lambda s: tp * s ** (tp - 1),
            z_minus=lambda s: s ** tm, dz_minus=lambda s: tm * s ** (tm - 1),
            wronskian=0.5 * root, regime="distinct-roots")
    if varsig == 0.125:
        return AppendixBSystem(
            varsig=varsig,
            z_plus=lambda s: np.sqrt(s) * np.log(s),
            dz_plus=lambda s: 0.5 * np.log(s) / np.sqrt(s) + 1.0 / np.sqrt(s),
            z_minus=np.sqrt,
            dz_minus=lambda s: 0.5 / np.sqrt(s),
            wronskian=0.5, regime="double-root")
    om = 0.5 * np.sqrt(8.0 * varsig - 1.0)
    return AppendixBSystem(
        varsig=varsig,
        z_plus=lambda s: np.sqrt(s) * np.cos(om * np.log(s)),
        dz_plus=lambda s: (0.5 * np.cos(om * np.log(s)) - om * np.sin(om * np.log(s))) / np.sqrt(s),
        z_minus=lambda s: np.sqrt(s) * np.sin(om * np.log(s)),
        dz_minus=lambda s: (0.5 * np.sin(om * np.log(s)) + om * np.cos(om * np.log(s))) / np.sqrt(s),
        wronskian=-0.5 * om, regime="oscillatory")


def decaying_solution(sys: AppendixBSystem, F: Callable, s: np.ndarray) -> np.ndarray:
    """The unique solution with Z -> 0 at infinity, by variation of constants.

    Both integration constants vanish; the coefficients are
    a±(s) = -∫_s^∞ (F1 (Z∓)_2 - F2 (Z∓)_1)/W dσ with the system Wronskian W.
    Requires |F| ≲ σ^{-3} so the integrals converge.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    W = sys.wronskian
    out = np.zeros((2, s.size))

    def f1(sig):
        return F(sig)[0]

    def f2(sig):
        return F(sig)[1]

    for i, si in enumerate(s):
        def integrand_plus(sig):
            Zm = sys.Z_minus(sig)
            return (f1(sig) * Zm[1] - f2(sig) * Zm[0]) / W

        def integrand_minus(sig):
            Zp = sys.Z_plus(sig)
            return (f2(sig) * Zp[0] - f1(sig) * Zp[1]) / W

        ap, err1 = quad(integrand_plus, si, np.inf, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
        am, err2 = quad(integrand_minus, si, np.inf, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
        if not (np.isfinite(ap) and np.isfinite(am)):
            raise ValueError("forcing is not integrable against the basis")
        out[:, i] = -ap * sys.Z_plus(si) - am * sys.Z_minus(si)
    return out


def bound_report(sys: AppendixBSystem, F: Callable, s_values: np.ndarray) -> dict:
    """Ratio of |Z1| + s|Z2| to ∫_s^∞ (|F1| + σ|F2|) log σ dσ over s_values."""
    Z = decaying_solution(sys, F, s_values)
    ratios = []
    for i, si in enumerate(s_values):
        rhs, _ = quad(lambda sig: (abs(F(sig)[0]) + sig * abs(F(sig)[1])) * np.log(sig),
                      si, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
        lhs = abs(Z[0, i]) + si * abs(Z[1, i])
        ratios.append(lhs / rhs if rhs > 0 else np.inf)
    ratios = np.array(ratios)
    return {"ratios": ratios, "max_ratio": float(ratios.max()),
            "Z": Z, "s": np.asarray(s_values)}


def integrate_linear_system(sys: AppendixBSystem, F: Callable, s_from: float,
                            s_to: float, Z0: np.ndarray) -> Callable:
    """Direct adaptive integration of the 2x2 system (the cross-check route)."""

    from scipy.integrate import solve_ivp

    def rhs(s, z):
        f = F(s)
        return [-2.0 * z[1] + f[0], sys.varsig / s ** 2 * z[0] + f[1]]

    sol = solve_ivp(rhs, (s_from, s_to), np.asarray(Z0, dtype=float),
                    method="DOP853", rtol=LINEAR_RTOL, atol=1e-14, dense_output=True)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.sol
