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
either one can be the independent variable of ``integrate``.  The functions
that call scipy.integrate import it, so loading this module does not.

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


def integrate(state0: ParamPoint, constants: ProfileConstants, s_span=None,
              t_span=None, rtol: float = RTOL_DEFAULT, atol: float = ATOL_DEFAULT,
              lam_min: float = LAM_MIN_DEFAULT, n_points: int = 400) -> Trajectory:
    """Integrate the closed system in s (or in t with t_span), adaptively (RK45).

    The independent variable is one of the two clocks, and the right side is
    the s system divided by that clock's own rate (1 for s, λ² for t), so
    both clocks come out as integrated states.  The span is (start, end) and
    starts at the state's own clock.  Stops cleanly at λ = lam_min; forward
    and backward spans both work.
    """
    from scipy.integrate import solve_ivp

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

    exponents, coeffs = law_matrices(constants)

    def rhs(x, v):
        f = modulation_rhs(v, exponents, coeffs)
        return f / f[clock]

    def hit_lam_min(x, v):
        return v[1] - lam_min

    hit_lam_min.terminal = True

    xs = np.linspace(span[0], span[1], n_points)
    sol = solve_ivp(rhs, span, v0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=True, events=hit_lam_min)
    if sol.status == -1:
        raise StepUnderflow(sol.message)
    direction = np.sign(span[1] - span[0])
    xs = xs[(xs - span[0]) * direction <= (sol.t[-1] - span[0]) * direction + 1e-300]
    return Trajectory(states=sol.sol(xs).T,
                      status="lam_min" if sol.t_events[0].size else "completed")


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
