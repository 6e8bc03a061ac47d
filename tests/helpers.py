"""Test-only helpers built on the package: nothing in nlsblow calls these."""

import numpy as np
from scipy.integrate import solve_ivp

from nlsblow.config import DEFAULTS
from nlsblow.fields import AngularField, PolarGrid
from nlsblow.modfit import _BLEND, condition_window_pairs
from nlsblow.profile import ParamPoint, modulated
from nlsblow.sim import ComplexField2D, Stepper, box_points

RANDOM_EPS_L2 = 1e-3   # ‖ε‖_L2 of constrained_random_eps
RANDOM_EPS_BUMPS = 6   # Gaussian bumps summed by constrained_random_eps
SHOOTING_ITERS = 200   # most bisection steps of shooting_amplitude


class BracketError(RuntimeError):
    """Shooting bisection failed to bracket the ground state amplitude."""


def step(field: ComplexField2D, dt: float, stepper: Stepper) -> ComplexField2D:
    """One closed splitting step from a copy of field's values, which
    step_values would step in place; the new field's NaN scan aborts it."""
    u, carry = stepper.step_values(field.values.copy(), dt)
    return ComplexField2D(field.L, stepper.nonlinear(u, carry), field.t + dt)


def run_settings(**overrides) -> dict:
    """sim.run's keyword settings: the config's sim defaults less t_start,
    then overrides (which may add max_steps)."""
    settings = dict(DEFAULTS["sim"], **overrides)
    del settings["t_start"]
    return settings


def phi_second(r):
    """ψ′ = φ″ of the virial cutoff: 1 below 1, e^{-r} beyond 2, the blend's slope between."""
    r = np.asarray(r, dtype=float)
    mid = np.polynomial.polynomial.polyval(r, np.polynomial.polynomial.polyder(_BLEND))
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, np.exp(-r), mid))


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
    QP = dec_windows["QP"]
    pairs = condition_window_pairs(dec_windows, grid) + [(QP.real, QP.imag)]
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


# ----------------------------------------------------------------------
# the shooting oracle for the ground state
# ----------------------------------------------------------------------

def _shoot(a: float, r_max: float, rtol: float, atol: float, dense: bool = False):
    """Integrate Q''+Q'/r = Q - Q^3 from the series start at r0 with Q(0)=a.

    Returns (flag, sol): flag=+1 if the solution turned upward while still
    positive (amplitude too small), -1 if it crossed zero (too large).
    """
    r0 = 1e-8
    c2 = (a - a ** 3) / 4.0
    y0 = [a + c2 * r0 ** 2, 2 * c2 * r0]

    def rhs(r, y):
        q, dq = y
        return [dq, q - q ** 3 - dq / r]

    def cross_zero(r, y):
        return y[0]

    cross_zero.terminal = True
    cross_zero.direction = -1

    def turn_up(r, y):
        # after the profile has begun to decay, dq returning to 0 means blow-up back upward
        return y[1] - 1e-14 if y[0] < a * 0.5 else -1.0

    turn_up.terminal = True
    turn_up.direction = 1

    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=rtol, atol=atol,
                    events=(cross_zero, turn_up), dense_output=dense)
    if sol.t_events[0].size:
        return -1, sol
    if sol.t_events[1].size:
        return +1, sol
    # reached r_max without either event: classify by sign of the endpoint
    return (+1 if sol.y[0, -1] > 0 else -1), sol


def shooting_amplitude(r_max: float = 30.0, bracket=(2.0, 2.5), rtol: float = 1e-12,
                       atol: float = 1e-14, xtol: float = 1e-15) -> float:
    """Bisection on Q(0) down to a relative bracket width xtol: the independent
    shooting oracle for the ground state's amplitude."""
    lo, hi = bracket
    flo, _ = _shoot(lo, r_max, rtol, atol)
    fhi, _ = _shoot(hi, r_max, rtol, atol)
    if flo == fhi:
        raise BracketError(
            f"shooting flags equal at bracket ends ({flo}); r_max={r_max} too small "
            "or bracket does not contain the ground-state amplitude")
    for _ in range(SHOOTING_ITERS):
        mid = 0.5 * (lo + hi)
        fm, _ = _shoot(mid, r_max, rtol, atol)
        if fm == flo:
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol * hi:
            break
    return 0.5 * (lo + hi)


def shooting_start(grid, a: float) -> np.ndarray:
    """The dense shot from Q(0) = a sampled on the grid's nodes: held at
    max(its last value, 0) past where it stops, clipped at 0, last node 0."""
    _, sol = _shoot(a, grid.r_max, 1e-12, 1e-14, dense=True)
    r = grid.nodes
    q = np.empty(grid.n)
    r_reached = sol.t[-1]
    inside = r >= 1e-8
    q[~inside] = a
    q[inside] = sol.sol(np.minimum(r[inside], r_reached))[0]
    q[r > r_reached] = np.maximum(sol.y[0, -1], 0.0)
    q = np.maximum(q, 0.0)
    q[-1] = 0.0
    return q
