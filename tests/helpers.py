"""Test-only helpers built on the package: nothing in nlsblow calls these."""

import numpy as np

from nlsblow.fields import AngularField, PolarGrid
from nlsblow.modfit import _BLEND, condition_window_pairs
from nlsblow.profile import ParamPoint, modulated
from nlsblow.sim import ComplexField2D, Stepper, box_points

RANDOM_EPS_L2 = 1e-3   # ‖ε‖_L2 of constrained_random_eps
RANDOM_EPS_BUMPS = 6   # Gaussian bumps summed by constrained_random_eps


def step(field: ComplexField2D, dt: float, stepper: Stepper) -> ComplexField2D:
    """One closed splitting step from a copy of field's values, which
    step_values would step in place; the new field's NaN scan aborts it."""
    u, carry = stepper.step_values(field.values.copy(), dt)
    return ComplexField2D(field.L, stepper.nonlinear(u, carry), field.t + dt)


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
