"""Ground state, quadrature, and moment identities."""

import numpy as np
import pytest

from nlsblow import radial
from nlsblow.radial import (
    RadialGrid,
    BracketError,
    fit_tail_rate,
    quadrature,
    derivative,
    moments,
    shooting_amplitude,
    solve_ground_state,
)


def test_grid_invariants():
    g = RadialGrid(30.0, 8192)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(30.0)
    assert np.allclose(np.diff(g.nodes), g.h)


def test_ground_state_against_shooting_oracle(lab):
    # oracle: independent bisection at 4x the integrator resolution
    a_star = shooting_amplitude(lab.grid.r_max, rtol=2.5e-13, atol=1e-15)
    assert abs(lab.Q.values[0] - a_star) / a_star < 1e-8


def test_ground_state_shape(lab):
    q = lab.Q.values
    assert q[0] > 0
    assert np.all(np.diff(q[:-1]) < 0)
    assert abs(q[-1]) <= 1e-8 * q.max()
    assert -1.2 < fit_tail_rate(lab.grid, q) < -0.8


def test_pohozaev_suite(lab):
    m = lab.moments
    assert abs(m.gradQ - m.massQ) / m.massQ < 1e-8
    assert abs(m.quarticQ - 2 * m.massQ) / m.quarticQ < 1e-8
    # zero energy: (1/2)∫|∇Q|² - (1/4)∫Q⁴ = 0
    energy = 0.5 * m.gradQ - 0.25 * m.quarticQ
    assert abs(energy) / m.massQ < 1e-8


def test_quadrature_exponential_exact():
    g = RadialGrid(40.0, 16384)
    assert quadrature(np.exp(-g.nodes), g) == pytest.approx(2 * np.pi, rel=1e-10)


def test_ymom_richardson(lab):
    # oracle: Richardson-extrapolated quadrature at doubled resolution
    q2 = lab.Q.values ** 2
    r = lab.grid.nodes
    from scipy.integrate import simpson

    coarse = 2 * np.pi * simpson((q2 * r ** 3)[::2], x=r[::2])
    fine = 2 * np.pi * simpson(q2 * r ** 3, x=r)
    richardson = fine + (fine - coarse) / 15.0
    assert lab.moments.ymomQ == pytest.approx(richardson, rel=1e-8)


def test_y2Q_LambdaQ_identity(lab):
    # (|y|²Q, ΛQ) = -||yQ||²
    r = lab.grid.nodes
    q = lab.Q.values
    lam_q = q + r * lab.dQ
    val = quadrature(r ** 2 * q * lam_q, lab.grid)
    assert val == pytest.approx(-lab.moments.ymomQ, rel=1e-8)


def test_yQ_gradQ_pairing(lab):
    # (y_j Q, ∂_j Q) = -(1/2)∫Q² per component: radial integral π ∫ r² Q Q' dr
    from scipy.integrate import simpson

    r = lab.grid.nodes
    val = np.pi * simpson(r ** 2 * lab.Q.values * lab.dQ, x=r)
    assert val == pytest.approx(-0.5 * lab.moments.massQ, rel=1e-8)


def test_moment_grid_refinement(lab):
    coarse = moments(solve_ground_state(RadialGrid(30.0, 4096), tol=1e-9))
    fine = lab.moments
    for name in ("massQ", "quarticQ", "ymomQ", "gradQ"):
        a, b = getattr(coarse, name), getattr(fine, name)
        assert abs(a - b) / abs(b) < 1e-8


def test_ground_state_shot_budget(monkeypatch):
    # shooting only brackets the Newton start: a coarse bisection and one dense shot
    calls = []
    shoot = radial._shoot

    def counted(*args, **kwargs):
        calls.append(args[0])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(radial, "_shoot", counted)
    solve_ground_state(RadialGrid(20.0, 512))
    assert len(calls) <= 12


@pytest.mark.parametrize("r_max, n", [(20.0, 512), (30.0, 4096)])
def test_coarse_start_only_seeds_newton(monkeypatch, r_max, n):
    grid = RadialGrid(r_max, n)
    coarse = solve_ground_state(grid).values
    monkeypatch.setattr(radial, "START_XTOL", 1e-15)   # the oracle's full-precision start
    monkeypatch.setattr(radial, "START_RTOL", 1e-12)
    monkeypatch.setattr(radial, "START_ATOL", 1e-14)
    full = solve_ground_state(grid).values
    assert np.max(np.abs(coarse - full)) <= 1e-10


@pytest.mark.parametrize("r_max", [15.0, 20.0, 25.0, 30.0, 40.0])
def test_loose_start_shots_keep_the_midpoint(r_max):
    # the start's bisection only classifies shots: rtol 1e-8 ends on the
    # same midpoint as the dense shot's 1e-12
    loose = shooting_amplitude(r_max, rtol=radial.START_RTOL, atol=radial.START_ATOL,
                               xtol=radial.START_XTOL)
    tight = shooting_amplitude(r_max, rtol=1e-12, atol=1e-14, xtol=radial.START_XTOL)
    assert loose == tight


def test_loose_start_shots_keep_the_lab_bitwise(monkeypatch, lab):
    assert (lab.grid.r_max, lab.grid.n) == (30.0, 8192)
    monkeypatch.setattr(radial, "START_RTOL", 1e-12)
    monkeypatch.setattr(radial, "START_ATOL", 1e-14)
    tight = solve_ground_state(RadialGrid(30.0, 8192)).values
    assert np.array_equal(lab.Q.values, tight)


def test_bracket_failure():
    with pytest.raises(BracketError):
        shooting_amplitude(30.0, bracket=(0.1, 0.2))


def test_derivative_fourth_order():
    g = RadialGrid(10.0, 512)
    f = np.exp(-g.nodes ** 2 / 2)
    exact = -g.nodes * f
    err512 = np.max(np.abs(derivative(f, g, parity=+1) - exact))
    g2 = RadialGrid(10.0, 1024)
    f2 = np.exp(-g2.nodes ** 2 / 2)
    exact2 = -g2.nodes * f2
    err1024 = np.max(np.abs(derivative(f2, g2, parity=+1) - exact2))
    assert err512 / err1024 > 12  # ~16 for 4th order


def test_ground_state_rejects_small_domain():
    with pytest.raises(ValueError):
        solve_ground_state(RadialGrid(10.0, 512))
