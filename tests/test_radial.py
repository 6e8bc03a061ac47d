"""Ground state, quadrature, and moment identities."""

from functools import lru_cache

import numpy as np
import pytest

from nlsblow import radial
from nlsblow.radial import (
    RadialGrid,
    fit_tail_rate,
    quadrature,
    derivative,
    moments,
    solve_ground_state,
)

from helpers import BracketError, shooting_amplitude, shooting_start


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


@pytest.mark.parametrize("n", [1001, 1000])
def test_quadrature_is_simpson(n):
    # an even n has an odd number of intervals, where the last one takes
    # Cartwright's correction as in scipy's simpson
    from scipy.integrate import simpson

    g = RadialGrid(25.0, n)
    r = g.nodes
    for f in (np.exp(-r) * np.cos(3 * r), 1.0 / (1.0 + r ** 2), np.ones(n)):
        assert quadrature(f, g) == pytest.approx(2 * np.pi * simpson(f * r, x=r), rel=1e-13)


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


# grids whose Newton stalls at its roundoff floor, which grows like 1/h², from any start
ROUNDOFF_STALLS = {(15.0, 8192), (20.0, 8192)}


@lru_cache(maxsize=None)
def _oracle_amplitude(r_max):
    return shooting_amplitude(r_max)


def _newton_or_error(solve):
    try:
        return solve()
    except RuntimeError as err:
        return err


@pytest.mark.parametrize("n", [512, 2048, 8192])
@pytest.mark.parametrize("r_max", [15.0, 20.0, 30.0, 40.0, 60.0, 100.0])
def test_coarse_start_only_seeds_newton(r_max, n):
    # Newton from the closed-form start and from the oracle's dense shot land
    # on the same samples, or both stop at the same roundoff floor
    grid = RadialGrid(r_max, n)
    closed = _newton_or_error(lambda: solve_ground_state(grid).values)
    shot = _newton_or_error(lambda: radial._newton(
        grid, shooting_start(grid, _oracle_amplitude(r_max)), 1e-10))
    if (r_max, n) in ROUNDOFF_STALLS:
        for got in (closed, shot):
            assert isinstance(got, RuntimeError) and "stalled" in str(got)
    else:
        assert np.max(np.abs(closed - shot)) <= 1e-10


def test_shape_check_reads_the_samples_above_tol_only(lab):
    # Newton from the oracle's dense shot on (100, 8192) converges, with
    # samples of either sign where Q is under roundoff; the check accepts
    # it, and still rejects a rise or a sign change in the core, a tail
    # that leaves ±tol and the zero solution
    tol = 1e-10
    grid = RadialGrid(100.0, 8192)
    shot = radial._newton(grid, shooting_start(grid, _oracle_amplitude(100.0)), tol)
    assert np.max(np.abs(shot - solve_ground_state(grid).values)) <= tol
    assert np.any(shot[:-1] < 0) and not np.all(np.diff(shot[:-1]) < 0)
    assert radial._positive_decreasing(shot, tol)
    q, r = lab.Q.values, lab.grid.nodes
    assert radial._positive_decreasing(q, tol)
    rise = q.copy()
    i = np.searchsorted(r, 2.0)
    rise[i] = rise[i - 1]
    bump = q + 1e-9 * np.exp(-(r - 26.0) ** 2)
    for bad in (rise, q - 1e-3, q * (1.0 - r / 5.0), bump, -q, 0.0 * q):
        assert not radial._positive_decreasing(bad, tol)


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
