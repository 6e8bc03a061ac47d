"""The polar product grid: gradient, synthesis and quadrature conventions."""

import numpy as np
import pytest
from scipy.integrate import simpson

from nlsblow.fields import AT_BLOCK, AngularField, PolarGrid
from nlsblow.radial import RadialGrid, derivative


def _loop_gradient(vals, grid):
    """Reference: per-mode loop over the θ-FFT columns with explicit e^{imθ} sums."""
    g = grid.radial
    r = grid.r
    theta = grid.theta
    nt = grid.n_theta
    vm = np.fft.fft(vals, axis=1) / nt
    dr = np.zeros_like(vals, dtype=complex)
    dth = np.zeros_like(vals, dtype=complex)
    for k in range(nt):
        m = k if k <= nt // 2 else k - nt
        par = 1 if m % 2 == 0 else -1
        col = vm[:, k]
        dcol = derivative(col.real, g, parity=par) + 1j * derivative(col.imag, g, parity=par)
        em = np.exp(1j * m * theta)[None, :]
        dr += dcol[:, None] * em
        with np.errstate(invalid="ignore", divide="ignore"):
            rad = np.where(r > 0, col / np.where(r > 0, r, 1.0), 0.0)
        dth += 1j * m * rad[:, None] * em
    return dr, dth


@pytest.mark.parametrize("n_theta", [16, 17])
def test_gradient_matches_per_mode_loop(rng, n_theta):
    grid = PolarGrid(r_max=10.0, n_r=201, n_theta=n_theta)
    vals = rng.normal(size=(201, n_theta)) + 1j * rng.normal(size=(201, n_theta))
    ref_r, ref_th = _loop_gradient(vals, grid)
    got_r, got_th = grid.gradient(vals)
    assert np.max(np.abs(got_r - ref_r)) < 1e-12 * np.max(np.abs(ref_r))
    assert np.max(np.abs(got_th - ref_th)) < 1e-12 * np.max(np.abs(ref_th))
    real_r, real_th = grid.gradient(vals.real)
    assert not np.iscomplexobj(real_r) and not np.iscomplexobj(real_th)
    ref_r, ref_th = _loop_gradient(vals.real, grid)
    assert np.max(np.abs(real_r - ref_r.real)) < 1e-12 * np.max(np.abs(ref_r))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_gradient_fourth_order_with_parity(m):
    # f = r^|m| e^{-r²} e^{imθ}: a wrong parity at r = 0 leaves an O(h) error
    errs = []
    for n_r in (61, 121):
        grid = PolarGrid(r_max=6.0, n_r=n_r, n_theta=8)
        r, th = grid.r[:, None], grid.theta[None, :]
        em = np.exp(1j * m * th)
        f = r ** m * np.exp(-r ** 2) * em
        exact_r = (m * r ** max(m - 1, 0) - 2 * r ** (m + 1)) * np.exp(-r ** 2) * em
        exact_th = 1j * m * r ** max(m - 1, 0) * np.exp(-r ** 2) * em
        dr, dth = grid.gradient(f)
        errs.append(np.max(np.abs(dr - exact_r)))
        # r⁻¹∂_θ is exact off the origin row, where it is set to 0
        assert np.max(np.abs(dth[1:] - exact_th[1:])) < 1e-12
        assert np.all(dth[0] == 0.0)
    assert errs[0] / errs[1] >= 12.0


def test_synthesis_includes_aliased_modes(rng):
    n_theta = 8
    polar = PolarGrid(r_max=5.0, n_r=51, n_theta=n_theta)
    comps = {m: rng.normal(size=polar.n_r) + 1j * rng.normal(size=polar.n_r)
             for m in (0, 3, 4, -4, -5, 9, -11)}
    got = AngularField(polar.radial, comps).on_native(polar)
    theta = polar.theta
    ref = sum(v[:, None] * np.exp(1j * m * theta)[None, :] for m, v in comps.items())
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    # samples and modes are inverse transforms
    assert np.allclose(polar.samples(polar.modes(ref)), ref, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        AngularField(polar.radial, comps).on_native(PolarGrid(10.0, 51, n_theta))


def test_integral_is_simpson_in_r_uniform_in_theta(rng):
    grid = PolarGrid(r_max=7.0, n_r=141, n_theta=12)
    vals = rng.normal(size=(141, 12))
    expected = sum(simpson(vals[:, k] * grid.r, x=grid.r) for k in range(12)) * 2 * np.pi / 12
    assert grid.integral(vals) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n_r", [500, 141])
def test_weights_are_the_integral_rule(rng, n_r):
    # an even n_r has an odd number of intervals, where Simpson corrects the last one
    grid = PolarGrid(r_max=25.0, n_r=n_r, n_theta=16)
    r, th = grid.r[:, None], grid.theta[None, :]
    for _ in range(5):
        c = rng.normal(size=4)
        vals = (c[0] + c[1] * np.cos(th) + c[2] * np.sin(2 * th) + c[3] * r * np.cos(3 * th)) \
            * np.exp(-r ** 2 / rng.uniform(4.0, 16.0))
        assert np.sum(grid.weights * vals) == pytest.approx(grid.integral(vals), rel=1e-13)


def _loop_at(field, y):
    """Reference: one spline pair per mode, evaluated at every point through its
    polar coordinates r = |y|, θ = arg y.

    Returns the sum and Σ_m |f_m(r)|, the scale of its roundoff.
    """
    from scipy.interpolate import CubicSpline

    r, theta = np.sqrt(y[..., 0] ** 2 + y[..., 1] ** 2), np.arctan2(y[..., 1], y[..., 0])
    nodes, r_max = field.grid.nodes, field.grid.r_max
    out = np.zeros(r.shape, dtype=complex)
    scale = np.zeros(r.shape)
    inside = r <= r_max
    rc = np.clip(r, 0.0, r_max)
    for m, v in field.comps.items():
        sre, sim = CubicSpline(nodes, v.real), CubicSpline(nodes, v.imag)
        fm = np.where(inside, sre(rc) + 1j * sim(rc), 0.0)
        out += fm * np.exp(1j * m * theta)
        scale += np.abs(fm)
    return out, scale


def _cartesian(r, theta):
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _random_field(rng, grid, modes):
    return AngularField(grid, {m: rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
                               for m in modes})


def _assert_at_matches_loop(field, rng):
    # Horner in e^{iθ} reorders the sum: roundoff of order ε_mach·Σ_m |f_m(r)|
    r_max = field.grid.r_max
    n_pts = 2 * AT_BLOCK + 123
    r = rng.uniform(0.0, 13.0, size=n_pts)
    theta = rng.uniform(-np.pi, np.pi, size=n_pts)
    y = _cartesian(r, theta)
    y[:4] = ((0.0, 0.0), (r_max, 0.0), (np.nextafter(r_max, 20.0), 0.0), (0.0, -12.5))
    r = np.sqrt(y[:, 0] ** 2 + y[:, 1] ** 2)
    got = field.at(y)
    ref, scale = _loop_at(field, y)
    assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * scale)
    assert np.all(got[r > r_max] == 0.0)
    square = field.at(y[:700].reshape(100, 7, 2))
    assert square.tobytes() == got[:700].reshape(100, 7).tobytes()


def test_at_matches_per_mode_splines(rng):
    grid = RadialGrid(r_max=10.0, n=301)
    _assert_at_matches_loop(_random_field(rng, grid, (0, 2, -1, 3, 1, -4)), rng)


@pytest.mark.parametrize("modes", [(3,), (-2, -5)], ids=["single_m3", "negative_only"])
def test_at_single_and_negative_modes(rng, modes):
    grid = RadialGrid(r_max=10.0, n=301)
    _assert_at_matches_loop(_random_field(rng, grid, modes), rng)


def test_at_mode_zero_is_the_spline(rng):
    grid = RadialGrid(r_max=10.0, n=301)
    field = _random_field(rng, grid, (0,))
    y = _cartesian(rng.uniform(0.0, 13.0, size=1000), rng.uniform(-np.pi, np.pi, size=1000))
    assert field.at(y).tobytes() == _loop_at(field, y)[0].tobytes()


def test_at_of_an_empty_field_is_zero(rng):
    field = AngularField(RadialGrid(r_max=10.0, n=301))
    r = rng.uniform(0.0, 13.0, size=(10, 3))
    got = field.at(np.stack([r, np.zeros_like(r)], axis=-1))
    assert got.shape == (10, 3) and got.dtype == complex and np.all(got == 0.0)


def test_points_are_the_nodes_in_cartesian_form():
    grid = PolarGrid(r_max=5.0, n_r=11, n_theta=8)
    y = grid.points
    assert y.shape == (11, 8, 2)
    assert y[..., 0].tobytes() == (grid.r[:, None] * np.cos(grid.theta)[None, :]).tobytes()
    assert y[..., 1].tobytes() == (grid.r[:, None] * np.sin(grid.theta)[None, :]).tobytes()
