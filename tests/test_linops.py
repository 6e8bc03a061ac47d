"""Linearized operators: kernel identities, constrained inversion, ρ."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsblow import profile as prof
from nlsblow.config import RunConfig
from nlsblow.lab import Lab
from nlsblow.linops import (M_MAX, SOLVABILITY_THRESHOLD, LinearizedOps, SolvabilityViolated,
                            ModeError, norm2d)
from nlsblow.radial import quadrature


IDENTITY_TOL = 1e-7


def test_identity_suite(lab):
    res = lab.ops.identity_residuals()
    for name, val in res.items():
        assert val < IDENTITY_TOL, f"{name}: {val:.3e}"


def test_rho_is_solved_once(lab_small, monkeypatch):
    # LinearizedOps solves ρ when it is built; the lab and identity_residuals read it
    calls = []
    real = LinearizedOps.compute_rho

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(LinearizedOps, "compute_rho", counted)
    Q = lab_small.Q
    lab = Lab(grid=Q.grid, Q=Q, moments=lab_small.moments, ops=LinearizedOps(Q))
    lab.ops.identity_residuals()
    assert len(calls) == 1
    assert lab.rho.values.tobytes() == lab_small.rho.values.tobytes()


def test_apply_rejects_large_mode(lab_small):
    with pytest.raises(ModeError):
        lab_small.ops.apply("plus", lab_small.Q.values, m=7)


def _random_decaying(lab, rng, m):
    # mode-m radial part of a smooth 2D field: r^m times an even function
    r = lab.grid.nodes
    poly = sum(c * r ** (2 * k) for k, c in enumerate(rng.normal(size=3)))
    f = r ** m * poly * np.exp(-r ** 2 / 8)
    if m > 0:
        f[0] = 0.0
    return f


@pytest.mark.parametrize("op", ["plus", "minus"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_self_adjointness(lab, rng, op, m):
    r = lab.grid.nodes
    f = _random_decaying(lab, rng, m)
    g = _random_decaying(lab, rng, m)
    from scipy.integrate import simpson

    lf = lab.ops.apply(op, f, m)
    lg = lab.ops.apply(op, g, m)
    a = simpson(lf * g * r, x=r)
    b = simpson(f * lg * r, x=r)
    scale = norm2d(lf, lab.grid) * norm2d(g, lab.grid) + 1e-300
    assert abs(a - b) * 2 * np.pi / scale < 1e-8


@pytest.mark.parametrize("op,m", [("plus", 0), ("plus", 2), ("minus", 1),
                                  ("plus", 1), ("minus", 0)])
def test_inverse_consistency(lab, rng, op, m):
    g = _random_decaying(lab, rng, m)
    if lab.ops.is_kernel_mode(op, m):
        w = lab.ops.kernel_vector(op, m, side="left")
        g = g - w * np.dot(g, w)
    f = lab.ops.solve(op, g, m)
    back = lab.ops.apply(op, f, m)
    num = norm2d(back - g, lab.grid)
    assert num / norm2d(g, lab.grid) < 1e-8


def test_solve_lambdaQ(lab):
    # L+ f = -2Q at m=0 has the unique solution ΛQ
    f = lab.ops.solve("plus", -2.0 * lab.Q.values, m=0)
    lam_q = lab.Q.values + lab.grid.nodes * lab.dQ
    assert norm2d(f - lam_q, lab.grid) / norm2d(lam_q, lab.grid) < 1e-7


def test_solve_yQ(lab):
    # L- f = -2 Q' at m=1 has the unique solution r Q
    f = lab.ops.solve("minus", -2.0 * lab.dQ, m=1)
    target = lab.grid.nodes * lab.Q.values
    assert norm2d(f - target, lab.grid) / norm2d(target, lab.grid) < 1e-7


def test_solve_kernel_source_raises(lab):
    with pytest.raises(SolvabilityViolated):
        lab.ops.solve("plus", lab.dQ, m=1)


def test_solve_complex_kernel_source_raises(lab, rng):
    # a solvable complex source plus a kernel component of 1e-6 of its norm,
    # all of it in the smaller imaginary part (the added part raises the norm
    # by a factor 1 + 5e-13, so the defect is 1e-6 to that, not above it)
    w = lab.ops.kernel_vector("plus", 1, side="left")
    g = _random_decaying(lab, rng, 1) + 0.01j * _random_decaying(lab, rng, 1)
    g = g - w * np.dot(w, g)
    g = g + 1e-6j * np.linalg.norm(g) * w
    assert lab.ops.solvability_defect("plus", g, 1) == pytest.approx(100 * SOLVABILITY_THRESHOLD,
                                                                     rel=1e-9)
    with pytest.raises(SolvabilityViolated):
        lab.ops.solve("plus", g, m=1)


def _band_model(e1, e2, phi, third, k1):
    """A k-model from the benchmark's admissible band, as its config carries it."""
    c, s = np.cos(phi), np.sin(phi)
    hxy = c * s * (e1 - e2)
    cfg = RunConfig()
    cfg.data["kmodel"] = {"hessian": [[c * c * e1 + s * s * e2, hxy],
                                      [hxy, s * s * e1 + c * c * e2]],
                          "third": list(third), "k1": k1}
    return cfg.model()


@settings(deadline=None, max_examples=25)
@given(e1=st.floats(-0.25, -0.15), e2=st.floats(-0.25, -0.15), phi=st.floats(0.0, np.pi),
       third=st.lists(st.floats(-0.03, 0.03), min_size=4, max_size=4),
       k1=st.floats(0.45, 0.55))
@example(e1=-0.25, e2=-0.25, phi=0.0, third=[0.0, 0.0, 1 / 64, 1e-10], k1=0.5)
@example(e1=-0.2, e2=-0.15, phi=np.pi / 2, third=[-1 / 64, 1e-12, 1 / 64, -1e-30], k1=0.45)
@example(e1=-0.25, e2=-0.25, phi=0.0, third=[0.0, 0.0, 0.0, 9.825923072672368e-262], k1=0.5)
def test_band_models_are_solvable(lab, e1, e2, phi, third, k1):
    # a small part or mode of a source carries the roundoff of the large ones
    # (the first two examples), and a tiny source's norm must not underflow
    # (the third): the kernel check measures against the whole source
    model = _band_model(e1, e2, phi, third, k1)
    assert model.validate() == []
    prof.build_expansion(model, 1.0, lab)


@pytest.mark.parametrize("op,m", [("plus", 1), ("minus", 0), ("plus", 2)])
def test_complex_source_is_one_two_column_solve(lab, rng, op, m):
    # the real and imaginary parts solved as two columns equal their separate
    # solves, and a zero imaginary part comes back exactly zero.  On a kernel
    # mode the deflation's products round differently for two columns than
    # for one, and the near-singular band amplifies that near r = 0 (to 7e-11
    # of the largest entry at L+, m = 1), so the gap is measured in L²
    re, im = (_random_decaying(lab, rng, m) for _ in range(2))
    if lab.ops.is_kernel_mode(op, m):
        w = lab.ops.kernel_vector(op, m, side="left")
        re, im = (f - w * np.dot(w, f) for f in (re, im))
    got = lab.ops.solve(op, re + 1j * im, m)
    want = lab.ops.solve(op, re, m) + 1j * lab.ops.solve(op, im, m)
    assert norm2d(got - want, lab.grid) <= 1e-12 * norm2d(want, lab.grid)
    assert np.all(lab.ops.solve(op, re + 0j, m).imag == 0.0)


@pytest.mark.parametrize("op", ["plus", "minus"])
@pytest.mark.parametrize("m", range(1, M_MAX + 1))
def test_solution_meets_its_origin_row(lab, rng, op, m):
    # the constraint row f(0) = 0 of an m >= 1 band stays the pivot of column 0
    re, im = (_random_decaying(lab, rng, m) for _ in range(2))
    if lab.ops.is_kernel_mode(op, m):
        w = lab.ops.kernel_vector(op, m, side="left")
        re, im = (f - w * np.dot(w, f) for f in (re, im))
    assert lab.ops.solve(op, re, m)[0] == 0.0
    assert lab.ops.solve(op, re + 1j * im, m)[0] == 0.0
    assert lab.ops.kernel_vector("plus", 1)[0] == 0.0


def test_solve_gauge_orthogonality(lab, rng):
    g = _random_decaying(lab, rng, 1)
    w = lab.ops.kernel_vector("plus", 1, side="left")
    g = g - w * np.dot(g, w)
    r = lab.grid.nodes
    f = lab.ops.solve("plus", g, m=1)
    k = lab.ops.kernel_vector("plus", 1)
    proj = abs(np.sum(f * k * r)) / np.sqrt(np.sum(f ** 2 * r) * np.sum(k ** 2 * r))
    assert proj < 1e-10


def test_rho_properties(lab):
    rho = lab.rho
    # regularity at the origin: ρ'(0) = 0 via the odd-extension stencil
    from nlsblow.radial import derivative

    drho = derivative(rho.values, lab.grid, parity=+1)
    assert abs(drho[0]) < 1e-6 * np.max(np.abs(rho.values))
    # nondegeneracy (ρ, Q) = ||yQ||²/2
    assert abs(lab.rho_Q - 0.5 * lab.moments.ymomQ) / lab.moments.ymomQ < 1e-6


def test_cancellation(lab):
    m = lab.moments
    scale = m.quarticQ * np.sqrt(m.ymomQ)
    for j in range(2):
        for l in range(2):
            val = lab.ops.cancellation_moment(j, l)
            assert abs(val) / scale < 1e-8
    # trace identity against the 2D integration-by-parts oracle:
    # (|y|²Q³, ΛQ) = ∫|y|²Q⁴ - (1/4)∫div(|y|²y)Q⁴ = ∫|y|²Q⁴ - ∫|y|²Q⁴ = 0
    r = lab.grid.nodes
    q = lab.Q.values
    y2q4 = quadrature(r ** 2 * q ** 4, lab.grid)
    direct = lab.ops.cancellation_moment(0, 0) + lab.ops.cancellation_moment(1, 1)
    assert abs(direct - (y2q4 - y2q4)) / scale < 1e-8


def _laplacian_row_loop(r_max, n, m):
    """The per-row construction of the banded Laplacian, kept as the reference."""
    from nlsblow.radial import RadialGrid, _d1_rows, _d2_rows

    grid = RadialGrid(r_max, n)
    h, r = grid.h, grid.nodes
    c2, c1 = _d2_rows(h), _d1_rows(h)
    ab = np.zeros((5, n))

    def add(i, j, v):
        ab[2 + i - j, j] += v

    s = (-1.0) ** m
    for i in range(1, n - 1):
        coefs = c2 + c1 / r[i]
        for d, cc in zip((-2, -1, 0, 1, 2), coefs):
            j = i + d
            if j < 0:
                add(i, -j, s * cc)
            elif j < n:
                add(i, j, cc)
        add(i, i, -m * m / r[i] ** 2)
    if m == 0:
        add(0, 0, -15.0 / (3 * h * h))
        add(0, 1, 16.0 / (3 * h * h))
        add(0, 2, -1.0 / (3 * h * h))
    else:
        add(0, 0, 1.0)
    return ab


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_laplacian_bands_match_row_loop(lab_small, m):
    from nlsblow.radial import RadialGrid, laplacian_banded

    want = _laplacian_row_loop(20.0, 2048, m).tobytes()
    assert laplacian_banded(RadialGrid(20.0, 2048), m).tobytes() == want
    # the lab's own band, built with its operators (lab_small is on this grid)
    assert lab_small.ops.lap[m].tobytes() == want


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_banded_matvec_matches_sparse_product(lab_small, rng, m):
    # the CSR row product sums its diagonals in ascending column order too
    import scipy.sparse as sp

    from nlsblow.radial import banded_matvec, laplacian_banded, operator_banded

    g = lab_small.grid
    n = g.n
    f = rng.normal(size=n)
    fc = rng.normal(size=n) + 1j * rng.normal(size=n)
    lap = laplacian_banded(g, m)
    for ab in (lap, operator_banded(lap, m, 1.0 - 3.0 * lab_small.Q.values ** 2, g.h)):
        A = sp.diags([ab[2 - k, k:] if k >= 0 else ab[2 - k, :n + k] for k in (2, 1, 0, -1, -2)],
                     [2, 1, 0, -1, -2], shape=(n, n), format="csr")
        assert banded_matvec(ab, f).tobytes() == (A @ f).tobytes()
        assert banded_matvec(ab, fc).tobytes() == (A @ fc).tobytes()
