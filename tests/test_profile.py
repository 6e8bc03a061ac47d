"""Profile construction: constants, solvability, invariants, residual scaling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsblow import fields, profile as prof
from nlsblow.fields import AngularField
from nlsblow.kmodel import InhomogeneityModel, HessianNotNegative, _bump_e, cutoff, cutoff_deriv
from nlsblow.linops import M_MAX, SolvabilityViolated
from nlsblow.radial import quadrature


@pytest.fixture(scope="module")
def model():
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 0.06
    T[0, 1, 1] = -0.04
    T[1, 1, 1] = 0.05
    return InhomogeneityModel(hessian=np.array([[-0.25, 0.05], [0.05, -0.35]]),
                              third=T, floor=0.5)


@pytest.fixture(scope="module")
def expansion(lab, model):
    return prof.build_expansion(model, C0=1.0, lab=lab)


def _cartesian(r, theta):
    return np.stack(np.broadcast_arrays(r * np.cos(theta), r * np.sin(theta)), axis=-1)


def test_model_validates(model):
    assert model.validate() == []


def test_model_rejects_positive_eigenvalue():
    with pytest.raises(HessianNotNegative):
        InhomogeneityModel(hessian=np.array([[0.2, 0.0], [0.0, -0.3]]))


def _band_edge_model(e, phi, t, k1):
    # [T111, T112, T122, T222] -> the symmetric tensor, as the config builds it
    c, s = np.cos(phi), np.sin(phi)
    R = np.array([[c, -s], [s, c]])
    third = np.array(t)[np.indices((2, 2, 2)).sum(axis=0)]
    return InhomogeneityModel(hessian=R @ np.diag(e) @ R.T, third=third, floor=k1)


@pytest.mark.parametrize("edge", [
    ((-0.25, -0.25), 0.0, (0.03, 0.03, 0.03, 0.03), 0.45),
    ((-0.15, -0.15), 0.0, (-0.03, -0.03, -0.03, -0.03), 0.55),
    ((-0.25, -0.15), 0.7, (0.03, -0.03, 0.03, -0.03), 0.45),
    ((-0.15, -0.25), 2.9, (-0.03, 0.03, -0.03, 0.03), 0.55),
])
def test_g_matches_einsum_forms(edge, rng):
    # the explicit polynomials against the tensor contractions they replace,
    # inside the cutoff (|x| <= 1), across it, and beyond it (|x| >= 2), each
    # ring against its own scale
    m = _band_edge_model(*edge)
    radii = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 6.0]])
    rho = rng.uniform(radii[:, :1], radii[:, 1:], size=(3, 1000))
    phi = rng.uniform(0.0, 2 * np.pi, size=(3, 1000))
    x = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    want = (0.5 * np.einsum("...i,ij,...j->...", x, m.hessian, x)
            + np.einsum("...i,...j,...l,ijl->...", x, x, x, m.third) / 6.0
            * cutoff(np.linalg.norm(x, axis=-1)))
    gap = np.max(np.abs(m._g(x) - want), axis=-1)
    assert np.all(gap <= 1e-14 * np.max(np.abs(want), axis=-1))
    assert m.validate() == []


def _full_cutoff(s):
    """The cutoff's formula on every point, band or not."""
    a, b = _bump_e(2.0 - s), _bump_e(s - 1.0)
    return a / (a + b + 1e-300)


def test_cutoff_band_matches_full_formula():
    # cutoff evaluates only 1 < s < 2; outside, the full formula is exactly
    # 1 or 0, so both agree to the bit, at the band's edges, their
    # neighbouring floats, scalar points, and in _g with a nonzero T
    edges = [np.nextafter(e, d) for e in (1.0, 2.0) for d in (-np.inf, np.inf)]
    s = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e3, *edges])
    assert np.array_equal(cutoff(s), _full_cutoff(s))
    for sj in s:
        assert cutoff(sj) == _full_cutoff(sj) and np.ndim(cutoff(sj)) == 0
    m = _band_edge_model((-0.25, -0.15), 0.7, (0.03, -0.03, 0.03, -0.03), 0.45)
    phi = np.linspace(0.0, 2 * np.pi, 7)
    x = s[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    x1, x2 = x[..., 0], x[..., 1]
    T = m.third
    cub = (x1 * x1 * (T[0, 0, 0] * x1 + 3.0 * T[0, 0, 1] * x2)
           + x2 * x2 * (3.0 * T[0, 1, 1] * x1 + T[1, 1, 1] * x2)) / 6.0
    full = 0.5 * m.hess_form(x1, x2) + cub * _full_cutoff(np.linalg.norm(x, axis=-1))
    assert np.array_equal(m._g(x), full)
    assert all(m._g(p) == f for p, f in zip(x.reshape(-1, 2), full.ravel()))


BAND_EDGES = [
    ((-0.25, -0.25), 0.0, (0.03, 0.03, 0.03, 0.03), 0.45),
    ((-0.15, -0.15), 0.0, (-0.03, -0.03, -0.03, -0.03), 0.55),
    ((-0.25, -0.15), 0.7, (0.03, -0.03, 0.03, -0.03), 0.45),
    ((-0.15, -0.25), 2.9, (-0.03, 0.03, -0.03, 0.03), 0.55),
]


def _rings(rng, size=1000):
    """Points on |x| <= 1, 1 < |x| < 2 and 2 <= |x| < 6, one ring per row."""
    radii = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 6.0]])
    rho = rng.uniform(radii[:, :1], radii[:, 1:], size=(3, size))
    phi = rng.uniform(0.0, 2 * np.pi, size=(3, size))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


@pytest.mark.parametrize("edge", BAND_EDGES)
def test_forms_match_einsum_contractions(edge, rng):
    # the polynomial forms against the tensor contractions they replace
    m = _band_edge_model(*edge)
    x = _rings(rng)
    x1, x2 = x[..., 0], x[..., 1]
    scale = np.max(np.abs(x), axis=(-1, -2)) ** 3
    cub = np.einsum("...i,...j,...l,ijl->...", x, x, x, m.third)
    assert np.all(np.max(np.abs(m.third_form(x1, x2) - cub), axis=-1) <= 1e-15 * scale)
    for e in range(2):
        cub_e = np.einsum("...i,...j,ij->...", x, x, m.third[:, :, e])
        assert np.all(np.max(np.abs(m.third_form(x1, x2, e) - cub_e), axis=-1) <= 1e-15 * scale)
        hx = np.einsum("ij,...j->...i", m.hessian, x)[..., e]
        assert np.all(np.max(np.abs(m.hess_form(x1, x2, e) - hx), axis=-1)
                      <= 1e-15 * np.max(np.abs(x), axis=(-1, -2)))


def test_cutoff_deriv_is_exact_in_the_band():
    # against the complex-step derivative Im w(s + iδ)/δ of the cutoff's
    # formula, which has no difference error
    s = np.concatenate([np.linspace(1.0, 2.0, 10001)[1:-1],
                        [np.nextafter(1.0, 2.0), 1.001, 1.999, np.nextafter(2.0, 1.0)]])
    delta = 1e-30
    sc = s + 1j * delta
    a, b = np.exp(-1.0 / (2.0 - sc)), np.exp(-1.0 / (sc - 1.0))
    want = (a / (a + b)).imag / delta
    assert np.max(np.abs(cutoff_deriv(s) - want)) <= 1e-14 * np.max(np.abs(want))


def test_cutoff_deriv_is_zero_off_the_band():
    edges = [np.nextafter(e, d) for e in (1.0, 2.0) for d in (-np.inf, np.inf)]
    s = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 1e3, edges[0], edges[3]])
    assert np.all(cutoff_deriv(s) == 0.0) and np.all(cutoff_deriv(-s) == 0.0)
    assert cutoff_deriv(1.0) == 0.0 and np.ndim(cutoff_deriv(1.0)) == 0


@pytest.mark.parametrize("edge", BAND_EDGES)
def test_grad_k_matches_central_differences(edge, rng):
    # inside the cutoff, across it and beyond it, each ring against its own
    # scale; h = 1e-5 balances the difference's truncation and roundoff
    m = _band_edge_model(*edge)
    x = _rings(rng)
    h = 1e-5
    fd = np.stack([(m.k(x + h * e) - m.k(x - h * e)) / (2 * h) for e in np.eye(2)], axis=-1)
    grad = m.grad_k(x)
    gap = np.max(np.abs(grad - fd), axis=(-1, -2))
    assert np.all(gap <= 1e-8 * np.max(np.abs(grad), axis=(-1, -2)))
    assert np.array_equal(InhomogeneityModel(hessian=np.zeros((2, 2))).grad_k(x), np.zeros(x.shape))


def test_c0_against_direct_quadrature(lab):
    # H = -I: c0(e1) must be -(∫Q⁴)/(2∫Q²) e1; oracle = ratio of raw quadratures
    from scipy.integrate import simpson

    model = InhomogeneityModel(hessian=-np.eye(2))
    consts = prof.derive_constants(model, lab)
    r = lab.grid.nodes
    q = lab.Q.values
    # c0 = (H(e_j,y)Q³, ∂_jQ)/(y_jQ, ∂_jQ): both via polar quadrature
    num = np.pi * simpson(-r * q ** 3 * lab.dQ * r, x=r)      # H=-I: H(e1,y) = -y1
    den = np.pi * simpson(r * q * lab.dQ * r, x=r)
    oracle = num / den
    got = consts.c0_map[:, 0]
    assert got[0] == pytest.approx(oracle, rel=1e-8)
    assert abs(got[1]) < 1e-12
    assert got[0] == pytest.approx(-lab.moments.quarticQ / (2 * lab.moments.massQ), rel=1e-9)


def test_beta3_vanishes_without_third(lab):
    consts = prof.derive_constants(InhomogeneityModel(hessian=-0.3 * np.eye(2)), lab)
    assert np.allclose(consts.beta3, 0.0)


def test_constants_are_frozen(lab, expansion):
    # the expansion reads the constants derive_constants returned, unchanged
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        expansion.constants.beta3 = np.ones(2)
    assert dataclasses.asdict(expansion.constants).keys() == dataclasses.asdict(
        prof.derive_constants(expansion.model, lab)).keys()


def test_d0_negative(lab, model, rng):
    # at b = λ = 0 the b row of the law table is d0(α), its α² entries
    b_law = prof.derive_constants(model, lab).laws()[0]
    for _ in range(20):
        P = prof.ParamPoint(b=0.0, lam=0.0, alpha=rng.normal(size=2))
        assert prof._value(b_law, P) <= 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a1_cross_check_random_hessians(lab, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2))
    H = -(A @ A.T + 0.05 * np.eye(2))
    model = InhomogeneityModel(hessian=H)
    a1_closed = prof.derive_constants(model, lab).a1
    a1_proj = prof.a1_projection(model, lab)
    assert a1_closed > 0
    assert abs(a1_closed - a1_proj) / a1_closed < 1e-6


def test_monomial_degree_bookkeeping(expansion):
    for mono, f in expansion.terms.items():
        assert sum(mono) in (0, 2, 3, 4)
        assert f.max_mode() <= M_MAX


def _is_real_field(f, sign=1.0):
    """f_{-m} = sign·conj(f_m) exactly for every mode: sign +1 a real field, -1 imaginary."""
    return all(-m in f.comps and np.array_equal(f.comps[-m], sign * np.conj(v))
               for m, v in f.comps.items())


def test_solutions_are_exactly_real_fields(lab, model, monkeypatch):
    # L± depends on |m| only: the −m mode of a real source is solved as the
    # conjugate of +m, so every solution, and every term below the ray order
    # (one parity each), is conjugate-symmetric to the bit
    solve_field, solutions = prof._solve_field, []
    monkeypatch.setattr(prof, "_solve_field",
                        lambda *args: solutions.append(solve_field(*args)) or solutions[-1])
    expansion = prof.build_expansion(model, C0=1.0, lab=lab)
    assert solutions and all(_is_real_field(f) for f in solutions)
    for mono, f in expansion.terms.items():
        if sum(mono) < prof.RAY_ORDER:
            assert _is_real_field(f, 1.0 if prof._even(mono) else -1.0), mono


def test_coefficient_derivatives_match_finite_differences(expansion):
    # e·coeff(mono - e_i, P) against central differences of coeff(mono, P)
    P = prof.ParamPoint(b=0.07, lam=0.11, beta=[0.004, -0.003], alpha=[0.02, -0.01])
    h = 1e-6
    for i in range(6):
        up, down = P.to_vector(), P.to_vector()
        up[i] += h
        down[i] -= h
        c_up = expansion.coefficients(prof.ParamPoint.from_vector(up))
        c_down = expansion.coefficients(prof.ParamPoint.from_vector(down))
        exact = expansion.coefficients(P, i)
        assert list(exact) == list(expansion.terms)
        for mono, c in exact.items():
            assert c == pytest.approx((c_up[mono] - c_down[mono]) / (2 * h), rel=1e-6, abs=1e-12)


def _field_pair(a: AngularField, b: AngularField) -> float:
    """Real L²(R²) pairing 2π Σ_m ∫ a_m conj(b_m) r dr."""
    return float(sum(quadrature((v * np.conj(b.comps[m])).real, a.grid)
                     for m, v in a.comps.items() if m in b.comps))


def test_T2_T3_orthogonal_to_Q(lab, expansion):
    Qf = AngularField.radial(lab.grid, lab.Q.values)
    for mono in [(0, 2, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0)]:
        f = expansion.terms[mono]
        # strip the imaginary (S-part) before pairing
        real_part = AngularField(lab.grid, {m: v.real.astype(complex)
                                            for m, v in f.comps.items()})
        rel = _field_pair(real_part, Qf) / (real_part.norm() * Qf.norm())
        assert abs(rel) < 1e-7


def test_S3_solvability_projection(lab, expansion):
    # source of the bλ² part of S3 is -2 U20; its projection on Q must vanish
    U20 = AngularField(lab.grid, {m: v.real.astype(complex)
                                  for m, v in expansion.terms[(0, 2, 0, 0, 0, 0)].comps.items()})
    src = U20 * (-2.0)
    defect = lab.ops.solvability_defect("minus", src.comps[0].real, 0)
    assert defect < 1e-8


def test_flat_model_trivial(lab):
    exp = prof.build_expansion(InhomogeneityModel(hessian=np.zeros((2, 2))), C0=1.0, lab=lab)
    assert list(exp.terms) == [prof._mono()]
    P = prof.ParamPoint(b=0.05, lam=0.1)
    r = np.array([0.0, 1.0, 2.5])
    th = np.zeros(3)
    vals = exp.combined(P).at(_cartesian(r, th))
    q = AngularField.radial(lab.grid, lab.Q.values).at(_cartesian(r, 0.0)).real
    assert np.allclose(vals.real, q, atol=1e-10)
    assert np.allclose(vals.imag, 0.0)


def test_eval_at_origin_point_is_Q(expansion, lab):
    P = prof.ParamPoint(b=0.0, lam=0.0)
    r = np.linspace(0, 10, 50)
    vals = expansion.QP_evaluator(P)(_cartesian(r, 0.0))
    q = AngularField.radial(lab.grid, lab.Q.values).at(_cartesian(r, 0.0)).real
    assert np.allclose(vals, q, atol=1e-10)


def test_Q_is_the_constant_term(expansion, lab):
    P = prof.ParamPoint(b=0.07, lam=0.11, beta=[0.004, -0.003], alpha=[0.02, -0.01])
    assert list(expansion.terms)[0] == prof._mono()
    Q = expansion.terms[prof._mono()]
    assert list(Q.comps) == [0]
    assert Q.comps[0].tobytes() == lab.Q.values.astype(complex).tobytes()
    assert expansion.coefficients(P)[prof._mono()] == 1.0
    assert all(expansion.coefficients(P, i)[prof._mono()] == 0.0 for i in range(6))


def _polar_physical_field(expansion, P, pts):
    """Reference: u through the polar coordinates of x − α, one spline pair per mode,
    and the phase in (r, θ)."""
    from scipy.interpolate import CubicSpline

    dx, dy = pts[..., 0] - P.alpha[0], pts[..., 1] - P.alpha[1]
    r, th = np.hypot(dx, dy) / P.lam, np.arctan2(dy, dx)
    nodes, r_max = expansion.lab.grid.nodes, expansion.lab.grid.r_max
    inside, rc = r <= r_max, np.clip(r, 0.0, r_max)
    vals = np.zeros(r.shape, dtype=complex)
    for m, v in expansion.combined(P).comps.items():
        fm = CubicSpline(nodes, v.real)(rc) + 1j * CubicSpline(nodes, v.imag)(rc)
        vals += np.where(inside, fm, 0.0) * np.exp(1j * m * th)
    phase = -P.b * r ** 2 / 4.0 + r * (P.beta[0] * np.cos(th) + P.beta[1] * np.sin(th))
    k_alpha = float(expansion.model.k(P.alpha))
    return vals * np.exp(1j * phase) * np.exp(1j * P.gamma) / (np.sqrt(k_alpha) * P.lam)


def test_physical_field_matches_polar_path(expansion):
    from nlsblow.sim import box_points

    P = prof.ParamPoint(b=0.06, lam=0.09, beta=[0.004, -0.003], alpha=[0.01, 0.02], gamma=0.37)
    pts = box_points(6.0, 512)
    got = prof.physical_field(expansion, P)(pts)
    want = _polar_physical_field(expansion, P, pts)
    assert got.shape == (512, 512)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _point_shapes(count):
    """(count, 2) and (a, count // a, 2) with a the least factor of count above 1."""
    a = next(d for d in range(2, count + 1) if count % d == 0)
    return [(count, 2), (a, count // a, 2)]


@pytest.mark.parametrize("count", [fields.AT_BLOCK - 1, fields.AT_BLOCK, fields.AT_BLOCK + 1,
                                   5 * fields.AT_BLOCK // 2])
def test_blocked_evaluators_match_one_shot(expansion, model, monkeypatch, rng, count):
    # k and physical_field go through the points fields.AT_BLOCK at a time;
    # one block holding every point gives the same bits.  The sets of up to
    # AT_BLOCK + 1 points lie within the profile's r_max (λ·30 = 7.5), so
    # every point reaches AngularField.at's Horner products, whose rounding
    # must not depend on the blocks; the largest set also reaches past r_max.
    # All sets cross the cutoff's band 1 < |x| < 2.
    P = prof.ParamPoint(b=0.06, lam=0.25, beta=[0.004, -0.003], alpha=[0.01, 0.02], gamma=0.37)
    half = 5.0 if count <= fields.AT_BLOCK + 1 else 9.0
    sets = [rng.uniform(-half, half, size=shape) for shape in [(2,)] + _point_shapes(count)]

    def evaluate():
        u = prof.physical_field(expansion, P)
        return [(model.k(x), u(x)) for x in sets]

    blocked = evaluate()
    monkeypatch.setattr(fields, "AT_BLOCK", 10 * count)
    for x, got, want in zip(sets, blocked, evaluate()):
        for g, w in zip(got, want):
            assert g.shape == w.shape == x.shape[:-1]
            assert g.tobytes() == w.tobytes()


def test_k_peak_memory_is_blocks_plus_output(model, rng):
    # k on 10⁶ points allocates its output and a few blocks of temporaries,
    # not box-sized ones
    x = rng.uniform(-3.0, 3.0, size=(10 ** 6, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kv = model.k(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= kv.nbytes + 8 * fields.AT_BLOCK * 8


def test_solvability_violated_on_bad_source(lab):
    # a raw mode-1 source proportional to the kernel cannot be inverted
    with pytest.raises(SolvabilityViolated):
        lab.ops.solve("plus", lab.dQ, m=1)


def test_mass_energy_invariant_slopes(expansion, lab):
    lams = np.geomspace(0.02, 0.1, 5)
    mdev, edev = [], []
    for lam in lams:
        P = prof.conformal_ray(lam, expansion.C0, (0.3, -0.2), (-0.25, 0.35))
        mdev.append(abs(expansion.mass(P) - lab.moments.massQ))
        edev.append(abs(expansion.energy(P) - expansion.energy_prediction(P)))
    ms = np.polyfit(np.log(lams), np.log(mdev), 1)[0]
    es = np.polyfit(np.log(lams), np.log(edev), 1)[0]
    assert 3.5 <= ms <= 4.5
    assert 3.5 <= es <= 4.5


def test_residual_scaling_on_and_off_ray(expansion):
    lams = np.geomspace(0.01, 0.1, 6)
    on_ray = [expansion.residual(prof.conformal_ray(l, expansion.C0, (0.3, -0.2),
                                                    (-0.25, 0.35)))
              for l in lams]
    slope = np.polyfit(np.log(lams), np.log(on_ray), 1)[0]
    assert 4.5 <= slope <= 5.5
    off_ray = [expansion.residual(prof.ParamPoint(b=l, lam=l, alpha=np.array([l, 0.5 * l])))
               for l in lams]
    slope_off = np.polyfit(np.log(lams), np.log(off_ray), 1)[0]
    assert slope_off < 3.8


def test_residual_vanishes_at_origin(expansion):
    res = expansion.residual(prof.ParamPoint(b=0.0, lam=0.0))
    assert res < 1e-7


def test_residual_takes_no_gradient(expansion, monkeypatch):
    # the weighted L² norm is all residual returns: ψ is never differentiated
    def refuse(self, values):
        raise AssertionError("residual took a polar gradient")

    monkeypatch.setattr(fields.PolarGrid, "gradient", refuse)
    res = expansion.residual(prof.conformal_ray(0.05, expansion.C0))
    assert isinstance(res, float) and 0.0 < res < 1e-3


def test_residual_grid_refinement(model):
    # residual invariant under grid refinement to < 5% at default resolution
    from nlsblow.lab import get_lab

    lab_hi = get_lab(r_max=30.0, n=12288, tol=1e-9)
    exp_hi = prof.build_expansion(model, 1.0, lab_hi)
    exp_lo = prof.build_expansion(model, 1.0, get_lab())
    P = prof.conformal_ray(0.05, 1.0, (0.3, -0.2), (-0.25, 0.35))
    a = exp_lo.residual(P)
    b = exp_hi.residual(P)
    assert abs(a - b) / b < 0.05


def test_rotation_equivariance(lab):
    # 90° rotation: diag(h1,h2) vs diag(h2,h1) maps T_j(y) -> T_j(R^{-1}y)
    m1 = InhomogeneityModel(hessian=np.diag([-0.2, -0.4]))
    m2 = InhomogeneityModel(hessian=np.diag([-0.4, -0.2]))
    e1 = prof.build_expansion(m1, 1.0, lab)
    e2 = prof.build_expansion(m2, 1.0, lab)
    P1 = prof.ParamPoint(b=0.05, lam=0.1, alpha=np.array([0.02, -0.01]))
    P2 = prof.ParamPoint(b=0.05, lam=0.1, alpha=np.array([0.01, 0.02]))  # R @ alpha
    r = np.linspace(0.0, 8.0, 40)
    th = np.full_like(r, 0.7)
    v1 = e1.combined(P1).at(_cartesian(r, th))
    v2 = e2.combined(P2).at(_cartesian(r, th + np.pi / 2))   # evaluate at R y
    assert np.allclose(v1, v2, atol=1e-10)


def test_compute_C0(lab, model):
    m = lab.moments
    hq = prof.hessian_quartic_integral(model, lab)
    E0 = m.ymomQ / 8.0 - hq / 8.0           # makes Ẽ0 = ||yQ||²/8
    assert prof.compute_C0(E0, model, lab) == pytest.approx(1.0, rel=1e-12)
    assert prof.compute_C0(E0 / 2 - hq / 16, model, lab) == pytest.approx(np.sqrt(2), rel=1e-10)
    with pytest.raises(prof.EnergyConditionViolated):
        prof.compute_C0(-hq / 8.0, model, lab)
    assert prof.energy_for_C0(1.0, model, lab) == pytest.approx(E0, rel=1e-12)


def test_constants_rezero_kernel_projections(lab, model, expansion):
    # the adjusted constants are exactly the values zeroing the projections
    consts = expansion.constants
    r = lab.grid.nodes
    q3 = lab.Q.values ** 3
    H = model.hessian
    for j in range(2):
        c0_ej = consts.c0_map[:, j]
        src = AngularField.from_angular(lab.grid, r * q3,
                                        lambda cx, sx, j=j: H[0, j] * cx + H[1, j] * sx, 1) \
            - AngularField.from_angular(lab.grid, r * lab.Q.values,
                                        lambda cx, sx, v=c0_ej: v[0] * cx + v[1] * sx, 1)
        defect = lab.ops.solvability_defect("plus", src.comps[1], 1)
        assert defect < 1e-8


def test_param_point_vector_layout():
    P = prof.ParamPoint(b=0.1, lam=0.2, beta=[0.3, 0.4], alpha=[0.5, 0.6], gamma=0.7,
                        s=8.0, t=-0.9)
    v = P.to_vector()
    assert v.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 8.0, -0.9]
    back = prof.ParamPoint.from_vector(v)
    assert back.to_vector().tolist() == v.tolist() and back.s == 8.0 and back.t == -0.9
    with pytest.raises(ValueError, match="nonnegative"):
        prof.ParamPoint(b=0.0, lam=-1e-3)


def test_phase_gradient_is_gradient_of_phase(rng):
    P = prof.ParamPoint(b=0.3, lam=0.1, beta=[0.2, -0.5])
    r = rng.uniform(0.5, 3.0, size=20)
    th = rng.uniform(0.0, 2 * np.pi, size=20)
    u_r, u_th = P.phase_gradient(r, th)
    h = 1e-6
    d_r = (P.phase(_cartesian(r + h, th)) - P.phase(_cartesian(r - h, th))) / (2 * h)
    d_th = (P.phase(_cartesian(r, th + h)) - P.phase(_cartesian(r, th - h))) / (2 * h * r)
    assert np.max(np.abs(u_r - d_r)) < 1e-8
    assert np.max(np.abs(u_th - d_th)) < 1e-8


def _rotation(phi: float) -> np.ndarray:
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def _rotated(model: InhomogeneityModel, R: np.ndarray) -> InhomogeneityModel:
    """k∘Rᵀ: the same inhomogeneity turned by the rotation R."""
    third = np.einsum("ia,jb,lc,abc->ijl", R, R, R, model.third)
    return InhomogeneityModel(hessian=R @ model.hessian @ R.T, third=third, floor=model.floor)


eigenvalue = st.floats(-0.3, -0.05)
third_entry = st.floats(-0.05, 0.05, allow_subnormal=False)
angle = st.floats(0.0, 2 * np.pi)


@settings(deadline=None, max_examples=40)
@given(e1=eigenvalue, e2=eigenvalue, h_angle=angle,
       third=st.lists(third_entry, min_size=8, max_size=8), k1=st.floats(0.1, 0.9), phi=angle)
def test_constants_rotate_with_k(lab, e1, e2, h_angle, third, k1, phi):
    # k turned by R: the forms become R·M·Rᵀ, β3 becomes R·β3, a1 is a scalar
    U, R = _rotation(h_angle), _rotation(phi)
    model = InhomogeneityModel(hessian=U @ np.diag([e1, e2]) @ U.T,
                               third=np.reshape(third, (2, 2, 2)), floor=k1)
    base = prof.derive_constants(model, lab)
    turned = prof.derive_constants(_rotated(model, R), lab)

    def close(got, want, scale):
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    for name in ("c0_map", "d0_form", "d1_form"):
        want = R @ getattr(base, name) @ R.T
        close(getattr(turned, name), want, np.max(np.abs(want)))
    # β3 is linear in T; components that cancel are held to the scale T sets
    b3_scale = max(np.max(np.abs(base.beta3)), 1e-4 * np.max(np.abs(model.third)))
    close(turned.beta3, R @ base.beta3, b3_scale)
    close(turned.a1, base.a1, abs(base.a1))


# ----------------------------------------------------------------------
# the generator against orders 2–4 written out by hand
# ----------------------------------------------------------------------

def _hand_terms(model: InhomogeneityModel, C0: float, lab) -> dict:
    """T2, S3, T3, T4, S4 assembled source by source, each source derived by hand."""
    consts = prof.derive_constants(model, lab)
    g = lab.grid
    r = g.nodes
    q = lab.Q.values
    q2, q3 = q ** 2, q ** 3
    H = model.hessian
    terms = {}

    def put(mono, f, imag=False):
        terms[mono] = terms.get(mono, AngularField(g)) + (f * 1j if imag else f)

    def solve(op, src):
        return prof._solve_field(lab, op, src)

    def mono(b=0, lam=0, beta=None, alpha=None):
        e = [b, lam, 0, 0, 0, 0]
        if beta is not None:
            e[2 + beta] = 1
        if alpha is not None:
            e[4 + alpha] = 1
        return tuple(e)

    # order 2: L+(T2) = ∇²k(0)(α,y)λQ³ + (λ²/2)∇²k(0)(y,y)Q³ - λ c0(α)·yQ
    U20 = solve("plus", AngularField.from_angular(g, 0.5 * r ** 2 * q3, model.hess_form, 2))
    put(mono(lam=2), U20)
    U2 = []
    for j in range(2):
        c0_ej = consts.c0_map[:, j]
        src = AngularField.from_angular(g, r * q3, lambda cx, sx, j=j: H[0, j] * cx + H[1, j] * sx, 1) \
            - AngularField.from_angular(g, r * q, lambda cx, sx, v=c0_ej: v[0] * cx + v[1] * sx, 1)
        U2.append(solve("plus", src))
        put(mono(lam=1, alpha=j), U2[j])

    # order 3 imaginary: L-(S3) = -λb ∂_λT2 + 2βλ ∂_αT2
    V0 = solve("minus", U20 * (-2.0))
    put(mono(b=1, lam=2), V0, imag=True)
    for j in range(2):
        Vj = solve("minus", U2[j] * (-1.0))
        put(mono(b=1, lam=1, alpha=j), Vj, imag=True)
        put(mono(lam=2, beta=j), Vj * (-2.0), imag=True)      # W_j = -2 V_j

    # order 3 real: L+(T3) = ∇³k(0)(y,y,y)(λ³/6)Q³ + ∇³k(0)(y,y,α)(λ²/2)Q³ - β3λ³·yQ
    b3 = consts.beta3
    U30 = solve("plus", AngularField.from_angular(g, r ** 3 * q3 / 6.0, model.third_form, 3)
                - AngularField.from_angular(g, r * q, lambda cx, sx: b3[0] * cx + b3[1] * sx, 1))
    put(mono(lam=3), U30)
    U3 = []
    for j in range(2):
        U3.append(solve("plus", AngularField.from_angular(
            g, 0.5 * r ** 2 * q3, lambda cx, sx, j=j: model.third_form(cx, sx, e=j), 2)))
        put(mono(lam=2, alpha=j), U3[j])

    # order 4 real, b = λ/C0: the b-derivative feedbacks of S3, the cubic
    # cross terms of T2 and the 4th-order Taylor term of k
    hyy = AngularField.from_angular(g, r ** 2, model.hess_form, 2)
    f4 = (V0 * (3.0 / C0 ** 2)
          + (U20 * U20) * AngularField.radial(g, 3.0 * q)
          + (hyy * U20) * AngularField.radial(g, 1.5 * q2)
          + AngularField.from_angular(g, r ** 4 * q3 / 24.0, model.quartic_form, 4))
    put(mono(lam=4), solve("plus", f4))

    # order 4 imaginary: L-(S4) = -(λ²/C0) ∂_λT3
    put(mono(lam=4), solve("minus", U30 * (-3.0 / C0)), imag=True)
    for j in range(2):
        put(mono(lam=3, alpha=j), solve("minus", U3[j] * (-2.0 / C0)), imag=True)
    return {m: f for m, f in terms.items() if f.comps}


def _tilted_model():
    third = np.array([0.03, -0.02, 0.01, 0.03])[np.indices((2, 2, 2)).sum(axis=0)]
    return InhomogeneityModel(hessian=np.array([[-0.22, 0.03], [0.03, -0.17]]), third=third,
                              floor=0.5)


@pytest.mark.parametrize("C0", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["test", "default", "tilted"])
def test_generated_terms_match_hand_assembly(lab, model, kind, C0):
    k = {"test": model, "default": InhomogeneityModel(hessian=-0.2 * np.eye(2)),
         "tilted": _tilted_model()}[kind]
    got = prof.build_expansion(k, C0, lab).terms
    want = _hand_terms(k, C0, lab)
    assert set(got) == set(want) | {prof._mono()}
    for mono, f in want.items():
        assert set(got[mono].comps) == set(f.comps), mono
        top = max(np.max(np.abs(v)) for v in f.comps.values())
        gap = max(np.max(np.abs(got[mono].comps[m] - v)) for m, v in f.comps.items())
        assert gap <= 1e-9 * top, (mono, gap / top)


def _explicit_mismatch(exp, P, polar):
    """The profile-equation residual with each parameter law written out."""
    r = polar.r[:, None]
    Pv = exp.combined(P).on_native(polar)
    lapP = sum(c * prof._lap_field(exp.lab, exp.terms[mono]).on_native(polar)
               for mono, c in exp.coefficients(P).items() if c != 0.0)
    d_b, d_lam, d_beta1, d_beta2, d_alpha1, d_alpha2 = (
        exp.combined(P, exp.coefficients(P, i)).on_native(polar) for i in range(6))
    c = exp.constants
    Bvec = P.lam * (c.c0_map @ P.alpha) + c.beta3 * P.lam ** 3
    d0 = P.alpha @ c.d0_form @ P.alpha
    ct, st_ = np.cos(polar.theta)[None, :], np.sin(polar.theta)[None, :]
    By = r * (Bvec[0] * ct + Bvec[1] * st_)
    kappa, k_alpha = exp._kappa(P, polar)
    gterm = P.lam * float(P.beta @ (exp.model.grad_k(P.alpha) / k_alpha))
    lhs = (lapP - Pv + kappa * np.abs(Pv) ** 2 * Pv) + (1j * (-P.b ** 2 + d0) * d_b
           - 1j * P.lam * P.b * d_lam
           + 2j * P.lam * (P.beta[0] * d_alpha1 + P.beta[1] * d_alpha2)
           + 1j * ((-P.b * P.beta[0] + Bvec[0]) * d_beta1
                   + (-P.b * P.beta[1] + Bvec[1]) * d_beta2)
           - (By + 1j * gterm) * Pv)
    return -lhs


@pytest.mark.parametrize("P", [
    prof.conformal_ray(0.05, 1.0, (0.3, -0.2), (-0.25, 0.35)),
    prof.ParamPoint(b=0.06, lam=0.04, beta=[0.01, -0.02], alpha=[0.03, 0.01]),
], ids=["on-ray", "off-ray"])
def test_law_table_matches_explicit_laws(lab, expansion, P):
    got = expansion._mismatch(P, lab.polar)
    want = _explicit_mismatch(expansion, P, lab.polar)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@settings(deadline=None, max_examples=10)
@given(e1=st.floats(-0.25, -0.15), e2=st.floats(-0.25, -0.15), phi=st.floats(0.0, np.pi),
       third=st.lists(st.floats(-0.03, 0.03), min_size=4, max_size=4), k1=st.floats(0.45, 0.55))
def test_band_residual_slope_is_five(lab, e1, e2, phi, third, k1):
    # the perfbench k band: the generated profile leaves an O(λ⁵) residual on the ray
    exp = prof.build_expansion(_band_edge_model((e1, e2), phi, third, k1), 1.0, lab)
    res = [exp.residual(prof.conformal_ray(lam, 1.0)) for lam in (0.02, 0.04)]
    slope = np.log(res[1] / res[0]) / np.log(2.0)
    assert 4.5 < slope < 5.5
