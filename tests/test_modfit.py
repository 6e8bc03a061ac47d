"""Decomposition round-trips, rate fitting, and the diagnostic functionals."""

from dataclasses import replace

import numpy as np
import pytest

from nlsblow import modfit, profile as prof, sim
from nlsblow.fields import PolarGrid
from nlsblow.kmodel import InhomogeneityModel

from helpers import RANDOM_EPS_L2, constrained_random_eps, phi_second, rescaled_perturbation


@pytest.fixture(scope="module")
def model():
    return InhomogeneityModel(hessian=-0.2 * np.eye(2))


@pytest.fixture(scope="module")
def expansion(lab, model):
    return prof.build_expansion(model, C0=1.0, lab=lab)


@pytest.fixture(scope="module")
def fit(expansion):
    return modfit.Fit(expansion)


def test_roundtrip_exact_profile(expansion, fit):
    gamma = 0.37
    P = prof.ParamPoint(b=0.06, lam=0.09, beta=np.array([0.004, -0.003]),
                        alpha=np.array([0.01, 0.02]), gamma=gamma)
    u = prof.physical_field(expansion, P)
    guess = prof.ParamPoint(b=0.055, lam=0.095, beta=np.array([0.003, -0.002]),
                            alpha=np.array([0.012, 0.018]), gamma=0.35)
    dec = modfit.decompose(u, guess, fit)
    got = dec.params
    assert abs(got.b - P.b) < 1e-8
    assert abs(got.lam - P.lam) < 1e-8
    assert np.max(np.abs(got.beta - P.beta)) < 1e-8
    assert np.max(np.abs(got.alpha - P.alpha)) < 1e-8
    assert abs((got.gamma - gamma + np.pi) % (2 * np.pi) - np.pi) < 1e-8
    assert dec.eps_l2 < 1e-8
    assert dec.jacobian_cond < 1e6


def test_roundtrip_many_random(expansion, fit, rng):
    # the acceptance version runs 50 draws; keep the unit test light
    for _ in range(5):
        lam = rng.uniform(0.05, 0.13)
        P = prof.ParamPoint(b=rng.uniform(0.0, 0.08), lam=lam,
                            beta=rng.normal(scale=0.005, size=2),
                            alpha=rng.normal(scale=0.01, size=2))
        if P.size > 0.15:
            continue
        P.gamma = rng.uniform(0, 2 * np.pi)
        u = prof.physical_field(expansion, P)
        guess = replace(P, b=P.b + 0.003, lam=P.lam * 1.03)
        dec = modfit.decompose(u, guess, fit)
        assert abs(dec.params.lam - P.lam) < 1e-8
        assert abs(dec.params.b - P.b) < 1e-8


def _perturbed_field(expansion, P, eps, grid):
    """The physical field of Q_P + ε at P, ε given on the fit grid, as a callable."""
    from scipy.interpolate import CubicSpline

    base = prof.physical_field(expansion, P)
    em = np.fft.fft(eps, axis=1) / grid.n_theta
    splines = []
    for k in range(grid.n_theta):
        m = k if k <= grid.n_theta // 2 else k - grid.n_theta
        splines.append((m, CubicSpline(grid.r, em[:, k].real),
                        CubicSpline(grid.r, em[:, k].imag)))

    def eps_at(r, th):
        out = np.zeros(r.shape, dtype=complex)
        rc = np.clip(r, 0, grid.r_max)
        inside = r <= grid.r_max
        for m, sre, sim_ in splines:
            out += np.where(inside, sre(rc) + 1j * sim_(rc), 0.0) * np.exp(1j * m * th)
        return out

    def u_pert(pts):
        dx, dy = pts[..., 0], pts[..., 1]
        r = np.hypot(dx, dy) / P.lam
        th = np.arctan2(dy, dx)
        return base(pts) + eps_at(r, th) * np.exp(1j * P.gamma) / P.lam

    return u_pert


def test_projected_perturbation_recovery(expansion, fit, rng):
    P = prof.ParamPoint(b=0.05, lam=0.1, gamma=0.2)
    grid = fit.grid
    eps = constrained_random_eps(fit.window_fields(P), grid, rng)
    u_pert = _perturbed_field(expansion, P, eps, grid)

    guess = replace(P, lam=P.lam * 1.01)
    dec = modfit.decompose(u_pert, guess, fit)
    assert abs(dec.params.lam - P.lam) < 1e-6
    assert abs(dec.params.b - P.b) < 1e-6
    # the recovered ε matches the injected one
    diff = np.sqrt(dec.fit_grid.integral(np.abs(dec.epsilon - eps) ** 2))
    assert diff < 1e-6


def test_expansion_sampler_matches_per_mode_splines(expansion, fit):
    from scipy.interpolate import CubicSpline

    lab = expansion.lab
    nodes, r = lab.grid.nodes, fit.grid.r
    q = CubicSpline(nodes, lab.Q.values)
    col = {m: c for c, m in enumerate(fit.m)}
    assert fit.samples[0, 0, :, col[0]].real.tobytes() == q(r).tobytes()
    assert fit.samples[1, 0, :, col[0]].real.tobytes() == q.derivative()(r).tobytes()
    assert fit.rho.tobytes() == CubicSpline(nodes, lab.rho.values)(r).tobytes()
    assert fit.samples.shape[1] == len(expansion.terms)
    for t, f in enumerate(expansion.terms.values()):
        assert set(np.flatnonzero(np.any(fit.samples[:, t] != 0.0, axis=(0, 1)))) \
            == {col[m] for m in f.comps}
        for m, v in f.comps.items():
            sre, sim_ = CubicSpline(nodes, v.real), CubicSpline(nodes, v.imag)
            val, dval = fit.samples[:, t, :, col[m]]
            assert val.tobytes() == (sre(r) + 1j * sim_(r)).tobytes()
            ref_d = sre.derivative()(r) + 1j * sim_.derivative()(r)
            assert dval.tobytes() == ref_d.tobytes()


def _loop_synthesis(fit, P):
    """Reference: each term's modes added one at a time, per term and per mode."""
    g, exp = fit.grid, fit.expansion
    samples = {mono: modfit._radial_samples(f, g.r) for mono, f in exp.terms.items()}
    value, d_r = (np.zeros((g.n_r, g.n_theta), dtype=complex) for _ in range(2))
    d_params = np.zeros((6, g.n_r, g.n_theta), dtype=complex)
    for mono, c in exp.coefficients(P).items():
        for m, (v, dv) in samples[mono].items():
            value[:, m % g.n_theta] += c * v
            d_r[:, m % g.n_theta] += c * dv
    for i in range(6):
        for mono, c in exp.coefficients(P, i).items():
            for m, (v, _) in samples[mono].items():
                d_params[i, :, m % g.n_theta] += c * v
    return g.samples(value), g.samples(d_r), g.samples(d_params)


def test_stacked_synthesis_matches_term_loops(fit):
    P = prof.ParamPoint(b=0.07, lam=0.11, beta=[0.004, -0.003], alpha=[0.02, -0.01])
    value, d_r, d_params = _loop_synthesis(fit, P)
    got_value, got_d_r, _ = fit.eval_with_grad(P)
    for got, want in ((got_value, value), (got_d_r, d_r), (fit.parameter_derivatives(P), d_params)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_field_sampler_matches_two_pass_interpolation(rng):
    # reference: cubic spline of the real and imaginary parts, each prefiltered
    from scipy.ndimage import map_coordinates

    L, n = 3.0, 64
    field = sim.ComplexField2D(L, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    pts = rng.uniform(-1.5 * L, 1.5 * L, size=(40, 30, 2))
    idx = (pts + L) / field.h
    coords = [idx[..., 0], idx[..., 1]]
    ref = (map_coordinates(field.values.real, coords, order=3, mode="grid-wrap")
           + 1j * map_coordinates(field.values.imag, coords, order=3, mode="grid-wrap"))
    ref[np.any(np.abs(pts) > L, axis=-1)] = 0.0
    got = modfit.FieldSampler(field)(pts)
    assert np.array_equal(got, ref)


def test_field_sampler_reads_zero_outside_box():
    # a fit disk wider than the box must not read the field's periodic image
    L, n = 3.0, 32
    sampler = modfit.FieldSampler(sim.ComplexField2D(L, np.ones((n, n), dtype=complex)))
    pts = np.array([[0.0, 0.0], [L, -L], [1.2 * L, 0.0], [0.0, -2.5 * L], [-1.01 * L, 1.01 * L]])
    got = sampler(pts)
    assert np.allclose(got[:2], 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(got[2:], np.zeros(3))


BOX_GUESS = prof.ParamPoint(b=0.055, lam=0.21, beta=np.array([0.003, -0.002]),
                            alpha=np.array([0.012, 0.018]), gamma=0.35)


def _box_profile(expansion):
    """The exact profile at P sampled on the 256² box of L = 6, and P."""
    P = prof.ParamPoint(b=0.06, lam=0.2, beta=np.array([0.004, -0.003]),
                        alpha=np.array([0.01, 0.02]), gamma=0.37)
    L, n = 6.0, 256
    return sim.ComplexField2D(L, prof.physical_field(expansion, P)(sim.box_points(L, n))), P


def test_roundtrip_sampled_on_box(expansion, fit):
    # the simulation path: the exact profile sampled on a periodic box, then
    # fitted through the bicubic sampler; errors are interpolation-sized
    u, P = _box_profile(expansion)
    got = modfit.decompose(u, BOX_GUESS, fit).params
    assert abs(got.b - P.b) < 1e-5
    assert abs(got.lam - P.lam) < 1e-5
    assert np.max(np.abs(got.beta - P.beta)) < 1e-5
    assert np.max(np.abs(got.alpha - P.alpha)) < 1e-5
    assert abs((got.gamma - P.gamma + np.pi) % (2 * np.pi) - np.pi) < 1e-5


def test_spurious_root_is_refused(expansion, fit):
    # from 0.3λ the conditions also vanish at λ ≈ 0.02, where ‖ε‖_L2 ≈ 4.1
    # exceeds ‖Q‖_L2; whichever check stops the iteration, no root is returned
    u, P = _box_profile(expansion)
    with pytest.raises(modfit.NewtonDiverged):
        modfit.decompose(u, replace(P, lam=0.3 * P.lam), fit)


def test_root_off_the_manifold_is_refused(expansion, fit, rng):
    # ε satisfies all seven conditions at P, so P is a root, but ‖ε‖_L2 = 0.5
    # exceeds EPS_L2_FACTOR·‖Q‖_L2 ≈ 0.34
    P = prof.ParamPoint(b=0.05, lam=0.1, gamma=0.2)
    grid = fit.grid
    eps = constrained_random_eps(fit.window_fields(P), grid, rng) \
        * (0.5 / RANDOM_EPS_L2)
    assert 0.5 > modfit.EPS_L2_FACTOR * np.sqrt(expansion.lab.moments.massQ)
    with pytest.raises(modfit.NewtonDiverged, match="eps_L2"):
        modfit.decompose(_perturbed_field(expansion, P, eps, grid), P, fit)


def test_line_search_refuses_a_rising_step(fit, monkeypatch):
    # conditions (b² + 1, p - p0) with the Jacobian diag(1e-7, 1, ..., 1), the
    # forward difference at b = 0: the Newton step raises the residual at every
    # trial scale
    P = prof.ParamPoint(b=0.0, lam=0.1)
    p0 = P.to_vector()[:7]
    monkeypatch.setattr(modfit.Fit, "epsilon_at",
                        lambda self, Pt, usample: (Pt.to_vector()[:7], None))
    monkeypatch.setattr(modfit.Fit, "condition_values",
                        lambda self, p, w: np.append(p[0] ** 2 + 1.0, p[1:] - p0[1:]))
    monkeypatch.setattr(modfit.Fit, "jacobian", lambda *args: np.diag([1e-7] + [1.0] * 6))
    monkeypatch.setattr(PolarGrid, "gradient", lambda self, vals: None)
    with pytest.raises(modfit.NewtonDiverged, match="line search failed"):
        modfit.decompose(lambda pts: np.zeros(pts.shape[:-1]), P, fit)


def _fd_jacobian(u, P, fit):
    """The forward-difference Jacobian of the seven conditions at P (reference)."""
    usample = modfit.FieldSampler(u)

    def conditions(pv):
        Pt = prof.ParamPoint.from_vector(np.append(pv, (0.0, usample.t)))
        return fit.condition_values(*fit.epsilon_at(Pt, usample))

    p = P.to_vector()[:7]
    R = conditions(p)
    jac = np.empty((7, 7))
    for j in range(7):
        dp = 1e-7 * (1.0 + abs(p[j]))
        pj = p.copy()
        pj[j] += dp
        jac[:, j] = (conditions(pj) - R) / dp
    return jac


@pytest.mark.parametrize("field, rel_gap", [("exact", 1e-5), ("box", 1e-3)])
def test_jacobian_matches_finite_differences(expansion, fit, field, rel_gap):
    # at the root the dropped window-variation term is O(‖ε‖): roundoff-sized on
    # the exact field, interpolation-sized on the box-sampled one
    u, P = _box_profile(expansion)
    if field == "exact":
        u = prof.physical_field(expansion, P)
    root = modfit.decompose(u, BOX_GUESS, fit).params
    eps, w = fit.epsilon_at(root, modfit.FieldSampler(u))
    jac = fit.jacobian(root, eps, w, fit.grid.gradient(eps))
    fd = _fd_jacobian(u, root, fit)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < rel_gap


def test_decompose_samples_the_field_once_per_step(expansion, fit, monkeypatch):
    # the Jacobian takes no field sample: a full Newton step costs one sample
    # (a finite-difference Jacobian costs 7 more); the conditions and the
    # Jacobian at a point read one window matrix, built once per sample
    u, _ = _box_profile(expansion)
    calls, builds = [], []
    real_call, real_pairs = modfit.FieldSampler.__call__, modfit.condition_window_pairs

    def counted(self, pts):
        calls.append(pts.shape)
        return real_call(self, pts)

    def counted_pairs(w, grid):
        builds.append(1)
        return real_pairs(w, grid)

    monkeypatch.setattr(modfit.FieldSampler, "__call__", counted)
    monkeypatch.setattr(modfit, "condition_window_pairs", counted_pairs)
    dec = modfit.decompose(u, BOX_GUESS, fit)
    assert dec.newton_iterations >= 2
    assert len(calls) <= 6
    assert len(builds) == len(calls)


def test_each_root_is_differentiated_once(expansion, fit, monkeypatch, lab):
    # the root's ∇ε is the one its last Jacobian took: eps_H1 and the virial
    # boundary take no gradient of their own
    u, _ = _box_profile(expansion)
    grads, jacobians = [], []
    real_gradient, real_jacobian = PolarGrid.gradient, modfit.Fit.jacobian

    def counted_gradient(self, vals):
        grads.append(1)
        return real_gradient(self, vals)

    def counted_jacobian(self, *args):
        jacobians.append(1)
        return real_jacobian(self, *args)

    monkeypatch.setattr(PolarGrid, "gradient", counted_gradient)
    monkeypatch.setattr(modfit.Fit, "jacobian", counted_jacobian)
    dec = modfit.decompose(u, BOX_GUESS, fit)
    vb = modfit.virial_boundary(dec, 20.0, lab.moments.ymomQ)
    assert len(jacobians) == dec.newton_iterations + 1
    assert len(grads) == len(jacobians)
    assert dec.eps_dr.tobytes() == real_gradient(fit.grid, dec.epsilon)[0].tobytes()
    assert np.isfinite(vb) and dec.eps_h1 > dec.eps_l2


def test_condition_values_match_explicit_integrals(fit, rng):
    grid = fit.grid
    P = prof.ParamPoint(b=0.05, lam=0.1, beta=[0.003, -0.002], alpha=[0.01, 0.02], gamma=0.4)
    w = fit.window_fields(P)
    eps = (rng.normal(size=(grid.n_r, grid.n_theta))
           + 1j * rng.normal(size=(grid.n_r, grid.n_theta))) * np.exp(-grid.r[:, None] ** 2 / 8)
    # the seven conditions written out term by term
    e1, e2 = eps.real, eps.imag
    r = grid.r[:, None]
    S, T = w["QP"].real, w["QP"].imag
    ref = np.array([
        grid.integral(e2 * w["gx"].real - e1 * w["gx"].imag),
        grid.integral(e2 * w["gy"].real - e1 * w["gy"].imag),
        grid.integral(e1 * r * w["ct"] * S + e2 * r * w["ct"] * T),
        grid.integral(e1 * r * w["st"] * S + e2 * r * w["st"] * T),
        grid.integral(-e1 * w["LamQP"].imag + e2 * w["LamQP"].real),
        grid.integral(e1 * r ** 2 * S + e2 * r ** 2 * T),
        grid.integral(-e1 * w["rho"].imag + e2 * w["rho"].real),
    ])
    got = fit.condition_values(eps, w)
    assert np.all(np.abs(ref) > 1e-3)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_fit_grid_must_resolve_expansion_modes(expansion):
    # the shared im/r term reads m from the FFT column, so aliased modes are refused
    top = max(f.max_mode() for f in expansion.terms.values())
    with pytest.raises(ValueError, match="n_theta"):
        modfit.Fit(expansion, PolarGrid(n_theta=2 * top))


def test_fit_grid_must_lie_within_the_lab(expansion):
    # past the lab's r_max its splines extrapolate, so such a fit grid is refused
    r_max = expansion.lab.grid.r_max
    with pytest.raises(ValueError, match="r_max"):
        modfit.Fit(expansion, PolarGrid(r_max=r_max + 1.0))
    assert modfit.Fit(expansion, PolarGrid(r_max=r_max, n_r=101)).grid.r_max == r_max


def test_decompose_rejects_zero_lambda(expansion, fit):
    P = prof.ParamPoint(b=0.05, lam=0.1)
    with pytest.raises(ValueError, match="lambda must be positive"):
        modfit.decompose(prof.physical_field(expansion, P), prof.ParamPoint(b=0.05, lam=0.0),
                         fit)


def test_phase_equivariance(expansion, fit):
    P = prof.ParamPoint(b=0.04, lam=0.11, gamma=0.5)
    base = prof.physical_field(expansion, P)
    theta_shift = 1.1

    def shifted(pts):
        return base(pts) * np.exp(1j * theta_shift)

    dec0 = modfit.decompose(base, P, fit)
    dec1 = modfit.decompose(shifted, replace(P, gamma=0.5 + theta_shift), fit)
    assert abs(dec0.params.lam - dec1.params.lam) < 1e-9
    d = (dec1.params.gamma - dec0.params.gamma - theta_shift) % (2 * np.pi)
    assert min(d, 2 * np.pi - d) < 1e-8


def test_fit_rate_exact():
    ts = np.linspace(-1.0, -0.2, 20)
    lams = (0.5 - ts) / 2.0
    rep = modfit.fit_rate(ts, lams)
    assert rep.T_est == pytest.approx(0.5, abs=1e-12)
    assert rep.C0_est == pytest.approx(2.0, rel=1e-12)
    assert rep.residual < 1e-14


def test_fit_rate_noisy(rng):
    ts = np.linspace(-1.0, -0.2, 200)
    lams = (0.3 - ts) / 1.5 + rng.uniform(-1e-3, 1e-3, size=ts.size)
    lams = np.minimum.accumulate(lams)  # keep strictly decreasing
    lams -= 1e-9 * np.arange(ts.size)
    rep = modfit.fit_rate(ts, lams)
    assert abs(rep.C0_est - 1.5) < 1e-2 * 1.5


def test_fit_rate_rejects_bad_series():
    ts = np.linspace(-1, -0.5, 12)
    with pytest.raises(modfit.NonMonotoneSeries):
        modfit.fit_rate(ts, np.abs(np.sin(ts * 20)) + 1.0)
    with pytest.raises(ValueError):
        modfit.fit_rate(ts[:5], np.linspace(1, 0.5, 5))


def test_fit_rate_from_modulation_ode(lab, model):
    from nlsblow import modeqs

    consts = prof.derive_constants(model, lab)
    C0 = prof.compute_C0(prof.energy_for_C0(1.2, model, lab), model, lab)
    st = modeqs.existence_initial_state(t1=-0.4, C0=C0)
    tr = modeqs.integrate(st, consts, t_span=(st.t, -0.05))
    rep = modfit.fit_rate(tr.t, tr.lam)
    assert abs(rep.C0_est - C0) / C0 < 0.02


def test_phi_cutoff_smooth():
    r = np.linspace(0.0, 4.0, 400)
    psi = modfit.phi_prime(r)
    assert np.allclose(psi[r <= 1.0], r[r <= 1.0])
    assert np.allclose(psi[r >= 2.0], 3.0 - np.exp(-r[r >= 2.0]))
    dpsi = np.gradient(psi, r)
    # C¹ across the blend: numerical derivative stays close to phi_second
    assert np.max(np.abs(dpsi[5:-5] - phi_second(r)[5:-5])) < 5e-3


def test_lyapunov_zero_perturbation(expansion, model, lab):
    P = prof.ParamPoint(b=0.05, lam=0.1)
    L, n = 4.0, 256
    h = 2 * L / n
    x = -L + h * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    w = prof.physical_field(expansion, P)(np.stack([X, Y], axis=-1))
    fw = sim.ComplexField2D(L, w, 0.0)
    kv = model.k(np.stack([X, Y], axis=-1))
    val = modfit.lyapunov_I(P, fw, fw, 20.0, sim.Stepper(L, n, kv))
    assert val == 0.0


def test_lyapunov_matches_term_oracle(expansion, model, lab):
    # ũ = small pure-phase multiple of w: compare against an independent
    # term-by-term quadrature with plain numpy sums
    P = prof.ParamPoint(b=0.05, lam=0.1)
    L, n = 4.0, 256
    h = 2 * L / n
    x = -L + h * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    wv = prof.physical_field(expansion, P)(np.stack([X, Y], axis=-1))
    delta = 1e-3
    uv = wv * np.exp(1j * delta)
    kv = model.k(np.stack([X, Y], axis=-1))
    got = modfit.lyapunov_I(P, sim.ComplexField2D(L, uv, 0.0),
                            sim.ComplexField2D(L, wv, 0.0), 20.0, sim.Stepper(L, n, kv))

    ut = uv - wv
    kxf = 2 * np.pi * np.fft.fftfreq(n, d=h)
    uh = np.fft.fft2(ut)
    ux = np.fft.ifft2(1j * kxf[:, None] * uh)
    uy = np.fft.ifft2(1j * kxf[None, :] * uh)
    t1 = 0.5 * np.sum(np.abs(ux) ** 2 + np.abs(uy) ** 2) * h * h
    t2 = 0.5 * np.sum(np.abs(ut) ** 2) * h * h / P.lam ** 2
    t3 = np.sum(kv * (0.25 * np.abs(uv) ** 4 - 0.25 * np.abs(wv) ** 4
                      - (np.abs(wv) ** 2 * wv * np.conj(ut)).real)) * h * h
    rz = np.hypot(X, Y) / (20.0 * P.lam)
    psi = modfit.phi_prime(rz)
    with np.errstate(invalid="ignore", divide="ignore"):
        ex = np.where(rz > 0, X / (20.0 * P.lam) / np.where(rz > 0, rz, 1), 0.0)
        ey = np.where(rz > 0, Y / (20.0 * P.lam) / np.where(rz > 0, rz, 1), 0.0)
    t4 = 0.5 * (P.b / P.lam) * np.sum((20.0 * psi * (ex * ux + ey * uy)
                                       * np.conj(ut)).imag) * h * h
    oracle = t1 + t2 - t3 + t4
    assert got == pytest.approx(oracle, rel=1e-8)


def test_lyapunov_scalar_k_equals_constant_field(expansion):
    # a scalar k and the same constant on every node are one functional
    P = prof.ParamPoint(b=0.05, lam=0.1, alpha=(0.02, -0.01))
    L, n = 4.0, 128
    pts = sim.box_points(L, n)
    wv = prof.physical_field(expansion, P)(pts)
    uv = wv * (1.0 + 1e-2 * np.exp(-np.sum(pts ** 2, axis=-1)))
    u, w = sim.ComplexField2D(L, uv, 0.0), sim.ComplexField2D(L, wv, 0.0)
    scalar = modfit.lyapunov_I(P, u, w, 20.0, sim.Stepper(L, n, 0.9))
    field = modfit.lyapunov_I(P, u, w, 20.0, sim.Stepper(L, n, np.full((n, n), 0.9)))
    assert scalar == pytest.approx(field, rel=1e-12)


def test_virial_boundary_zero_eps(expansion, lab):
    grid = PolarGrid()
    dec = modfit.Decomposition(
        params=prof.ParamPoint(b=0.05, lam=0.1), epsilon=np.zeros((grid.n_r, grid.n_theta), dtype=complex),
        eps_dr=np.zeros((grid.n_r, grid.n_theta), dtype=complex),
        fit_grid=grid, residuals=np.zeros(7), jacobian_cond=1.0, eps_l2=0.0, eps_h1=0.0,
        newton_iterations=0)
    val = modfit.virial_boundary(dec, 20.0, lab.moments.ymomQ)
    assert val == pytest.approx(-(0.05 / 0.1) * lab.moments.ymomQ / 4.0, rel=1e-12)


def test_coercivity_random_draws(expansion, fit, model, lab, rng):
    # a light version of the acceptance criterion: 12 draws, single fitted c
    P = prof.ParamPoint(b=0.1, lam=0.1)
    grid = fit.grid
    w = fit.window_fields(P)
    L, n = 4.0, 256
    h = 2 * L / n
    x = -L + h * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    wv = prof.physical_field(expansion, P)(np.stack([X, Y], axis=-1))
    kv = model.k(np.stack([X, Y], axis=-1))
    ratios = []
    for _ in range(12):
        eps = constrained_random_eps(w, grid, rng)
        ut = rescaled_perturbation(eps, grid, P, model, L, n)
        u = sim.ComplexField2D(L, wv + ut, 0.0)
        I = modfit.lyapunov_I(P, u, sim.ComplexField2D(L, wv, 0.0), 20.0,
                              sim.Stepper(L, n, kv))
        dr_eps, dth_eps = grid.gradient(eps)
        h1sq = grid.integral(np.abs(eps) ** 2 + np.abs(dr_eps) ** 2 + np.abs(dth_eps) ** 2)
        ratios.append(P.lam ** 2 * I / h1sq)
    ratios = np.array(ratios)
    assert np.all(ratios > 0)
    assert ratios.min() > 0.01
