"""Modulation ODE: closed forms, conformal ray, and the s⁻² linear system."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsblow import modeqs, profile as prof
from nlsblow.config import RunConfig
from nlsblow.kmodel import InhomogeneityModel


@pytest.fixture(scope="module")
def consts(lab):
    model = InhomogeneityModel(hessian=-0.2 * np.eye(2))
    return prof.derive_constants(model, lab)


@pytest.fixture(scope="module")
def consts_zero(lab):
    return prof.derive_constants(InhomogeneityModel(hessian=np.zeros((2, 2))), lab)


RTOL = modeqs.RTOL_DEFAULT


def _band_consts(lab, e1, e2, phi, third, k1):
    """The profile constants of one k from the benchmark's band, as its config carries it."""
    c, s = np.cos(phi), np.sin(phi)
    hxy = c * s * (e1 - e2)
    cfg = RunConfig()
    cfg.data["kmodel"] = {"hessian": [[c * c * e1 + s * s * e2, hxy],
                                      [hxy, s * s * e1 + c * c * e2]],
                          "third": list(third), "k1": k1}
    return prof.derive_constants(cfg.model(), lab)


def test_homogeneous_closed_form(consts_zero):
    # b(1) = 1, α = β = 0, d0 ≡ 0: b(s) = 1/s, λ(s) = λ(1)/s exactly
    st = prof.ParamPoint(b=1.0, lam=0.7, s=1.0)
    tr = modeqs.integrate(st, consts_zero, s_span=(1.0, 200.0))
    assert np.max(np.abs(tr.b - 1.0 / tr.s)) <= 10 * RTOL
    assert np.max(np.abs(tr.lam - 0.7 / tr.s)) <= 10 * RTOL


def test_conserved_quantities_homogeneous(consts_zero):
    # with α = β = 0 and d0 = 0, b·s and λ·s are exact integrals
    st = prof.ParamPoint(b=0.5, lam=0.5, s=2.0)
    tr = modeqs.integrate(st, consts_zero, s_span=(2.0, 500.0))
    bs = tr.b * (tr.s + (1.0 / st.b - st.s))
    assert np.max(np.abs(bs - 1.0)) < 100 * RTOL


def test_backward_forward_roundtrip(consts):
    st = prof.ParamPoint(b=1e-3, lam=1e-3, beta=np.array([1e-5, -2e-5]),
                         alpha=np.array([2e-5, 1e-5]), s=10.0)
    back = modeqs.integrate(st, consts, s_span=(10.0, 1000.0))
    end = back.state(-1)
    fwd = modeqs.integrate(end, consts, s_span=(end.s, 10.0))
    v0, v1 = st.to_vector(), fwd.state(-1).to_vector()
    assert np.max(np.abs(v0 - v1)) <= 100 * RTOL * max(1.0, np.max(np.abs(v0)))


def test_integrate_rejects_zero_lambda(consts):
    st = prof.ParamPoint(b=0.1, lam=0.0, s=1.0)
    with pytest.raises(ValueError, match="lambda must be positive"):
        modeqs.integrate(st, consts, s_span=(1.0, 2.0))


def _hand_rhs(vec, c):
    """The modulation system written out by hand: the oracle of the law table."""
    b, lam = vec[0], vec[1]
    beta = vec[2:4]
    alpha = vec[4:6]
    out = np.empty(9)
    out[0] = -b * b + alpha @ c.d0_form @ alpha
    out[1] = -b * lam
    out[2:4] = -b * beta + lam * (c.c0_map @ alpha) + c.beta3 * lam ** 3
    out[4:6] = 2.0 * beta * lam
    out[6] = 1.0 + beta @ beta - alpha @ c.d1_form @ alpha
    out[7] = 1.0
    out[8] = lam * lam
    return out


nonzero = st.floats(-0.3, 0.3).filter(lambda x: abs(x) >= 1e-3)


@settings(deadline=None, max_examples=40)
@given(e1=st.floats(-0.25, -0.15), e2=st.floats(-0.25, -0.15), phi=st.floats(0.0, np.pi),
       third=st.lists(st.floats(-0.03, 0.03), min_size=4, max_size=4),
       k1=st.floats(0.45, 0.55), b=st.floats(-0.5, 0.5), lam=st.floats(1e-3, 0.5),
       beta=st.lists(nonzero, min_size=2, max_size=2),
       alpha=st.lists(nonzero, min_size=2, max_size=2),
       clocks=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
def test_law_table_matches_hand_written_rhs(lab, e1, e2, phi, third, k1, b, lam, beta,
                                            alpha, clocks):
    consts = _band_consts(lab, e1, e2, phi, third, k1)
    vec = np.array([b, lam, *beta, *alpha, *clocks])
    want = _hand_rhs(vec, consts)
    got = modeqs.modulation_rhs(vec, *modeqs.law_matrices(consts))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_existence_data_stays_on_ray(consts):
    C0 = 1.0
    st = modeqs.existence_initial_state(t1=-0.1, C0=C0)
    tr = modeqs.integrate(st, consts, s_span=(st.s, 1000.0))
    mask = tr.s >= 10.0
    dev = np.abs(tr.b[mask] / tr.lam[mask] - 1.0 / C0)
    assert np.all(dev <= 5.0 * tr.lam[mask] ** 2 + 100 * RTOL)
    # λ(s)·s -> C0
    assert abs(tr.lam[-1] * tr.s[-1] - C0) / C0 < 0.01


def test_clock_consistency(consts):
    st = prof.ParamPoint(b=0.02, lam=0.02, s=50.0, t=-2.0)
    tr = modeqs.integrate(st, consts, s_span=(50.0, 800.0))
    # the two clocks: s vs t through ds/dt = 1/λ²
    from scipy.integrate import cumulative_trapezoid

    s_rec = st.s + cumulative_trapezoid(1.0 / tr.lam ** 2,
                                        tr.t, initial=0.0)
    assert np.max(np.abs(s_rec - tr.s)) < 1e-4 * tr.s[-1]


def test_integration_in_t(consts):
    C0 = 1.0
    st = modeqs.existence_initial_state(t1=-0.3, C0=C0)
    tr = modeqs.integrate(st, consts, t_span=(st.t, -0.05))
    # λ(t) = -t/C0 exactly on the ray
    assert np.max(np.abs(tr.lam + tr.t / C0)) < 1e-8
    # s is an integrated state: s = C0²/|t| exactly on the ray (T = 0)
    assert np.max(np.abs(tr.s * np.abs(tr.t) / C0 ** 2 - 1.0)) < 1e-8


@pytest.mark.parametrize("C0, t1", [(1.0, -0.3), (1.3, -0.4), (0.8, -0.2)])
def test_cross_clock_roundtrip(consts, C0, t1):
    # forward in t, back in s to the start s: both clocks come back with the rest
    st = modeqs.existence_initial_state(t1=t1, C0=C0)
    fwd = modeqs.integrate(st, consts, t_span=(st.t, -0.05))
    end = fwd.state(-1)
    back = modeqs.integrate(end, consts, s_span=(end.s, st.s))
    v0, v1 = st.to_vector(), back.state(-1).to_vector()
    assert np.max(np.abs(v0 - v1)) <= 100 * RTOL * max(1.0, np.max(np.abs(v0)))


@pytest.mark.parametrize("span", [(-0.05,), (-0.3, -0.2, -0.05), ()])
def test_integrate_rejects_bad_span(consts, span):
    st = modeqs.existence_initial_state(t1=-0.3, C0=1.0)
    with pytest.raises(ValueError, match="t_span must be two numbers"):
        modeqs.integrate(st, consts, t_span=span)


def test_lam_min_stop(consts):
    st = modeqs.existence_initial_state(t1=-0.1, C0=1.0)
    tr = modeqs.integrate(st, consts, s_span=(st.s, 1e9), lam_min=1e-3)
    assert tr.status == "lam_min"
    assert tr.lam[-1] >= 1e-3 - 1e-9


@pytest.fixture(scope="module", params=["round", "skew"])
def band_consts(request, lab):
    if request.param == "round":
        return _band_consts(lab, -0.2, -0.2, 0.0, [0.0] * 4, 0.5)
    return _band_consts(lab, -0.15, -0.25, 0.7, [0.03, -0.02, 0.01, -0.03], 0.45)


def _solve_ivp_reference(state0, consts, s_span=None, t_span=None,
                         lam_min=modeqs.LAM_MIN_DEFAULT, n_points=400):
    """(states, status, rhs evaluations, rejected steps) of the system integrated by
    scipy's solve_ivp(RK45, dense_output, a terminal λ = lam_min event), or
    (StepUnderflow message, None, ...) where it fails."""
    from scipy.integrate import solve_ivp

    span, clock = (s_span, 7) if t_span is None else (t_span, 8)
    exponents, coeffs = modeqs.law_matrices(consts)

    def rhs(x, v):
        f = modeqs.modulation_rhs(v, exponents, coeffs)
        return f / f[clock]

    def hit_lam_min(x, v):
        return v[1] - lam_min

    hit_lam_min.terminal = True
    sol = solve_ivp(rhs, span, state0.to_vector(), method="RK45", rtol=modeqs.RTOL_DEFAULT,
                    atol=modeqs.ATOL_DEFAULT, dense_output=True, events=hit_lam_min)
    if sol.status == -1:
        return sol.message, None, sol.nfev, None
    xs = np.linspace(span[0], span[1], n_points)
    direction = np.sign(span[1] - span[0])
    xs = xs[(xs - span[0]) * direction <= (sol.t[-1] - span[0]) * direction + 1e-300]
    # one evaluation for f(x0), one for the initial step, six per step attempt
    rejected = (sol.nfev - 2) // 6 - (sol.t.size - 1)
    return sol.sol(xs).T, "lam_min" if sol.t_events[0].size else "completed", sol.nfev, rejected


ON_RAY = modeqs.existence_initial_state(t1=-0.1, C0=1.0)
OFF_RAY = prof.ParamPoint(b=1e-3, lam=1e-3, beta=np.array([1e-5, -2e-5]),
                          alpha=np.array([2e-5, 1e-5]), s=10.0)
FAR = prof.ParamPoint(b=0.3, lam=0.2, beta=np.array([0.01, -0.02]),
                      alpha=np.array([0.02, 0.01]), s=1.0, t=-0.5)
# its first step is rejected, and the step after it would grow without the
# controller's no-growth-after-rejection rule
KICKED = prof.ParamPoint(b=0.08, lam=0.18, beta=np.array([0.14, -0.07]),
                         alpha=np.array([-0.03, -0.017]), s=1.0, t=-0.5)
BITWISE_CASES = {
    "s-forward": (ON_RAY, dict(s_span=(ON_RAY.s, 500.0))),
    "s-forward-two": (OFF_RAY, dict(s_span=(10.0, 1000.0), n_points=2)),
    "s-backward": (OFF_RAY, dict(s_span=(10.0, 2.0))),
    "t-forward-two": (ON_RAY, dict(t_span=(ON_RAY.t, -1e-3), n_points=2)),
    "t-forward-rejects": (KICKED, dict(t_span=(-0.5, -0.4))),
    "t-backward-rejects": (FAR, dict(t_span=(-0.5, -0.9))),
    "lam-min": (ON_RAY, dict(s_span=(ON_RAY.s, 2000.0), lam_min=1e-3)),
    "zero-span": (FAR, dict(s_span=(1.0, 1.0))),
    # b_s = -b² from b = -1 blows up at s = 2
    "underflow": (prof.ParamPoint(b=-1.0, lam=0.5, s=1.0), dict(s_span=(1.0, 3.0))),
}


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_integrate_is_solve_ivp_bit_for_bit(band_consts, case, monkeypatch):
    import scipy

    state0, kwargs = BITWISE_CASES[case]
    want, want_status, nfev, rejected = _solve_ivp_reference(state0, band_consts, **kwargs)
    calls = []
    real_rhs = modeqs.modulation_rhs
    monkeypatch.setattr(modeqs, "modulation_rhs", lambda *a: calls.append(1) or real_rhs(*a))
    where = f"differs from scipy {scipy.__version__}'s solve_ivp(RK45)"
    if want_status is None:
        with pytest.raises(modeqs.StepUnderflow) as err:
            modeqs.integrate(state0, band_consts, **kwargs)
        assert str(err.value) == want, where
    else:
        tr = modeqs.integrate(state0, band_consts, **kwargs)
        assert tr.status == want_status, where
        assert tr.states.shape == want.shape, where
        assert tr.states.tobytes() == want.tobytes(), where
    if case == "zero-span":
        assert not calls and np.all(tr.states == state0.to_vector())
    else:
        assert len(calls) == nfev, where
    if case.endswith("rejects"):
        assert rejected >= 1
    if case == "lam-min":
        assert want_status == "lam_min" and tr.states.shape[0] > 100
    if case == "underflow":
        assert want_status is None


def test_alpha_beta_subsystem_reduction(lab):
    # on the ray background (λ = C0/s, b = 1/s), w = s·α(s) in a c0-eigenframe
    # solves w_ss + 2ς w/s² = 0 with ς = -r C0² (r < 0 the c0 eigenvalue)
    model = InhomogeneityModel(hessian=-0.2 * np.eye(2))
    c = prof.derive_constants(model, lab)
    C0 = 1.3
    r_eig = np.linalg.eigvalsh(c.c0_map)[0]
    varsig = -r_eig * C0 ** 2
    assert varsig > 0
    sys = modeqs.basis(varsig)

    from scipy.integrate import solve_ivp

    def rhs(s, y):
        al, be = y[0:2], y[2:4]
        lam, b = C0 / s, 1.0 / s
        return np.concatenate([2 * be * lam, -b * be + lam * (c.c0_map @ al)])

    s0, s1 = 5.0, 400.0
    # start on the closed-form branch α = z(s)/s
    z0, dz0 = sys.z_plus(s0), sys.dz_plus(s0)
    al0 = z0 / s0
    dal0 = dz0 / s0 - z0 / s0 ** 2
    be0 = dal0 * s0 / (2 * C0)
    y0 = np.array([al0, 0.0, be0, 0.0])
    sol = solve_ivp(rhs, (s0, s1), y0, rtol=1e-12, atol=1e-14, dense_output=True)
    ss = np.linspace(s0, s1, 60)
    alpha_num = sol.sol(ss)[0]
    alpha_exact = sys.z_plus(ss) / ss
    assert np.max(np.abs(alpha_num - alpha_exact)) < 1e-8 * np.max(np.abs(alpha_exact))


# ---------------------------------------------------------------------------
# the s⁻² linear system
# ---------------------------------------------------------------------------

def test_basis_values():
    sys = modeqs.basis(0.125)
    s = np.array([2.0, 5.0])
    assert np.allclose(sys.z_plus(s), np.sqrt(s) * np.log(s))
    assert np.allclose(sys.z_minus(s), np.sqrt(s))
    assert sys.wronskian == pytest.approx(0.5)
    sys2 = modeqs.basis(0.25)
    assert sys2.regime == "oscillatory"
    # determinant of the fundamental matrix [[z, -z_s/2]]: -sqrt(8ς-1)/4
    assert sys2.wronskian == pytest.approx(-np.sqrt(8 * 0.25 - 1.0) / 4.0)


@pytest.mark.parametrize("varsig", [0.05, 0.125, 0.5])
def test_basis_solves_homogeneous(varsig):
    sys = modeqs.basis(varsig)
    s = np.linspace(2.0, 50.0, 200)
    assert sys.homogeneous_residual(s) < 1e-8


def test_wronskian_is_constant_determinant():
    for varsig in (0.05, 0.125, 0.5):
        sys = modeqs.basis(varsig)
        for s in (2.0, 7.0, 31.0):
            Zp, Zm = sys.Z_plus(s), sys.Z_minus(s)
            det = Zp[0] * Zm[1] - Zp[1] * Zm[0]
            assert det == pytest.approx(sys.wronskian, rel=1e-12)


@pytest.mark.parametrize("varsig", [0.05, 0.125, 0.5])
def test_voc_matches_direct_integration(varsig):
    sys = modeqs.basis(varsig)

    def F(s):
        return (s ** -3.0, 0.0)

    s_pts = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    Z = modeqs.decaying_solution(sys, F, s_pts)
    # integrate backward from the largest s where Z is known
    flow = modeqs.integrate_linear_system(sys, F, s_pts[-1], s_pts[0], Z[:, -1])
    Z_ode = flow(s_pts)
    assert np.max(np.abs(Z - Z_ode)) < 1e-8 * max(1.0, np.max(np.abs(Z)))


def test_zero_forcing_zero_solution():
    sys = modeqs.basis(0.3)
    Z = modeqs.decaying_solution(sys, lambda s: (0.0, 0.0), np.array([2.0, 10.0]))
    assert np.allclose(Z, 0.0)


def test_bound_ratio_stable():
    forcings = [lambda s: (s ** -3, 0.0), lambda s: (0.0, s ** -3.5),
                lambda s: (np.sin(s) * s ** -3.5, s ** -4)]
    for varsig in (0.05, 0.125, 0.5):
        sys = modeqs.basis(varsig)
        for F in forcings:
            r1 = modeqs.bound_report(sys, F, np.array([2.0, 5.0, 10.0]))
            r2 = modeqs.bound_report(sys, F, np.array([2.0, 10.0, 20.0]))
            assert np.isfinite(r1["max_ratio"])
            assert r1["max_ratio"] < 10.0
            assert abs(r2["max_ratio"] - r1["max_ratio"]) <= 0.5 * (1 + r1["max_ratio"])


def test_varsig_must_be_positive():
    with pytest.raises(ValueError):
        modeqs.basis(-0.1)
    with pytest.raises(ValueError):
        modeqs.basis(0.0)
