"""Split-step solver: exact solutions, conservation, ordering, I/O."""

import struct

import numpy as np
import pytest

from nlsblow import profile as prof, sim
from nlsblow.fields import AngularField
from nlsblow.kmodel import InhomogeneityModel
from nlsblow.modeqs import existence_initial_state


def _q_of_r(lab):
    """Q(r) through the lab's cubic spline, 0 beyond r_max."""
    q = AngularField.radial(lab.grid, lab.Q.values)
    return lambda r: q.at(np.stack([r, np.zeros_like(r)], axis=-1)).real


def _init_from_profile(expansion, gamma0, t1, L, n):
    """The blow-up data at t1 from the expansion, through sim.init_from_profile."""
    st = existence_initial_state(t1, expansion.C0, gamma0)
    return sim.init_from_profile(prof.physical_field(expansion, st), st.lam, t1, L, n)


def _grid(L, n):
    h = 2 * L / n
    x = -L + h * np.arange(n)
    return np.meshgrid(x, x, indexing="ij")


def test_field_invariants():
    with pytest.raises(ValueError):
        sim.ComplexField2D(8.0, np.zeros((100, 100), dtype=complex))
    with pytest.raises(sim.BlowupNaN):
        sim.ComplexField2D(8.0, np.full((64, 64), np.nan, dtype=complex))


def test_step_raises_blowup_nan_naming_t():
    # NaN k samples poison the nonlinear phase: the stepped field's scan aborts
    L, n = 8.0, 16
    X, Y = _grid(L, n)
    f = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2)) + 0j, -0.25)
    st = sim.Stepper(L, n, np.full((n, n), np.nan))
    with pytest.raises(sim.BlowupNaN, match=r"at t = -0\.249$"):
        sim.step(f, 0.001, st)


def test_free_gaussian_linear_regime():
    # amplitude 1e-6: the cubic term is negligible, compare to the exact
    # free evolution (1+4iat)^{-1} exp(-a|x|²/(1+4iat))
    L, n, a = 10.0, 256, 0.5
    X, Y = _grid(L, n)
    amp = 1e-6
    u0 = amp * np.exp(-a * (X ** 2 + Y ** 2))
    f = sim.ComplexField2D(L, u0, 0.0)
    st = sim.Stepper(L, n, np.ones((n, n)))
    T, dt = 0.4, 0.002
    for _ in range(int(round(T / dt))):
        f = sim.step(f, dt, st)
    z = 1.0 + 4j * a * T
    exact = amp / z * np.exp(-a * (X ** 2 + Y ** 2) / z)
    assert np.max(np.abs(f.values - exact)) / amp < 1e-6


def test_pseudo_conformal_short_window(lab):
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)), splitting_order=4)
    while f.t < -0.4 - 1e-12:
        f = sim.step(f, min(0.002, -0.4 - f.t), st)
    exact = sim.pseudo_conformal_field(_q_of_r(lab), 1.0, f.t, X, Y)
    assert np.max(np.abs(f.values - exact)) < 2e-4


def test_dt_halving_second_order(lab):
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    errs = []
    for dt in (0.004, 0.002):
        f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
        st = sim.Stepper(L, n, np.ones((n, n)))
        nsteps = int(round(0.06 / dt))
        for _ in range(nsteps):
            f = sim.step(f, dt, st)
        exact = sim.pseudo_conformal_field(_q_of_r(lab), 1.0, f.t, X, Y)
        errs.append(np.max(np.abs(f.values - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5


def test_mass_conservation_inhomogeneous(lab):
    model = InhomogeneityModel(hessian=-0.2 * np.eye(2))
    L, n = 8.0, 256
    X, Y = _grid(L, n)
    kv = model.k(np.stack([X, Y], axis=-1))
    u0 = sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.6, X, Y)
    f = sim.ComplexField2D(L, u0, -0.6)
    st = sim.Stepper(L, n, kv)
    m0 = np.sum(np.abs(f.values) ** 2) * f.h ** 2
    for _ in range(100):
        f = sim.step(f, 0.002, st)
    m1 = np.sum(np.abs(f.values) ** 2) * f.h ** 2
    assert abs(m1 - m0) / m0 < 1e-9 * 100 * 0.002 + 1e-12


def test_time_reversal(lab):
    L, n = 10.0, 256
    X, Y = _grid(L, n)
    u0 = sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.7, X, Y)
    f0 = sim.ComplexField2D(L, u0, -0.7)
    st = sim.Stepper(L, n, np.ones((n, n)))
    f = f0.copy()
    for _ in range(40):
        f = sim.step(f, 0.003, st)
    for _ in range(40):
        f = sim.step(f, -0.003, st)
    assert np.max(np.abs(f.values - f0.values)) / np.max(np.abs(f0.values)) < 1e-7


def test_energy_drift_small(lab):
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)), splitting_order=4)
    _, e0, _ = sim.conserved(f, None, st)
    for _ in range(100):
        f = sim.step(f, 0.0005, st)
    _, e1, _ = sim.conserved(f, None, st)
    assert abs(e1 - e0) / abs(e0) < 1e-6


@pytest.fixture(scope="module")
def profile_expansion(lab):
    model = InhomogeneityModel(hessian=-0.2 * np.eye(2))
    return prof.build_expansion(model, C0=1.0, lab=lab)


def test_init_from_profile_mass(lab, profile_expansion):
    L, n = 12.0, 1024
    devs = {}
    for t1 in (-0.4, -0.2):
        f = _init_from_profile(profile_expansion, 0.0, t1, L, n)
        mass = np.sum(np.abs(f.values) ** 2) * f.h ** 2
        lam = -t1 / 1.0
        devs[t1] = abs(mass - lab.moments.massQ)
        # mass deviates from ∫Q² by O(λ⁴); the envelope constant is modest
        assert devs[t1] < 5.0 * lam ** 4
    # two-point scaling: halving t1 shrinks the deviation by about 2⁴
    assert devs[-0.2] < devs[-0.4] / 12.0


def test_init_phase_equivariance(profile_expansion):
    a = _init_from_profile(profile_expansion, 0.0, -0.3, 6.0, 512)
    b = _init_from_profile(profile_expansion, 0.75, -0.3, 6.0, 512)
    assert np.allclose(b.values, a.values * np.exp(0.75j), atol=1e-12)


def test_init_resolution_guard(profile_expansion):
    with pytest.raises(sim.ResolutionBreach):
        _init_from_profile(profile_expansion, 0.0, -0.05, 12.0, 128)


def test_momentum_zero_even_data(lab, profile_expansion):
    model = InhomogeneityModel(hessian=-0.2 * np.eye(2))
    L, n = 6.0, 512
    X, Y = _grid(L, n)
    kv = model.k(np.stack([X, Y], axis=-1))
    f = _init_from_profile(profile_expansion, 0.0, -0.3, L, n)
    st = sim.Stepper(L, n, kv)
    mass0, _, _ = sim.conserved(f, None, st)
    for _ in range(60):
        f = sim.step(f, 0.001, st)
        _, _, mom = sim.conserved(f, None, st)
        lam = sim.lambda_proxy(f, st, lab.moments.gradQ, lab.moments.massQ)
        assert np.max(np.abs(mom)) <= 1e-6 * mass0 / lam


def test_run_termination_and_strides(lab, profile_expansion):
    L, n = 6.0, 512
    X, Y = _grid(L, n)
    f0 = _init_from_profile(profile_expansion, 0.0, -0.3, L, n)
    cfg = sim.SimConfig(c_dt=0.02, lam_stop=0.2,
                        series_stride=4, snapshot_stride=16)
    res = sim.run(cfg, f0, np.ones((n, n)), lab.moments.gradQ, lab.moments.massQ)
    assert res.reason == "lam_stop"
    assert res.series["lambda_proxy"][-1] < 0.2 * 1.1
    assert len(res.snapshots) >= 2
    # stop rule fires exactly when the proxy crosses the floor
    above = res.series["lambda_proxy"][:-1]
    assert np.all(above[:-1] >= 0.2 * 0.8)


def test_run_leaves_field0_unchanged():
    # run keeps field0 and the emitted snapshots without copies: no step writes into them
    L, n = 8.0, 64
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) * np.exp(0.2j * X), -0.5)
    before = f0.values.copy()
    st = sim.Stepper(L, n, np.ones((n, n)))
    grad_ref = (2.0 / sim.lambda_proxy(f0, st, 1.0, 1.0)) ** 2     # λ_est = 2 > 4h
    cfg = sim.SimConfig(c_dt=0.01, max_steps=12, series_stride=3, snapshot_stride=2)
    res = sim.run(cfg, f0, np.ones((n, n)), grad_ref=grad_ref, mass_ref=1.0)
    assert np.array_equal(f0.values, before)
    assert res.snapshots[0] is f0
    assert len({id(s.values) for s in res.snapshots}) == len(res.snapshots)


def test_lam_stop_validation():
    # the floor is the field's own 4h = 0.75 > 0.1; run refuses before any step
    L, n = 12.0, 128
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) + 0j, -0.5)
    with pytest.raises(ValueError, match="lam_stop"):
        sim.run(sim.SimConfig(lam_stop=0.1), f0, np.ones((n, n)), grad_ref=1.0, mass_ref=1.0)


def test_snapshot_roundtrip(tmp_path, lab):
    X, Y = _grid(8.0, 128)
    f = sim.ComplexField2D(8.0, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
    p = tmp_path / "snap.bin"
    sim.write_snapshot(p, f)
    g = sim.read_snapshot(p)
    assert g.n == f.n and g.L == f.L and g.t == f.t
    assert np.array_equal(g.values, f.values)
    # documented layout: n uint64, L float64, t float64, then re/im pairs
    raw = np.fromfile(p, dtype="<u8", count=1)
    assert raw[0] == 128


def test_spectral_tail_small(profile_expansion):
    f = _init_from_profile(profile_expansion, 0.0, -0.3, 6.0, 512)
    assert sim.Stepper(f.L, f.n, 1.0).spectral_tail_fraction(f.values) < 1e-10


def test_run_emits_final_state_once():
    # the last step lands on both strides: the stop must not repeat that state
    L, n = 8.0, 64
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) + 0j, -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)))
    grad_ref = (2.0 / sim.lambda_proxy(f0, st, 1.0, 1.0)) ** 2     # λ_est = 2 > 4h
    cfg = sim.SimConfig(c_dt=0.01, max_steps=8,
                        series_stride=4, snapshot_stride=4)
    res = sim.run(cfg, f0, np.ones((n, n)), grad_ref=grad_ref, mass_ref=1.0)
    assert res.reason == "max_steps"
    assert res.series["t"].size == 3
    assert np.all(np.diff(res.series["t"]) > 0)
    assert [s.t for s in res.snapshots] == list(res.series["t"])


def test_run_takes_one_gradient_per_recorded_state(monkeypatch):
    # a dt refresh on a series step reuses the row's λ_est: steps 5, 10, 15, 20
    # are recorded and 10, 20 are refreshes, so 1 + 4 gradients' moments in all
    L, n = 8.0, 64
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) + 0j, -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)))
    grad_ref = (2.0 / sim.lambda_proxy(f0, st, 1.0, 1.0)) ** 2     # λ_est = 2 > 4h
    calls = []
    moments = sim.Stepper.gradient_moments

    def counting(self, u):
        calls.append(1)
        return moments(self, u)

    monkeypatch.setattr(sim.Stepper, "gradient_moments", counting)
    cfg = sim.SimConfig(c_dt=0.01, max_steps=20,
                        series_stride=5, dt_refresh_every=10, snapshot_stride=100)
    res = sim.run(cfg, f0, np.ones((n, n)), grad_ref=grad_ref, mass_ref=1.0)
    assert res.series["t"].size == 5
    assert len(calls) == 5


@pytest.mark.parametrize("order", [2, 4])
def test_run_fft_count(monkeypatch, order):
    # 2 transforms per sub-step, 1 per series row and 1 per dt refresh off a
    # row: rows at steps 0, 4, …, 20; refreshes at 6, 12, 18, of which 12 is
    # a row; snapshots and the closing of the state take none
    L, n = 8.0, 32
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) + 0j, -0.5)
    grad_ref = (2.0 / sim.lambda_proxy(f0, sim.Stepper(L, n, 1.0), 1.0, 1.0)) ** 2
    calls = []
    for name in ("fft2", "ifft2"):
        transform = getattr(sim._fft, name)

        def counting(*args, _transform=transform, **kwargs):
            calls.append(1)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(sim._fft, name, counting)
    cfg = sim.SimConfig(c_dt=0.01, max_steps=20, splitting_order=order,
                        series_stride=4, dt_refresh_every=6, snapshot_stride=5)
    res = sim.run(cfg, f0, 1.0, grad_ref=grad_ref, mass_ref=1.0)
    assert res.series["t"].size == 6
    assert len(calls) == 2 * 20 * (1 if order == 2 else 3) + 6 + 2


@pytest.mark.parametrize("k_kind", ["array", "scalar"])
def test_series_row_matches_conserved(k_kind):
    # the row's one-fft2 invariants (Parseval) against conserved's physical
    # gradient, on a smooth periodic field with momentum in both directions
    L, n = 4.0, 64
    X, Y = _grid(L, n)
    rng = np.random.default_rng(3)
    modes = rng.normal(size=(5, 5, 2)) @ np.array([1.0, 1j])
    u = sum(modes[a, b] * np.exp(1j * np.pi * ((a - 2) * X + (b - 2) * Y) / L)
            for a in range(5) for b in range(5))
    f0 = sim.ComplexField2D(L, u, -0.5)
    kv = 1.0 - 0.02 * (X ** 2 + Y ** 2) if k_kind == "array" else 0.8
    st = sim.Stepper(L, n, kv)
    grad_ref = (2.0 / sim.lambda_proxy(f0, st, 1.0, 1.0)) ** 2     # λ_est = 2 > 4h
    res = sim.run(sim.SimConfig(max_steps=0), f0, kv, grad_ref=grad_ref, mass_ref=1.0)
    row = {key: val[0] for key, val in res.series.items()}
    mass, energy, mom = sim.conserved(f0, kv)
    ux, uy = st.gradient(u)
    grad2 = np.sum(np.abs(ux) ** 2 + np.abs(uy) ** 2) * f0.h ** 2
    assert row["mass"] == pytest.approx(mass, rel=1e-12)
    assert row["energy"] == pytest.approx(energy, rel=1e-12)
    assert row["grad_norm"] ** 2 == pytest.approx(grad2, rel=1e-12)
    assert np.min(np.abs(mom)) > 1e-3 * np.max(np.abs(mom))
    assert row["momentum_x"] == pytest.approx(mom[0], rel=1e-12)
    assert row["momentum_y"] == pytest.approx(mom[1], rel=1e-12)
    # run's first λ_est is lambda_proxy of field0, to the bit
    assert row["lambda_proxy"] == sim.lambda_proxy(f0, st, grad_ref, 1.0)


def test_read_snapshot_rejects_zero_n_header(tmp_path):
    p = tmp_path / "zero.bin"
    p.write_bytes(struct.pack("<Qdd", 0, 8.0, -0.5))
    with pytest.raises(ValueError, match="zero.bin.*n = 0.*power of two"):
        sim.read_snapshot(p)


def test_read_snapshot_rejects_truncated_payload(tmp_path):
    X, Y = _grid(8.0, 32)
    p = tmp_path / "cut.bin"
    sim.write_snapshot(p, sim.ComplexField2D(8.0, np.exp(-(X ** 2 + Y ** 2)) + 0j, -0.5))
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(ValueError, match="cut.bin.*n = 32.*24 \\+ 16·n²"):
        sim.read_snapshot(p)


def test_dt_halving_fourth_order(lab):
    # k ≡ 1: the pseudo-conformal field is exact, so the error is the
    # triple jump's; halving dt divides it by about 2⁴ (Strang's weights give 4)
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    errs = []
    for dt in (0.002, 0.001):
        f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
        st = sim.Stepper(L, n, np.ones((n, n)), splitting_order=4)
        for _ in range(int(round(0.04 / dt))):
            f = sim.step(f, dt, st)
        exact = sim.pseudo_conformal_field(_q_of_r(lab), 1.0, f.t, X, Y)
        errs.append(np.max(np.abs(f.values - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def _inhomogeneous(L, n):
    X, Y = _grid(L, n)
    kv = InhomogeneityModel(hessian=-0.2 * np.eye(2)).k(np.stack([X, Y], axis=-1))
    return X, Y, kv


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("snapshot_stride", [7, 1000])
def test_run_merged_steps_match_closed_steps(order, snapshot_stride):
    # run carries each step's last nonlinear half-step into the next one; a
    # replay of its dt sequence by closed steps reaches the same states, up to
    # the last step, which t_stop cuts to half a dt
    L, n = 8.0, 64
    X, Y, kv = _inhomogeneous(L, n)
    f0 = sim.ComplexField2D(L, 2.0 * np.exp(-(X ** 2 + Y ** 2)) * np.exp(0.3j * X), -0.5)
    st = sim.Stepper(L, n, kv, splitting_order=order)
    grad_ref = (2.0 / sim.lambda_proxy(f0, st, 1.0, 1.0)) ** 2     # λ_est = 2 > 4h
    dt = 0.001 * 2.0 ** 2
    cfg = sim.SimConfig(c_dt=0.001, t_stop=f0.t + 30.5 * dt, splitting_order=order,
                        series_stride=1000, dt_refresh_every=1000,
                        snapshot_stride=snapshot_stride)
    res = sim.run(cfg, f0, kv, grad_ref=grad_ref, mass_ref=1.0)
    assert res.reason == "t_stop"
    assert res.series["lambda_proxy"][0] == pytest.approx(2.0, rel=1e-12)
    dt = cfg.c_dt * res.series["lambda_proxy"][0] ** 2
    replay, f = {f0.t: f0.values}, f0
    while cfg.t_stop - f.t > 1e-14:
        f = sim.step(f, min(dt, cfg.t_stop - f.t), st)
        replay[f.t] = f.values
    assert len(replay) == 32
    assert [s.t for s in res.snapshots][-1] == f.t
    assert len(res.snapshots) == (6 if snapshot_stride == 7 else 2)
    for snap in res.snapshots:
        want = replay[snap.t]
        assert np.max(np.abs(snap.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_nonlinear_flow_keeps_modulus_and_composes():
    L, n = 8.0, 64
    X, Y, kv = _inhomogeneous(L, n)
    rng = np.random.default_rng(7)
    u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))    # θ up to ~6 rad
    st = sim.Stepper(L, n, kv)
    v = st.nonlinear(u, 0.37)
    assert np.max(np.abs(np.abs(v) - np.abs(u)) / np.abs(u)) <= 1e-15
    merged = st.nonlinear(u, 0.37 + 0.21)
    assert np.max(np.abs(st.nonlinear(v, 0.21) - merged)) <= 1e-14 * np.max(np.abs(u))


@pytest.mark.parametrize("order, lengths", [(2, 1), (4, 2)])
def test_propagator_cache_keeps_current_step(order, lengths):
    # one propagator per distinct sub-step length of the current dt; dt
    # changes at every refresh, so older ones are dropped
    L, n = 8.0, 32
    X, Y, kv = _inhomogeneous(L, n)
    f = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2)) + 0j, -0.5)
    st = sim.Stepper(L, n, kv, splitting_order=order)
    for dt in (0.01, 0.01, 0.008, 0.0065, 0.01, 0.003):
        f = sim.step(f, dt, st)
        assert len(st._prop_cache) == lengths
