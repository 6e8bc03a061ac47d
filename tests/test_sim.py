"""Split-step solver: exact solutions, conservation, ordering, I/O."""

import struct
import tracemalloc

import numpy as np
import pytest

from nlsblow import profile as prof, sim
from nlsblow.fields import AngularField
from nlsblow.kmodel import InhomogeneityModel
from nlsblow.modeqs import existence_initial_state

from helpers import step


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
        step(f, 0.001, st)


def test_run_raises_blowup_nan_at_the_first_poisoned_step():
    # one NaN node of k poisons the first step's nonlinear phase; run's
    # per-step Σ|u|² test stops there with the closed field's message
    L, n = 8.0, 128
    f0 = sim.init_from_profile(lambda x: np.exp(-(x[..., 0] ** 2 + x[..., 1] ** 2)) + 0j,
                               1.0, -0.25, L, n)
    k = np.ones((n, n))
    k[5, 7] = np.nan
    cfg = sim.SimConfig(c_dt=0.01, max_steps=10)
    dt = cfg.c_dt * sim.lambda_proxy(f0, sim.Stepper(L, n, k), 1.0, 1.0) ** 2
    with pytest.raises(sim.BlowupNaN) as closed:
        step(f0, dt, sim.Stepper(L, n, k))
    snaps = []
    with pytest.raises(sim.BlowupNaN) as ran:
        sim.run(cfg, f0, k, 1.0, 1.0, snapshot_sink=snaps.append)
    assert str(ran.value) == str(closed.value) == f"non-finite field samples at t = {f0.t + dt:.6g}"
    assert len(snaps) == 1 and snaps[0] is f0


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
        f = step(f, dt, st)
    z = 1.0 + 4j * a * T
    exact = amp / z * np.exp(-a * (X ** 2 + Y ** 2) / z)
    assert np.max(np.abs(f.values - exact)) / amp < 1e-6


def test_pseudo_conformal_short_window(lab):
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)), splitting_order=4)
    while f.t < -0.4 - 1e-12:
        f = step(f, min(0.002, -0.4 - f.t), st)
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
            f = step(f, dt, st)
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
        f = step(f, 0.002, st)
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
        f = step(f, 0.003, st)
    for _ in range(40):
        f = step(f, -0.003, st)
    assert np.max(np.abs(f.values - f0.values)) / np.max(np.abs(f0.values)) < 1e-7


def test_energy_drift_small(lab):
    L, n = 12.0, 512
    X, Y = _grid(L, n)
    f = sim.ComplexField2D(L, sim.pseudo_conformal_field(_q_of_r(lab), 1.0, -0.5, X, Y), -0.5)
    st = sim.Stepper(L, n, np.ones((n, n)), splitting_order=4)
    _, e0, _ = sim.conserved(f, None, st)
    for _ in range(100):
        f = step(f, 0.0005, st)
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
        f = step(f, 0.001, st)
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
    # a sub-step's linear flow takes 6 pruned passes: axis 0 over the n
    # columns, axis 1 over the two runs of kept rows, axis 0 over the two runs
    # of kept columns and axis 1 over the n rows, so 2(n + kept) lines with
    # kept = 21 of the 32 wavenumbers (|f| <= 1/3).  A series row and a dt
    # refresh off a row take one fft2, 2n lines: rows at steps 0, 4, …, 20;
    # refreshes at 6, 12, 18, of which 12 is a row; snapshots and the
    # closing of the state take none
    L, n, kept = 8.0, 32, 21
    X, Y = _grid(L, n)
    f0 = sim.ComplexField2D(L, np.exp(-(X ** 2 + Y ** 2) / 2.0) + 0j, -0.5)
    grad_ref = (2.0 / sim.lambda_proxy(f0, sim.Stepper(L, n, 1.0), 1.0, 1.0)) ** 2
    calls, lines = [], []
    for name in ("fft2", "ifft2"):
        transform = getattr(sim._fft, name)

        def counting(x, *args, axes=(-2, -1), _transform=transform, **kwargs):
            calls.append(1)
            lines.append(sum(x.size // x.shape[a] for a in axes))
            return _transform(x, *args, axes=axes, **kwargs)

        monkeypatch.setattr(sim._fft, name, counting)
    cfg = sim.SimConfig(c_dt=0.01, max_steps=20, splitting_order=order,
                        series_stride=4, dt_refresh_every=6, snapshot_stride=5)
    res = sim.run(cfg, f0, 1.0, grad_ref=grad_ref, mass_ref=1.0)
    assert res.series["t"].size == 6
    sub_steps = 20 * (1 if order == 2 else 3)
    assert len(calls) == 6 * sub_steps + 6 + 2
    assert sum(lines) == 2 * (n + kept) * sub_steps + 2 * n * (6 + 2)


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
            f = step(f, dt, st)
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
        f = step(f, min(dt, cfg.t_stop - f.t), st)
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
        f = step(f, dt, st)
        assert len(st._prop_cache) == lengths


# the contiguous split-step core of the unpadded layout, kept as the bitwise
# reference of the padded one
def _reference_nonlinear(st, u, tau):
    theta = u.real * u.real
    theta += u.imag * u.imag
    theta *= st.k
    theta *= tau
    out = sim._phase(theta)
    if u.size == 1:
        # numpy rounds a lone complex product by another formula than its
        # vector loop, which the kick runs over a padded row of 1 + ROW_PAD
        e, v = (np.pad(a, ((0, 0), (0, sim.ROW_PAD))) for a in (out, u))
        return (e * v)[:, :1]
    out *= u
    return out


def _reference_linear(st, u, tau):
    u_hat = sim._fft.fft2(u, overwrite_x=True)
    u_hat *= st._propagator(tau)
    return sim._fft.ifft2(u_hat, overwrite_x=True)


def _reference_step_values(st, u, dt, carry):
    for tau in [w * dt for w in st._weights]:
        u = _reference_linear(st, _reference_nonlinear(st, u, carry + 0.5 * tau), tau)
        carry = 0.5 * tau
    return u, carry


def _reference_gradient_moments(st, u):
    power = np.abs(sim._fft.fft2(u)) ** 2
    px, py = power.sum(axis=1), power.sum(axis=0)
    kx, ky = st.kx.ravel(), st.ky.ravel()
    n2 = float(st.n) ** 2
    return (((kx * kx) @ px + (ky * ky) @ py) / n2, (kx @ px) / n2, (ky @ py) / n2)


def _reference_tail_fraction(st, u):
    power = np.abs(sim._fft.fft2(u)) ** 2
    return float(np.sum(power[st._dealias_mask]) / (np.sum(power) + 1e-300))


def _reference_gradient(st, u):
    u_hat = sim._fft.fft2(u)
    return (sim._fft.ifft2(1j * st.kx * u_hat, overwrite_x=True),
            sim._fft.ifft2(1j * st.ky * u_hat, overwrite_x=True))


def _rough_data(L, n, seed):
    X, Y = _grid(L, n)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.exp(-(X ** 2 + Y ** 2) / 4.0) * (1.5 + 0.3 * noise)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("k_kind", ["scalar", "array"])
def test_step_values_bitwise_matches_contiguous_reference(n, order, k_kind):
    # chained steps with carries, the closing half-step and the spectral
    # diagnostics, on the stepped (padded) state and on a contiguous copy
    L = 8.0
    X, Y = _grid(L, n)
    kv = 0.8 if k_kind == "scalar" else 1.0 - 0.01 * (X ** 2 + Y ** 2)
    st = sim.Stepper(L, n, kv, splitting_order=order)
    # n = 1's lone value is of order 1, so each kick's |θ| is above PHASE_EXACT
    # and the product e^{iθ}·u is checked to the bit
    u0 = _rough_data(L, n, seed=n) if n > 1 else np.full((1, 1), 1.1 - 0.7j)
    before = u0.copy()
    u, carry = u0, 0.0
    ref, ref_carry = u0.copy(), 0.0
    for dt in (0.01, 0.01, 0.007, 0.013):
        u, carry = st.step_values(u, dt, carry)
        ref, ref_carry = _reference_step_values(st, ref, dt, ref_carry)
        assert carry == ref_carry
        assert _same_bits(u, ref)
    assert _same_bits(u0, before)
    assert _same_bits(st.nonlinear(u, carry), _reference_nonlinear(st, ref, ref_carry))
    for v in (u, np.ascontiguousarray(u)):
        assert st.gradient_moments(v) == _reference_gradient_moments(st, ref)
        assert st.spectral_tail_fraction(v) == _reference_tail_fraction(st, ref)
        for d, want in zip(st.gradient(v), _reference_gradient(st, ref)):
            assert _same_bits(d, want)
    assert _same_bits(u, ref)


@pytest.mark.parametrize("order", [2, 4])
def test_step_values_copies_back_out_of_place_transforms(monkeypatch, order):
    # a transform that ignores overwrite_x returns new memory: linear copies
    # the result into its state, so the steps keep their bits
    L, n = 8.0, 16
    st = sim.Stepper(L, n, 0.8, splitting_order=order)
    u0 = _rough_data(L, n, seed=5)
    ref, ref_carry = _reference_step_values(st, u0.copy(), 0.01, 0.0)
    for name in ("fft2", "ifft2"):
        transform = getattr(sim._fft, name)
        monkeypatch.setattr(sim._fft, name,
                            lambda x, axes=(-2, -1), overwrite_x=False, _t=transform:
                            _t(x, axes=axes))
    u, carry = st.step_values(u0, 0.01)
    assert carry == ref_carry
    assert _same_bits(u, ref)


def test_step_values_returns_padded_view():
    # the stepped state is the (n, n) view of an (n, n + ROW_PAD) buffer
    # whose padding stays exactly zero through steps and the closing sub-step
    L, n = 8.0, 16
    X, Y, kv = _inhomogeneous(L, n)
    st = sim.Stepper(L, n, kv, splitting_order=4)
    u, carry = _rough_data(L, n, seed=2), 0.0
    for _ in range(3):
        u, carry = st.step_values(u, 0.01, carry)
        assert u.shape == (n, n)
        assert u.strides == (16 * (n + sim.ROW_PAD), 16)
        assert u.base.shape == (n, n + sim.ROW_PAD)
        assert not np.any(u.base[:, n:])
    closed = st.nonlinear(u, carry)
    assert closed.strides == u.strides and closed.base is not u.base
    assert not np.any(closed.base[:, n:])


def test_step_values_allocates_one_padded_buffer():
    # a Strang step from a stepped state, its propagator cached, steps the
    # state in place: at n = 256 the peak is the kick's e^{iθ} over one
    # block of whole padded rows (about KICK_BLOCK values) and numpy's
    # ufunc buffers, well under the one padded buffer (1.1 MB) it may not
    # exceed
    L, n = 8.0, 256
    X, Y, kv = _inhomogeneous(L, n)
    st = sim.Stepper(L, n, kv)
    u, carry = st.step_values(_rough_data(L, n, seed=3), 0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u, carry = st.step_values(u, 0.01, carry)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = sim.KICK_BLOCK // (n + sim.ROW_PAD)
    assert peak <= 16 * rows * (n + sim.ROW_PAD) + 2 ** 18
    assert peak <= 16 * n * (n + sim.ROW_PAD) + 2 ** 18


def test_step_values_allocates_one_row_block():
    # the same step at n = 512, where the padded buffer (4.2 MB) would show:
    # the state is stepped in place, so the peak is the kick's e^{iθ} over
    # one block of whole padded rows (about KICK_BLOCK values) and numpy's
    # ufunc buffers
    L, n = 8.0, 512
    X, Y, kv = _inhomogeneous(L, n)
    st = sim.Stepper(L, n, kv)
    u, carry = st.step_values(_rough_data(L, n, seed=3), 0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u, carry = st.step_values(u, 0.01, carry)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = sim.KICK_BLOCK // (n + sim.ROW_PAD)
    assert peak <= 16 * rows * (n + sim.ROW_PAD) + 2 ** 18


def test_step_values_steps_padded_states_in_place():
    # a state that step_values or nonlinear returned is stepped in its own
    # buffer; a contiguous input is copied once and left unwritten, by
    # step_values and by linear alone
    L, n = 8.0, 16
    st = sim.Stepper(L, n, 0.8)
    u0 = _rough_data(L, n, seed=6)
    before = u0.copy()
    u, carry = st.step_values(u0, 0.01)
    assert _same_bits(u0, before) and not np.shares_memory(u, u0)
    assert _same_bits(st.linear(u0, 0.01), _reference_linear(st, u0.copy(), 0.01))
    assert _same_bits(u0, before)
    for state in (st.nonlinear(u, carry), u):
        old = state.copy()
        v, _ = st.step_values(state, 0.01, carry)
        assert v.base is state.base and not _same_bits(state, old)


@pytest.mark.parametrize("n", [0, 3, 12, 96])
def test_stepper_rejects_n_not_a_power_of_two(n):
    # the pruned inverse scales by 1/n on each axis, ifft2 by 1/n² once:
    # equal to the bit only for n a power of two
    with pytest.raises(ValueError, match="^values must be square with n a power of two >= 1$"):
        sim.Stepper(8.0, n, 1.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 1024])
def test_pruned_lines_are_the_unmasked_ones(n):
    # linear transforms the kept rows and columns, and zeroes the cut rows:
    # exactly the rows and columns that the dealiasing mask does not cover
    st = sim.Stepper(8.0, n, 1.0)
    kept = np.concatenate([np.arange(n)[s] for s in st._kept])
    mask = st._dealias_mask
    assert np.array_equal(kept, np.flatnonzero(~mask.all(axis=1)))
    assert np.array_equal(kept, np.flatnonzero(~mask.all(axis=0)))
    assert np.array_equal(np.arange(n)[st._cut], np.flatnonzero(mask.all(axis=1)))


def test_snapshot_of_padded_view_writes_contiguous_bytes(tmp_path):
    L, n = 8.0, 32
    st = sim.Stepper(L, n, 0.8)
    u, carry = st.step_values(_rough_data(L, n, seed=4), 0.01)
    padded = sim.ComplexField2D(L, st.nonlinear(u, carry), -0.49)
    assert padded.values.strides[0] == 16 * (n + sim.ROW_PAD)
    contiguous = sim.ComplexField2D(L, np.ascontiguousarray(padded.values), padded.t)
    sim.write_snapshot(tmp_path / "padded.bin", padded)
    sim.write_snapshot(tmp_path / "contiguous.bin", contiguous)
    raw = (tmp_path / "padded.bin").read_bytes()
    assert raw == (tmp_path / "contiguous.bin").read_bytes()
    assert raw == struct.pack("<Qdd", n, L, -0.49) + contiguous.values.astype("<c16").tobytes()
    back = sim.read_snapshot(tmp_path / "padded.bin")
    assert _same_bits(back.values, contiguous.values) and back.t == padded.t


# ----------------------------------------------------------------------
# the kick's exact phase: cos and sin only where |θ| >= PHASE_EXACT
# ----------------------------------------------------------------------

def _localized_data(L, n, center, seed):
    """A narrow Gaussian core at center (periodically wrapped) over a
    background of 1e-6, the shape of a collapsing state."""
    X, Y = _grid(L, n)
    dx = (X - center[0] + L) % (2 * L) - L
    dy = (Y - center[1] + L) % (2 * L) - L
    rng = np.random.default_rng(seed)
    background = 1e-6 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return 2.0 * np.exp(-(dx ** 2 + dy ** 2) / 0.4 ** 2 + 0.3j * X) + background


def _k_samples(L, n, kind):
    X, Y = _grid(L, n)
    k = 0.8 if kind.endswith("scalar") else 1.0 - 0.03 * (X ** 2 + Y ** 2)  # both signs
    return -k if kind.startswith("-") else k


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
@pytest.mark.parametrize("case", ["core", "edge", "nonfinite"])
@pytest.mark.parametrize("k_kind", ["scalar", "-scalar", "array", "-array"])
def test_kick_on_localized_data_matches_reference_bits(monkeypatch, n, case, k_kind):
    # a core in the box leaves whole row blocks and the column margins on
    # both sides of its span dead; a core on the periodic edge makes the
    # live span whole rows; a NaN and an inf in dead rows and margins turn
    # their columns live.  Each kick, in place or into a new buffer, with
    # the default and with 3-row blocks, is bitwise the kick that takes cos
    # and sin on every column, and the reference's
    L = 8.0
    center = (-L, -L) if case == "edge" else (0.3, -0.2)
    u0 = _localized_data(L, n, center, seed=n)
    if case == "nonfinite":
        u0[0, n // 2] = np.nan
        u0[n // 2, 0] = np.inf
    st = sim.Stepper(L, n, _k_samples(L, n, k_kind), splitting_order=4)
    for tau in (0.013, -0.021):
        theta = np.abs(u0) ** 2 * st.k * tau
        live = ~(np.abs(theta) < sim.PHASE_EXACT)
        if n >= 64:          # the data have the shape each case names
            cols = np.flatnonzero(live.any(axis=0))
            if case == "core":
                assert not live[:3].any() and 0 < cols[0] and cols[-1] < n - 1
            elif case == "edge":
                assert not live[n // 2].any() and cols[0] == 0 and cols[-1] == n - 1
            else:
                assert np.count_nonzero(live[:3]) == 1 and live[n // 2, 0]
                assert not live[n // 2, 1]
        with np.errstate(invalid="ignore"):         # cos and sin of ±inf
            with monkeypatch.context() as m:
                m.setattr(sim, "PHASE_EXACT", 0.0)    # cos and sin on every column
                wants = [st.nonlinear(u0, tau)]
            if n > 1:
                wants.append(_reference_nonlinear(st, u0, tau))
            for block in (sim.KICK_BLOCK, 3 * (n + sim.ROW_PAD)):
                with monkeypatch.context() as m:
                    m.setattr(sim, "KICK_BLOCK", block)
                    out = st.nonlinear(u0, tau)
                    buf = st._padded(u0)
                    st._kick(buf, tau, buf)
                for got in (out, buf[:, :n]):
                    assert all(_same_bits(got, want) for want in wants)
                    assert not np.any(got.base[:, n:])
    # at n = 1 the reference's in-place product has length 1, which numpy
    # rounds by the plain formula and every longer one by its vector loop,
    # so there the kick is held to the all-columns kick alone
    if case != "nonfinite" and n > 1:
        u, carry = u0, 0.0
        ref, ref_carry = u0.copy(), 0.0
        for dt in (0.01, 0.013):         # the triple jump's merged kicks have τ < 0
            u, carry = st.step_values(u, dt, carry)
            ref, ref_carry = _reference_step_values(st, ref, dt, ref_carry)
            assert _same_bits(u, ref)


def test_run_raises_blowup_nan_from_a_dead_row_block():
    # the NaN node of k lies in a row block where every other |θ| is under
    # PHASE_EXACT; its column still takes cos and sin, so the first step
    # is poisoned and run stops there
    L, n = 8.0, 256
    core = lambda x: np.exp(-((x[..., 0] - 3.0) ** 2 + x[..., 1] ** 2) / 0.5 ** 2) + 0j
    f0 = sim.init_from_profile(core, 0.5, -0.25, L, n)
    k = np.ones((n, n))
    k[5, 7] = np.nan
    rows = sim.KICK_BLOCK // (n + sim.ROW_PAD)           # the first row block
    assert rows < n and np.all(np.abs(f0.values[:rows]) ** 2 < 1e-12)
    cfg = sim.SimConfig(c_dt=0.01, max_steps=10)
    dt = cfg.c_dt * sim.lambda_proxy(f0, sim.Stepper(L, n, k), 1.0, 1.0) ** 2
    with pytest.raises(sim.BlowupNaN) as ran:
        sim.run(cfg, f0, k, 1.0, 1.0)
    assert str(ran.value) == f"non-finite field samples at t = {f0.t + dt:.6g}"


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def test_cos_and_sin_are_exact_below_phase_exact():
    # the kick's contract with numpy: for |θ| < PHASE_EXACT, cos θ is 1.0 and
    # sin θ is θ to the bit, on a contiguous array and on a complex array's
    # strided .imag, the two ways the kick calls them.  The samples are
    # log-uniform from the subnormals up, of both signs, with ±0 and the
    # largest double under the threshold
    rng = np.random.default_rng(27)
    size = 1_000_000
    mag = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1073, -26, size))
    theta = mag * rng.choice([-1.0, 1.0], size)
    below = np.nextafter(sim.PHASE_EXACT, 0.0)
    theta[:6] = [0.0, -0.0, below, -below, 5e-324, -5e-324]
    assert np.all(np.abs(theta) < sim.PHASE_EXACT)
    held = np.empty(size, dtype=complex)
    held.imag = theta
    for name, x in (("contiguous", theta), ("strided .imag", held.imag)):
        cos_bad = np.count_nonzero(_bits(np.cos(x)) != _bits(np.ones(size)))
        sin_bad = np.count_nonzero(_bits(np.sin(x)) != _bits(theta))
        assert cos_bad == 0 and sin_bad == 0, (
            f"numpy {np.__version__}, {name}: cos θ != 1.0 at {cos_bad} and sin θ != θ at "
            f"{sin_bad} of {size} samples with |θ| < PHASE_EXACT; the kick's 1 + iθ would "
            "no longer be bitwise e^{iθ}")
