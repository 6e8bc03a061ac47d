"""Config validation and CLI orchestration (determinism, manifests, errors)."""

import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from nlsblow import sim
from nlsblow.cli import main
from nlsblow.config import DEFAULTS, ConfigError, parse_config
from nlsblow.modfit import TOL_FACTOR


def test_minimal_config_defaults():
    cfg = parse_config("kmodel:\n  hessian: [[-1.0, 0.0], [0.0, -1.0]]\n")
    assert cfg["kmodel"]["k1"] == 0.5
    assert cfg["radial_grid"]["n"] == 8192


def test_round_trip_stability():
    cfg = parse_config("kmodel:\n  k1: 0.7\nseed: 3\n")
    again = parse_config(cfg.serialize())
    assert again.data == cfg.data
    assert again.serialize() == cfg.serialize()


def test_rejects_positive_eigenvalue():
    with pytest.raises(ConfigError) as err:
        parse_config("kmodel:\n  hessian: [[0.3, 0.0], [0.0, -1.0]]\n")
    assert any("hessian not negative definite" in msg for msg in err.value.violations)


def test_rejects_k1_out_of_bounds():
    with pytest.raises(ConfigError) as err:
        parse_config("kmodel:\n  k1: 1.5\n")
    assert any("k1" in v and "Assumption (H)" in v for v in err.value.violations)


def test_collects_all_violations():
    bad = ("kmodel:\n  k1: 1.5\n  hessian: [[0.3, 0.0], [0.0, -1.0]]\n"
           "grid2d:\n  n: 1000\nseed: 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert len(err.value.violations) >= 3


def test_unknown_key_is_path_addressed():
    with pytest.raises(ConfigError) as err:
        parse_config("sim:\n  timestep: 0.1\n")
    assert any(v.startswith("sim.timestep") for v in err.value.violations)


@pytest.mark.parametrize("text, path", [
    ("profile:\n  include_beta4: true\n", "profile.include_beta4"),
    ("fit:\n  gamma_d1_sign: -1.0\n", "fit.gamma_d1_sign"),
    ("out_dir: out\n", "out_dir"),
])
def test_removed_keys_are_unknown(text, path):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"{path}: unknown key" in err.value.violations


def _leaf_paths(tree, path=""):
    for name, val in tree.items():
        here = f"{path}.{name}" if path else name
        if isinstance(val, dict):
            yield from _leaf_paths(val, here)
        else:
            yield here


def _one_key(path, value) -> str:
    *sections, key = path.split(".")
    doc = {key: value}
    for name in reversed(sections):
        doc = {name: doc}
    return yaml.safe_dump(doc)


def _violations(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.violations


# a string at every leaf key (so a key added without a check fails), then bounds
@pytest.mark.parametrize("path, value", [(path, "text") for path in _leaf_paths(DEFAULTS)] + [
    ("sim.c_dt", "fast"),
    ("sim.c_dt", True),
    ("fit.A", None),
    ("profile.lam_scan", 5),
    ("profile.lam_scan", [0.1, 0.01, 7]),
    ("profile.lam_scan", [0.01, 0.1, 7.5]),
    ("grid2d.L", [1]),
    ("grid2d.n", 1024.0),
    ("radial_grid.r_max", float("nan")),
    ("sim.t_start", 0.0),
    ("ode.t1", 0.1),
    ("sim.series_stride", 0),
    ("sim.snapshot_stride", 0),
    ("sim.dt_refresh_every", 0),
    ("fit.n_r", 4),
    ("ode.n_points", 1),
    ("appendix_b.varsig", [0.05, -0.5]),
    ("appendix_b.varsig", []),
    ("energy.E0", "low"),
    ("fit.n_theta", 8),
])
def test_malformed_value_is_one_violation(path, value):
    violations = _violations(_one_key(path, value))
    assert len(violations) == 1
    assert violations[0].startswith(f"{path}: ")


def test_E0_alone_replaces_default_C0():
    cfg = parse_config("energy:\n  E0: 2.0\n")
    assert cfg["energy"] == {"E0": 2.0, "C0": None}
    assert parse_config(cfg.serialize()).data == cfg.data


def test_E0_and_C0_exclude_each_other():
    violations = _violations("energy:\n  E0: 2.0\n  C0: 3.0\n")
    assert len(violations) == 1
    assert violations[0].startswith("energy: ")


def test_fit_radius_within_lab_radius():
    # the lab (15, 4096) builds, but the default fit disk (r_max 25) would extrapolate it
    violations = _violations("radial_grid:\n  r_max: 15.0\n  n: 4096\n")
    assert len(violations) == 1
    assert violations[0].startswith("fit.r_max: ")
    assert parse_config("radial_grid:\n  r_max: 15.0\nfit:\n  r_max: 15.0\n")["fit"]["r_max"] == 15.0


def test_values_are_typed():
    cfg = parse_config("grid2d:\n  L: 6\nprofile:\n  lam_scan: [1, 2, 3]\n"
                       "appendix_b:\n  varsig: [1]\nkmodel:\n  hessian: [[-1, 0], [0, -1]]\n")
    assert type(cfg["grid2d"]["L"]) is float and type(cfg["grid2d"]["n"]) is int
    assert [type(x) for x in cfg["profile"]["lam_scan"]] == [float, float, int]
    assert type(cfg["appendix_b"]["varsig"][0]) is float
    assert all(type(x) is float for row in cfg["kmodel"]["hessian"] for x in row)


def test_dealias_is_unknown():
    assert "sim.dealias: unknown key" in _violations("sim:\n  dealias: false\n")


def test_ode_rejects_removed_key(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("profile:\n  include_beta4: true\n")
    rc = main(["ode", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_verify_cli(tmp_path):
    rc = main(["verify", "--out", str(tmp_path / "v")])
    assert rc == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["pass"] is True
    manifest = json.loads((tmp_path / "v" / "manifest.verify.json").read_text())
    assert "verify.json" in manifest["files"]


def test_ground_state_cli(tmp_path, lab):
    rc = main(["ground-state", "--out", str(tmp_path / "g")])
    assert rc == 0
    report = json.loads((tmp_path / "g" / "ground_state.json").read_text())
    assert -1.2 < report["tail_rate"] < -0.8
    for name in ("massQ", "quarticQ", "ymomQ", "gradQ"):
        assert report[name] == getattr(lab.moments, name)
    manifest = json.loads((tmp_path / "g" / "manifest.ground-state.json").read_text())
    assert sorted(manifest["files"]) == ["ground_state.csv", "ground_state.json"]


def test_config_error_produces_record(tmp_path):
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text("kmodel:\n  k1: 2.0\n")
    rc = main(["ground-state", "--config", str(cfgfile), "--out", str(tmp_path / "g")])
    assert rc == 2
    rec = json.loads((tmp_path / "g" / "error.json").read_text())
    assert rec["error"] == "ConfigError"


def test_runtime_error_produces_record(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    # energy below the admissible threshold: EnergyConditionViolated downstream
    cfgfile.write_text("energy:\n  E0: -10.0\n  C0: null\n")
    rc = main(["profile", "--config", str(cfgfile), "--out", str(tmp_path / "p")])
    assert rc == 1
    rec = json.loads((tmp_path / "p" / "error.json").read_text())
    assert rec["error"] == "EnergyConditionViolated"


def test_ode_cli_and_determinism(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("ode:\n  t1: -0.2\n  s_end: 300.0\nseed: 7\n")
    rc = main(["ode", "--config", str(cfgfile), "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["ode", "--config", str(cfgfile), "--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0].split(",")
    assert header == ["s", "t", "b", "lambda", "beta1", "beta2",
                      "alpha1", "alpha2", "gamma", "b_over_lambda"]


def test_ode_rejects_invalid_kmodel(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("kmodel:\n  third: [2.0, 0.0, 0.0, 0.0]\n")
    rc = main(["ode", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    rec = json.loads((tmp_path / "o" / "error.json").read_text())
    assert rec["error"] == "ConfigError"
    assert any(v.startswith("kmodel: ") for v in rec["violations"])
    assert not (tmp_path / "o" / "ode.json").exists()


def test_verify_rejects_invalid_kmodel(tmp_path):
    # verify builds no k-model, but the config is checked whole before any command
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("kmodel:\n  third: [2.0, 0.0, 0.0, 0.0]\n")
    rc = main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "v")])
    assert rc == 2
    rec = json.loads((tmp_path / "v" / "error.json").read_text())
    assert any(v.startswith("kmodel: ") for v in rec["violations"])
    assert not (tmp_path / "v" / "verify.json").exists()


def test_simulate_rejects_zero_stride(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("sim:\n  series_stride: 0\n")
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 2
    rec = json.loads((out / "error.json").read_text())
    assert rec["error"] == "ConfigError"
    assert [v.split(":")[0] for v in rec["violations"]] == ["sim.series_stride"]
    assert not (out / "snapshots").exists()


def test_appendix_b_cli(tmp_path):
    rc = main(["appendix-b", "--out", str(tmp_path / "ab")])
    assert rc == 0
    rep = json.loads((tmp_path / "ab" / "appendix_b.json").read_text())
    for key, entry in rep.items():
        assert entry["basis_residual"] < 1e-8
        assert entry["voc_vs_ode"] < 1e-8
        assert np.isfinite(entry["max_bound_ratio"])


def test_profile_cli_flags(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(
        "kmodel:\n  hessian: [[-0.3, 0.02], [0.02, -0.25]]\n  k1: 0.6\n"
        "profile:\n  lam_scan: [0.02, 0.1, 4]\n")
    rc = main(["profile", "--config", str(cfgfile), "--out", str(tmp_path / "p")])
    assert rc == 0
    consts = json.loads((tmp_path / "p" / "constants.json").read_text())
    assert consts["a1"] > 0
    scan = (tmp_path / "p" / "residual_scan.csv").read_text().splitlines()
    assert scan[0] == "lambda,normPsi_L2w,slope_local"
    assert len(scan) == 5
    last_slope = float(scan[-1].split(",")[-1])
    assert 4.0 < last_slope < 6.0


def test_simulate_then_analyze(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(
        "grid2d:\n  L: 6.0\n  n: 512\n"
        "sim:\n  t_start: -0.3\n  lam_stop: 0.24\n  c_dt: 0.03\n"
        "  snapshot_stride: 8\n  series_stride: 4\n  splitting_order: 4\n"
        "energy:\n  C0: 1.0\n"
        "profile:\n  eta_star: 0.55\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "s")])
    assert rc == 0
    series = (tmp_path / "s" / "series.csv").read_text().splitlines()
    assert series[0].split(",") == ["t", "mass", "energy", "momentum_x",
                                    "momentum_y", "grad_norm", "lambda_proxy"]
    snaps = sorted((tmp_path / "s" / "snapshots").glob("snap_*.bin"))
    assert len(snaps) >= 2
    rc = main(["analyze", "--config", str(cfgfile), "--out", str(tmp_path / "s")])
    assert rc == 0
    params = (tmp_path / "s" / "params.csv").read_text().splitlines()
    assert params[0].split(",")[:4] == ["t", "b", "lambda", "alpha1"]
    assert len(params) >= 3
    # the analyzed window covers the run window
    t_first = float(params[1].split(",")[0])
    t_last = float(params[-1].split(",")[0])
    t_series = [float(r.split(",")[0]) for r in series[1:]]
    assert t_first <= t_series[0] + 1e-12
    assert t_last >= t_series[-1] - 0.05


SMALL_RUN = ("grid2d:\n  L: 4.0\n  n: 256\n"
             "sim:\n  t_start: -0.3\n  t_stop: {t_stop}\n  snapshot_stride: 1\n"
             "energy:\n  C0: 1.0\n"
             "profile:\n  eta_star: 0.55\n")


def _simulate_small(tmp_path, out, t_stop):
    cfgfile = tmp_path / f"cfg_{t_stop}.yaml"
    cfgfile.write_text(SMALL_RUN.format(t_stop=t_stop))
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    return cfgfile


def test_simulate_default_stop_rules_end_at_blow_up_time(tmp_path):
    # with neither t_stop nor lam_stop in the config, the run ends at t = 0
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("grid2d:\n  L: 4.0\n  n: 256\nenergy:\n  C0: 1.0\n"
                       "profile:\n  eta_star: 0.55\n")
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert json.loads((out / "simulate.json").read_text())["reason"] == "t_stop"
    last = (out / "series.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == 0.0


def test_simulate_frees_the_initial_field_after_the_first_step(tmp_path, monkeypatch):
    # run copies field0 into its own layout and drops it: by the second
    # snapshot nothing may hold the initial field's samples
    initial, written = [], []
    real_init, real_write = sim.init_from_profile, sim.write_snapshot

    def init(*args):
        field = real_init(*args)
        initial.append(weakref.ref(field.values))
        return field

    def write(path, field):
        if written:
            assert initial[0]() is None, "the initial field is still alive"
        written.append(path)
        real_write(path, field)

    monkeypatch.setattr(sim, "init_from_profile", init)
    monkeypatch.setattr(sim, "write_snapshot", write)
    _simulate_small(tmp_path, tmp_path / "s", -0.29)
    assert len(initial) == 1 and len(written) >= 2


def test_simulate_replaces_earlier_snapshots(tmp_path):
    out = tmp_path / "s"
    _simulate_small(tmp_path, out, -0.28)
    first = sorted((out / "snapshots").glob("snap_*.bin"))
    _simulate_small(tmp_path, out, -0.29)
    on_disk = sorted("snapshots/" + p.name for p in (out / "snapshots").glob("snap_*.bin"))
    manifest = json.loads((out / "manifest.simulate.json").read_text())
    listed = sorted(name for name in manifest["files"] if name.startswith("snapshots/"))
    assert len(listed) < len(first)
    assert on_disk == listed


def test_analyze_rejects_snapshot_on_another_box(tmp_path):
    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    path = out / "snapshots" / "snap_000001.bin"
    field = sim.read_snapshot(path)
    sim.write_snapshot(path, sim.ComplexField2D(field.L, field.values[::2, ::2], field.t))
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 1
    rec = json.loads((out / "error.json").read_text())
    assert rec["error"] == "ValueError"
    assert "snap_000001.bin" in rec["message"]


def test_analyze_reports_newton_telemetry(tmp_path):
    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "params.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-3:] == ["newton_iterations", "jacobian_cond", "condition_residual"]
    assert len(lines) >= 3
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert int(row["newton_iterations"]) >= 0
        assert np.isfinite(float(row["jacobian_cond"]))


def test_simulate_and_analyze_keep_their_own_manifests(tmp_path):
    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    simulated = json.loads((out / "manifest.simulate.json").read_text())
    analyzed = json.loads((out / "manifest.analyze.json").read_text())
    assert simulated["command"] == "simulate" and analyzed["command"] == "analyze"
    snaps = sorted("snapshots/" + p.name for p in (out / "snapshots").glob("snap_*.bin"))
    assert len(snaps) >= 2
    assert sorted(simulated["files"]) == sorted(["series.csv", "simulate.json"] + snaps)
    assert simulated["files"]["series.csv"] == hashlib.sha256(
        (out / "series.csv").read_bytes()).hexdigest()
    assert sorted(analyzed["files"]) == ["analyze.json", "ode_gap.csv", "params.csv"]
    assert not (out / "manifest.json").exists()


def _params(out):
    lines = (out / "params.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def test_ode_predictor_saves_newton_steps(tmp_path, lab, monkeypatch):
    from nlsblow import cli

    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    predicted = _params(out)
    report = json.loads((out / "analyze.json").read_text())
    assert report["predictor_fallback"] == []
    gap = (out / "ode_gap.csv").read_text().splitlines()
    assert gap[0].split(",") == ["t", "b", "lambda", "beta1", "beta2",
                                 "alpha1", "alpha2", "gamma"]
    assert [float(line.split(",")[0]) for line in gap[1:]] == [row["t"] for row in predicted[1:]]

    # the previous root as every later guess: each such snapshot is a listed fallback
    monkeypatch.setattr(cli, "_predict", lambda root, constants, t: (None, "off"))
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    chained = _params(out)
    report = json.loads((out / "analyze.json").read_text())
    assert [entry["reason"] for entry in report["predictor_fallback"]] == \
        ["off"] * (len(chained) - 1)
    assert (out / "ode_gap.csv").read_text().splitlines() == [gap[0]]

    assert len(predicted) == len(chained) >= 3
    steps = [sum(row["newton_iterations"] for row in rows) for rows in (predicted, chained)]
    assert steps[0] < steps[1]
    tol = TOL_FACTOR * lab.moments.massQ
    assert all(0.0 <= row["condition_residual"] <= tol for row in predicted + chained)
    for a, b in zip(predicted, chained):
        for key in ("b", "lambda", "alpha1", "alpha2", "beta1", "beta2", "gamma"):
            assert abs(a[key] - b[key]) <= tol


def test_analyze_builds_one_fit(tmp_path, monkeypatch):
    # one Fit serves every snapshot: its per-term samples are built once per command
    from nlsblow import modfit

    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    built = []
    real_init = modfit.Fit.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(modfit.Fit, "__init__", counted)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    report = json.loads((out / "analyze.json").read_text())
    assert report["snapshots_total"] >= 2
    assert report["snapshots_fit"] == report["snapshots_total"]
    assert len(built) == 1


def test_analyze_frees_each_fit_before_the_next(tmp_path, monkeypatch):
    # a snapshot's Decomposition must be gone by the time the next one is fitted
    from nlsblow import modfit

    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    real = modfit.decompose
    last = []

    def checked(*args, **kwargs):
        assert not last or last[-1]() is None, "the previous Decomposition is still alive"
        dec = real(*args, **kwargs)
        last.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(modfit, "decompose", checked)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(last) == json.loads((out / "analyze.json").read_text())["snapshots_total"] >= 2


def test_analyze_records_skipped_snapshot(tmp_path, monkeypatch):
    from nlsblow import modfit

    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    real = modfit.decompose
    calls = []

    def diverge_on_second(field, *args, **kwargs):
        calls.append(field.t)
        if len(calls) == 2:
            raise modfit.NewtonDiverged("line search failed; guess outside the basin")
        return real(field, *args, **kwargs)

    monkeypatch.setattr(modfit, "decompose", diverge_on_second)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    report = json.loads((out / "analyze.json").read_text())
    assert report["skipped"] == [{"file": "snap_000001.bin",
                                  "reason": "line search failed; guess outside the basin"}]
    assert report["snapshots_fit"] == report["snapshots_total"] - 1 == len(calls) - 1


def test_analyze_writes_the_newton_state_of_a_skipped_snapshot(tmp_path, monkeypatch):
    # seeded noise in place of one snapshot cannot be fitted: its skipped entry
    # carries the last accepted max|R| and the Newton steps taken as numbers
    from nlsblow import modfit

    out = tmp_path / "s"
    cfgfile = _simulate_small(tmp_path, out, -0.29)
    path = out / "snapshots" / "snap_000001.bin"
    field = sim.read_snapshot(path)
    rng = np.random.default_rng(11)
    noise = rng.normal(size=field.values.shape) + 1j * rng.normal(size=field.values.shape)
    sim.write_snapshot(path, sim.ComplexField2D(field.L, noise, field.t))
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    (entry,) = json.loads((out / "analyze.json").read_text())["skipped"]
    assert entry["file"] == "snap_000001.bin"
    assert np.isfinite(entry["condition_residual"]) and entry["condition_residual"] > 0.0
    assert isinstance(entry["newton_iterations"], int) and entry["newton_iterations"] >= 0
    assert "eps_L2" not in entry

    # a root off the soliton manifold also writes its eps_L2
    monkeypatch.setattr(modfit, "EPS_L2_FACTOR", 0.0)
    sim.write_snapshot(path, field)
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    report = json.loads((out / "analyze.json").read_text())
    assert report["snapshots_fit"] == 0
    for entry in report["skipped"]:
        assert entry["reason"].startswith("eps_L2")
        assert np.isfinite(entry["eps_L2"]) and entry["eps_L2"] > 0.0
        assert np.isfinite(entry["condition_residual"]) and entry["newton_iterations"] >= 0
