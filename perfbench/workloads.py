"""The benchmark's workloads: seeded configs, CLI command lists and gates.

A workload seed draws the k-model from a fixed band around the defaults
(BAND); everything else about a workload is fixed.  The CLI receives the
draw only through the YAML config file that ``config_text`` writes.
"""

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

# Admissible band of the seeded k-model draw, fixed before any result was
# seen: Hessian eigenvalues (H negative definite), its rotation angle, the
# third-order tensor entries [T111, T112, T122, T222] and the floor k1.
BAND = {
    "hessian_eigenvalue": (-0.25, -0.15),
    "rotation": (0.0, math.pi),
    "third": (-0.03, 0.03),
    "k1": (0.45, 0.55),
}

# Gate thresholds, from the existing tests and the ROADMAP invariants.
MASS_DRIFT_MAX = 1e-9          # mass conserved to roundoff
IDENTITY_MAX = 1e-7            # `nlsblow verify` threshold
SLOPE_RANGE = (4.0, 6.0)       # last residual slope (test_profile_cli_flags)
APPENDIX_B_MAX = 1e-8          # basis_residual and voc_vs_ode (test_appendix_b_cli)
C0_REL_TOL = 0.05              # fitted C0 against the configured C0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict           # overrides merged over the defaults, besides kmodel
    commands: tuple        # (command, output directory name) in run order


WORKLOADS = {
    "collapse-n1024": Workload(
        name="collapse-n1024",
        why="production 2D grid (L=12, n=1024), Strang order 2: the sim split-step "
            "core and series recording do nearly all the work",
        config={"sim": {"lam_stop": 0.2, "snapshot_stride": 1_000_000}},
        commands=(("simulate", "run"),),
    ),
    "fit-n512": Workload(
        name="fit-n512",
        why="simulate (L=6, n=512, Yoshida order 4, dense series and snapshots) then "
            "analyze: modfit.decompose of 15 snapshots dominates",
        config={
            "grid2d": {"L": 6.0, "n": 512},
            "sim": {"t_start": -0.3, "lam_stop": 0.15, "c_dt": 0.03,
                    "snapshot_stride": 8, "series_stride": 4, "splitting_order": 4},
            "energy": {"C0": 1.0},
            "profile": {"eta_star": 0.55},
        },
        commands=(("simulate", "run"), ("analyze", "run")),
    ),
    "theory": Workload(
        name="theory",
        why="verify, profile, ode and appendix-b: no 2D grid, so lab, profile, fields "
            "and modeqs work while sim and modfit stay idle",
        config={},
        commands=(("verify", "verify"), ("profile", "profile"), ("ode", "ode"),
                  ("appendix-b", "appendix-b")),
    ),
}


def draw_kmodel(seed: int) -> dict:
    rng = random.Random(seed)
    e1 = rng.uniform(*BAND["hessian_eigenvalue"])
    e2 = rng.uniform(*BAND["hessian_eigenvalue"])
    phi = rng.uniform(*BAND["rotation"])
    third = [rng.uniform(*BAND["third"]) for _ in range(4)]
    k1 = rng.uniform(*BAND["k1"])
    c, s = math.cos(phi), math.sin(phi)
    hxy = c * s * (e1 - e2)
    return {"hessian": [[c * c * e1 + s * s * e2, hxy], [hxy, s * s * e1 + c * c * e2]],
            "third": third, "k1": k1}


def config_text(workload: Workload, seed: int) -> str:
    data = json.loads(json.dumps(workload.config))
    data["kmodel"] = draw_kmodel(seed)
    data["seed"] = int(seed)
    return yaml.safe_dump(data, sort_keys=True)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# checks: read a command's outputs, return (figures, gates)
# figures are accuracy numbers recorded as per-layer metrics; gates are
# (description, passed) pairs
# ----------------------------------------------------------------------

def _read_csv(path: Path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return rows


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_simulate(out: Path, cfg: dict):
    report = _read_json(out / "simulate.json")
    rows = _read_csv(out / "series.csv")
    mass = [float(r["mass"]) for r in rows]
    energy = [float(r["energy"]) for r in rows]
    grad = [float(r["grad_norm"]) for r in rows]
    mass_drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    energy_drift = max(abs(e - energy[0]) / (0.5 * g * g) for e, g in zip(energy, grad))
    snap_bytes = sum(p.stat().st_size for p in (out / "snapshots").glob("snap_*.bin"))
    figures = {
        "sim.mass_drift_rel": mass_drift,
        "sim.energy_drift_rel_kin": energy_drift,
        "sim.lambda_final": float(rows[-1]["lambda_proxy"]),
        "sim.snapshot_bytes": snap_bytes,
        "sim.series_rows": len(rows),
    }
    gates = [
        (f"simulate ends on lam_stop (got {report['reason']})", report["reason"] == "lam_stop"),
        (f"mass drift {mass_drift:.3g} < {MASS_DRIFT_MAX:g}", mass_drift < MASS_DRIFT_MAX),
    ]
    return figures, gates


def check_analyze(out: Path, cfg: dict):
    report = _read_json(out / "analyze.json")
    total, fit = int(report["snapshots_total"]), int(report["snapshots_fit"])
    rows = _read_csv(out / "params.csv")
    C0 = float(cfg.get("energy", {}).get("C0", 1.0))
    figures = {
        "modfit.fit_ratio": fit / total,
        "modfit.eps_L2_max": max(float(r["eps_L2"]) for r in rows),
        "snapshots_total": total,
        "snapshots_fit": fit,
    }
    gates = [(f"analyze fits every snapshot ({fit}/{total})", fit == total)]
    if "fit" in report:
        err = abs(float(report["fit"]["C0_est"]) - C0) / C0
        figures["modfit.C0_est_rel_err"] = err
        gates.append((f"C0_est within {C0_REL_TOL:g} of C0 (rel err {err:.3g})",
                      err < C0_REL_TOL))
    else:
        gates.append((f"C0 fit: {report.get('fit_error', 'missing')}", False))
    return figures, gates


def check_verify(out: Path, cfg: dict):
    report = _read_json(out / "verify.json")
    worst = max(report["residuals"].values())
    return ({"cli.verify_max_residual": worst},
            [(f"verify residuals {worst:.3g} < {IDENTITY_MAX:g}",
              bool(report["pass"]) and worst < IDENTITY_MAX)])


def check_profile(out: Path, cfg: dict):
    slope = float(_read_csv(out / "residual_scan.csv")[-1]["slope_local"])
    lo, hi = SLOPE_RANGE
    return ({"profile.residual_slope_last": slope},
            [(f"last residual slope {slope:.4g} in ({lo:g}, {hi:g})", lo < slope < hi)])


def check_ode(out: Path, cfg: dict):
    report = _read_json(out / "ode.json")
    C0 = float(report["C0"])
    return ({"modeqs.lambda_s_rel_err": abs(float(report["lambda_s_final"]) - C0) / C0},
            [(f"ode status {report['status']}", report["status"] == "completed")])


def check_appendix_b(out: Path, cfg: dict):
    report = _read_json(out / "appendix_b.json")
    basis = max(float(e["basis_residual"]) for e in report.values())
    voc = max(float(e["voc_vs_ode"]) for e in report.values())
    return ({"modeqs.appendix_b_basis_residual_max": basis,
             "modeqs.appendix_b_voc_vs_ode_max": voc},
            [(f"appendix-b basis residual {basis:.3g} < {APPENDIX_B_MAX:g}",
              basis < APPENDIX_B_MAX),
             (f"appendix-b voc vs ode {voc:.3g} < {APPENDIX_B_MAX:g}", voc < APPENDIX_B_MAX)])


CHECKS = {
    "simulate": check_simulate,
    "analyze": check_analyze,
    "verify": check_verify,
    "profile": check_profile,
    "ode": check_ode,
    "appendix-b": check_appendix_b,
}


def check_command(command: str, out: Path, cfg: dict, rc: int):
    """Figures, gates and operation counts of one finished command.

    The command is one operation; analyze adds one per snapshot it attempts,
    and each snapshot it skipped counts as failed.
    """
    gates = [(f"{command} exit code {rc}", rc == 0)]
    if (out / "error.json").exists():
        err = _read_json(out / "error.json")
        gates.append((f"{command} error.json: {err.get('error')}", False))
    figures = {}
    try:
        figures, more = CHECKS[command](out, cfg)
        gates += more
    except (OSError, ValueError, KeyError, TypeError) as err:
        gates.append((f"{command} outputs unreadable: {type(err).__name__}: {err}", False))
    snapshots = figures.pop("snapshots_total", 0)
    skipped = snapshots - figures.pop("snapshots_fit", 0)
    failed = (0 if all(ok for _, ok in gates) else 1) + skipped
    return figures, gates, 1 + snapshots, failed
