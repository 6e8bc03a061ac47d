"""Command-line orchestration: subcommands, artifacts, manifest, determinism.

Subcommands: ground-state, verify, profile, ode, appendix-b, simulate,
analyze.  Every run writes its artifacts plus a manifest.<command>.json
listing each emitted file with a content hash, so simulate and analyze can
share one directory; identical config and seed reproduce the outputs byte for
byte.  Failures exit nonzero and leave error.json behind.

analyze fits the snapshots in time order.  The first Newton guess is
``modeqs.existence_initial_state``; each later one is the modulation ODE
integrated from the previous fitted root to the snapshot's t.  Where that
integration does not complete, the guess is the previous root and the
snapshot is listed under ``predictor_fallback`` in analyze.json.
ode_gap.csv holds, per snapshot fitted from an ODE guess, the predicted
minus the fitted (b, λ, β, α, γ); params.csv ends with the fit's telemetry
(Newton steps, Jacobian condition number, largest condition residual).

``sim`` (scipy.fft) and ``modfit`` (scipy.ndimage) are imported by the
commands that run them, so the theory commands never load either.
``modeqs.integrate`` takes its own RK45 steps, so ode and analyze load no
scipy.integrate; appendix-b alone does, for quad and DOP853.
"""

import argparse
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import modeqs, profile as prof
from .config import ConfigError, load_config
from .fields import PolarGrid
from .lab import get_lab
from .radial import fit_tail_rate


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(out: Path, command: str, cfg, files):
    manifest = {
        "command": command,
        "seed": cfg["seed"],
        "config": cfg.data,
        "files": {name: _sha256(out / name) for name in sorted(files)},
    }
    write_json(out / f"manifest.{command}.json", manifest)


def _config_C0(cfg, model, lab) -> float:
    en = cfg["energy"]
    if en["E0"] is not None:
        return prof.compute_C0(en["E0"], model, lab)
    return en["C0"]


def _expansion_from(cfg, lab):
    model = cfg.model()
    C0 = _config_C0(cfg, model, lab)
    return prof.build_expansion(model, C0, lab, eta_star=cfg["profile"]["eta_star"])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_ground_state(cfg, out: Path) -> int:
    lab = get_lab(**cfg["radial_grid"])
    m = lab.moments
    report = {
        "q0": lab.Q.values[0],
        "massQ": m.massQ,
        "quarticQ": m.quarticQ,
        "ymomQ": m.ymomQ,
        "gradQ": m.gradQ,
        "tail_rate": fit_tail_rate(lab.grid, lab.Q.values),
        "grid": {"r_max": lab.grid.r_max, "n": lab.grid.n},
    }
    write_json(out / "ground_state.json", report)
    write_csv(out / "ground_state.csv", ["r", "Q"],
              zip(lab.grid.nodes, lab.Q.values))
    _finish(out, "ground-state", cfg, ["ground_state.json", "ground_state.csv"])
    return 0


IDENTITY_THRESHOLD = 1e-7


def cmd_verify(cfg, out: Path) -> int:
    lab = get_lab(**cfg["radial_grid"])
    res = lab.ops.identity_residuals()
    m = lab.moments
    res["pohozaev_grad"] = abs(m.gradQ - m.massQ) / m.massQ
    res["pohozaev_quartic"] = abs(m.quarticQ - 2 * m.massQ) / m.quarticQ
    res["nondegeneracy_rho"] = abs(lab.rho_Q - 0.5 * m.ymomQ) / m.ymomQ
    scale = m.quarticQ * np.sqrt(m.ymomQ)
    for j in range(2):
        for l in range(2):
            res[f"cancellation_{j}{l}"] = abs(lab.ops.cancellation_moment(j, l)) / scale
    ok = all(val < IDENTITY_THRESHOLD for val in res.values())
    print(f"{'identity':24s} {'residual':>12s}")
    for name, val in res.items():
        print(f"{name:24s} {val:12.3e}")
    print(f"all under {IDENTITY_THRESHOLD:g}: {ok}")
    write_json(out / "verify.json", {"residuals": res,
                                     "threshold": IDENTITY_THRESHOLD, "pass": ok})
    _finish(out, "verify", cfg, ["verify.json"])
    return 0 if ok else 1


def cmd_profile(cfg, out: Path) -> int:
    lab = get_lab(**cfg["radial_grid"])
    exp = _expansion_from(cfg, lab)
    c = exp.constants
    write_json(out / "constants.json", {
        "c0_map": c.c0_map, "beta3": c.beta3,
        "d0_form": c.d0_form, "d1_form": c.d1_form, "a1": c.a1,
        "a1_projection": prof.a1_projection(exp.model, lab),
        "C0": exp.C0, "eta_star": exp.eta_star,
    })
    lams = np.geomspace(*cfg["profile"]["lam_scan"])
    norms = [exp.residual(prof.conformal_ray(l, exp.C0), weight=cfg["profile"]["weight"])
             for l in lams]
    rows = []
    for i, (l, nv) in enumerate(zip(lams, norms)):
        if i == 0:
            slope = np.nan
        else:
            slope = (np.log(norms[i]) - np.log(norms[i - 1])) / (np.log(lams[i]) - np.log(lams[i - 1]))
        rows.append([l, nv, slope])
    write_csv(out / "residual_scan.csv", ["lambda", "normPsi_L2w", "slope_local"], rows)
    _finish(out, "profile", cfg, ["constants.json", "residual_scan.csv"])
    return 0


def cmd_ode(cfg, out: Path) -> int:
    lab = get_lab(**cfg["radial_grid"])
    model = cfg.model()
    consts = prof.derive_constants(model, lab)
    C0 = _config_C0(cfg, model, lab)
    oc = cfg["ode"]
    st = modeqs.existence_initial_state(oc["t1"], C0)
    tr = modeqs.integrate(st, consts, s_span=(st.s, oc["s_end"]), n_points=oc["n_points"],
                          **cfg["integrator"])
    header, rows = tr.csv_rows()
    write_csv(out / "trajectory.csv", header, rows)
    write_json(out / "ode.json", {"C0": C0, "status": tr.status,
                                  "lambda_s_final": tr.lam[-1] * tr.s[-1]})
    _finish(out, "ode", cfg, ["trajectory.csv", "ode.json"])
    return 0


def cmd_appendix_b(cfg, out: Path) -> int:
    ab = cfg["appendix_b"]
    s_vals = np.asarray(ab["s_values"])
    rows = []
    report = {}
    for varsig in ab["varsig"]:
        system = modeqs.basis(varsig)

        def F(s):
            return (s ** -3.0, 0.0)

        bound = modeqs.bound_report(system, F, s_vals)
        Z = bound["Z"]
        flow = modeqs.integrate_linear_system(system, F, s_vals[-1], s_vals[0], Z[:, -1])
        Z_ode = flow(s_vals)
        agree = float(np.max(np.abs(Z - Z_ode)))
        report[str(varsig)] = {
            "regime": system.regime,
            "wronskian": system.wronskian,
            "basis_residual": system.homogeneous_residual(np.linspace(2.0, 50.0, 100)),
            "voc_vs_ode": agree,
            "max_bound_ratio": bound["max_ratio"],
        }
        for i, s in enumerate(s_vals):
            rows.append([varsig, s, Z[0, i], Z[1, i], bound["ratios"][i]])
    write_csv(out / "appendix_b.csv", ["varsig", "s", "Z1", "Z2", "bound_ratio"], rows)
    write_json(out / "appendix_b.json", report)
    _finish(out, "appendix-b", cfg, ["appendix_b.csv", "appendix_b.json"])
    return 0


def cmd_simulate(cfg, out: Path) -> int:
    from . import sim

    lab = get_lab(**cfg["radial_grid"])
    exp = _expansion_from(cfg, lab)
    L, n = cfg["grid2d"]["L"], cfg["grid2d"]["n"]
    si = dict(cfg["sim"])
    st = modeqs.existence_initial_state(si.pop("t_start"), exp.C0, 0.0)
    k_vals = exp.model.k(sim.box_points(L, n))
    cfg_run = sim.SimConfig(**si)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    # an earlier run into the same directory must not leave snapshots behind
    for old in snap_dir.glob("snap_*.bin"):
        old.unlink()
    snap_files = []

    def sink(field):
        name = f"snap_{len(snap_files):06d}.bin"
        sim.write_snapshot(snap_dir / name, field)
        snap_files.append("snapshots/" + name)

    # the initial field is passed inline, so that run holds its only reference
    # and it is freed once run has stepped past it
    result = sim.run(cfg_run, sim.init_from_profile(prof.physical_field(exp, st), st.lam,
                                                    st.t, L, n),
                     k_vals, lab.moments.gradQ, lab.moments.massQ, snapshot_sink=sink)
    header = list(result.series.keys())
    rows = zip(*[result.series[k] for k in header])
    write_csv(out / "series.csv", header, rows)
    write_json(out / "simulate.json", {"reason": result.reason, "C0": exp.C0,
                                       "steps_recorded": int(result.series["t"].size),
                                       "snapshots": len(snap_files)})
    _finish(out, "simulate", cfg, ["series.csv", "simulate.json"] + snap_files)
    return 0


def _predict(root, constants, t: float):
    """(the modulation ODE's state at t from the fitted root, None) or (None, why not)."""
    try:
        tr = modeqs.integrate(root, constants, t_span=(root.t, t), n_points=2)
    except modeqs.StepUnderflow as err:
        return None, f"StepUnderflow: {err}"
    if tr.status != "completed":
        return None, f"ODE status {tr.status}"
    return tr.state(-1), None


def cmd_analyze(cfg, out: Path, snapshots_dir=None) -> int:
    from . import modfit, sim

    lab = get_lab(**cfg["radial_grid"])
    exp = _expansion_from(cfg, lab)
    ft = dict(cfg["fit"])
    A = ft.pop("A")
    fit = modfit.Fit(exp, PolarGrid(**ft))
    snap_dir = Path(snapshots_dir) if snapshots_dir else out / "snapshots"
    paths = sorted(snap_dir.glob("snap_*.bin"))
    if not paths:
        raise FileNotFoundError(f"no snapshots under {snap_dir}")
    first = sim.read_snapshot(paths[0])
    pts = sim.box_points(first.L, first.n)
    stepper = sim.Stepper(first.L, first.n, exp.model.k(pts))
    root = None       # the last fitted parameters
    rows, gaps, skipped, fallback = [], [], [], []
    for path in paths:
        field = sim.read_snapshot(path)
        if (field.L, field.n) != (first.L, first.n):
            raise ValueError(f"{path.name}: box (L, n) = ({field.L}, {field.n}) differs from "
                             f"({first.L}, {first.n}) of {paths[0].name}")
        if root is None:
            predicted, guess = None, modeqs.existence_initial_state(field.t, exp.C0)
        else:
            predicted, why = _predict(root, exp.constants, field.t)
            if predicted is None:
                fallback.append({"file": path.name, "reason": why})
            guess = root if predicted is None else predicted
        try:
            dec = modfit.decompose(field, guess, fit)
        except modfit.NewtonDiverged as err:
            skipped.append({"file": path.name, "reason": str(err), **err.numbers})
            continue
        root = p = dec.params
        if predicted is not None:
            gaps.append([field.t, *(predicted.to_vector()[:7] - p.to_vector()[:7])])
        wv = prof.physical_field(exp, p)(pts)
        w_field = sim.ComplexField2D(field.L, wv, field.t)
        I_val = modfit.lyapunov_I(p, field, w_field, A, stepper)
        vb = modfit.virial_boundary(dec, A, lab.moments.ymomQ)
        rows.append([field.t, p.b, p.lam, p.alpha[0], p.alpha[1], p.beta[0],
                     p.beta[1], p.gamma, dec.eps_l2, dec.eps_h1, p.b / p.lam,
                     I_val, vb, dec.newton_iterations, dec.jacobian_cond,
                     np.max(np.abs(dec.residuals))])
    write_csv(out / "params.csv",
              ["t", "b", "lambda", "alpha1", "alpha2", "beta1", "beta2", "gamma",
               "eps_L2", "eps_H1", "b_over_lambda", "I_value", "virial_boundary",
               "newton_iterations", "jacobian_cond", "condition_residual"],
              rows)
    write_csv(out / "ode_gap.csv",
              ["t", "b", "lambda", "beta1", "beta2", "alpha1", "alpha2", "gamma"], gaps)
    report = {"snapshots_fit": len(rows), "snapshots_total": len(paths), "skipped": skipped,
              "predictor_fallback": fallback}
    if len(rows) >= 10:
        arr = np.array(rows)
        try:
            rate = modfit.fit_rate(arr[:, 0], arr[:, 2])
            report["fit"] = {"T_est": rate.T_est, "C0_est": rate.C0_est,
                             "window": rate.window, "residual": rate.residual}
        except (ValueError, modfit.NonMonotoneSeries) as err:
            report["fit_error"] = str(err)
    write_json(out / "analyze.json", report)
    _finish(out, "analyze", cfg, ["params.csv", "ode_gap.csv", "analyze.json"])
    return 0


# ----------------------------------------------------------------------

COMMANDS = {
    "ground-state": cmd_ground_state,
    "verify": cmd_verify,
    "profile": cmd_profile,
    "ode": cmd_ode,
    "appendix-b": cmd_appendix_b,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsblow",
        description="numerical laboratory for minimal-mass NLS blow-up with "
                    "an inhomogeneous nonlinearity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: $NLSBLOW_OUT/<command> or ./out)")
        if name == "analyze":
            p.add_argument("--snapshots", default=None,
                           help="snapshot directory (default: <out>/snapshots)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_root = os.environ.get("NLSBLOW_OUT", ".")
    out = Path(args.out) if args.out else Path(out_root) / "out" / args.command
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config)
        if args.command == "analyze":
            return COMMANDS[args.command](cfg, out, snapshots_dir=args.snapshots)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as err:
        record = {"error": "ConfigError", "violations": err.violations}
        write_json(out / "error.json", record)
        print(str(err), file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports everything
        record = {"error": type(err).__name__, "message": str(err),
                  "traceback": traceback.format_exc()}
        write_json(out / "error.json", record)
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
