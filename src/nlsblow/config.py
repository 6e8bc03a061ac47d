"""Run configuration: YAML with defaults, full validation, stable round-trip.

Validation collects every violation (path-addressed), not just the first, so
a config can be repaired in one pass.
"""

import copy
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml


class ConfigError(ValueError):
    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


DEFAULTS = {
    "kmodel": {
        "hessian": [[-0.2, 0.0], [0.0, -0.2]],
        "third": [0.0, 0.0, 0.0, 0.0],     # T111, T112, T122, T222
        "k1": 0.5,
    },
    "energy": {
        "E0": None,                         # explicit energy, or
        "C0": 1.0,                          # conformal-constant target
    },
    "radial_grid": {"r_max": 30.0, "n": 8192},
    "grid2d": {"L": 12.0, "n": 1024},
    "integrator": {"rtol": 1e-10, "atol": 1e-12, "lam_min": 1e-6},
    "profile": {"eta_star": 0.3, "lam_scan": [0.01, 0.1, 7], "weight": 0.25},
    "sim": {
        "c_dt": 0.05,
        "t_start": -0.3,
        "t_stop": None,
        "lam_stop": None,
        "dealias": True,
        "splitting_order": 2,
        "dt_refresh_every": 10,
        "series_stride": 5,
        "snapshot_stride": 50,
    },
    "fit": {"r_max": 25.0, "n_r": 500, "n_theta": 64, "A": 20.0},
    "ode": {"t1": -0.3, "s_end": 1000.0, "n_points": 400},
    "appendix_b": {"varsig": [0.05, 0.125, 0.5], "s_values": [2.0, 5.0, 10.0, 20.0]},
    "seed": 0,
}


@dataclass
class RunConfig:
    data: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    def __getitem__(self, key):
        return self.data[key]

    def section(self, name) -> dict:
        return self.data[name]

    def hessian(self) -> np.ndarray:
        return np.asarray(self.data["kmodel"]["hessian"], dtype=float)

    def third_tensor(self) -> np.ndarray:
        t = self.data["kmodel"]["third"]
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = t[0]
        T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = t[1]
        T[0, 1, 1] = T[1, 0, 1] = T[1, 1, 0] = t[2]
        T[1, 1, 1] = t[3]
        return T

    def model(self):
        from .kmodel import InhomogeneityModel

        return InhomogeneityModel(hessian=self.hessian(), third=self.third_tensor(),
                                  floor=float(self.data["kmodel"]["k1"]))

    def serialize(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=True, default_flow_style=None)


def _merge(base: dict, override: dict, path: str, violations: List[str]) -> dict:
    out = copy.deepcopy(base)
    for key, val in (override or {}).items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            violations.append(f"{here}: unknown key")
            continue
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                violations.append(f"{here}: expected a section")
            else:
                out[key] = _merge(base[key], val, here, violations)
        else:
            out[key] = val
    return out


def validate(data: dict) -> List[str]:
    """Every violation of a merged config, path-addressed."""
    v: List[str] = []
    km = data["kmodel"]
    H = np.asarray(km["hessian"], dtype=float)
    if H.shape != (2, 2):
        v.append("kmodel.hessian: must be a 2x2 matrix")
    else:
        if abs(H[0, 1] - H[1, 0]) > 1e-12 * (1 + np.max(np.abs(H))):
            v.append("kmodel.hessian: must be symmetric")
        if np.linalg.eigvalsh(0.5 * (H + H.T)).max() > 1e-12:
            v.append("kmodel.hessian: hessian not negative definite")
    third = km["third"]
    if not (isinstance(third, (list, tuple)) and len(third) == 4):
        v.append("kmodel.third: expected 4 entries [T111, T112, T122, T222]")
    k1 = km["k1"]
    if not (isinstance(k1, (int, float)) and 0.0 < k1 < 1.0):
        v.append("kmodel.k1: Assumption (H) bounds require 0 < k1 < 1")

    en = data["energy"]
    if en["E0"] is None and en["C0"] is None:
        v.append("energy: one of E0 or C0 must be set")
    if en["C0"] is not None and en["C0"] <= 0:
        v.append("energy.C0: must be positive")

    rg = data["radial_grid"]
    if rg["r_max"] < 15:
        v.append("radial_grid.r_max: must be at least 15 (ground-state tail)")
    if rg["n"] < 512:
        v.append("radial_grid.n: production runs need n >= 512")

    g2 = data["grid2d"]
    n = g2["n"]
    if not (isinstance(n, int) and n > 0 and (n & (n - 1)) == 0):
        v.append("grid2d.n: must be a power of two")
    if g2["L"] <= 0:
        v.append("grid2d.L: must be positive")

    si = data["sim"]
    if si["c_dt"] <= 0:
        v.append("sim.c_dt: must be positive")
    if si["splitting_order"] not in (2, 4):
        v.append("sim.splitting_order: must be 2 or 4")
    if si["lam_stop"] is not None and isinstance(n, int) and n > 0 and g2["L"] > 0:
        h = 2.0 * g2["L"] / n
        if si["lam_stop"] <= 4.0 * h:
            v.append(f"sim.lam_stop: must exceed 4 grid spacings (4h = {4 * h:.4g})")

    it = data["integrator"]
    for key in ("rtol", "atol", "lam_min"):
        if it[key] <= 0:
            v.append(f"integrator.{key}: must be positive")

    pr = data["profile"]
    if not (0 < pr["eta_star"] <= 1.0):
        v.append("profile.eta_star: must lie in (0, 1]")
    scan = pr["lam_scan"]
    if not (len(scan) == 3 and 0 < scan[0] < scan[1] and int(scan[2]) >= 2):
        v.append("profile.lam_scan: expected [lam_min, lam_max, count>=2]")

    ft = data["fit"]
    if ft["A"] < 10:
        v.append("fit.A: the virial cutoff radius must be at least 10")

    if not isinstance(data["seed"], int):
        v.append("seed: must be an integer")
    return v


def parse_config(text: Optional[str]) -> RunConfig:
    """Parse YAML text over the defaults; raises ConfigError with all issues."""
    try:
        user = yaml.safe_load(text) if text else {}
    except yaml.YAMLError as err:
        raise ConfigError([f"yaml: {err}"])
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError(["top level: expected a mapping"])
    violations: List[str] = []
    data = _merge(DEFAULTS, user, "", violations)
    violations += validate(data)
    if violations:
        raise ConfigError(violations)
    return RunConfig(data=data)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return parse_config(None)
    with open(path) as fh:
        return parse_config(fh.read())
