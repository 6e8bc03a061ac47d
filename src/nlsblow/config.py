"""Run configuration: one table of keys, YAML over its defaults, stable round-trip.

``SCHEMA`` has one entry per leaf key, by its dotted path: the default, the
check, and the requirement a violation states.  ``DEFAULTS`` is derived from
it.  A check returns the value typed (real keys as float, integer keys as
int, so callers read them without casts) or raises ValueError.
``parse_config`` merges the YAML over the defaults, runs every key's check,
then the rules that join keys, then the k-model's own
``InhomogeneityModel.validate``.  Every violation is collected,
path-addressed, so a config can be repaired in one pass.
"""

import copy
import math
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np
import yaml

from .kmodel import InhomogeneityModel
from .linops import M_MAX


class ConfigError(ValueError):
    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


def _number(kind, ok=lambda x: True):
    """A finite number of kind (float also takes an integer) for which ok holds, as kind."""
    def check(x):
        if isinstance(x, bool) or not isinstance(x, (int, kind)):
            raise ValueError
        x = kind(x)
        if not (math.isfinite(x) and ok(x)):
            raise ValueError
        return x
    return check


def _nullable(check):
    return lambda x: None if x is None else check(x)


def _row(*checks):
    """A list with one entry per check."""
    def check(x):
        if not isinstance(x, list) or len(x) != len(checks):
            raise ValueError
        return [c(v) for c, v in zip(checks, x)]
    return check


def _list(item):
    """A non-empty list whose every entry passes item."""
    def check(x):
        if not isinstance(x, list) or not x:
            raise ValueError
        return [item(v) for v in x]
    return check


_real = partial(_number, float)
_int = partial(_number, int)
_R = _real()
_POS = _real(lambda x: x > 0)
_NEG = _real(lambda x: x < 0)
_STRIDE = _int(lambda n: n >= 1)

# dotted path: (default, check, the requirement a violation states)
SCHEMA = {
    "kmodel.hessian": ([[-0.2, 0.0], [0.0, -0.2]], _row(_row(_R, _R), _row(_R, _R)),
                       "must be a 2x2 matrix"),
    "kmodel.third": ([0.0, 0.0, 0.0, 0.0], _row(_R, _R, _R, _R),
                     "expected 4 entries [T111, T112, T122, T222]"),
    "kmodel.k1": (0.5, _real(lambda x: 0 < x < 1), "Assumption (H) bounds require 0 < k1 < 1"),
    "energy.E0": (None, _nullable(_R), "must be null or a number (explicit energy)"),
    "energy.C0": (1.0, _nullable(_POS), "must be null or positive (conformal-constant target)"),
    "radial_grid.r_max": (30.0, _real(lambda x: x >= 15), "must be at least 15 (ground-state tail)"),
    # a floor only: at r_max = 30 the default k needs more than n = 4096 to build
    "radial_grid.n": (8192, _int(lambda n: n >= 512), "must be at least 512"),
    "grid2d.L": (12.0, _POS, "must be positive"),
    "grid2d.n": (1024, _int(lambda n: n > 0 and not n & (n - 1)), "must be a power of two"),
    "integrator.rtol": (1e-10, _POS, "must be positive"),
    "integrator.atol": (1e-12, _POS, "must be positive"),
    "integrator.lam_min": (1e-6, _POS, "must be positive"),
    "profile.eta_star": (0.3, _real(lambda x: 0 < x <= 1), "must lie in (0, 1]"),
    "profile.lam_scan": ([0.01, 0.1, 7], _row(_POS, _POS, _int(lambda n: n >= 2)),
                         "expected [lam_min, lam_max, count>=2]"),
    "profile.weight": (0.25, _R, "must be a number"),
    "sim.c_dt": (0.05, _POS, "must be positive"),
    "sim.t_start": (-0.3, _NEG, "must be negative (blow-up at t = 0)"),
    # the blow-up time: data that do not collapse run past it and never end
    "sim.t_stop": (0.0, _nullable(_R), "must be null or a number"),
    "sim.lam_stop": (None, _nullable(_POS), "must be null or positive"),
    "sim.splitting_order": (2, _int(lambda n: n in (2, 4)), "must be 2 or 4"),
    "sim.dt_refresh_every": (10, _STRIDE, "must be an integer >= 1"),
    "sim.series_stride": (5, _STRIDE, "must be an integer >= 1"),
    "sim.snapshot_stride": (50, _STRIDE, "must be an integer >= 1"),
    "fit.r_max": (25.0, _POS, "must be positive"),
    "fit.n_r": (500, _int(lambda n: n >= 8), "must be an integer >= 8"),
    "fit.n_theta": (64, _int(lambda n: n > 2 * M_MAX),
                    f"must be an integer > {2 * M_MAX}, twice the largest profile mode"),
    "fit.A": (20.0, _real(lambda x: x >= 10), "the virial cutoff radius must be at least 10"),
    "ode.t1": (-0.3, _NEG, "must be negative (blow-up at t = 0)"),
    "ode.s_end": (1000.0, _R, "must be a number"),
    "ode.n_points": (400, _int(lambda n: n >= 2), "must be an integer >= 2"),
    "appendix_b.varsig": ([0.05, 0.125, 0.5], _list(_POS), "expected a list of positive numbers"),
    "appendix_b.s_values": ([2.0, 5.0, 10.0, 20.0], _list(_R), "expected a list of numbers"),
    "seed": (0, _int(), "must be an integer"),
}


def _leaf(data: dict, path: str):
    """(the section holding path's key, the key's name)."""
    section, _, name = path.rpartition(".")
    return (data.setdefault(section, {}) if section else data), name


DEFAULTS: dict = {}
for _path, (_default, _, _) in SCHEMA.items():
    _section, _name = _leaf(DEFAULTS, _path)
    _section[_name] = _default


@dataclass
class RunConfig:
    data: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    def __getitem__(self, key):
        return self.data[key]

    def third_tensor(self) -> np.ndarray:
        """The symmetric T from [T111, T112, T122, T222]: T[i, j, l] = entry i + j + l."""
        return np.array(self.data["kmodel"]["third"])[np.indices((2, 2, 2)).sum(axis=0)]

    def model(self):
        return InhomogeneityModel(hessian=self.data["kmodel"]["hessian"], third=self.third_tensor(),
                                  floor=self.data["kmodel"]["k1"])

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


def _joint_rules(cfg: RunConfig, bad: set) -> List[str]:
    """The rules that join keys, on the keys that passed their own checks."""
    v = []
    if "kmodel.hessian" not in bad:
        H = np.array(cfg["kmodel"]["hessian"])
        if abs(H[0, 1] - H[1, 0]) > 1e-12 * (1 + np.max(np.abs(H))):
            v.append("kmodel.hessian: must be symmetric")
        if np.linalg.eigvalsh(0.5 * (H + H.T)).max() > 1e-12:
            v.append("kmodel.hessian: hessian not negative definite")
    en = cfg["energy"]
    if (en["E0"] is None) == (en["C0"] is None) and not bad & {"energy.E0", "energy.C0"}:
        v.append("energy: set exactly one of E0 and C0")
    scan = cfg["profile"]["lam_scan"]
    if "profile.lam_scan" not in bad and not scan[0] < scan[1]:
        v.append("profile.lam_scan: lam_min must be below lam_max")
    lam_stop, g2 = cfg["sim"]["lam_stop"], cfg["grid2d"]
    if lam_stop is not None and not bad & {"sim.lam_stop", "grid2d.L", "grid2d.n"}:
        h = 2.0 * g2["L"] / g2["n"]
        if lam_stop <= 4.0 * h:
            v.append(f"sim.lam_stop: must exceed 4 grid spacings (4h = {4 * h:.4g})")
    fit_r, lab_r = cfg["fit"]["r_max"], cfg["radial_grid"]["r_max"]
    if not bad & {"fit.r_max", "radial_grid.r_max"} and fit_r > lab_r:
        v.append(f"fit.r_max: must not exceed radial_grid.r_max = {lab_r:g}")
    return v


def parse_config(text: Optional[str]) -> RunConfig:
    """Parse YAML text over the defaults; raises ConfigError with all issues."""
    try:
        user = yaml.safe_load(text) if text else {}
    except yaml.YAMLError as err:
        raise ConfigError([f"yaml: {err}"])
    if user is not None and not isinstance(user, dict):
        raise ConfigError(["top level: expected a mapping"])
    violations: List[str] = []
    data = _merge(DEFAULTS, user, "", violations)
    energy = (user or {}).get("energy")
    if isinstance(energy, dict) and energy.get("E0") is not None and "C0" not in energy:
        data["energy"]["C0"] = None     # an energy set alone replaces the default C0
    for path, (_, check, need) in SCHEMA.items():
        section, name = _leaf(data, path)
        try:
            section[name] = check(section[name])
        except (ValueError, OverflowError):
            violations.append(f"{path}: {need}")
    cfg = RunConfig(data=data)
    violations += _joint_rules(cfg, {v.split(":")[0] for v in violations})
    if not any(v.startswith("kmodel") for v in violations):
        violations += [f"kmodel: {msg}" for msg in cfg.model().validate()]
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return parse_config(None)
    with open(path) as fh:
        return parse_config(fh.read())
