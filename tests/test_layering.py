"""Import layering: each module loads only the modules below it in one order,
and uses every name it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import nlsblow

SRC = Path(nlsblow.__file__).resolve().parents[1]


def test_radial_solves_ground_state_without_linops():
    # a fresh interpreter, so no other test's imports count
    code = ("import sys\n"
            "from nlsblow.radial import RadialGrid, solve_ground_state\n"
            "solve_ground_state(RadialGrid(20.0, 512))\n"
            "assert 'nlsblow.linops' not in sys.modules, 'radial imported linops'\n"
            "assert 'scipy.integrate' not in sys.modules, 'radial imported scipy.integrate'\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# scipy subpackages each command must not load: the lab needs scipy.linalg
# only, and the FFT and image subpackages load in the commands that run
# them.  None of these loads scipy.interpolate or scipy.integrate (the
# modulation ODE takes its own RK45 steps; only appendix-b runs quad and
# DOP853), which would bring optimize, sparse and spatial with them
FEW_STEPS = "grid2d: {L: 6.0, n: 512}\nsim: {t_stop: -0.2999}\n"
NOT_IN_ANY = ("integrate", "interpolate", "optimize", "sparse", "spatial")
COMMAND_SCIPY = {
    "verify": ("", NOT_IN_ANY + ("ndimage", "fft")),
    "profile": ("", NOT_IN_ANY + ("ndimage", "fft")),
    "ode": ("", NOT_IN_ANY + ("ndimage", "fft")),
    # a few steps on the fit workload's box, at the default lab
    "simulate": (FEW_STEPS, NOT_IN_ANY + ("ndimage",)),
    # the snapshots of that run, each guessed by the modulation ODE
    "analyze": (FEW_STEPS, NOT_IN_ANY),
}


def _scipy_loaded_by(command, config, out):
    """(exit code, the scipy.* modules loaded) of one command in a fresh interpreter."""
    code = ("import sys\n"
            "from nlsblow.cli import main\n"
            f"rc = main([{command!r}, '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
            "print(rc, ' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    return rc, loaded


@pytest.mark.parametrize("command", COMMAND_SCIPY)
def test_command_loads_only_its_scipy(tmp_path, command):
    config_text, banned = COMMAND_SCIPY[command]
    config = tmp_path / "config.yaml"
    config.write_text(config_text)
    if command == "analyze":
        assert _scipy_loaded_by("simulate", config, tmp_path)[0] == "0"
    rc, loaded = _scipy_loaded_by(command, config, tmp_path)
    assert rc == "0"
    assert "scipy.linalg" in loaded
    for sub in banned:
        assert not [m for m in loaded if m.split(".")[1] == sub], f"{command} loads scipy.{sub}"


# the declared order: a module may load only the package modules before it
ORDER = ("radial", "fields", "linops", "lab", "kmodel", "profile", "modeqs", "sim",
         "modfit", "config", "cli")


@pytest.mark.parametrize("index", range(len(ORDER)), ids=ORDER)
def test_module_loads_only_the_modules_before_it(index):
    allowed = {"nlsblow"} | {f"nlsblow.{name}" for name in ORDER[:index + 1]}
    code = ("import sys\n"
            f"import nlsblow.{ORDER[index]}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'nlsblow')))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert f"nlsblow.{ORDER[index]}" in loaded
    assert loaded <= allowed, f"nlsblow.{ORDER[index]} loads {sorted(loaded - allowed)}"


def test_sim_initializes_and_runs_without_the_profile_layers():
    # init_from_profile takes any point evaluator, so the PDE layer stands
    # alone: it loads no package module besides what `import nlsblow` loads
    code = ("import sys\n"
            "import numpy as np\n"
            "import nlsblow\n"
            "before = set(sys.modules)\n"
            "from nlsblow import sim\n"
            "u1 = lambda x: np.exp(-0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)) + 0j\n"
            "f0 = sim.init_from_profile(u1, 1.0, -0.5, 8.0, 128)\n"
            "res = sim.run(sim.SimConfig(c_dt=0.01, max_steps=4), f0, np.ones((128, 128)),\n"
            "              1.0, 1.0)\n"
            "assert res.reason == 'max_steps', res.reason\n"
            "print(' '.join(sorted(m for m in set(sys.modules) - before\n"
            "                      if m.split('.')[0] == 'nlsblow')))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["nlsblow.sim"]


def _unused_imports(path: Path) -> list:
    """Names the module imports (at any depth) and never loads, less `__all__`."""
    tree = ast.parse(path.read_text())
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted((SRC / "nlsblow").glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []
