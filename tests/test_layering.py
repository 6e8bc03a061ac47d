"""Import layering: each module loads only the modules below it in one order."""

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
            "assert 'nlsblow.linops' not in sys.modules, 'radial imported linops'\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
