"""Import layering: the ground state is solved without the layers above it."""

import subprocess
import sys
from pathlib import Path

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


def test_radial_loads_without_fields():
    code = ("import sys\n"
            "import nlsblow.radial\n"
            "assert 'nlsblow.fields' not in sys.modules, 'radial imported fields'\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
