"""The shared lab cache."""

from nlsblow.lab import get_lab


def test_get_lab_one_build_however_called(lab):
    # the tests' fixture and the CLI (which passes the config's grid) share one build
    assert get_lab() is lab
    assert get_lab(r_max=30.0, n=8192) is lab
    assert get_lab(30, 8192.0, 1e-10) is lab
