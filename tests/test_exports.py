import importlib

import pytest

MODULES = ["cli", "harness", "integrators", "models", "spectral_analysis", "spectral_core", "svgplot"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"relaxlab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"relaxlab.{name}.__all__ lists undefined names {missing}"


def test_star_import():
    ns = {}
    exec("from relaxlab import *", ns)
    assert "evolve" in ns and "Grid" in ns
