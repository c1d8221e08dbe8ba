"""The package's public surface: ``elgal.__all__``, the names that left it,
and what importing the package loads."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import elgal


def test_all_names_resolve_and_none_is_a_tester_or_module():
    assert len(set(elgal.__all__)) == len(elgal.__all__)
    for name in elgal.__all__:
        assert not name.startswith("test_"), name
        assert not isinstance(getattr(elgal, name), types.ModuleType), name


# Helpers only the tests used now live in tests/oracles.py (``skw`` had no
# caller and is gone).  A name that reappears in its old module fails here.
MOVED = [
    ("elgal.diagnostics", "test_ericksen_identity"),
    ("elgal.leslie", "ericksen_stress"),
    ("elgal.tensors", "sym_skw"),
    ("elgal.tensors", "is_symmetric_pair"),
    ("elgal.tensors", "skw"),
    ("elgal.tensors", "outer"),
    ("elgal.basis", "SpectralGrid.axes_points"),
    ("elgal.basis", "SpectralGrid.l2_norm"),
]


@pytest.mark.parametrize("module_name, path", MOVED)
def test_moved_name_is_gone_from_its_old_module(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert not hasattr(owner, name)


# Subpackages that importing ``scipy.stats`` pulls in.  Of scipy, only
# ``scipy.sparse`` (the CSR scatter/gather operators) belongs at run time.
UNWANTED_SCIPY = {"stats", "optimize", "spatial", "linalg", "special", "integrate", "interpolate", "ndimage"}


def _scipy_subpackages_after(statement):
    """The ``scipy.*`` subpackages loaded after ``statement`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(elgal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"{statement}\nimport sys\nprint(*sorted({{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module_name", ["elgal", "elgal.cli"])
def test_import_loads_no_scipy_beyond_sparse(module_name):
    # What ``scipy.sparse`` loads by itself is its own import graph, not
    # elgal's; ``scipy.stats`` is never one of those.
    unwanted = UNWANTED_SCIPY - (_scipy_subpackages_after("import scipy.sparse") - {"stats"})
    loaded = _scipy_subpackages_after(f"import {module_name}")
    assert not loaded & unwanted, f"import {module_name} loads scipy subpackages {sorted(loaded)}"
