"""The package's public surface: ``elgal.__all__`` and the names that left it."""

import importlib
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
