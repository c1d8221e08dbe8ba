"""The benchmark's span targets still name callables in elgal.

``perfbench/tracing.py`` wraps elgal functions and methods by name.  It is
read and executed here without importing it as a module, so nothing is
written under ``perfbench/``.  A rename in ``src/`` then fails this fast
test instead of only the benchmark's traced run.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from elgal.scenarios import _base_config
from elgal.simulate import build_system, initial_state

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
SPECS = sorted({spec for specs in tracing.LAYER_TARGETS.values() for spec in specs})


@pytest.mark.parametrize("spec", SPECS)
def test_layer_target_resolves_to_a_callable(spec):
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part.rstrip("+"))
    assert callable(owner)


def test_hot_path_spans_are_recorded():
    # fields() reaches director_eval and velocity_fields, and a step
    # reaches assemble_rhs, under the names the benchmark wraps.
    cfg = _base_config(
        n=8,
        n_v=12,
        n_d=21,
        model_type="with_freedom",
        model_params={"b": np.array([0.1, 0.0, 0.2]), "b_bar": 0.0},
    )
    system = build_system(cfg)
    state = initial_state(cfg, system)
    tracer = tracing.Tracer()
    with tracer.patch(tracing.LAYER_TARGETS):
        system.step(state, 1e-3, rhs=system.assemble_rhs(state))
    seen = {span[0] for span in tracer.spans}
    expected = {
        "simulate.step",
        "simulate.rhs",
        "simulate.director_eval",
        "simulate.velocity_fields",
        "basis.scatter",
        "basis.gather",
        "basis.irfft",
        "basis.rfft",
        "energies.pointwise",
    }
    assert expected <= seen
