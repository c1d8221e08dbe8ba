"""Outside-in span tracing of elgal's public functions.

A ``Tracer`` replaces each target function or method with a wrapper that
records one span per call: ``[name, start, end, parent, extra]``, where
``parent`` is the index of the enclosing span (-1 at the top) and ``extra``
holds what an ``EXTRAS`` function computed from the call's arguments.  Spans stay
in memory; ``Tracer.patch`` restores every original on exit, so untraced and
traced jobs can alternate in one process.

Module-level functions are replaced under every name an ``elgal`` module
binds them to (``from .simulate import run`` makes a second binding), and
methods are replaced on the class that defines them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time

# Span name -> the public functions and methods it wraps.
LAYER_TARGETS = {
    "cli.main": ["elgal.cli:main"],
    "config.parse": ["elgal.config:parse_config"],
    "scenarios.run_scenario": ["elgal.scenarios:run_scenario"],
    # Private, wrapped only so that assertion checks are not counted as I/O.
    "scenarios.assertions": ["elgal.scenarios:_evaluate_assertions"],
    "simulate.run": ["elgal.simulate:run"],
    "simulate.build_system": ["elgal.simulate:build_system"],
    "basis.build": ["elgal.basis:build_velocity_basis", "elgal.basis:build_director_basis"],
    "simulate.step": ["elgal.simulate:GalerkinSystem.step"],
    "simulate.rhs": ["elgal.simulate:GalerkinSystem.assemble_rhs"],
    "simulate.director_eval": ["elgal.simulate:GalerkinSystem.director_eval"],
    "simulate.velocity_fields": ["elgal.simulate:GalerkinSystem.velocity_fields"],
    "basis.scatter": ["elgal.basis:DirectorBasis.synthesize_spec_half"],
    "basis.gather": [
        "elgal.basis:DirectorBasis.analyze_spec_half",
        "elgal.basis:VelocityBasis.project_stress_spec_half",
    ],
    "basis.irfft": ["elgal.basis:SpectralGrid.irfft"],
    "basis.rfft": ["elgal.basis:SpectralGrid.rfft"],
    "energies.pointwise": [
        "elgal.energies:variational_derivative",
        "elgal.energies:FreeEnergyModel+.dF_dh",
        "elgal.energies:FreeEnergyModel+.dF_dS",
        "elgal.energies:FreeEnergyModel+.d2F_dS2_vary",
        "elgal.energies:FreeEnergyModel+.d2F_dSdh",
    ],
    "energies.total_energy": ["elgal.energies:total_energy"],
    "leslie.stress": ["elgal.leslie:leslie_stress_discrete"],
    "diagnostics.ledger": ["elgal.diagnostics:energy_ledger"],
    "diagnostics.residual_series": ["elgal.diagnostics:energy_residual_series"],
    "diagnostics.inequality": [
        "elgal.diagnostics:test_interpolation_inequality",
        "elgal.diagnostics:test_velocity_interpolation",
    ],
    "diagnostics.write_ledger": ["elgal.diagnostics:write_ledger"],
}

# The few boundaries an untraced job needs: set-up and integration phase
# times, one span per ledger record (the record periods time the steps), the
# run result and the interpolation verdicts.  No span inside a time step.
PROBE_TARGETS = {
    name: LAYER_TARGETS[name]
    for name in ("simulate.run", "simulate.build_system", "diagnostics.ledger", "diagnostics.inequality")
}

# Span names whose return values a job keeps for its checks.
KEEP_RESULTS = ("simulate.run", "diagnostics.inequality")


def _fft_extra(grid, array):
    """(real components, bytes computed) of one transform: the n^3 real
    fields plus the n^2 (n/2+1) complex half spectra, from array sizes."""
    n = grid.n
    comps = math.prod(array.shape[3:])
    return comps, comps * (n**3 * 8 + n * n * (n // 2 + 1) * 16)


EXTRAS = {"basis.irfft": _fft_extra, "basis.rfft": _fft_extra}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)
        keep = self.results.setdefault(name, []) if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, extra(*args) if extra else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if keep is not None:
                keep.append(out)
            return out

        return traced

    @contextlib.contextmanager
    def patch(self, targets: dict[str, list[str]]):
        undo: list[tuple] = []
        try:
            for name, specs in targets.items():
                for spec in specs:
                    self._patch_one(name, spec, undo)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _patch_one(self, name: str, spec: str, undo: list) -> None:
        module_name, path = spec.split(":")
        module = importlib.import_module(module_name)
        if "." not in path:
            orig = getattr(module, path)
            new = self.wrap(name, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "elgal":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)
                        undo.append((mod, attr, orig))
            return
        cls_name, attr = path.split(".")
        if cls_name.endswith("+"):
            # The class and every subclass that defines the method itself.
            base = getattr(module, cls_name[:-1])
            owners, todo = [], [base]
            while todo:
                cls = todo.pop()
                owners.append(cls)
                todo.extend(cls.__subclasses__())
        else:
            cls = getattr(module, cls_name)
            owners = [next(c for c in cls.__mro__ if attr in vars(c))]
        for owner in owners:
            orig = vars(owner).get(attr)
            if orig is None or getattr(orig, "__isabstractmethod__", False):
                continue
            if any(o is owner and a == attr for o, a, _ in undo):
                continue
            setattr(owner, attr, self.wrap(name, orig))
            undo.append((owner, attr, orig))


class SpanTable:
    """Totals, self times and ancestry over a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def indices(self, name: str, outermost: bool = False) -> list[int]:
        spans = self.spans
        return [
            i
            for i, s in enumerate(spans)
            if s[0] == name and not (outermost and s[3] >= 0 and spans[s[3]][0] == name)
        ]

    def count(self, name: str, **kw) -> int:
        return len(self.indices(name, **kw))

    def total(self, name: str, self_only: bool = False, **kw) -> float:
        times = self.self_time if self_only else self.dur
        return sum(times[i] for i in self.indices(name, **kw))

    def per_call(self, name: str, self_only: bool = False, outermost: bool = False) -> float:
        calls = self.count(name, outermost=outermost)
        return self.total(name, self_only, outermost=outermost) / calls if calls else 0.0

    def under(self, ancestor: str) -> list[bool]:
        """For each span, whether it is or lies inside a span named ``ancestor``."""
        flags: list[bool] = []
        for s in self.spans:  # parents precede their children
            flags.append(s[0] == ancestor or (s[3] >= 0 and flags[s[3]]))
        return flags

    def children_of(self, name: str) -> list[int]:
        owners = set(self.indices(name))
        return [i for i, s in enumerate(self.spans) if s[3] in owners]
