"""Flat key=value scenario configuration.

Sections and keys (defaults in brackets):

[model]
    type                ginzburg_landau | with_field | with_freedom |
                        simplified_oseen_frank | scaled_oseen_frank
    base                base type for the two wrapper models [ginzburg_landau]
    eps                 unit-length penalty scale [1.0]
    penalty             on|off, include the quartic well [on]
    k1 k2 alpha         simplified_oseen_frank parameters
    k1 k2 k3 k4 s       scaled_oseen_frank parameters
    chi_perp chi_par H  with_field parameters, H = "hx hy hz"
    b b_bar             with_freedom parameters, b = "bx by bz"
[leslie]
    mu1 [1.0]  mu2  mu3  mu4  mu5 [0.0]  mu6 [1.0]
    allow_nondissipative [off]
[grid]
    N                   points per dimension of the largest transform grid (even, >= 8)
    n_v n_d             retained mode counts ["all"]
[time]
    dt  t_end           t_end a whole number of steps of dt
[io]
    record_every [1]  outdir [""]  ledger [ledger.csv]  snapshot_every [0]
[initial]   (optional)
    velocity, director: zero | constant cx cy cz (director only)
                        | mode kx ky kz branch cos|sin amplitude
                        | random seed amplitude
[forcing]   (optional)
    velocity: zero | mode ... | random ...   (constant in time)
[assert]    (optional)
    energy_monotonic [off]      energy_slack [1e-8]
    kinetic_decay_rate          kinetic_decay_rtol [1e-6]
    director_energy_decay_rate  director_energy_decay_rtol [1e-8]
    residual_cap                cross_identically_zero [off]
    A tolerance (energy_slack, *_rtol) is refused without its assertion;
    tolerances and residual_cap must be nonnegative.  run and validate refuse
    residual_cap on a ledger of fewer than three records, the other assertions
    but cross_identically_zero on one of fewer than two.

Unknown sections or keys are rejected, naming the offender.  The [model]
types and their keys come from one table, ``_MODELS``: an energy type is its
class plus one entry there.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .energies import (
    FreeEnergyModel,
    GinzburgLandau,
    ScaledOseenFrank,
    SimplifiedOseenFrank,
    WithField,
    WithFreedom,
)
from .leslie import LeslieCoefficients


class ConfigError(ValueError):
    pass


def _with_field(base, chi_perp, chi_par, H):
    # WithField takes the field first; the keys keep their documented order.
    return WithField(base, H, chi_perp, chi_par)


# The energy catalog: each type's constructor and whether it wraps a base,
# then its required keys in the documented order, so a config missing several
# is told of the first whatever the string hash seed.  A base energy is built
# from its keys and eps, a wrapper from the built base and its keys.
_MODELS = {
    "ginzburg_landau": (GinzburgLandau, False, ()),
    "simplified_oseen_frank": (SimplifiedOseenFrank, False, ("k1", "k2", "alpha")),
    "scaled_oseen_frank": (ScaledOseenFrank, False, ("k1", "k2", "k3", "k4", "s")),
    "with_field": (_with_field, True, ("chi_perp", "chi_par", "H")),
    "with_freedom": (WithFreedom, True, ("b", "b_bar")),
}

# Each [assert] key that takes a tolerance: the tolerance's key and default.
_TOLERANCES = {
    "energy_monotonic": ("energy_slack", 1e-8),
    "kinetic_decay_rate": ("kinetic_decay_rtol", 1e-6),
    "director_energy_decay_rate": ("director_energy_decay_rtol", 1e-8),
}
_ASSERT_KEYS = {"residual_cap", "cross_identically_zero", *_TOLERANCES, *(key for key, _ in _TOLERANCES.values())}
# The fewest ledger records each [assert] key compares: a difference or a
# decay needs two, a centered-difference residual an interior record.
_MIN_RECORDS = {"energy_monotonic": 2, "kinetic_decay_rate": 2, "director_energy_decay_rate": 2, "residual_cap": 3}


@dataclass
class SimulationConfig:
    model_type: str
    model_params: dict
    base_type: str
    base_params: dict
    mu: tuple
    allow_nondissipative: bool
    n: int
    n_v: int | None
    n_d: int | None
    dt: float
    t_end: float
    record_every: int = 1
    outdir: str = ""
    ledger_name: str = "ledger.csv"
    snapshot_every: int = 0
    initial_velocity: tuple = ("zero",)
    initial_director: tuple = ("zero",)
    forcing_velocity: tuple = ("zero",)
    assertions: dict = field(default_factory=dict)

    def __post_init__(self):
        # Here, not in run(), so that every command refuses the same configs.
        n_steps = round(self.t_end / self.dt)
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ConfigError("key 't_end': must be an integer multiple of dt (fixed-step scheme)")

    def check_records(self) -> None:
        """Refuse an [assert] key that compares more ledger records than a run makes."""
        n_steps = round(self.t_end / self.dt)
        records = -(-n_steps // self.record_every) + 1  # steps 0, record_every, ..., and the last
        for key in self.assertions:
            if records < _MIN_RECORDS.get(key, 1):
                raise ConfigError(f"key '{key}': needs at least {_MIN_RECORDS[key]} ledger records, got {records}")

    def build_coefficients(self) -> LeslieCoefficients:
        return LeslieCoefficients(*self.mu)

    def build_model(self) -> FreeEnergyModel:
        wrap, wraps, wrap_keys = _MODELS[self.model_type]
        p = self.base_params if wraps else self.model_params
        make, _, keys = _MODELS[self.base_type if wraps else self.model_type]
        model = make(*(p[k] for k in keys), eps=p.get("eps", 1.0) if p.get("penalty", True) else None)
        return wrap(model, *(self.model_params[k] for k in wrap_keys)) if wraps else model

    def canonical_text(self) -> str:
        """Deterministic flat rendering, used for checkpoint hashes."""
        out = io.StringIO()
        for key, val in sorted(vars(self).items()):
            if isinstance(val, dict):
                val = sorted((k, _render(v)) for k, v in val.items())
            out.write(f"{key}={_render(val)}\n")
        return out.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _render(v):
    if isinstance(v, np.ndarray):
        return "[" + " ".join(repr(float(x)) for x in v.ravel()) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


class _Section:
    def __init__(self, name: str, raw: dict, allowed: set):
        self.name = name
        self.raw = dict(raw)
        for key in self.raw:
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")

    def get(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing required key '{key}' in section [{self.name}]")
            return default
        return self.raw[key]

    def get_float(self, key, default=None, required=False, positive=False, nonnegative=False):
        raw = self.get(key, None, required)
        if raw is None:
            return default
        val = _number(key, raw)
        if positive and not val > 0:
            raise ConfigError(f"key '{key}': must be positive, got {val}")
        if nonnegative and val < 0:
            raise ConfigError(f"key '{key}': must be nonnegative, got {val}")
        return val

    def get_int(self, key, default=None, required=False, minimum=None):
        raw = self.get(key, None, required)
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': not an integer: {raw!r}") from None
        if minimum is not None and val < minimum:
            raise ConfigError(f"key '{key}': must be >= {minimum}, got {val}")
        return val

    def get_bool(self, key, default=False):
        raw = self.get(key)
        if raw is None:
            return default
        low = str(raw).strip().lower()
        if low in ("on", "true", "yes", "1"):
            return True
        if low in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"key '{key}': expected on/off, got {raw!r}")

    def get_vec3(self, key, required=False):
        raw = self.get(key, None, required)
        if raw is None:
            return None
        parts = raw.replace(",", " ").split()
        if len(parts) != 3:
            raise ConfigError(f"key '{key}': expected three components, got {raw!r}")
        return np.array([_number(key, x) for x in parts])


def _number(key: str, text: str) -> float:
    """A finite float: nan and +-inf would only fail later, far from the key."""
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {text!r}") from None
    if not np.isfinite(val):
        raise ConfigError(f"key '{key}': must be finite, got {text!r}")
    return val


# Number of values after each directive keyword.
_DIRECTIVE_VALUES = {"zero": 0, "constant": 3, "mode": 6, "random": 2}


def _parse_directive(sec: _Section, key: str, allow_constant=False):
    raw = sec.get(key)
    if raw is None:
        return ("zero",)
    kind, *args = raw.split() or ("",)
    kind = kind.lower()
    if kind not in _DIRECTIVE_VALUES or (kind == "constant" and not allow_constant):
        raise ConfigError(f"key '{key}': unknown directive {raw!r}")
    if len(args) != _DIRECTIVE_VALUES[kind]:
        raise ConfigError(
            f"key '{key}': directive {kind!r} takes {_DIRECTIVE_VALUES[kind]} values, "
            f"got {len(args)} in {raw!r}"
        )
    if kind == "mode" and args[4].lower() not in ("cos", "sin"):
        raise ConfigError(f"key '{key}': parity must be cos or sin")
    if kind == "zero":
        return ("zero",)
    if kind == "constant":
        return ("constant", np.array([_number(key, x) for x in args]))
    try:
        ints = [int(x) for x in args[: 4 if kind == "mode" else 1]]
    except ValueError:
        raise ConfigError(f"key '{key}': malformed directive {raw!r}") from None
    amp = _number(key, args[-1])
    if kind == "mode":
        return ("mode", tuple(ints[:3]), ints[3], args[4].lower(), amp)
    if ints[0] < 0 or amp < 0:
        raise ConfigError(f"key '{key}': random seed and amplitude must be nonnegative, got {raw!r}")
    return ("random", ints[0], amp)


def parse_config(path: str) -> SimulationConfig:
    """Read and fully validate a scenario configuration file."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    known = {"model", "leslie", "grid", "time", "io", "initial", "forcing", "assert"}
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    raw = {name: dict(cp.items(name)) for name in cp.sections()}
    for required_sec in ("model", "leslie", "grid", "time"):
        if required_sec not in raw:
            raise ConfigError(f"missing required section [{required_sec}]")

    msec_raw = raw["model"]
    mtype = msec_raw.get("type")
    if mtype is None:
        raise ConfigError("missing required key 'type' in section [model]")
    if mtype not in _MODELS:
        raise ConfigError(f"key 'type': unknown model type {mtype!r}")
    _, wraps, keys = _MODELS[mtype]
    base_type = msec_raw.get("base", "ginzburg_landau") if wraps else mtype
    if base_type not in _MODELS or _MODELS[base_type][1]:
        raise ConfigError(f"key 'base': unknown base type {base_type!r}")
    wrap_keys = keys if wraps else ()
    base_keys = _MODELS[base_type][2]
    allowed = {"type", "eps", "penalty", *base_keys, *wrap_keys}
    msec = _Section("model", msec_raw, allowed | ({"base"} if wraps else set()))

    def value(key):
        if key in ("H", "b"):
            return msec.get_vec3(key, required=True)
        return msec.get_float(key, required=True, positive=key in ("k1", "k2"), nonnegative=key in ("k3", "k4"))

    # Wrapper keys first, then the base's.
    wrap_params = {key: value(key) for key in wrap_keys}
    params: dict = {"penalty": msec.get_bool("penalty", True)}
    if str(msec.get("eps", "")).lower() == "none":
        if params["penalty"] and "penalty" in msec.raw:
            raise ConfigError("key 'penalty': cannot be on with eps = none")
        params["penalty"] = False
    else:
        params["eps"] = msec.get_float("eps", 1.0, positive=True)
    params.update((key, value(key)) for key in base_keys)
    mparams, bparams = (wrap_params, params) if wraps else (params, {})

    lsec = _Section("leslie", raw["leslie"], {f"mu{i}" for i in range(1, 7)} | {"allow_nondissipative"})
    mu = (
        lsec.get_float("mu1", 1.0),
        lsec.get_float("mu2", required=True),
        lsec.get_float("mu3", required=True),
        lsec.get_float("mu4", required=True),
        lsec.get_float("mu5", 0.0),
        lsec.get_float("mu6", 1.0),
    )
    if mu[2] == mu[1]:
        raise ConfigError("key 'mu3': mu3 must differ from mu2 (gamma undefined)")

    gsec = _Section("grid", raw["grid"], {"N", "n_v", "n_d"})
    n = gsec.get_int("N", required=True)
    if n < 8 or n % 2 != 0:
        raise ConfigError(f"key 'N': resolution must be even and >= 8, got {n}")

    def mode_count(key, capacity):
        raw_val = gsec.get(key)
        if raw_val is None or str(raw_val).lower() == "all":
            return None
        val = gsec.get_int(key, minimum=1)
        if val > capacity:
            raise ConfigError(f"key '{key}': {val} exceeds grid capacity {capacity}")
        return val

    # Wavevectors k != 0 of the half spectrum with |k|_inf <= (N-1)//3: four
    # velocity modes each, six director modes each plus three constants.
    half = ((2 * ((n - 1) // 3) + 1) ** 3 - 1) // 2
    n_v = mode_count("n_v", 4 * half)
    n_d = mode_count("n_d", 3 + 6 * half)

    tsec = _Section("time", raw["time"], {"dt", "t_end"})
    dt = tsec.get_float("dt", required=True, positive=True)
    t_end = tsec.get_float("t_end", required=True, nonnegative=True)

    iosec = _Section("io", raw.get("io", {}), {"record_every", "outdir", "ledger", "snapshot_every"})
    isec = _Section("initial", raw.get("initial", {}), {"velocity", "director"})
    fsec = _Section("forcing", raw.get("forcing", {}), {"velocity"})

    asec = _Section("assert", raw.get("assert", {}), _ASSERT_KEYS)
    assertions: dict = {}
    for key, (tol_key, tol_default) in _TOLERANCES.items():
        is_rate = key != "energy_monotonic"
        setting = asec.get_float(key) if is_rate else asec.get_bool(key) or None
        tol = asec.get_float(tol_key, tol_default, nonnegative=True)
        if setting is not None:
            assertions[key] = (setting, tol) if is_rate else tol
        elif tol_key in asec.raw:
            raise ConfigError(f"key '{tol_key}': needs the assertion '{key}'")
    cap = asec.get_float("residual_cap", nonnegative=True)
    if cap is not None:
        assertions["residual_cap"] = cap
    if asec.get_bool("cross_identically_zero", False):
        assertions["cross_identically_zero"] = True

    return SimulationConfig(
        model_type=mtype,
        model_params=mparams,
        base_type=base_type,
        base_params=bparams,
        mu=mu,
        allow_nondissipative=lsec.get_bool("allow_nondissipative", False),
        n=n,
        n_v=n_v,
        n_d=n_d,
        dt=dt,
        t_end=t_end,
        record_every=iosec.get_int("record_every", 1, minimum=1),
        outdir=iosec.get("outdir", ""),
        ledger_name=iosec.get("ledger", "ledger.csv"),
        snapshot_every=iosec.get_int("snapshot_every", 0, minimum=0),
        initial_velocity=_parse_directive(isec, "velocity"),
        initial_director=_parse_directive(isec, "director", allow_constant=True),
        forcing_velocity=_parse_directive(fsec, "velocity"),
        assertions=assertions,
    )
