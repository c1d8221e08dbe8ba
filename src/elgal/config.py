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
    dt  t_end
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

Unknown sections or keys are rejected, naming the offender.
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


_BASE_TYPES = ("ginzburg_landau", "simplified_oseen_frank", "scaled_oseen_frank")
_MODEL_TYPES = _BASE_TYPES + ("with_field", "with_freedom")

_MODEL_KEYS = {
    "ginzburg_landau": {"eps", "penalty"},
    "simplified_oseen_frank": {"eps", "penalty", "k1", "k2", "alpha"},
    "scaled_oseen_frank": {"eps", "penalty", "k1", "k2", "k3", "k4", "s"},
    "with_field": {"base", "chi_perp", "chi_par", "H"},
    "with_freedom": {"base", "b", "b_bar"},
}
_MODEL_REQUIRED = {
    "ginzburg_landau": set(),
    "simplified_oseen_frank": {"k1", "k2", "alpha"},
    "scaled_oseen_frank": {"k1", "k2", "k3", "k4", "s"},
    "with_field": {"chi_perp", "chi_par", "H"},
    "with_freedom": {"b", "b_bar"},
}

_ASSERT_KEYS = {
    "energy_monotonic",
    "energy_slack",
    "kinetic_decay_rate",
    "kinetic_decay_rtol",
    "director_energy_decay_rate",
    "director_energy_decay_rtol",
    "residual_cap",
    "cross_identically_zero",
}


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

    def build_coefficients(self) -> LeslieCoefficients:
        return LeslieCoefficients(*self.mu)

    def build_model(self) -> FreeEnergyModel:
        if self.model_type in _BASE_TYPES:
            return _build_base_model(self.model_type, self.model_params)
        base = _build_base_model(self.base_type, self.base_params)
        p = self.model_params
        if self.model_type == "with_field":
            return WithField(base, p["H"], p["chi_perp"], p["chi_par"])
        return WithFreedom(base, p["b"], p["b_bar"])

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


def _build_base_model(kind: str, p: dict) -> FreeEnergyModel:
    eps = p.get("eps", 1.0) if p.get("penalty", True) else None
    if kind == "ginzburg_landau":
        return GinzburgLandau(eps=eps)
    if kind == "simplified_oseen_frank":
        return SimplifiedOseenFrank(p["k1"], p["k2"], p["alpha"], eps=eps)
    return ScaledOseenFrank(p["k1"], p["k2"], p["k3"], p["k4"], p["s"], eps=eps)


def _velocity_capacity(n: int) -> int:
    cutoff = (n - 1) // 3
    return 4 * (((2 * cutoff + 1) ** 3 - 1) // 2)


def _director_capacity(n: int) -> int:
    cutoff = (n - 1) // 3
    return 3 + 6 * (((2 * cutoff + 1) ** 3 - 1) // 2)


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
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': not a number: {raw!r}") from None
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
        return np.array([float(x) for x in parts])


# Number of values after each directive keyword.
_DIRECTIVE_VALUES = {"zero": 0, "constant": 3, "mode": 6, "random": 2}


def _parse_directive(sec: _Section, key: str, default=("zero",), allow_constant=False):
    raw = sec.get(key)
    if raw is None:
        return default
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
    try:
        if kind == "zero":
            return ("zero",)
        if kind == "constant":
            return ("constant", np.array([float(x) for x in args]))
        if kind == "mode":
            kx, ky, kz, branch = (int(x) for x in args[:4])
            return ("mode", (kx, ky, kz), branch, args[4].lower(), float(args[5]))
        return ("random", int(args[0]), float(args[1]))
    except ValueError as exc:
        raise ConfigError(f"key '{key}': malformed directive {raw!r}") from exc


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
    if mtype not in _MODEL_TYPES:
        raise ConfigError(f"key 'type': unknown model type {mtype!r}")

    allowed = {"type"} | _MODEL_KEYS[mtype]
    if mtype in ("with_field", "with_freedom"):
        base_type = msec_raw.get("base", "ginzburg_landau")
        if base_type not in _BASE_TYPES:
            raise ConfigError(f"key 'base': unknown base type {base_type!r}")
        allowed |= _MODEL_KEYS[base_type]
    else:
        base_type = mtype
    msec = _Section("model", msec_raw, allowed)

    def model_params(kind):
        p: dict = {}
        eps_raw = msec.get("eps")
        if eps_raw is not None and str(eps_raw).lower() == "none":
            p["penalty"] = False
        else:
            p["eps"] = msec.get_float("eps", 1.0, positive=True)
            p["penalty"] = msec.get_bool("penalty", True)
        for key in _MODEL_REQUIRED[kind]:
            p[key] = msec.get_float(key, required=True)
        for key in ("k1", "k2"):
            if key in p and p[key] <= 0:
                raise ConfigError(f"key '{key}': must be positive, got {p[key]}")
        for key in ("k3", "k4"):
            if key in p and p[key] < 0:
                raise ConfigError(f"key '{key}': must be nonnegative, got {p[key]}")
        return p

    if mtype in _BASE_TYPES:
        mparams = model_params(mtype)
        bparams: dict = {}
    else:
        mparams = {k: (msec.get_vec3(k, required=True) if k in ("H", "b") else msec.get_float(k, required=True))
                   for k in _MODEL_REQUIRED[mtype]}
        bparams = model_params(base_type)

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

    n_v = mode_count("n_v", _velocity_capacity(n))
    n_d = mode_count("n_d", _director_capacity(n))

    tsec = _Section("time", raw["time"], {"dt", "t_end"})
    dt = tsec.get_float("dt", required=True, positive=True)
    t_end = tsec.get_float("t_end", required=True, nonnegative=True)

    iosec = _Section("io", raw.get("io", {}), {"record_every", "outdir", "ledger", "snapshot_every"})
    isec = _Section("initial", raw.get("initial", {}), {"velocity", "director"})
    fsec = _Section("forcing", raw.get("forcing", {}), {"velocity"})

    asec = _Section("assert", raw.get("assert", {}), _ASSERT_KEYS)
    assertions: dict = {}
    if asec.get_bool("energy_monotonic", False):
        assertions["energy_monotonic"] = asec.get_float("energy_slack", 1e-8)
    for rate_key, tol_key, tol_default in (
        ("kinetic_decay_rate", "kinetic_decay_rtol", 1e-6),
        ("director_energy_decay_rate", "director_energy_decay_rtol", 1e-8),
    ):
        rate = asec.get_float(rate_key)
        if rate is not None:
            assertions[rate_key] = (rate, asec.get_float(tol_key, tol_default))
    cap = asec.get_float("residual_cap")
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
