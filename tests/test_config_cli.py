import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import elgal
from elgal.basis import SpectralGrid, build_director_basis, build_velocity_basis
from elgal.cli import main
from elgal.config import ConfigError, parse_config
from elgal.diagnostics import test_interpolation_inequality as interpolation_report
from elgal.diagnostics import test_velocity_interpolation as velocity_interpolation_report
from elgal.energies import GinzburgLandau, ScaledOseenFrank, SimplifiedOseenFrank, WithField, WithFreedom
from elgal.scenarios import BUILTIN_SCENARIOS
from elgal.simulate import run
from elgal.tensors import identity_4

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

MINIMAL = """
[model]
type = ginzburg_landau
eps = 1

[leslie]
mu2 = -1
mu3 = 1
mu4 = 1

[grid]
N = 16

[time]
dt = 1e-3
t_end = 0.1
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


class TestParseConfig:
    def test_minimal_config_with_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.model_type == "ginzburg_landau"
        assert cfg.mu == (1.0, -1.0, 1.0, 1.0, 0.0, 1.0)  # mu1/mu5/mu6 defaulted
        assert cfg.n == 16 and cfg.n_v is None and cfg.n_d is None
        assert cfg.record_every == 1
        assert cfg.initial_velocity == ("zero",)
        assert cfg.ledger_name == "ledger.csv"

    def test_missing_mu4_names_key(self, tmp_path):
        text = MINIMAL.replace("mu4 = 1\n", "")
        with pytest.raises(ConfigError, match="mu4"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_named(self, tmp_path):
        text = MINIMAL.replace("mu4 = 1", "mu4 = 1\nmu7 = 2")
        with pytest.raises(ConfigError, match="mu7"):
            parse_config(write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="extras"):
            parse_config(write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))

    def test_low_resolution_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="N"):
            parse_config(write(tmp_path, MINIMAL.replace("N = 16", "N = 4")))

    def test_cutoff_capacity_guard(self, tmp_path):
        text = MINIMAL.replace("N = 16", "N = 8\nn_v = 100000")
        with pytest.raises(ConfigError, match="n_v"):
            parse_config(write(tmp_path, text))

    def test_model_specific_keys_enforced(self, tmp_path):
        text = MINIMAL.replace("eps = 1", "eps = 1\nk1 = 2")
        with pytest.raises(ConfigError, match="k1"):
            parse_config(write(tmp_path, text))
        sof = MINIMAL.replace("type = ginzburg_landau\neps = 1", "type = simplified_oseen_frank\nk1 = 2\nk2 = 1")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(write(tmp_path, sof))

    def test_penalty_off_via_none(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL.replace("eps = 1", "eps = none")))
        assert cfg.model_params["penalty"] is False
        assert cfg.build_model().penalty_weight == 0.0

    def test_penalty_parsed_beside_eps_none(self, tmp_path):
        with pytest.raises(ConfigError, match="key 'penalty': expected on/off, got 'maybe'"):
            parse_config(write(tmp_path, MINIMAL.replace("eps = 1", "eps = none\npenalty = maybe")))
        with pytest.raises(ConfigError, match="key 'penalty': cannot be on"):
            parse_config(write(tmp_path, MINIMAL.replace("eps = 1", "eps = none\npenalty = on")))
        cfg = parse_config(write(tmp_path, MINIMAL.replace("eps = 1", "eps = none\npenalty = off")))
        assert cfg.model_params == {"penalty": False}

    @pytest.mark.parametrize("b", ["nan 0 0", "0 -inf 0", "x 0 0"])
    def test_vector_components_finite_numbers(self, tmp_path, b):
        text = MINIMAL.replace(
            "type = ginzburg_landau\neps = 1",
            f"type = with_freedom\nbase = ginzburg_landau\nb = {b}\nb_bar = 0.5",
        )
        with pytest.raises(ConfigError, match="key 'b'"):
            parse_config(write(tmp_path, text))

    def test_wrapper_model_with_base(self, tmp_path):
        text = MINIMAL.replace(
            "type = ginzburg_landau\neps = 1",
            "type = with_freedom\nbase = ginzburg_landau\neps = 2\nb = 0.1 0.2 0.3\nb_bar = 0.5",
        )
        cfg = parse_config(write(tmp_path, text))
        model = cfg.build_model()
        assert model.b_bar == 0.5
        assert np.array_equal(model.b, [0.1, 0.2, 0.3])
        assert model.base.eps == 2.0

    def test_directive_parsing(self, tmp_path):
        text = MINIMAL + textwrap.dedent(
            """
            [initial]
            velocity = mode 0 0 1 0 cos 0.3
            director = constant 1 0 0

            [forcing]
            velocity = random 3 0.05
            """
        )
        cfg = parse_config(write(tmp_path, text))
        assert cfg.initial_velocity == ("mode", (0, 0, 1), 0, "cos", 0.3)
        assert cfg.initial_director[0] == "constant"
        assert cfg.forcing_velocity == ("random", 3, 0.05)

    def test_malformed_directive_rejected(self, tmp_path):
        text = MINIMAL + "\n[initial]\nvelocity = mode 1 2\n"
        with pytest.raises(ConfigError, match="velocity"):
            parse_config(write(tmp_path, text))

    def test_gamma_undefined_rejected(self, tmp_path):
        text = MINIMAL.replace("mu2 = -1", "mu2 = 1")
        with pytest.raises(ConfigError, match="mu3"):
            parse_config(write(tmp_path, text))

    def test_config_hash_stable(self, tmp_path):
        a = parse_config(write(tmp_path, MINIMAL, "a.cfg"))
        b = parse_config(write(tmp_path, MINIMAL, "b.cfg"))
        assert a.config_hash() == b.config_hash()
        c = parse_config(write(tmp_path, MINIMAL.replace("dt = 1e-3", "dt = 2e-3"), "c.cfg"))
        assert c.config_hash() != a.config_hash()

    @pytest.mark.parametrize(
        "extra", ["energy_slack = 1e-6", "kinetic_decay_rtol = 1e-3", "director_energy_decay_rtol = 1e-3"]
    )
    def test_assert_companion_needs_its_assertion(self, tmp_path, extra):
        key = extra.split()[0]
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            parse_config(write(tmp_path, MINIMAL + f"\n[assert]\n{extra}\n"))

    @pytest.mark.parametrize(
        "owner, key, value",
        [
            ("energy_monotonic = on", "energy_slack", "abc"),
            ("energy_monotonic = off", "energy_slack", "abc"),
            ("kinetic_decay_rate = 1.0", "kinetic_decay_rtol", "nan"),
            ("", "kinetic_decay_rtol", "nan"),
            ("director_energy_decay_rate = 2.0", "director_energy_decay_rtol", "inf"),
        ],
    )
    def test_assert_companion_value_checked(self, tmp_path, owner, key, value):
        text = MINIMAL + f"\n[assert]\n{owner}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"key '{key}': (not a number|must be finite)"):
            parse_config(write(tmp_path, text))

    def test_assert_companions_read_with_their_assertions(self, tmp_path):
        text = MINIMAL + textwrap.dedent(
            """
            [assert]
            energy_monotonic = on
            energy_slack = 1e-6
            kinetic_decay_rate = 1.0
            kinetic_decay_rtol = 1e-3
            director_energy_decay_rate = 2.0
            """
        )
        assert parse_config(write(tmp_path, text)).assertions == {
            "energy_monotonic": 1e-6,
            "kinetic_decay_rate": (1.0, 1e-3),
            "director_energy_decay_rate": (2.0, 1e-8),
        }


# The keys each energy type needs, with admissible values.
CATALOG_KEYS = {
    "ginzburg_landau": "",
    "simplified_oseen_frank": "k1 = 2\nk2 = 0.5\nalpha = 0.5\n",
    "scaled_oseen_frank": "k1 = 1.5\nk2 = 1\nk3 = 0.009\nk4 = 0.009\ns = 0.25\n",
    "with_field": "chi_perp = 0.1\nchi_par = 0.6\nH = 0 0 1\n",
    "with_freedom": "b = 0.2 -0.1 0.3\nb_bar = 0.7\n",
}
CATALOG_CLASSES = {
    "ginzburg_landau": GinzburgLandau,
    "simplified_oseen_frank": SimplifiedOseenFrank,
    "scaled_oseen_frank": ScaledOseenFrank,
    "with_field": WithField,
    "with_freedom": WithFreedom,
}
# A key of another base type, which each base type must refuse.
FOREIGN_KEY = {"ginzburg_landau": "k1", "simplified_oseen_frank": "k3", "scaled_oseen_frank": "alpha"}
BASES = sorted(FOREIGN_KEY)
PAIRS = [(wrapper, base) for wrapper in ("with_field", "with_freedom") for base in BASES]


def model_config(model_type, base=None, extra=""):
    lines = f"type = {model_type}\n"
    if base is not None:
        lines += f"base = {base}\n" + CATALOG_KEYS[base]
    lines += CATALOG_KEYS[model_type] + extra
    return MINIMAL.replace("type = ginzburg_landau\n", lines)


class TestModelCatalog:
    """Every base energy and every (wrapper, base) pair, pinned to the
    classes, key sets, messages and hashes the parser has always given."""

    @pytest.mark.parametrize("kind", BASES)
    def test_base_type_builds_its_class(self, tmp_path, kind):
        cfg = parse_config(write(tmp_path, model_config(kind)))
        assert (cfg.model_type, cfg.base_type, cfg.base_params) == (kind, kind, {})
        assert type(cfg.build_model()) is CATALOG_CLASSES[kind]

    @pytest.mark.parametrize("wrapper, base", PAIRS)
    def test_wrapper_builds_its_class_over_the_base(self, tmp_path, wrapper, base):
        cfg = parse_config(write(tmp_path, model_config(wrapper, base)))
        assert (cfg.model_type, cfg.base_type) == (wrapper, base)
        model = cfg.build_model()
        assert type(model) is CATALOG_CLASSES[wrapper]
        assert type(model.base) is CATALOG_CLASSES[base]

    @pytest.mark.parametrize("kind", BASES)
    def test_base_type_refuses_another_base_key(self, tmp_path, kind):
        key = FOREIGN_KEY[kind]
        with pytest.raises(ConfigError, match=f"^unknown key '{key}' in section \\[model\\]$"):
            parse_config(write(tmp_path, model_config(kind, extra=f"{key} = 1\n")))

    @pytest.mark.parametrize("wrapper, base", PAIRS)
    def test_wrapper_refuses_another_base_key(self, tmp_path, wrapper, base):
        key = FOREIGN_KEY[base]
        with pytest.raises(ConfigError, match=f"^unknown key '{key}' in section \\[model\\]$"):
            parse_config(write(tmp_path, model_config(wrapper, base, extra=f"{key} = 1\n")))

    def test_wrapper_key_refused_elsewhere(self, tmp_path):
        with pytest.raises(ConfigError, match="^unknown key 'b_bar' in section \\[model\\]$"):
            parse_config(write(tmp_path, model_config("with_field", "ginzburg_landau", extra="b_bar = 1\n")))
        with pytest.raises(ConfigError, match="^unknown key 'base' in section \\[model\\]$"):
            parse_config(write(tmp_path, model_config("ginzburg_landau", extra="base = ginzburg_landau\n")))

    @pytest.mark.parametrize(
        "wrapper, dropped, named",
        [
            ("with_field", ("chi_par", "k2"), "chi_par"),
            ("with_field", ("H", "k1", "k2", "k3", "k4", "s"), "H"),
            ("with_field", ("chi_perp", "chi_par", "H"), "chi_perp"),
            ("with_freedom", ("b_bar", "k4"), "b_bar"),
            ("with_freedom", ("k3", "s"), "k3"),
        ],
    )
    def test_missing_wrapper_key_named_before_base_key(self, tmp_path, wrapper, dropped, named):
        text = model_config(wrapper, "scaled_oseen_frank")
        text = "".join(line for line in text.splitlines(True) if line.split(" =")[0] not in dropped)
        with pytest.raises(ConfigError, match=f"^missing required key '{named}' in section \\[model\\]$"):
            parse_config(write(tmp_path, text))

    def test_unknown_base_type_named(self, tmp_path):
        text = model_config("with_field").replace("type = with_field\n", "type = with_field\nbase = with_freedom\n")
        with pytest.raises(ConfigError, match="^key 'base': unknown base type 'with_freedom'$"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "name, prefix",
        [
            ("gl_mixing.cfg", "00253ea19417e654"),
            ("scaled_anisotropy.cfg", "8953fcc22ae438fc"),
            ("sof_twist.cfg", "c40a4ed31a2b7ed7"),
            ("with_field_twist.cfg", "735999ee80cb19d0"),
            ("with_freedom_anisotropy.cfg", "67245424b96258ff"),
            ("stokes-decay", "fad286cf02908631"),
            ("director-relaxation", "1b9c8f2e3e3d9067"),
            ("gl-dissipation", "6d2f8fc42dff6f72"),
            ("parodi-cross", "bcdeac62d98ad4ad"),
        ],
    )
    def test_config_hash_unchanged(self, name, prefix):
        # Checkpoint headers carry this hash, so it must not drift.
        if name.endswith(".cfg"):
            cfg = parse_config(CONFIGS / name)
        else:
            cfg = BUILTIN_SCENARIOS[name]().config
        assert cfg.config_hash()[:16] == prefix


RUNNABLE = """
[model]
type = ginzburg_landau
eps = 1

[leslie]
mu2 = -1
mu3 = 1
mu4 = 1

[grid]
N = 8

[time]
dt = 1e-3
t_end = 0.02

[initial]
velocity = random 0 0.1
director = random 1 0.1

[assert]
energy_monotonic = on
"""


# Full stdout of ``elgal validate`` on two shipped configs.  Scaled
# anisotropy samples the state-dependent Hessian part and the mixed terms.
VALIDATE_TRANSCRIPTS = {
    "gl_mixing": """\
dissipativity: pass
            mu1: +1
            mu4: +1
          gamma: +0.5
     anisotropy: +1
       coupling: +1.75
    kappa = -0.5  delta = 0.353553
parodi (informational): does not hold
calibration: c_lambda = 1.73205, c_h2 = 1.73205
grid: N = 16, transform grid 8 (degree 6, k_max 1)
legendre_hadamard: pass  worst=1 bound=1  (4009 samples)
coercivity: pass  worst=0.59 bound=0  (4630 samples) - eta=(0.5,0.5,0.25)
growth: pass  worst=0.494449 bound=1  (5008 samples) - gamma=(2,6,0)
theta_bound: pass  worst=0 bound=0.0625  (0 samples) - state-dependent Hessian part vanishes identically
""",
    "scaled_anisotropy": """\
dissipativity: pass
            mu1: +1
            mu4: +1
          gamma: +0.5
     anisotropy: +1
       coupling: +1.75
    kappa = -0.5  delta = 0.353553
parodi (informational): does not hold
calibration: c_lambda = 1.73205, c_h2 = 1.73205
grid: N = 8, transform grid 8 (energy not polynomial)
legendre_hadamard: pass  worst=1 bound=1  (4009 samples)
coercivity: pass  worst=3.81179e-06 bound=0  (4630 samples) - eta=(0.5,0,0)
growth: pass  worst=0.245023 bound=1  (5008 samples) - gamma=(3,6,1)
theta_bound: pass  worst=0.0299033 bound=0.0625  (2630 samples)
""",
}


class TestCli:
    def test_run_config_file(self, tmp_path, capsys):
        path = write(tmp_path, RUNNABLE)
        code = main(["run", path, "--outdir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert (tmp_path / "out" / "ledger.csv").exists()

    def test_run_builtin_scenario(self, tmp_path):
        code = main(["run", "--builtin", "parodi-cross", "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "parodi_cross_ledger.csv").exists()
        report = (tmp_path / "parodi-cross_report.txt").read_text()
        assert "grid: N = 8, transform grid 8 (degree 6, k_max 1)" in report

    def test_run_builtin_stokes_decay(self, tmp_path):
        # Exercises the decay-envelope assertion against the exact rate.
        code = main(["run", "--builtin", "stokes-decay", "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "stokes_decay_ledger.csv").read_text().splitlines()
        header = lines[0].split(",")
        k0 = float(lines[1].split(",")[header.index("kinetic")])
        t_last = float(lines[-1].split(",")[header.index("t")])
        k_last = float(lines[-1].split(",")[header.index("kinetic")])
        assert abs(k_last - k0 * np.exp(-t_last)) <= 1e-6 * k0 * np.exp(-t_last)

    def test_director_energy_decay_assertion(self, tmp_path):
        # Free energy of one relaxing eigenmode follows exp(-2 gamma sigma t).
        import dataclasses

        from elgal.scenarios import Scenario, director_relaxation, run_scenario

        scenario = director_relaxation()
        short = dataclasses.replace(scenario.config, n=8, t_end=0.1)
        outcome = run_scenario(Scenario("relax-short", short), str(tmp_path))
        assert outcome.exit_code == 0
        assert any("director_energy_decay_rate" in m and "PASS" in m for m in outcome.messages)

    def test_decay_rate_from_zero_energy_fails(self, tmp_path):
        # A forced mode grows kinetic energy from exactly 0: the expectation
        # 0 * exp(-rate t) is 0, so every later record deviates.
        import dataclasses

        from elgal.scenarios import Scenario, run_scenario, stokes_decay

        scenario = stokes_decay()
        grown = dataclasses.replace(
            scenario.config,
            initial_velocity=("zero",),
            forcing_velocity=("mode", (0, 0, 1), 0, "cos", 0.3),
            t_end=0.1,
        )
        outcome = run_scenario(Scenario("forced-from-rest", grown), str(tmp_path))
        assert outcome.exit_code == 1
        assert outcome.messages == ["FAIL  kinetic_decay_rate: worst relative deviation inf vs 1.0e-06"]

    def test_zero_horizon_single_row(self, tmp_path):
        text = RUNNABLE.split("[assert]")[0].replace("t_end = 0.02", "t_end = 0")
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 0
        assert len((tmp_path / "ledger.csv").read_text().splitlines()) == 2

    def test_snapshots_written_and_loadable(self, tmp_path):
        from elgal.simulate import load_checkpoint

        text = RUNNABLE + "\n[io]\nsnapshot_every = 10\n"
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 0
        snaps = sorted(tmp_path.glob("*.ckpt"))
        assert snaps
        state, header = load_checkpoint(snaps[0])
        assert header["n_v"] == len(state.v_hat)

    def test_run_unknown_builtin_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--builtin", "nope", "--outdir", str(tmp_path)]) == 2

    def test_assertion_failure_exit_code(self, tmp_path):
        # Impossible decay-rate assertion: run succeeds, assertion fails.
        text = RUNNABLE.replace(
            "[assert]\nenergy_monotonic = on",
            "[assert]\nkinetic_decay_rate = 250.0\nkinetic_decay_rtol = 1e-9",
        ).replace("velocity = random 0 0.1", "velocity = mode 0 0 1 0 cos 0.3")
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("mu4 = 1\n", ""))
        assert main(["run", path]) == 2
        assert "mu4" in capsys.readouterr().err

    def test_blow_up_exit_code(self, tmp_path, capsys):
        text = RUNNABLE.replace("mu4 = 1", "mu4 = -40\nallow_nondissipative = on").replace(
            "velocity = random 0 0.1", "velocity = mode 0 0 1 0 cos 1.0"
        ).replace("t_end = 0.02", "t_end = 2.0")
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 3
        last_good = float(capsys.readouterr().err.rsplit("t =", 1)[1])
        # The records made before the blow-up are still written.
        lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert len(lines) >= 2
        t_last = float(lines[-1].split(",")[lines[0].split(",").index("t")])
        assert 0.0 < t_last <= last_good
        report = (tmp_path / "scenario_report.txt").read_text()
        assert "BLOW-UP" in report and f"t = {last_good:.6g}" in report
        # The same grid line a finished run's report has.
        assert "\ngrid: N = 8, transform grid 8 (degree 6, k_max 2)\n" in report

    def test_outdir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELGAL_OUTDIR", str(tmp_path / "envout"))
        assert main(["run", write(tmp_path, RUNNABLE)]) == 0
        assert (tmp_path / "envout" / "ledger.csv").exists()

    def test_ledger_byte_identical_across_runs(self, tmp_path):
        path = write(tmp_path, RUNNABLE)
        main(["run", path, "--outdir", str(tmp_path / "r1")])
        main(["run", path, "--outdir", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "ledger.csv").read_bytes() == (
            tmp_path / "r2" / "ledger.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "key, directive",
        [
            ("director", "constant 1 0"),
            ("director", "constant 1 0 0 0"),
            ("velocity", "random 3 0.1 junk"),
            ("velocity", "mode 0 0 1 0 cos 0.3 7"),
        ],
    )
    def test_directive_arity_is_config_error(self, tmp_path, capsys, key, directive):
        shipped = next(line for line in RUNNABLE.splitlines() if line.startswith(f"{key} ="))
        text = RUNNABLE.replace(shipped, f"{key} = {directive}")
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("mu2", "nan"), ("mu4", "-inf"), ("t_end", "inf"), ("dt", "inf"), ("t_end", "NaN")]
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key, value):
        shipped = next(line for line in RUNNABLE.splitlines() if line.startswith(f"{key} ="))
        text = RUNNABLE.replace(shipped, f"{key} = {value}")
        assert main(["run", write(tmp_path, text), "--outdir", str(tmp_path)]) == 2
        assert f"key '{key}': must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, directive",
        [
            ("initial", "director", "random 1 nan"),
            ("initial", "director", "random 1 inf"),
            ("initial", "velocity", "random 1 -0.1"),
            ("initial", "director", "random -1 0.1"),
            ("initial", "velocity", "mode 0 0 1 0 cos inf"),
            ("initial", "director", "constant nan 0 0"),
            ("forcing", "velocity", "random 3 inf"),
            ("forcing", "velocity", "random -3 0.1"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_directive_number_is_config_error(self, tmp_path, capsys, command, section, key, directive):
        if section == "initial":
            shipped = next(line for line in RUNNABLE.splitlines() if line.startswith(f"{key} ="))
            text = RUNNABLE.replace(shipped, f"{key} = {directive}")
        else:
            text = RUNNABLE + f"\n[forcing]\n{key} = {directive}\n"
        args = [command, write(tmp_path, text)]
        if command == "run":
            args += ["--outdir", str(tmp_path)]
        assert main(args) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "owner, key",
        [
            ("", "energy_slack"),  # RUNNABLE turns energy_monotonic on
            ("kinetic_decay_rate = 1.0", "kinetic_decay_rtol"),
            ("director_energy_decay_rate = 2.0", "director_energy_decay_rtol"),
            ("", "residual_cap"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_tolerance_is_config_error(self, tmp_path, capsys, command, owner, key):
        args = [command, write(tmp_path, RUNNABLE + f"{owner}\n{key} = -1\n")]
        if command == "run":
            args += ["--outdir", str(tmp_path)]
        assert main(args) == 2
        assert f"key '{key}': must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_residual_cap_needs_three_records(self, tmp_path, capsys, command):
        # gl_mixing.cfg makes 500 steps: records at 0 and 500 only, so no
        # interior residual exists for the cap to bound.
        text = (CONFIGS / "gl_mixing.cfg").read_text()
        assert text.count("record_every = 5\n") == 1 and "residual_cap = " in text
        args = [command, write(tmp_path, text.replace("record_every = 5\n", "record_every = 1000\n"))]
        if command == "run":
            args += ["--outdir", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err == "config error: key 'residual_cap': needs at least 3 ledger records, got 2\n"
        assert not (tmp_path / "gl_mixing_ledger.csv").exists()

    def test_short_ledger_is_refused_only_where_assertions_are_evaluated(self, tmp_path, capsys):
        # gl_mixing.cfg over 10 steps, recorded at 0 and 10: run and validate
        # refuse its residual_cap, but convergence (which records every step
        # itself) and inequalities evaluate no assertion.
        text = (CONFIGS / "gl_mixing.cfg").read_text()
        assert text.count("t_end = 0.5\n") == 1 and text.count("record_every = 5\n") == 1
        text = text.replace("t_end = 0.5\n", "t_end = 0.01\n")
        short = write(tmp_path, text.replace("record_every = 5\n", "record_every = 1000\n"), "short.cfg")
        every = write(tmp_path, text.replace("record_every = 5\n", "record_every = 1\n"), "every.cfg")
        assert main(["validate", short]) == 2
        assert capsys.readouterr().err == "config error: key 'residual_cap': needs at least 3 ledger records, got 2\n"
        assert main(["convergence", every]) == 0
        table = capsys.readouterr()
        assert main(["convergence", short]) == 0
        assert capsys.readouterr() == table and table.err == "" and table.out.startswith("      dt ")
        assert main(["inequalities", short]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 6

    @pytest.mark.parametrize("every, records", [(250, 3), (251, 3), (499, 3), (500, 2), (1, 501)])
    def test_residual_cap_counts_the_last_record(self, tmp_path, every, records):
        text = (CONFIGS / "gl_mixing.cfg").read_text().replace("record_every = 5\n", f"record_every = {every}\n")
        cfg = parse_config(write(tmp_path, text))
        if records >= 3:
            cfg.check_records()
            assert cfg.assertions["residual_cap"] == 1e-5
        else:
            with pytest.raises(ConfigError, match=f"got {records}$"):
                cfg.check_records()

    @pytest.mark.parametrize(
        "assertion, key",
        [
            ("energy_monotonic = on", "energy_monotonic"),
            ("kinetic_decay_rate = 1000\nkinetic_decay_rtol = 0", "kinetic_decay_rate"),
            ("director_energy_decay_rate = 2", "director_energy_decay_rate"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run", "convergence"])
    def test_assertion_on_one_record_is_config_error(self, tmp_path, capsys, command, assertion, key):
        # t_end = 0 makes one ledger record: nothing to difference or decay.
        # convergence evaluates no assertion; it refuses the zero steps.
        text = RUNNABLE.split("[assert]")[0].replace("t_end = 0.02", "t_end = 0") + f"[assert]\n{assertion}\n"
        args = [command, write(tmp_path, text)] + (["--outdir", str(tmp_path)] if command == "run" else [])
        assert main(args) == 2
        if command == "convergence":
            expected = "key 't_end': convergence needs at least 2 steps of dt, got 0"
        else:
            expected = f"key '{key}': needs at least 2 ledger records, got 1"
        assert capsys.readouterr().err == f"config error: {expected}\n"
        assert not (tmp_path / "ledger.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "convergence"])
    def test_shipped_assertions_on_one_record_are_config_errors(self, tmp_path, capsys, command):
        # scaled_anisotropy.cfg at t_end = 0, with a decay rate that no record
        # compares: the first refused key is named.
        text = (CONFIGS / "scaled_anisotropy.cfg").read_text()
        assert text.count("t_end = 0.2\n") == 1 and text.endswith("energy_monotonic = on\n")
        text = text.replace("t_end = 0.2\n", "t_end = 0\n") + "kinetic_decay_rate = 1000\nkinetic_decay_rtol = 0\n"
        args = [command, write(tmp_path, text)] + (["--outdir", str(tmp_path)] if command == "run" else [])
        assert main(args) == 2
        if command == "convergence":
            expected = "key 't_end': convergence needs at least 2 steps of dt, got 0"
        else:
            expected = "key 'energy_monotonic': needs at least 2 ledger records, got 1"
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {expected}\n"

    def test_cross_identically_zero_runs_on_one_record(self, tmp_path, capsys):
        # Parodi's relation holds (kappa = 0), so the one record's cross is 0.
        text = RUNNABLE.split("[assert]")[0].replace("t_end = 0.02", "t_end = 0")
        text = text.replace("mu2 = -1\nmu3 = 1\n", "mu2 = -0.5\nmu3 = 1.5\n")
        path = write(tmp_path, text + "[assert]\ncross_identically_zero = on\n")
        assert main(["run", path, "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "PASS  cross_identically_zero: cross column identically zero"
        assert len((tmp_path / "ledger.csv").read_text().splitlines()) == 2

    def test_refusals_count_the_records_run_makes(self):
        # The refusal counts records by formula; run counts them in its loop.
        import dataclasses

        from elgal.config import _MIN_RECORDS
        from elgal.scenarios import _base_config

        payloads = {
            "energy_monotonic": 1e-8,
            "kinetic_decay_rate": (1.0, 1e-6),
            "director_energy_decay_rate": (1.0, 1e-8),
            "residual_cap": 1.0,
            "cross_identically_zero": True,
        }
        assert set(_MIN_RECORDS) < set(payloads)
        for n_steps in range(8):
            for every in range(1, 5):
                cfg = _base_config(n=8, n_v=4, n_d=3, t_end=n_steps * 1e-3, record_every=every)
                made = len(run(cfg).records)
                for key, payload in payloads.items():
                    refused = made < _MIN_RECORDS.get(key, 1)
                    if refused:
                        with pytest.raises(ConfigError, match=f"^key '{key}': .* got {made}$"):
                            dataclasses.replace(cfg, assertions={key: payload}).check_records()
                    else:
                        dataclasses.replace(cfg, assertions={key: payload}).check_records()

    def test_validate_passes_for_accepted_setup(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, MINIMAL)]) == 0
        out = capsys.readouterr().out
        assert "dissipativity: pass" in out
        assert "parodi (informational)" in out
        assert "legendre_hadamard: pass" in out
        # Full bases at N = 16 reach k_max = 5: 6 * 5 >= 16 keeps N.
        assert "grid: N = 16, transform grid 16 (degree 6, k_max 5)" in out

    def test_validate_reports_reduced_transform_grid(self, tmp_path, capsys):
        text = MINIMAL.replace("N = 16", "N = 16\nn_v = 36\nn_d = 57")
        assert main(["validate", write(tmp_path, text)]) == 0
        assert "grid: N = 16, transform grid 8 (degree 6, k_max 1)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, n",
        [(path.stem, None) for path in sorted(CONFIGS.glob("*.cfg"))] + [("scaled_anisotropy", 16)],
    )
    def test_validate_prints_the_grid_run_uses(self, tmp_path, capsys, name, n):
        text = re.sub(r"(?m)^t_end = .*$", "t_end = 0.01", (CONFIGS / f"{name}.cfg").read_text())
        if n is not None:
            text = re.sub(r"(?m)^N = .*$", f"N = {n}", text)
        path = write(tmp_path, text, f"{name}.cfg")
        assert main(["validate", path]) == 0
        validated = [line for line in capsys.readouterr().out.splitlines() if line.startswith("grid:")]
        assert main(["run", path, "--outdir", str(tmp_path)]) == 0
        report = (tmp_path / f"{name}_report.txt").read_text().splitlines()
        assert validated == [line for line in report if line.startswith("grid:")]
        if n is not None:
            assert validated[0].startswith("grid: N = 16, transform grid 10 (energy not polynomial; q_hat within ")

    def test_validate_constants_only_director_basis_is_config_error(self, tmp_path, capsys):
        text = MINIMAL.replace("N = 16", "N = 16\nn_d = 3")
        assert main(["validate", write(tmp_path, text)]) == 2
        assert "key 'n_d'" in capsys.readouterr().err

    def test_validate_names_first_missing_model_key_under_any_hash_seed(self, tmp_path):
        # k3, k4 and s are all missing; the message names the first in the
        # documented order, however the interpreter seeds its string hashes
        # (a set of keys named 's' under seed 1 or 2 and 'k3' under seed 3).
        text = MINIMAL.replace("type = ginzburg_landau\neps = 1", "type = scaled_oseen_frank\nk1 = 1\nk2 = 1")
        path = write(tmp_path, text)
        src = str(Path(elgal.__file__).resolve().parents[1])
        messages = set()
        for seed in (1, 2, 3):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "elgal.cli", "validate", path], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 2
            messages.add(proc.stderr.strip())
        assert messages == {"config error: missing required key 'k3' in section [model]"}

    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys):
        path = write(tmp_path, RUNNABLE.replace("t_end = 0.02", "t_end = 0.0105"))
        assert main(["validate", path]) == 2
        assert "key 't_end': must be an integer multiple of dt" in capsys.readouterr().err
        assert main(["run", path, "--outdir", str(tmp_path)]) == 2

    def test_validate_fails_on_zero_mu4(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("mu4 = 1", "mu4 = 0"))
        assert main(["validate", path]) == 1
        assert "FAIL on mu4" in capsys.readouterr().out

    def test_validate_fails_on_oversized_anisotropy(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "type = ginzburg_landau\neps = 1",
            "type = scaled_oseen_frank\nk1 = 1.5\nk2 = 1\nk3 = 0.9\nk4 = 0.9\ns = 0.25",
        )
        assert main(["validate", write(tmp_path, text)]) == 1
        out = capsys.readouterr().out
        assert "theta_bound: FAIL" in out
        assert "grid: N = 16, transform grid 16 (energy not polynomial)" in out

    @pytest.mark.parametrize(
        "shipped, edit",
        [
            ("velocity = random 0 0.1", "velocity = mode 0 0 1 7 cos 0.3"),  # no such branch
            ("velocity = random 0 0.1", "velocity = mode 1 1 1 0 sin 0.1"),  # k_max 1, not among the 36
            ("director = random 1 0.1", "director = mode 2 0 0 0 cos 0.1"),
            ("velocity = mode 0 0 1 0 cos 0.05", "velocity = mode 0 0 2 0 cos 0.05"),  # [forcing]
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mode_outside_retained_basis_is_config_error(self, tmp_path, capsys, command, shipped, edit):
        text = (CONFIGS / "gl_mixing.cfg").read_text()
        assert text.count(shipped) == 1
        args = [command, write(tmp_path, text.replace(shipped, edit))]
        if command == "run":
            args += ["--outdir", str(tmp_path)]
        assert main(args) == 2
        key = edit.split(" = ")[0]
        assert re.search(rf"key '{key}': mode k=.* not in retained basis", capsys.readouterr().err)

    @pytest.mark.parametrize("n, n_v, n_d", [(8, 248, 375), (10, 684, 1029), (16, 2660, 3993)])
    def test_mode_capacity_is_the_full_basis_size(self, tmp_path, n, n_v, n_d):
        grid = SpectralGrid(n)
        assert build_velocity_basis(grid).size == n_v
        assert build_director_basis(identity_4(), grid).size == n_d
        for key, cap in (("n_v", n_v), ("n_d", n_d)):
            text = MINIMAL.replace("N = 16", f"N = {n}\n{key} = {cap}")
            assert getattr(parse_config(write(tmp_path, text)), key) == cap
            text = MINIMAL.replace("N = 16", f"N = {n}\n{key} = {cap + 1}")
            with pytest.raises(ConfigError, match=f"key '{key}': {cap + 1} exceeds grid capacity {cap}$"):
                parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("key, cap", [("n_v", 248), ("n_d", 375)])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_commands_accept_mode_capacity_and_refuse_one_more(self, tmp_path, capsys, command, key, cap):
        one_step = MINIMAL.replace("t_end = 0.1", "t_end = 1e-3")
        for count, code in ((cap, 0), (cap + 1, 2)):
            args = [command, write(tmp_path, one_step.replace("N = 16", f"N = 8\n{key} = {count}"))]
            if command == "run":
                args += ["--outdir", str(tmp_path)]
            assert main(args) == code
        assert f"key '{key}': {cap + 1} exceeds grid capacity {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(VALIDATE_TRANSCRIPTS))
    def test_validate_transcript_of_shipped_config(self, capsys, name):
        assert main(["validate", str(CONFIGS / f"{name}.cfg")]) == 0
        assert capsys.readouterr().out == VALIDATE_TRANSCRIPTS[name]

    def test_convergence_command(self, tmp_path, capsys):
        text = RUNNABLE.replace("dt = 1e-3", "dt = 4e-3").replace(
            "velocity = random 0 0.1", "velocity = random 0 1.0"
        ).replace("director = random 1 0.1", "director = random 1 1.0").replace(
            "t_end = 0.02", "t_end = 0.08"
        )
        assert main(["convergence", write(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert "observed state orders" in out

    def test_convergence_exact_for_linear_relaxation(self, tmp_path, capsys):
        text = """
        [model]
        type = ginzburg_landau
        eps = none

        [leslie]
        mu2 = -0.5
        mu3 = 0.5
        mu4 = 1

        [grid]
        N = 8
        n_v = 12
        n_d = 21

        [time]
        dt = 4e-3
        t_end = 0.08

        [initial]
        director = mode 0 0 1 0 cos 0.5
        """
        assert main(["convergence", write(tmp_path, text)]) == 0
        assert "exact" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end, steps", [("0", 0), ("1e-3", 1)])
    def test_convergence_needs_two_steps(self, tmp_path, capsys, t_end, steps):
        text = (CONFIGS / "scaled_anisotropy.cfg").read_text().split("[assert]")[0]
        assert text.count("t_end = 0.2\n") == 1
        assert main(["convergence", write(tmp_path, text.replace("t_end = 0.2\n", f"t_end = {t_end}\n"))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: key 't_end': convergence needs at least 2 steps of dt, got {steps}\n"

    def test_convergence_reference_records_at_dt(self, tmp_path, monkeypatch):
        # The dt/64 reference records at the dt run's times: n_steps + 1
        # records, not 64 n_steps + 1.
        import elgal.scenarios

        results = []

        def recording_run(config):
            results.append(run(config))
            return results[-1]

        monkeypatch.setattr(elgal.scenarios, "run", recording_run)
        text = RUNNABLE.replace("N = 8", "N = 8\nn_v = 12\nn_d = 21").replace("t_end = 0.02", "t_end = 3e-3")
        assert main(["convergence", write(tmp_path, text)]) == 0
        reference = results[0]
        assert reference.config.dt == 1e-3 / 64
        assert [r.t for r in reference.records] == [i * 1e-3 for i in range(4)]
        assert [len(r.records) for r in results[1:]] == [4, 7, 13]

    def test_convergence_of_a_stationary_run_is_exact(self, tmp_path, capsys):
        # Zero velocity and director stay zero: every error and residual is 0.
        text = (CONFIGS / "scaled_anisotropy.cfg").read_text()
        for old, new in [
            ("t_end = 0.2", "t_end = 2e-3"),
            ("velocity = random 4 0.05", "velocity = zero"),
            ("director = random 5 0.1", "director = zero"),
        ]:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        assert main(["convergence", write(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [f"{dt:10.3e}          exact  0.000000e+00" for dt in (1e-3, 5e-4, 2.5e-4)]
        assert lines[4:] == ["observed state orders: exact, exact", "observed residual orders: exact, exact"]

    def test_inequalities_sample_on_configured_grid(self, tmp_path, capsys):
        # The run uses the 8^3 transform grid, but the testers' L^p norms are
        # not polynomial: they must be those sampled on the N = 16 grid.
        path = write(tmp_path, RUNNABLE.replace("N = 8", "N = 16\nn_v = 36\nn_d = 57"))
        assert main(["inequalities", path]) == 0
        printed = re.findall(r"constant=(\S+)", capsys.readouterr().out)

        result = run(parse_config(path))
        assert result.system.grid.n == 8
        grid = SpectralGrid(16)
        director_basis = build_director_basis(result.system.model.d2F_dS2_const(), grid, 57)
        velocity_basis = build_velocity_basis(grid, 36)
        times = np.array([s.t for s in result.states])
        d_traj = [(times, np.array([s.d_hat for s in result.states]))]
        v_traj = [(times, np.array([s.v_hat for s in result.states]))]
        expected = [
            interpolation_report(director_basis, d_traj, p, r).empirical_constant
            for p, r in ((6, 2), ("10/3", "10/3"), (2, 4))
        ] + [
            velocity_interpolation_report(velocity_basis, v_traj, p, r).empirical_constant
            for p, r in ((6, 2), ("30/11", 5), (2, "inf"))
        ]
        assert printed == [f"{c:.6g}" for c in expected]

    def test_inequalities_command(self, tmp_path, capsys):
        assert main(["inequalities", write(tmp_path, RUNNABLE)]) == 0
        out = capsys.readouterr().out
        assert "director grad" in out and "velocity" in out
        assert "FAIL" not in out
