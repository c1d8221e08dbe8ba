import re
import textwrap

import numpy as np
import pytest

from elgal.basis import SpectralGrid, build_director_basis, build_velocity_basis
from elgal.cli import main
from elgal.config import ConfigError, parse_config
from elgal.diagnostics import test_interpolation_inequality as interpolation_report
from elgal.diagnostics import test_velocity_interpolation as velocity_interpolation_report
from elgal.simulate import run

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

    def test_zero_horizon_single_row(self, tmp_path):
        text = RUNNABLE.replace("t_end = 0.02", "t_end = 0")
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

    def test_validate_constants_only_director_basis_is_config_error(self, tmp_path, capsys):
        text = MINIMAL.replace("N = 16", "N = 16\nn_d = 3")
        assert main(["validate", write(tmp_path, text)]) == 2
        assert "key 'n_d'" in capsys.readouterr().err

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
