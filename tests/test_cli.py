"""End-to-end runs of the command-line scenario runner."""

import tracemalloc

import numpy as np
import pytest

from gyrostat import config as cfgmod
from gyrostat import hamilton_jacobi as hj
from gyrostat import integrate, lie

from gyrostat.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_MEMBERSHIP, EXIT_OK,
                          EXIT_RUNTIME, _trajectory_csv, build_parser, main)
from gyrostat.integrate import Trajectory
from gyrostat.poisson import Layout
from test_mutations import plant_bracket_sign_error

RB = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 1.0 0.5 -0.2
l = 0.1 0.2 0.3

[run]
dt = 0.01
t_final = 1.0
"""

HT_CHI = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

HT = f"""\
[system]
kind = heavy_top_rotors

[params]
ibar = 2.0 1.5 1.0
j = 0.4 0.3
m = 1.2
g = 9.8
h = 0.5
chi = {" ".join(repr(float(v)) for v in HT_CHI)}

[initial]
pi = 0.1 0.2 0.3
gamma = 0.0 0.0 1.0

[gamma]
kind = constant_body
nu0 = 0.0 0.0 0.0 0.0 0.0 1.0
samples = 40
"""

DEMO = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 3.0 2.5 2.0
j = 0.5 0.4 0.3

[initial]
pi = 0.3 -0.2 0.5
l = 0.0 0.1 0.98

[run]
dt = 0.01
t_final = 1.0

[control]
kind = matching
target = heavy_top_free
target_i = 2.0 1.5 1.0
target_m = 1.2
target_g = 9.8
target_h = 0.5
target_chi = 0.0 0.0 1.0
"""

IDENT = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 3.0 2.5 2.0
j = 0.5 0.4 0.3

[initial]
pi = 0.3 -0.2 0.5
l = 0.0 0.1 0.98

[run]
dt = 0.01
t_final = 1.0

[control]
kind = matching
target = rigid_body_rotors
target_ibar = 3.0 2.5 2.0
target_j = 0.5 0.4 0.3

[tolerances]
equivalence = 1e-12
"""


def scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_kv(path):
    pairs = (line.partition(" = ") for line in
             path.read_text().splitlines())
    return {key: value for key, _, value in pairs}


def cli(*args):
    return main([str(a) for a in args])


def traced_peak(*args):
    """The tracemalloc peak of one successful command over the traced
    size at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli(*args) == EXIT_OK
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSimulate:
    def test_writes_trajectory_and_drift_summary(self, tmp_path):
        code = cli("simulate", "--config", scenario(tmp_path, RB),
                   "--out", tmp_path / "out")
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "trajectory.csv").read_text() \
            .splitlines()
        assert lines[0] == ("t,pi_1,pi_2,pi_3,theta_1,theta_2,theta_3,"
                            "l_1,l_2,l_3,energy,pi_sq")
        assert len(lines) == 102
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[:4] == [0.0, 1.0, 0.5, -0.2]
        summary = (tmp_path / "out" / "drift_summary.txt").read_text()
        assert "overall: pass" in summary
        assert not list((tmp_path / "out").glob("*.tmp"))

    def test_heavy_top_columns_carry_the_advected_vector(self, tmp_path):
        text = HT + "\n[run]\ndt = 0.01\nt_final = 0.5\n"
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_OK
        header = (tmp_path / "out" / "trajectory.csv").read_text() \
            .splitlines()[0]
        assert header == ("t,pi_1,pi_2,pi_3,gamma_1,gamma_2,gamma_3,"
                          "theta_1,theta_2,l_1,l_2,"
                          "energy,pi_dot_gamma,gamma_sq")

    def test_blowup_reports_the_failure_time(self, tmp_path, capsys):
        text = RB.replace("dt = 0.01", "dt = 10.0") \
                 .replace("t_final = 1.0", "t_final = 500.0")
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "blew up at t = 20" in err

    def test_violated_drift_bound_fails_the_run(self, tmp_path):
        text = RB + "\n[tolerances]\nenergy_drift = 1e-30\n"
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_RUNTIME
        summary = (tmp_path / "out" / "drift_summary.txt").read_text()
        assert "overall: fail" in summary

    def test_runs_are_byte_identical(self, tmp_path):
        path = scenario(tmp_path, RB)
        assert cli("simulate", "--config", path, "--out",
                   tmp_path / "a", "--quiet") == EXIT_OK
        assert cli("simulate", "--config", path, "--out",
                   tmp_path / "b", "--quiet") == EXIT_OK
        for name in ("trajectory.csv", "drift_summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_config_errors_name_the_field(self, tmp_path, capsys):
        text = RB.replace("j = 0.5 0.4 0.3\n", "")
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[params] j" in capsys.readouterr().err

    def test_step_ceiling_is_a_config_error(self, tmp_path, capsys):
        # 10^12 steps of the blow-up scenario: refused at parse time
        text = RB.replace("dt = 0.01", "dt = 10.0") \
                 .replace("t_final = 1.0", "t_final = 1e13")
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[run]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_overflowing_step_count_is_a_config_error(self, tmp_path,
                                                      capsys):
        text = RB.replace("dt = 0.01", "dt = 1e-300") \
                 .replace("t_final = 1.0", "t_final = 1e300")
        code = cli("simulate", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[run] t_final / dt" in capsys.readouterr().err

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        code = cli("simulate", "--config", scenario(tmp_path, RB),
                   "--out", tmp_path / "out", "--quiet")
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_peak_memory_grows_at_most_300_bytes_per_step(self, tmp_path):
        # The run keeps one (d + m)-float row per state, 88 B here at
        # d = 9 and m = 2 invariants, and the peak grows 96-109 B per
        # step from 1000 to 4000 steps, a first run taking the one-time
        # allocations out. config.MAX_STEPS' comment scales this figure.
        def peak(n):
            path = scenario(tmp_path, RB.replace("t_final = 1.0",
                                                 f"t_final = {n / 100!r}"))
            return traced_peak("simulate", "--config", path, "--out",
                               tmp_path / "out", "--quiet")

        peak(20)
        assert (peak(4000) - peak(1000)) / 3000 <= 300.0


class TestTrajectoryCsv:
    BLOCK = 4

    @staticmethod
    def _trajectory(n):
        """Columns that are constant, hold both signed zeros, repeat a
        few values, or are all distinct, in the states and the series."""
        rng = np.random.default_rng(n)
        signed_zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        few = rng.choice([0.1 + 0.2, -2.25, 1e-300, 0.3], n)
        states = np.column_stack([
            np.full(n, 0.1), signed_zeros, few,
            rng.standard_normal(n), rng.standard_normal(n), np.full(n, -0.0)])
        ulps = 1.0 + np.spacing(1.0) * rng.integers(0, 3, n)
        series = {"energy": ulps, "pi_sq": rng.standard_normal(n),
                  "gamma_sq": signed_zeros[::-1].copy()}
        return Trajectory(0.1, states, series, Layout(lie.SO3, 0, 3))

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_blocks_match_the_row_by_row_reference(self, tmp_path,
                                                   monkeypatch, n):
        monkeypatch.setattr("gyrostat.cli.CSV_BLOCK", self.BLOCK)
        traj = self._trajectory(n)
        series = list(traj.series.values())
        rows = [",".join(map(repr, [i * traj.dt, *row,
                                    *(float(s[i]) for s in series)]))
                for i, row in enumerate(traj.states.tolist())]
        header = "t,pi_1,pi_2,pi_3,l_1,l_2,l_3,energy,pi_sq,gamma_sq"
        _trajectory_csv(tmp_path / "t.csv", traj)
        assert (tmp_path / "t.csv").read_bytes() == \
            "".join(line + "\n" for line in [header] + rows).encode()


class TestHJCheck:
    def test_zero_section_passes_everywhere(self, tmp_path):
        text = RB + "\n[gamma]\nkind = zero\nsamples = 25\n"
        code = cli("hj-check", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_OK
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert kv["verdict"] == "PASS"
        assert kv["relatedness_residual"] == "0.0"
        assert kv["hj_residual"] == "0.0"
        assert kv["sample_count"] == "25"

    def test_gravity_candidate_fails_consistently(self, tmp_path):
        code = cli("hj-check", "--config", scenario(tmp_path, HT),
                   "--out", tmp_path / "out")
        assert code == EXIT_OK
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert kv["verdict"] == "FAIL"
        expected = 1.2 * 9.8 * 0.5 * np.linalg.norm(
            np.cross([0.0, 0.0, 1.0], HT_CHI))
        assert float(kv["hj_residual"]) == pytest.approx(expected,
                                                         rel=1e-12)
        assert float(kv["relatedness_residual"]) \
            == pytest.approx(expected, rel=1e-12)
        table = (tmp_path / "out" / "hj_report.txt").read_text()
        rows = [line for line in table.splitlines()
                if line.strip() and line.split()[0].isdigit()]
        assert len(rows) == 40
        assert all(line.endswith("FAIL") for line in rows)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: the reduced HJ residual is the whole reduced "
        "field at the section's image, angle rates included, while the "
        "relatedness residual cancels them; this valid section reads "
        "relatedness 0.0 against HJ residual 0.6667 on every sample"))
    def test_related_constant_body_section_is_not_inconsistent(self,
                                                               tmp_path):
        text = RB + ("\n[gamma]\nkind = constant_body\nnu0 = 0.0 0.0 2.0\n"
                     "l0 = 0.0 0.0 0.0\nsamples = 40\n")
        cli("hj-check", "--config", scenario(tmp_path, text), "--seed", 1,
            "--out", tmp_path / "out", "--quiet")
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert kv["verdict"] != "INCONSISTENT"

    def test_planted_coupling_is_gate_rejected(self, tmp_path, capsys):
        text = RB + ("\n[gamma]\nkind = explicit\n"
                     "components = 0. 0. 0. 0.1 0.2 0.3\n"
                     "theta_coupling = 0. 0. 0. 1. 0. 0. 0. 0. 0.\n"
                     "samples = 10\n")
        code = cli("hj-check", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_GATE
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert kv["verdict"] == "GATE_REJECTED"
        assert kv["closedness_defect"] == "1.0"
        assert "closedness gate" in capsys.readouterr().err

    def test_wrong_declared_level_is_a_membership_violation(
            self, tmp_path, capsys):
        text = RB + ("\n[gamma]\nkind = constant_body\n"
                     "nu0 = 1.0 0.0 0.0\nmu = 0.0 0.0 1.0\n"
                     "samples = 10\n")
        code = cli("hj-check", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_MEMBERSHIP
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert kv["verdict"] == "MEMBERSHIP_VIOLATION"
        assert "level set" in kv["error"]
        assert "defect" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma, code, verdict, defect", [
        ("kind = explicit\ncomponents = 0. 0. 0. 0.1 0.2 0.3\n"
         "theta_coupling = 0. 0. 0. 1. 0. 0. 0. 0. 0.\n", EXIT_GATE,
         "GATE_REJECTED", "1.0"),
        ("kind = constant_body\nnu0 = 1.0 0.0 0.0\nmu = 0.0 0.0 1.0\n",
         EXIT_MEMBERSHIP, "MEMBERSHIP_VIOLATION", "0.0"),
    ], ids=["gate", "membership"])
    def test_failure_report_runs_the_gate_once(self, tmp_path, monkeypatch,
                                               gamma, code, verdict, defect):
        # the report reads the probe's gate value off the error
        calls = []
        gate = hj.closedness_defect

        def counted(*args, **kwargs):
            calls.append(1)
            return gate(*args, **kwargs)

        monkeypatch.setattr(hj, "closedness_defect", counted)
        text = RB + f"\n[gamma]\n{gamma}samples = 10\n"
        assert cli("hj-check", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out", "--quiet") == code
        kv = read_kv(tmp_path / "out" / "hj_report.kv")
        assert (kv["verdict"], kv["closedness_defect"]) == (verdict, defect)
        assert len(calls) == 1

    def test_reports_are_seeded_and_reproducible(self, tmp_path):
        text = RB + "\n[gamma]\nkind = exact_dW\nname = rotor_quadratic\n" \
                    "samples = 15\n"
        path = scenario(tmp_path, text)
        for out in ("a", "b"):
            assert cli("hj-check", "--config", path, "--out",
                       tmp_path / out, "--quiet") == EXIT_OK
        assert (tmp_path / "a" / "hj_report.txt").read_bytes() \
            == (tmp_path / "b" / "hj_report.txt").read_bytes()
        assert cli("hj-check", "--config", path, "--out", tmp_path / "c",
                   "--seed", 7, "--quiet") == EXIT_OK
        assert (tmp_path / "a" / "hj_report.txt").read_bytes() \
            != (tmp_path / "c" / "hj_report.txt").read_bytes()

    @staticmethod
    def _peak_slope(tmp_path, monkeypatch, text):
        """hj-check's tracemalloc peak growth per sample from 1000 to 3000
        samples; a first run takes the one-time allocations out. Blocks
        of 16 samples keep the gate phase's fixed block peak below the
        probe phase's, so this reads the probe's per-sample growth: at
        the 256-sample lie.CHUNK the gate's block peak (about 0.6 MB) is
        the larger one at these counts, and the slope read 110-155 B."""
        monkeypatch.setattr(lie, "CHUNK", 16)

        def peak(n):
            path = scenario(tmp_path, text.replace("samples = 40",
                                                   f"samples = {n}"))
            return traced_peak("hj-check", "--config", path, "--out",
                               tmp_path / "out", "--quiet")

        peak(20)
        return (peak(3000) - peak(1000)) / 2000

    def test_peak_memory_grows_at_most_300_bytes_per_sample(self, tmp_path,
                                                             monkeypatch):
        # On the heavy-top probe the command's peak grows about 200 B per
        # sample, reached inside the probe: the stacked samples (112 B),
        # the fiber rows it reads once (64 B) and the result columns.
        # Checking the rotations over the whole stack at once peaked at
        # about 255-270 B; formatting the whole report before writing it,
        # at about 365 B.
        assert self._peak_slope(tmp_path, monkeypatch, HT) <= 300.0

    def test_zero_level_peak_memory_grows_at_most_300_bytes_per_sample(
            self, tmp_path, monkeypatch):
        # the zero level samples the whole group (random_configurations):
        # about 220 B per sample, 230-243 B while the samples stayed alive
        # through the report
        text = RB + ("\n[gamma]\nkind = exact_dW\nname = rotor_quadratic\n"
                     "samples = 40\n")
        assert self._peak_slope(tmp_path, monkeypatch, text) <= 300.0

    def test_needs_a_gamma_section(self, tmp_path, capsys):
        code = cli("hj-check", "--config", scenario(tmp_path, RB),
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[gamma] kind" in capsys.readouterr().err

    def test_rejects_matching_control(self, tmp_path, capsys):
        text = DEMO + "\n[gamma]\nkind = zero\n"
        code = cli("hj-check", "--config", scenario(tmp_path, text),
                   "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[control] kind" in capsys.readouterr().err


class TestEquivalenceDemo:
    def test_matched_run_tracks_the_target(self, tmp_path):
        code = cli("equivalence-demo", "--config",
                   scenario(tmp_path, DEMO), "--out", tmp_path / "out")
        assert code == EXIT_OK
        kv = read_kv(tmp_path / "out" / "equivalence.txt")
        assert float(kv["engaged_deviation"]) <= 1e-6
        assert float(kv["disengaged_deviation"]) > 1e-2
        assert kv["engaged_within_tolerance"] == "yes"
        assert kv["target"] == "heavy_top_free"

    def test_identity_transport_is_exact(self, tmp_path):
        code = cli("equivalence-demo", "--config",
                   scenario(tmp_path, IDENT), "--out", tmp_path / "out")
        assert code == EXIT_OK
        kv = read_kv(tmp_path / "out" / "equivalence.txt")
        assert kv["engaged_deviation"] == "0.0"

    def test_deviation_over_tolerance_fails(self, tmp_path, capsys):
        # On the finer grid the engaged deviation is rounding-level but
        # nonzero, so an absurdly tight tolerance must fail the run.
        text = DEMO.replace("dt = 0.01", "dt = 0.001") \
            + "\n[tolerances]\nequivalence = 1e-30\n"
        code = cli("equivalence-demo", "--config",
                   scenario(tmp_path, text), "--out", tmp_path / "out")
        assert code == EXIT_RUNTIME
        kv = read_kv(tmp_path / "out" / "equivalence.txt")
        assert kv["engaged_within_tolerance"] == "no"
        assert "deviate" in capsys.readouterr().err

    def test_blown_up_run_fails(self, tmp_path, capsys, monkeypatch):
        # states of size about 1 pass a blow-up limit of 0.1 on the first
        # step; the command writes nothing and reports the failure
        monkeypatch.setattr(integrate, "BLOWUP_LIMIT", 0.1)
        code = cli("equivalence-demo", "--config",
                   scenario(tmp_path, DEMO), "--out", tmp_path / "out")
        assert code == EXIT_RUNTIME
        assert not (tmp_path / "out" / "equivalence.txt").exists()
        assert "equivalence demo failed: trajectory blew up at t = " \
            in capsys.readouterr().err

    def test_peak_memory_grows_at_most_350_bytes_per_step(self, tmp_path):
        # The target, engaged and free runs each keep one row of state
        # per step, and the peak grows 217-265 B per step from 500 to
        # 2000 steps (239-252 B from 1000 to 4000), a first run taking
        # the one-time allocations out. config.MAX_STEPS' comment scales
        # this figure.
        def peak(n):
            path = scenario(tmp_path, DEMO.replace("t_final = 1.0",
                                                   f"t_final = {n / 100!r}"))
            return traced_peak("equivalence-demo", "--config", path, "--out",
                               tmp_path / "out", "--quiet")

        peak(20)
        assert (peak(2000) - peak(500)) / 1500 <= 350.0

    def test_builds_the_base_and_the_target_system_once(self, tmp_path,
                                                         monkeypatch):
        builds = []
        for name, row in cfgmod.CATALOGUE.items():
            def build(params, name=name, build=row.build):
                builds.append(name)
                return build(params)
            monkeypatch.setitem(cfgmod.CATALOGUE, name,
                                row._replace(build=build))
        assert cli("equivalence-demo", "--config", scenario(tmp_path, DEMO),
                   "--out", tmp_path / "out", "--quiet") == EXIT_OK
        assert sorted(builds) == ["heavy_top_free", "rigid_body_rotors"]

    def test_needs_matching_control(self, tmp_path, capsys):
        code = cli("equivalence-demo", "--config",
                   scenario(tmp_path, RB), "--out", tmp_path / "out")
        assert code == EXIT_CONFIG
        assert "[control] kind" in capsys.readouterr().err


class TestBracketVerify:
    def test_default_run_passes(self, tmp_path):
        code = cli("bracket-verify", "--out", tmp_path / "out")
        assert code == EXIT_OK
        report = (tmp_path / "out" / "bracket_report.txt").read_text()
        assert "overall: pass" in report
        for name in ("so3_lie_poisson", "so3_product", "se3_product"):
            assert f"suite {name}" in report
        assert "worst sample" in report

    def test_injected_sign_error_fails_jacobi(self, tmp_path, capsys,
                                              monkeypatch):
        plant_bracket_sign_error(monkeypatch)
        code = cli("bracket-verify", "--out", tmp_path / "out")
        assert code == EXIT_RUNTIME
        report = (tmp_path / "out" / "bracket_report.txt").read_text()
        assert "overall: fail" in report
        assert "result: fail" in report
        assert "suite failed" in capsys.readouterr().err

    def test_no_hidden_mutation_flag(self, tmp_path, capsys):
        # planted defects live in the tests, not behind a CLI flag
        with pytest.raises(SystemExit) as exc:
            main(["bracket-verify", "--out", str(tmp_path / "out"),
                  "--inject-sign-error"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-sign-error" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_help_documents_the_column_order_and_exit_codes(self):
        text = build_parser().format_help()
        assert "pi_1 pi_2 pi_3" in text
        assert "exit codes" in text

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "equivalence-demo"])
    def test_commands_that_draw_nothing_take_no_seed(self, tmp_path, capsys,
                                                     command):
        path = scenario(tmp_path, RB)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path / "out"),
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["hj-check", "bracket-verify"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys,
                                                 command, seed):
        path = scenario(tmp_path, RB)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path / "out"),
                  "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,text", [
        ("simulate", RB), ("hj-check", HT), ("equivalence-demo", DEMO),
        ("bracket-verify", None)])
    def test_out_that_cannot_be_a_directory_is_a_bad_argument(
            self, tmp_path, capsys, command, text):
        # an existing file as --out, or a path below one, is refused on
        # one stderr line before any work runs
        taken = tmp_path / "taken"
        taken.write_text("keep")
        args = [command] if text is None else \
            [command, "--config", scenario(tmp_path, text)]
        for out in (taken, taken / "sub"):
            assert cli(*args, "--out", out) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: --out {out}: ")
            assert captured.err.count("\n") == 1
        assert taken.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["taken"] + ([] if text is None else ["scenario.ini"]))

    def test_scenario_that_is_not_utf8_is_a_config_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "scenario.ini"
        path.write_bytes(b"\xff\xfe" + RB.encode("utf-16-le"))
        assert cli("simulate", "--config", path, "--out",
                   tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: scenario file {path} is not UTF-8: invalid "
            "start byte at byte 0\n")
        assert not (tmp_path / "out").exists()

    def test_config_flag_is_required_for_scenario_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        capsys.readouterr()
