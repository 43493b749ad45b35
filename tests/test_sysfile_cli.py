import ast
import json
import math
import warnings

import numpy as np
import pytest

from conftest import system_path
from daekit.cli import main, write_branch_csv, write_trajectory_csv
from daekit.dae import ManifoldPoint
from daekit.degree import find_zeros
from daekit.errors import SystemFileError
from daekit.flow import Trajectory
from daekit.periodic import Branch
from daekit.sysfile import load_system


class TestSystemFile:
    def test_load_fixture(self, tmp_path):
        sysdef = load_system(system_path("pozzo"))
        assert (sysdef.k, sysdef.s) == (2, 1)
        assert sysdef.period == pytest.approx(2 * math.pi)
        assert sysdef.box.lo.tolist() == [-2, -2, -2]
        env = sysdef.env([1.0, 2.0], [0.5])
        assert sysdef.eval_f(env).tolist() == [2.0, -1.0 + 0.5 - 2.0]
        assert sysdef.eval_g(env)[0] == 0.5**3 + 0.5 - 1.0

    def test_default_forcing_is_zero(self, tmp_path):
        sysdef = load_system(system_path("eqex1"))
        env = sysdef.env([0.5], [0.5], t=1.0)
        assert sysdef.eval_h(env).tolist() == [0.0]

    def write(self, tmp_path, text):
        p = tmp_path / "sys.sys"
        p.write_text(text)
        return str(p)

    def test_one_instance_per_text(self, tmp_path):
        # the same text, from the same path or another, is the same
        # SystemDef, with the kernels and emitted code it has made
        pozzo = load_system(system_path("pozzo"))
        find_zeros(pozzo, pozzo.box, grid_per_dim=4)
        copy = tmp_path / "copy.sys"
        copy.write_text(open(system_path("pozzo"), encoding="utf-8").read())
        for path in (system_path("pozzo"), str(copy)):
            again = load_system(path)
            assert again is pozzo
            assert again.box is pozzo.box and again._stages is pozzo._stages

    def test_an_edited_file_is_reloaded(self, tmp_path):
        text = ('dim_x = 1\ndim_y = 1\nperiod = 1\nf = "{}"\ng = "x1 - y1"\n'
                'box = [-1, 1], [-1, 1]\n')
        path = self.write(tmp_path, text.format("y1"))
        first = load_system(path)
        self.write(tmp_path, text.format("2*y1"))
        edited = load_system(path)
        env = edited.env([0.5], [0.25])
        assert edited is not first
        assert (first.eval_f(env).tolist(), edited.eval_f(env).tolist()) == (
            [0.25], [0.5])
        self.write(tmp_path, text.format("y1"))
        assert load_system(path) is first

    def test_a_malformed_file_raises_on_every_load(self, tmp_path):
        path = self.write(tmp_path, 'dim_x = 1\ndim_y = 1\nperiod = 1\n'
                          'f = "y1"\ng = "x1 +"\nbox = [-1, 1], [-1, 1]\n')
        errors = []
        for _ in range(2):
            with pytest.raises(SystemFileError) as err:
                load_system(path)
            errors.append(err.value)
        assert errors[0] is not errors[1]
        assert [e.line for e in errors] == [5, 5]

    def test_missing_key(self, tmp_path):
        path = self.write(tmp_path, 'dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\n'
                          'box = [-1, 1], [-1, 1]\n')
        with pytest.raises(SystemFileError, match="missing required key 'g'"):
            load_system(path)

    def test_bad_formula_reports_line(self, tmp_path):
        path = self.write(tmp_path, 'dim_x = 1\ndim_y = 1\nperiod = 1\n'
                          'f = "y1"\ng = "x1 +"\nbox = [-1, 1], [-1, 1]\n')
        with pytest.raises(SystemFileError) as err:
            load_system(path)
        assert err.value.line == 5
        assert "position 4" in str(err.value)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "bogus = 3\n")
        with pytest.raises(SystemFileError, match="unknown key"):
            load_system(path)

    def test_wrong_box_length(self, tmp_path):
        path = self.write(tmp_path, 'dim_x = 1\ndim_y = 1\nperiod = 1\n'
                          'f = "y1"\ng = "x1"\nbox = [-1, 1]\n')
        with pytest.raises(SystemFileError, match="bounds pairs"):
            load_system(path)

    def test_undeclared_variable_in_formula(self, tmp_path):
        path = self.write(tmp_path, 'dim_x = 1\ndim_y = 1\nperiod = 1\n'
                          'f = "y2"\ng = "x1 - y1"\nbox = [-1, 1], [-1, 1]\n')
        with pytest.raises(SystemFileError, match="y2"):
            load_system(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliExitCodes:
    def test_all_fixtures_check(self, capsys):
        for name, want in [
            ("pozzo", 0), ("equivlien", 0), ("exmults", 0),
            ("eqex1", 2), ("eqex2", 2),
        ]:
            code, out, _ = run_cli(capsys, "check", system_path(name))
            assert code == want, name
            report = json.loads(out)
            assert report["ok"] == (want == 0)

    def test_overflowing_monodromy_det_exits_1(self, capsys, tmp_path):
        # e^{AT} is finite (entries near e^{440}), det(e^{AT} - I) is not
        path = tmp_path / "fast.sys"
        path.write_text('dim_x = 2\ndim_y = 1\nperiod = 6.283185307179586\n'
                        'f = "70*x1", "70*x2"\ng = "y1"\n'
                        'box = [-1, 1], [-1, 1], [-1, 1]\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "resonance", str(path))
        assert code == 1 and out == ""
        assert err == "error: det(monodromy - I) overflowed\n"

    def test_undefined_d2g_exits_1_with_one_error_line(self, capsys, tmp_path):
        # d2g = sqrt(x1 + 0.5) + 1 is nan at the samples with x1 < -0.5:
        # their dets are nan without a warning, and the polish of a start
        # steps into that region and names the sqrt
        path = tmp_path / "sqrt.sys"
        path.write_text('dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\n'
                        'g = "y1*sqrt(x1 + 0.5) + y1 - x1"\n'
                        'box = [-1, 1], [-1, 1]\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_d2g_refines_no_witness_past_it(self, capfd, tmp_path):
        # d2g = 2e308 * y1 + 1 changes sign and overflows over most of the
        # box: the witness refinement ends where its Jacobian is not finite,
        # so no least-squares solve sees an inf (LAPACK would print to the
        # process's stderr)
        path = tmp_path / "overflow.sys"
        path.write_text('dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\n'
                        'g = "1e308*y1^2 + y1 - x1"\nbox = [-1, 1], [-1, 1]\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", str(path)])
        out, err = capfd.readouterr()
        assert code == 2 and err == ""
        report = json.loads(out)
        assert report["message"].startswith("det d2g changes sign")
        assert all(-1 <= v <= 1 for v in report["witness"])

    def test_a_seed_whose_map_leaves_the_box_is_a_failed_start(self, capsys,
                                                               tmp_path):
        # the only zero, x1 = 1.0000005, lies within BOUNDARY_SLACK outside
        # the box: its seed's time-T map leaves the box on its first step,
        # so the zero gets no seed, and every start fails
        path = tmp_path / "edge.sys"
        path.write_text('dim_x = 1\ndim_y = 1\nperiod = 6.283185307179586\n'
                        'f = "y1"\ng = "y1 - x1 + 1.0000005"\nh = "cos(t)"\n'
                        'box = [-1, 1], [-3, 3]\n')
        sys = load_system(path)
        zeros = find_zeros(sys, sys.box, grid_per_dim=16)
        assert [z.point[0] for z in zeros] == pytest.approx([1.0000005])
        code, out, err = run_cli(capsys, "multiplicity", str(path),
                                 "--lambda", "0.01", "--steps", "64",
                                 "--grid", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 0

    POWER_SYSTEM = ('dim_x = 1\ndim_y = 1\nperiod = 6.283185307179586\n'
                    'f = "x1^400"\ng = "y1 - x1"\nbox = [-2, 2], [-2, 2]\n')

    def test_an_overflowing_power_exits_1_naming_it(self, capsys, tmp_path):
        # the orbit from x1 = 1.9 grows until the float power x1^400
        # overflows, which the strict walker names
        path = tmp_path / "power.sys"
        path.write_text(self.POWER_SYSTEM)
        code, out, err = run_cli(capsys, "shoot", str(path), "--guess", "1.9",
                                 "--steps", "16")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and err.endswith(" in 'x1^400'\n")

    def test_an_overflowing_power_is_a_failed_start(self, capsys, tmp_path):
        # the start whose map overflows x1^400 fails alone with the
        # ExprDomainError; the other start finds the orbit near x1 = -0.95
        path = tmp_path / "power.sys"
        path.write_text(self.POWER_SYSTEM)
        code, out, err = run_cli(capsys, "multiplicity", str(path),
                                 "--lambda", "0.1", "--steps", "16",
                                 "--grid", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 1

    @pytest.mark.parametrize("g,value", [
        # the polish of the first start steps to x1 = 0.75390625 and raises
        ("y1*(2+sqrt(0.5 - x1)) - x1", "-0.25390625"),
        # no polish iterate leaves x1 <= 0.5: the first sample with x1 > 0.5
        # (x1 = 0.8125) names the sqrt
        ("(y1 + y1^3/3)*(3 - sqrt(0.5 - x1)) - x1", "-0.3125"),
    ])
    def test_undefined_d2g_names_the_first_undefined_point(self, capsys,
                                                          tmp_path, g, value):
        path = tmp_path / "sqrt.sys"
        path.write_text(f'dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\n'
                        f'g = "{g}"\nbox = [-1, 1], [-1, 1]\n')
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert err == f"error: sqrt of negative value {value} in 'sqrt(0.5 - x1)'\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent.sys")
        assert code == 1

    def test_bad_usage(self, capsys):
        assert main(["branch", system_path("pozzo")]) == 1  # missing lambda-max

    def test_bad_vectors_exit_1_with_one_error_line(self, capsys, tmp_path):
        nozero = tmp_path / "nozero.sys"
        nozero.write_text('dim_x = 1\ndim_y = 1\nperiod = 1\nf = "1"\n'
                          'g = "y1"\nbox = [-1, 1], [-1, 1]\n')
        for argv, why in [
            (["shoot", system_path("equivlien"), "--guess", "0,0"],
             "expected 1 numbers, got 2"),
            (["branch", system_path("pozzo"), "--lambda-max", "0.1",
              "--origin", "0,0"], "expected 3 numbers, got 2"),
            (["branch", str(nozero), "--lambda-max", "0.1",
              "--origin", "0,0"], "no zero of (f, g) in the box"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert why in err

    @pytest.mark.parametrize("argv, message", [
        (["shoot", "equivlien", "--lambda", "-1", "--guess", "0"],
         "lambda must be >= 0"),
        (["shoot", "equivlien", "--guess", "0", "--steps", "8"],
         "at least 16 steps required"),
        (["multiplicity", "exmults", "--lambda", "-1"], "lambda must be >= 0"),
        (["branch", "equivlien", "--lambda-max", "-1"],
         "lambda_max must be positive"),
        (["zeros", "pozzo", "--grid", "1"], "grid_per_dim must be at least 2"),
        (["check", "pozzo", "--samples", "0"], "samples must be at least 1"),
        (["shoot", "equivlien", "--lambda", "nan", "--guess", "0",
          "--steps", "32"], "lambda must be finite"),
        (["shoot", "equivlien", "--lambda", "inf", "--guess", "0",
          "--steps", "32"], "lambda must be finite"),
        (["multiplicity", "exmults", "--lambda", "nan", "--grid", "2",
          "--steps", "32"], "lambda must be finite"),
        (["branch", "equivlien", "--lambda-max", "nan", "--steps", "32"],
         "lambda_max must be finite"),
        (["multiplicity", "exmults", "--lambda", "0.01", "--grid", "0",
          "--steps", "32"], "grid_per_dim must be at least 1"),
        (["branch", "equivlien", "--lambda-max", "0.1", "--norm-bound", "nan",
          "--steps", "32"], "norm_bound must be finite"),
        (["branch", "equivlien", "--lambda-max", "0.1", "--norm-bound", "0",
          "--steps", "32"], "norm_bound must be positive"),
        (["branch", "equivlien", "--lambda-max", "0.1", "--max-steps", "0",
          "--steps", "32"], "max_steps must be at least 1"),
        (["branch", "equivlien", "--lambda-max", "0.01", "--origin", "nan,nan",
          "--steps", "32"], "bad --origin 'nan,nan'; expected finite numbers"),
        (["shoot", "equivlien", "--guess", "inf", "--steps", "32"],
         "bad --guess 'inf'; expected finite numbers"),
    ])
    def test_bad_argument_values_exit_1_with_one_error_line(self, capsys,
                                                            argv, message):
        cmd, name, *rest = argv
        code, out, err = run_cli(capsys, cmd, system_path(name), *rest)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("cmd", ["check", "reduce-hessenberg",
                                     "reduce-implicit"])
    def test_bad_box_names_its_line(self, capsys, tmp_path, cmd):
        body = {
            "check": 'dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\ng = "y1"\n',
            "reduce-hessenberg":
                'dim_x = 1\ndim_y = 1\nperiod = 1\nf = "y1"\ngamma = "x1"\n',
            "reduce-implicit": 'dim_x = 1\nperiod = 1\nphi = "y1 + x1"\n',
        }[cmd]
        path = tmp_path / "bad.sys"
        path.write_text(body + "box = [1, -1], [-1, 1]\n")
        line = body.count("\n") + 1
        code, out, err = run_cli(capsys, cmd, str(path))
        assert code == 1 and out == ""
        assert err == (f"error: box requires lo < hi in every dimension "
                       f"(line {line})\n")

    @pytest.mark.parametrize("argv, prefix, suffix", [
        (["shoot", "exmults", "--guess", "0", "--steps", "32"],
         "shooting Jacobian dP - I singular at p0 = ", ""),
        (["branch", "exmults", "--lambda-max", "0.1", "--origin", "0,0",
          "--steps", "32"], "origin ",
         " is resonant; the branch is not locally unique there"),
    ])
    def test_error_points_are_tuples_of_floats(self, capsys, argv, prefix,
                                               suffix):
        cmd, name, *rest = argv
        code, out, err = run_cli(capsys, cmd, system_path(name), *rest)
        assert code == 1 and out == ""
        assert err.startswith("error: " + prefix)
        assert err.endswith(suffix + "\n") and err.count("\n") == 1
        text = err[len("error: " + prefix):len(err) - len(suffix) - 1]
        point = ast.literal_eval(text)  # no np.float64(...) reprs
        assert type(point) is tuple and point
        assert all(type(c) is float for c in point)

    # one bad header value or formula count per file; the error names its line
    @pytest.mark.parametrize("cmd, body, message", [
        ("check", 'dim_x = 1.5\ndim_y = 1\nperiod = 1\nf = "y1"\ng = "y1"\n'
         'box = [-1, 1], [-1, 1]\n',
         "'dim_x' must be a whole number of at least 1 (line 1)"),
        ("check", 'dim_x = 1\ndim_y = 0\nperiod = 1\nf = "x1"\ng = "x1"\n'
         'box = [-1, 1]\n',
         "'dim_y' must be a whole number of at least 1 (line 2)"),
        ("check", 'dim_x = 1\ndim_y = 1\nperiod = nan\nf = "y1"\ng = "y1"\n'
         'box = [-1, 1], [-1, 1]\n',
         "'period' must be finite and positive (line 3)"),
        ("check", 'dim_x = 1\ndim_y = 1\nperiod = 1\nconstraint_tol = -1\n'
         'f = "y1"\ng = "y1"\nbox = [-1, 1], [-1, 1]\n',
         "'constraint_tol' must be finite and positive (line 4)"),
        ("reduce-hessenberg", 'dim_x = 1\ndim_y = 1\nperiod = 1\n'
         'f = "y1", "x1"\ngamma = "x1"\nbox = [-1, 1], [-1, 1]\n',
         "f needs 1 formulas, got 2 (line 4)"),
        ("reduce-implicit", 'dim_x = 1\nperiod = 1\nphi = "y1 + x1"\n'
         'h = "cos(t)", "sin(t)"\nbox = [-1, 1], [-1, 1]\n',
         "h needs 1 formulas, got 2 (line 4)"),
    ], ids=["dim_x-fraction", "dim_y-zero", "period-nan",
            "constraint_tol-negative", "hessenberg-f-count",
            "implicit-h-count"])
    def test_bad_header_or_count_names_its_line(self, capsys, tmp_path, cmd,
                                                body, message):
        path = tmp_path / "bad.sys"
        path.write_text(body)
        code, out, err = run_cli(capsys, cmd, str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_hypothesis_violation_on_semantic_command(self, capsys):
        code, _, err = run_cli(capsys, "degree", system_path("eqex1"))
        assert code == 2
        assert "witness" in err or "hypothesis" in err


class TestCliReports:
    def test_sweep_det_overflow_warns_nothing(self, capsys, tmp_path):
        # Jacobian entries near 1e160 overflow det; the sweep takes no det,
        # and the sweep's elimination converges from them to all three zeros
        path = tmp_path / "huge.sys"
        path.write_text('dim_x = 1\ndim_y = 1\nperiod = 1\n'
                        'f = "1e160*x1 - 1e160*x1^3"\ng = "1e160*y1 + x1"\n'
                        'box = [-1.5, 1.5], [-1.5, 1.5]\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "zeros", str(path))
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert (rep["command"], rep["system"], rep["grid"]) == (
            "zeros", str(path), 16)
        zeros = rep["zeros"]
        assert [z["point"][0] for z in zeros] == pytest.approx(
            [-1.0, 0.0, 1.0], abs=1e-12)
        assert [z["index"] for z in zeros] == [-1, 1, -1]
        assert not any(z["degenerate"] or z["near_boundary"] for z in zeros)
        assert zeros[0]["point"][1] == pytest.approx(1e-160, rel=1e-12)
        assert abs(zeros[1]["point"][1]) < 1e-170
        assert zeros[2]["point"][1] == pytest.approx(-1e-160, rel=1e-12)

    def test_degree_report(self, capsys):
        code, out, _ = run_cli(capsys, "degree", system_path("pozzo"))
        assert code == 0
        rep = json.loads(out)
        assert rep["deg_F"] == 1
        assert rep["sign_d2g"] == 1
        assert rep["deg_Psi"] == 1
        assert len(rep["zeros"]) == 1
        assert max(abs(v) for v in rep["zeros"][0]["point"]) <= 1e-8

    def test_zeros_report(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", system_path("exmults"))
        rep = json.loads(out)
        assert code == 0 and len(rep["zeros"]) == 2
        assert rep["zeros"][0]["degenerate"] is True
        assert rep["zeros"][1]["index"] == 1

    def test_resonance_report(self, capsys):
        code, out, _ = run_cli(capsys, "resonance", system_path("exmults"))
        rep = json.loads(out)
        verdicts = {tuple(np.round(v["point"], 6)): v["verdict"]
                    for v in rep["verdicts"]}
        assert verdicts[(0.0, 0.0)] == "Resonant"
        assert verdicts[(1.0, 1.0)] == "NonResonant"

    def test_shoot_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "orbit.csv"
        code, out, _ = run_cli(
            capsys, "shoot", system_path("equivlien"),
            "--lambda", "1e-3", "--guess", "0", "--csv", str(csv),
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["p0"][0] == pytest.approx(5e-4, abs=1e-7)
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x1,y1,residual"
        assert len(lines) == 1 + 513  # header + 512 steps + initial state

    def test_branch_reports_a_drift_termination(self, capsys):
        # at 16 steps a corrector step drifts even at the smallest step:
        # the branch ends there, with its points, instead of exit 1
        code, out, err = run_cli(
            capsys, "branch", system_path("equivlien"),
            "--lambda-max", "0.5", "--steps", "16",
        )
        assert (code, err) == (0, "")
        rep = json.loads(out)
        assert rep["termination"] == "DriftExceeded"
        assert rep["detail"].startswith("constraint drift ")
        assert len(rep["points"]) > 1

    def test_multiplicity_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "multiplicity", system_path("exmults"),
            "--lambda", "0.01", "--grid", "6",
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["count"] >= 2
        assert len(rep["orbits"]) == rep["count"]

    def test_stiff_zero_seed_warns_nothing(self, capfd, tmp_path):
        # A = -400 at the zero x1 = 0: the seed's map takes the scan's 1024
        # steps (h * |A| = 2.45, inside RK4's stability interval), so no
        # step overflows on the way to the one orbit
        path = tmp_path / "stiff.sys"
        path.write_text('dim_x = 1\ndim_y = 1\nperiod = 6.283185307179586\n'
                        'f = "y1"\ng = "y1 + 400*x1"\nh = "cos(t)"\n'
                        'box = [-1, 1], [-500, 500]\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["multiplicity", str(path), "--lambda", "0.01",
                         "--steps", "1024", "--grid", "2"])
        out, err = capfd.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 1

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "degree", system_path("exmults"),
                "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_only_degree_takes_a_seed(self, capsys):
        code, out, err = run_cli(capsys, "zeros", system_path("pozzo"),
                                 "--seed", "1")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --seed 1\n" in err

    def test_reduce_hessenberg_cli(self, capsys, tmp_path):
        src = tmp_path / "hess.sys"
        src.write_text(
            'dim_x = 2\ndim_y = 1\nperiod = 6.283185307179586\n'
            'f = "x2 + y1", "-x1"\ngamma = "x1"\n'
            'box = [-2, 2], [-2, 2], [-2, 2]\n'
        )
        code, out, _ = run_cli(capsys, "reduce-hessenberg", str(src))
        rep = json.loads(out)
        assert code == 0
        assert rep["g"] == ["x2 + y1"]
        assert rep["validation"]["sign_d2g"] == 1

    def test_reduce_implicit_cli(self, capsys, tmp_path):
        src = tmp_path / "impl.sys"
        src.write_text(
            'dim_x = 1\nperiod = 6.283185307179586\n'
            'phi = "y1 + x1^3"\nh = "cos(t)"\nbox = [-1, 1], [-1, 1]\n'
        )
        code, out, _ = run_cli(capsys, "reduce-implicit", str(src))
        rep = json.loads(out)
        assert code == 0
        assert rep["deg_F"] == -1
        assert rep["h"] == ["-cos(t)"]


def constant_trajectory(n_steps, period=2 * math.pi):
    times = np.linspace(0.0, period, n_steps + 1)
    zs = np.tile([0.1, -0.1], (n_steps + 1, 1))
    mp = ManifoldPoint(np.array([0.1]), np.array([-0.1]), 0.0)
    return Trajectory(times, zs, [0.0] * (n_steps + 1), 0.0, 0.0, mp, mp)


def synthetic_branch(n_points):
    points = []
    for i in range(n_points):
        mp = ManifoldPoint(np.array([0.005 * i]), np.array([0.0]), 0.0)
        points.append(Trajectory(np.zeros(2), np.zeros((2, 2)), [0.0, 0.0],
                                 0.01 * i, 0.0, mp, mp))
    return Branch(points, [0.01] * n_points, origin=None,
                  termination="ReachedLambdaMax")


class TestPlotData:
    def test_trajectory_row_count(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(constant_trajectory(512), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 513

    def test_branch_row_counts(self, tmp_path):
        path = tmp_path / "b.csv"
        write_branch_csv(synthetic_branch(1), str(path))  # origin only
        assert len(path.read_text().splitlines()) == 2  # header + 1 data row
        write_branch_csv(synthetic_branch(10), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        assert lines[-1].endswith("ReachedLambdaMax")
        assert all(not line.endswith("ReachedLambdaMax")
                   for line in lines[1:-1])

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        traj = constant_trajectory(16, period=0.1)
        write_trajectory_csv(traj, str(path))
        header, first, *_ = path.read_text().splitlines()
        fields = first.split(",")
        assert fields[1] == "0.10000000000000001"  # full double round-trip
        assert float(fields[2]) == -0.1
