import ast
import copy
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pmpkit
from pmpkit import cli, shooting


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def write_problem(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def golden_variant(tmp_path, **items):
    """The min-time double integrator golden's problem file with items set."""
    with open(os.path.join(GOLDEN, "min_time_double_integrator", "problem.json")) as fh:
        data = json.load(fh)
    return write_problem(tmp_path / "p.json", {**data, **items})


def bang_problem():
    return {
        "name": "di-time-optimal",
        "dynamics": {"builtin": "double_integrator"},
        "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "cost": {"expression": "1"},
        "horizon": {"a": 0.0, "b": 3.0},
        "p0": -1.0,
        "boundary": {"mode": "free_time",
                     "initial": {"point": [1.0, 0.0]},
                     "final": {"point": [0.0, 0.0]}},
        "integrator": {"step": 0.02},
    }


def lqr_problem():
    # check tolerance matched to the 0.01 discretization of the smooth arc
    return {
        "name": "scalar-lqr",
        "dynamics": {"expressions": ["u0"]},
        "control_set": {"kind": "box", "lo": [-10.0], "hi": [10.0]},
        "cost": {"expression": "x0^2 + u0^2"},
        "horizon": {"a": 0.0, "b": 1.0},
        "boundary": {"mode": "fixed_time",
                     "initial": {"point": [1.0]},
                     "final": {"anchor": [0.0], "normals": []}},
        "integrator": {"step": 0.01},
        "tol": 1e-4,
    }


@pytest.fixture(scope="module")
def bang_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bang")
    prob = write_problem(d / "problem.json", bang_problem())
    rc = cli.main(["shoot", "--problem", prob, "--out", str(d / "out")])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def lqr_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("lqr")
    prob = write_problem(d / "problem.json", lqr_problem())
    rc = cli.main(["shoot", "--problem", prob, "--out", str(d / "out"),
                   "--tol", "1e-9"])
    assert rc == 0
    return d


class TestProblemFiles:
    def test_normals_define_tangent_basis(self):
        p = cli.Problem(
            {"dynamics": {"builtin": "double_integrator"},
             "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
             "boundary": {"mode": "fixed_time",
                          "initial": {"point": [0.0, 0.0]},
                          "final": {"anchor": [0.0, 0.0], "normals": [[1.0, 0.0]]}}})
        basis = p.boundary.final
        assert len(basis) == 1
        # tangent direction annihilated by the normal
        assert abs(np.dot(basis[0], [1.0, 0.0])) < 1e-12
        assert abs(abs(basis[0][1]) - 1.0) < 1e-12

    def test_malformed_expression_names_token(self, tmp_path, capsys):
        data = lqr_problem()
        data["dynamics"] = {"expressions": ["x0 +* u0"]}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'*'" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, message", [
        # the offset was read in the text with ^ written as **: offset 6, '**'
        ("x0 ^ ^ 2", "parse error in 'x0 ^ ^ 2' at offset 5: bad token '^'"),
        # Python's offset 0 at the end of the input read as offset 0, 'x0'
        ("x0 ^ 2 +", "parse error in 'x0 ^ 2 +': unexpected end of input"),
        # Python's message was named as the token
        ("", "parse error: empty expression ''"),
        ("  ", "parse error: empty expression '  '"),
        # eval mode ends the expression at the line break: the next line's
        # first word was named as the bad token
        ("x0 +\n x0 x0", "parse error in 'x0 +\n x0 x0' at offset 4: unexpected end of line"),
        ("x0 +\nx0", "parse error in 'x0 +\nx0' at offset 4: unexpected end of line"),
        ("x0 +\r\n x0", "parse error in 'x0 +\r\n x0' at offset 4: unexpected end of line"),
        # a form feed ends no line for Python: the error on its second line
        # was placed at offset 9, '0)'
        ("(x0\x0c +\n x0) x0", "parse error in '(x0\x0c +\n x0) x0' at offset 12: bad token 'x0'"),
    ])
    def test_parse_error_is_placed_in_the_given_text(self, tmp_path, capsys, expr, message):
        data = lqr_problem()
        data["dynamics"] = {"expressions": [expr]}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, message", [
        # Python rejects the character; split() dropped it as white space and
        # named the next token, '+'
        ("x0\u2028 + (x1\n x0) x1", "at offset 2: invalid character U+2028"),
        ("x0\xa0+ x1", "at offset 2: invalid character U+00A0"),
        # a rejected character at the end was read as the end of the input
        ("x0 + x1\u3000", "at offset 7: invalid character U+3000"),
        # the offset is in the given text, with ^ written as **
        ("x0 ^ 2 + \u20ac", "at offset 9: invalid character U+20AC"),
        # a null byte was read as the end of the input
        ("x0 + \x00x1", "at offset 5: invalid character U+0000"),
    ])
    def test_rejected_character_is_named_at_its_offset(self, tmp_path, capsys, expr, message):
        data = lqr_problem()
        data["dynamics"] = {"expressions": [expr]}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: parse error in '{expr}' {message}\n" in capsys.readouterr().err

    def test_unknown_identifier_named(self, tmp_path, capsys):
        data = lqr_problem()
        data["cost"] = {"expression": "q0 + 1"}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["check", "--problem", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "q0" in capsys.readouterr().err

    @pytest.mark.parametrize("place", ["dynamics", "cost"])
    def test_too_large_literal_named(self, tmp_path, capsys, place):
        # an integer literal beyond the float range is bad input, not a crash
        literal = "1" + "0" * 400
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        if place == "dynamics":
            data["dynamics"] = {"expressions": [literal + " * u0"]}
        else:
            data["cost"] = {"expression": "x0^2 + " + literal}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'1000000000...' (401 digits)" in err and "too large" in err

    @pytest.mark.parametrize("place", ["dynamics", "cost"])
    def test_non_finite_literal_named(self, tmp_path, capsys, place):
        # 1e309 reads as inf; simulating with it was a numerical failure
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        if place == "dynamics":
            data["dynamics"] = {"expressions": ["1e309 * u0 + 1"]}
        else:
            data["cost"] = {"expression": "x0^2 + 1e309"}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "literal '1e309' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("place, expr", [
        ("dynamics", " + ".join(["x0"] * 1500)),    # deeper than the derivative recurses
        ("cost", " + ".join(["x0"] * 1500)),
        ("cost", "(" * 300 + "x0" + ")" * 300),     # more parentheses than Python parses
        ("dynamics", "-" * 3000 + "x0"),            # the parser runs out of recursion
        ("dynamics", "-" * 10000 + "x0"),           # the parser's own stack overflows
    ], ids=["sum", "cost-sum", "parentheses", "signs", "more-signs"])
    def test_too_deep_expression_named(self, tmp_path, capsys, place, expr):
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        if place == "dynamics":
            data["dynamics"] = {"expressions": [expr]}
            item = "dynamics.expressions[0]"
        else:
            data["cost"] = {"expression": expr}
            item = "cost.expression"
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{item} nests too deeply" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_long_sum_still_simulates(self, tmp_path):
        # a 900-term sum stays within the depth the grammar accepts
        data = lqr_problem()
        data["dynamics"] = {"expressions": [" + ".join(["0.001 * x0"] * 900)]}
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--problem", path, "--out", str(out)]) == 0
        last = (out / "trajectory.csv").read_text().strip().splitlines()[-1]
        x1 = float(last.split(",")[1])
        assert abs(x1 - math.exp(0.9)) < 1e-6

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.01, "fast"])
    def test_bad_integrator_step_named(self, tmp_path, capsys, step):
        # an infinite step used to run one RK4 step per segment and exit 0
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        data["integrator"] = {"step": step}
        path = write_problem(tmp_path / "p.json", data)
        with pytest.raises(cli.ProblemError, match=r"integrator\.step must be positive and finite"):
            cli.load_problem(path)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "integrator.step" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon, item", [
        # an infinite end used to raise OverflowError in the grid (exit 1)
        ({"a": 0.0, "b": float("inf")}, "horizon.b must be finite"),
        ({"a": float("-inf"), "b": 1.0}, "horizon.a must be finite"),
        (float("inf"), "horizon.b must be finite"),
        ({"a": 0.0, "b": float("nan")}, "horizon.b must be finite"),
        ({"a": "zero", "b": 1.0}, "horizon.a must be finite"),
        ({"a": 0.0}, "problem file needs 'horizon.b'"),
    ])
    def test_bad_horizon_named(self, tmp_path, capsys, horizon, item):
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        data["horizon"] = horizon
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert item in capsys.readouterr().err

    def test_nan_switch_time_named(self, tmp_path, capsys):
        # NaN fails every "<=" test, so simulate used to exit 0 holding
        # u = -1 on the whole horizon, while value_at(0.25) read +1
        data = bang_problem()
        data["control"] = {"switch_times": [float("nan")], "values": [[1.0], [-1.0]]}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--problem", path, "--out", str(out)])
        assert rc == 2
        assert "bad control signal: switch times must lie strictly inside (a, b)" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reach, item", [
        # unknown keys, the README's old step/near/spread among them, used
        # to be ignored silently
        ({"n_controls": 3, "bogus_key": 1},
         "reach must be an object with keys from ['T', 'max_switches', 'n_controls', "
         "'seed'], got unknown ['bogus_key']"),
        ({"n_controls": 3, "step": 0.5, "near": [[0.0]], "spread": 9.0},
         "reach must be an object with keys from ['T', 'max_switches', 'n_controls', "
         "'seed'], got unknown ['near', 'spread', 'step']"),
        ([3], "reach must be an object"),
        ({"n_controls": 3, "T": float("inf")}, "reach.T must be positive and finite"),
        # -3 used to write a cloud.csv with only its header; the others
        # exited 2 with messages from int() or numpy that named no item
        ({"n_controls": -3}, "reach.n_controls must be an integer >= 1, got -3"),
        ({"n_controls": 0}, "reach.n_controls must be an integer >= 1, got 0"),
        ({"n_controls": "many"}, "reach.n_controls must be an integer >= 1, got 'many'"),
        ({"n_controls": 2.5}, "reach.n_controls must be an integer >= 1, got 2.5"),
        ({"n_controls": 3, "max_switches": -1},
         "reach.max_switches must be an integer >= 0, got -1"),
        ({"n_controls": 3, "seed": -5}, "reach.seed must be an integer >= 0, got -5"),
    ])
    def test_bad_reach_block_named(self, tmp_path, capsys, reach, item):
        data = lqr_problem()
        data["reach"] = reach
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "o"
        rc = cli.main(["reach", "--problem", path, "--out", str(out)])
        assert rc == 2
        assert item in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_named(self, tmp_path, capsys):
        data = lqr_problem()
        data["reach"] = {"n_controls": 3}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["reach", "--problem", path, "--out", str(tmp_path / "o"),
                       "--seed", "-5"])
        assert rc == 2
        assert "--seed must be an integer >= 0, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("cones, item", [
        # Infinity used to print an OverflowError traceback (exit 1)
        ({"time": float("inf")}, "cones.time must be finite, got inf"),
        ({"time": float("nan")}, "cones.time must be finite, got nan"),
        # past the horizon the cone used to be extrapolated, exit 0
        ({"time": 5.0}, "cones.time must be in (a, b] = (0.0, 2.0], got 5.0"),
        ({"time": 0.0}, "cones.time must be in (a, b] = (0.0, 2.0], got 0.0"),
        ({"times": [0.3, float("nan")]}, "cones.times[1] must be finite, got nan"),
        ({"times": [float("inf")]}, "cones.times[0] must be finite, got inf"),
        ({"times": 0.3}, "cones.times must be a list, got 0.3"),
        # controls outside the set or of the wrong dimension used to exit 0
        ({"controls": [[0.0], [7.0]]},
         "cones.controls[1] must be in the control set, got [7.0]"),
        ({"controls": [[1.0, 2.0]]},
         "cones.controls[0] must be a numeric vector of length 1, got [1.0, 2.0]"),
        ({"controls": [["up"]]}, "cones.controls[0] must be a numeric vector"),
        # a NaN query used to fail in argmin after cone.csv was written
        ({"queries": [[1.0, 0.0], [float("nan"), 1.0]]}, "cones.queries[1] must be finite"),
        ({"queries": [[1.0]]}, "cones.queries[0] must be a numeric vector of length 2, got [1.0]"),
        ({"bogus": 1}, "cones must be an object with keys from ['controls', 'queries', "
         "'time', 'times'], got unknown ['bogus']"),
    ])
    def test_bad_cones_block_named(self, tmp_path, capsys, cones, item):
        with open(os.path.join(os.path.dirname(__file__), "golden",
                               "pendulum_flow_sample", "problem.json")) as fh:
            data = json.load(fh)
        data["cones"].update(cones)
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "o"
        rc = cli.main(["cones", "--problem", path, "--out", str(out)])
        assert rc == 2
        assert item in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("control_set, item", [
        # NaN fails no "lo > hi" or "radius < 0" test, so shoot used to run
        # its whole multistart on such a set and then exit 2 with "control
        # signal value outside the control set"
        ({"kind": "box", "lo": [float("nan")], "hi": [1.0]},
         "control_set.lo must be free of NaN, got [nan]"),
        ({"kind": "box", "lo": [-1.0], "hi": [float("nan")]},
         "control_set.hi must be free of NaN, got [nan]"),
        ({"kind": "box", "lo": ["low"], "hi": [1.0]}, "control_set.lo must be a numeric vector"),
        ({"kind": "ball", "center": [0.0], "radius": float("nan")},
         "control_set.radius must be a nonnegative number, got nan"),
        ({"kind": "ball", "center": [0.0], "radius": -1.0},
         "control_set.radius must be a nonnegative number, got -1.0"),
        # a missing key used to be reported as a missing control_set
        ({"kind": "box", "lo": [-1.0]}, "problem file needs 'control_set.hi'"),
        ({"kind": "ball", "center": [0.0]}, "problem file needs 'control_set.radius'"),
        ({"kind": "ball", "radius": 1.0}, "problem file needs 'control_set.center'"),
        ({"kind": "finite"}, "problem file needs 'control_set.points'"),
        # a non-finite centre used to be accepted
        ({"kind": "ball", "center": [float("nan")], "radius": 1.0},
         "control_set.center must be finite, got [nan]"),
        ({"kind": "ball", "center": [float("inf")], "radius": 1.0},
         "control_set.center must be finite"),
    ])
    def test_bad_control_set_named_before_integration(self, tmp_path, capsys, monkeypatch,
                                                      control_set, item):
        data = bang_problem()
        data["control_set"] = control_set
        path = write_problem(tmp_path / "p.json", data)
        with pytest.raises(cli.ProblemError) as info:
            cli.load_problem(path)
        assert item in str(info.value)

        def no_integration(*args):
            raise AssertionError("integrated before the problem was checked")

        monkeypatch.setattr(shooting, "rk4_step", no_integration)
        rc = cli.main(["shoot", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert item in capsys.readouterr().err

    @pytest.mark.parametrize("end, spec, item", [
        # a zero normal used to turn the manifold end into a free end
        ("final", {"anchor": [0.0, 0.0], "normals": [[0.0, 0.0]]},
         "boundary.final.normals[0] must be nonzero"),
        ("final", {"anchor": [0.0, 0.0], "normals": [[1.0, 0.0], [0.0, 1e-13]]},
         "boundary.final.normals[1] must be nonzero"),
        # a NaN normal used to fail the SVD with exit 3
        ("final", {"anchor": [0.0, 0.0], "normals": [[float("nan"), 1.0]]},
         "boundary.final.normals[0] must be finite"),
        ("initial", {"anchor": [0.0, 0.0], "normals": [[1.0, float("-inf")]]},
         "boundary.initial.normals[0] must be finite"),
        # non-finite anchors and points used to be accepted
        ("initial", {"anchor": [0.0, float("inf")], "normals": [[1.0, 0.0]]},
         "boundary.initial.anchor must be finite"),
        ("initial", {"point": [float("nan"), 0.0]}, "boundary.initial.point must be finite"),
        ("final", {"point": [0.0, float("-inf")]}, "boundary.final.point must be finite"),
        ("final", {"anchor": [0.0, 0.0], "normals": [[1.0]]},
         "boundary.final.normals[0] must be a numeric vector of length 2, got [1.0]"),
    ])
    def test_bad_boundary_end_named(self, tmp_path, capsys, end, spec, item):
        data = bang_problem()
        data["boundary"][end] = spec
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        path = write_problem(tmp_path / "p.json", data)
        with pytest.raises(cli.ProblemError) as info:
            cli.load_problem(path)
        assert item in str(info.value)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert item in capsys.readouterr().err

    def test_small_nonzero_normal_kept(self):
        # only the norm is floored; the direction of a tiny normal still counts
        p = cli.Problem(
            {"dynamics": {"builtin": "double_integrator"},
             "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
             "boundary": {"mode": "fixed_time",
                          "initial": {"point": [0.0, 0.0]},
                          "final": {"anchor": [0.0, 0.0], "normals": [[1e-9, 0.0]]}}})
        (w,) = p.boundary.final
        assert abs(w[0]) < 1e-12 and abs(abs(w[1]) - 1.0) < 1e-12

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--problem", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check", "shoot", "cones", "reach"])
    def test_out_naming_a_file_is_named(self, tmp_path, capsys, command):
        # four commands raised FileExistsError out of main, and check
        # NotADirectoryError
        out = tmp_path / "taken"
        out.write_text("")
        problem = os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json")
        assert cli.main([command, "--problem", problem, "--out", str(out)]) == 2
        assert f"error: --out {str(out)!r} is not a directory\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check", "shoot", "cones", "reach"])
    def test_out_under_a_file_is_named(self, tmp_path, capsys, command):
        out = tmp_path / "taken" / "sub"
        out.parent.write_text("")
        problem = os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json")
        assert cli.main([command, "--problem", problem, "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "dynamics": }')
        rc = cli.main(["simulate", "--problem", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    # a scalar integrator problem and the files `check` reads, each
    # case changing one item: a None entry drops the item, and items None
    # makes the problem file hold a list
    SCALAR = {
        "dynamics": {"builtin": "scalar_integrator"},
        "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "horizon": {"a": 0.0, "b": 1.0},
        "boundary": {"mode": "fixed_time", "initial": {"point": [0.0]},
                     "final": {"point": [1.0]}},
        "control": {"switch_times": [], "values": [[1.0]]},
        "cones": {"time": 1.0, "times": [0.5], "controls": [[-1.0]]},
    }
    SCALAR_FILES = {
        "trajectory.csv": "t,x0\n0,0\n0.5,0.5\n1,1\n",
        "control.json": '{"switch_times": [], "values": [[1.0]]}',
        "adjoint.csv": "t,sigma0,sigma1\n0,-1,1\n0.5,-1,1\n1,-1,1\n",
    }

    @pytest.mark.parametrize("command, items, files, item", [
        ("simulate", None, {}, "problem file must be an object, got []"),
        ("simulate", {"control_set": [-1.0, 1.0]}, {},
         "control_set must be an object, got [-1.0, 1.0]"),
        ("simulate", {"control_set": None}, {}, "problem file needs 'control_set'"),
        ("simulate", {"control_set": {"kind": "cube"}}, {},
         "control_set.kind must be one of ['box', 'finite', 'ball'], got 'cube'"),
        ("simulate", {"dynamics": None}, {}, "problem file needs 'dynamics'"),
        ("simulate", {"dynamics": "scalar_integrator"}, {}, "dynamics must be an object"),
        ("simulate", {"dynamics": {"ode": ["u0"]}}, {},
         "dynamics must be an object with keys from ['A', 'B', 'builtin', 'expressions'], "
         "got unknown ['ode']"),
        ("simulate", {"dynamics": {"expressions": []}}, {},
         "dynamics.expressions must be a nonempty list"),
        ("simulate", {"dynamics": {"builtin": "linear_system", "A": [[0.0, 1.0]], "B": [[1.0]]}},
         {}, "dynamics.A must be a square matrix, got [[0.0, 1.0]]"),
        ("simulate", {"dynamics": {"builtin": "linear_system", "A": [[0.0]],
                                   "B": [[1.0], [1.0]]}},
         {}, "dynamics.B must be a 1-row numeric matrix, got [[1.0], [1.0]]"),
        ("simulate", {"dynamics": {"builtin": "linear_system", "A": [["a"]], "B": [[1.0]]}},
         {}, "A must be a numeric matrix"),
        ("simulate", {"dynamics": {"builtin": "linear_system", "A": [[0.0]], "B": [1.0]}},
         {}, "dynamics.B must be a 1-row numeric matrix, got [1.0]"),
        ("simulate", {"cost": "u0^2"}, {}, "cost must be an object, got 'u0^2'"),
        ("simulate", {"horizon": {"a": 1.0, "b": 1.0}}, {}, "horizon needs b > a"),
        ("simulate", {"horizon": {"a": 2.0, "b": 1.0}}, {}, "horizon needs b > a"),
        ("simulate", {"boundary": {"mode": "sometimes", "initial": {"point": [0.0]},
                                   "final": {"point": [1.0]}}},
         {}, "boundary.mode must be one of ['fixed_time', 'free_time'], got 'sometimes'"),
        ("simulate", {"boundary": {"initial": [0.0], "final": {"point": [1.0]}}},
         {}, "boundary.initial must be an object"),
        ("simulate", {"boundary": {"initial": {"point": [0.0]}, "final": {"at": [1.0]}}},
         {}, "boundary.final must be an object with keys from ['anchor', 'normals', 'point'], "
         "got unknown ['at']"),
        ("simulate", {"control": [[1.0]]}, {}, "control must be an object, got [[1.0]]"),
        ("simulate", {"control": {"values": [[1.0, 0.0]]}}, {},
         "control.values[0] must be a numeric vector of length 1, got [1.0, 0.0]"),
        ("check", {}, {"trajectory.csv": "time,x0\n0,0\n1,1\n"},
         "trajectory.csv: expected header starting with 't,'"),
        ("check", {}, {"trajectory.csv": "t,x0\n0,0\n1,one\n"},
         "trajectory.csv: non-numeric row"),
        ("check", {}, {"trajectory.csv": "t,x0\n0,0\n"},
         "trajectory.csv: need at least two data rows"),
        ("check", {}, {"adjoint.csv": "t,sigma\n0,-1\n1,-1\n"},
         "adjoint.csv: expected header starting with 't,sigma0'"),
        ("check", {}, {"trajectory.csv": "t,x0,x1,x2\n0,0,0,0\n1,1,1,1\n"},
         "trajectory.csv column count does not match the problem"),
        ("check", {}, {"adjoint.csv": "t,sigma0\n0,-1\n0.5,-1\n1,-1\n"},
         "adjoint.csv column count does not match the problem"),
        ("check", {}, {"adjoint.csv": "t,sigma0,sigma1\n0,-1,1\n1,-1,1\n"},
         "adjoint.csv grid does not match trajectory.csv"),
        ("check", {}, {"adjoint.csv": "t,sigma0,sigma1\n0,-1,1\n0.4,-1,1\n1,-1,1\n"},
         "adjoint.csv grid does not match trajectory.csv"),
        ("cones", {"control": None}, {}, "cones needs a 'control' entry in the problem file"),
        ("cones", {"cones": None}, {}, "cones needs a 'cones' object with 'time'"),
        ("cones", {"cones": {"times": [0.5]}}, {}, "problem file needs 'cones.time'"),
        # items that no check read: each exited 1 with a traceback, or
        # exited 2 with a message that named nothing, or was read as a
        # number though a JSON boolean is none
        ("simulate", {"integrator": 0.1}, {}, "integrator must be an object, got 0.1"),
        ("simulate", {"boundary": ["fixed_time"]}, {},
         "boundary must be an object, got ['fixed_time']"),
        ("simulate", {"boundary": {"final": {"point": [1.0]}}}, {},
         "problem file needs 'boundary.initial'"),
        ("simulate", {"boundary": {"initial": {"point": [0.0]}}}, {},
         "problem file needs 'boundary.final'"),
        ("simulate", {"boundary": {"initial": {"point": [0.0]},
                                   "final": {"anchor": [1.0], "normals": 3}}}, {},
         "boundary.final.normals must be a list, got 3"),
        ("simulate", {"control": {"values": 3}}, {}, "control.values must be a list, got 3"),
        ("simulate", {"control_set": {"kind": "finite", "points": 3}}, {},
         "control_set.points must be a nonempty list, got 3"),
        ("simulate", {"control": {"switch_times": ["half"], "values": [[1.0], [0.0]]}}, {},
         "control.switch_times[0] must be a number, got 'half'"),
        ("simulate", {"control": {"values": [["a"]]}}, {},
         "control.values[0] must be a numeric vector of length 1, got ['a']"),
        ("shoot", {"guess": "abc"}, {}, "guess must be a numeric vector, got 'abc'"),
        # check reads control.json as the problem file is read, by its path
        ("check", {}, {"control.json": '{"values": '}, "control.json: line 1"),
        ("check", {}, {"control.json": "[[1.0]]"}, "control.json must be an object, got [[1.0]]"),
        ("check", {}, {"control.json": '{"values": 3}'},
         "control.json.values must be a list, got 3"),
        # refused by the library, naming no item
        ("simulate", {"control_set": {"kind": "box", "lo": [-1.0], "hi": [-2.0]}}, {},
         "control_set.hi must be >= control_set.lo componentwise, got [-2.0]"),
        ("simulate", {"control_set": {"kind": "finite", "points": [[0.0], [1.0, 2.0]]}}, {},
         "control_set.points[1] must be a numeric vector of length 1, got [1.0, 2.0]"),
        ("simulate", {"control": {"switch_times": [0.5], "values": [[1.0], [7.0]]}}, {},
         "control.values[1] must be in the control set, got [7.0]"),
        # read as 1.0
        ("simulate", {"tol": True}, {}, "tol must be positive and finite, got True"),
        ("simulate", {"p0": True}, {}, "p0 must be finite, got True"),
        ("simulate", {"horizon": True}, {}, "horizon.b must be finite, got True"),
        ("simulate", {"integrator": {"step": True}}, {},
         "integrator.step must be positive and finite, got True"),
        ("simulate", {"control_set": {"kind": "ball", "center": [0.0], "radius": True}}, {},
         "control_set.radius must be a nonnegative number, got True"),
        ("simulate", {"cones": {"time": True}}, {}, "cones.time must be finite, got True"),
        ("simulate", {"cones": {"time": 1.0, "times": [True]}}, {},
         "cones.times[0] must be finite, got True"),
        ("simulate", {"reach": {"T": True}}, {}, "reach.T must be positive and finite, got True"),
        # the default T, b - a, overflows
        ("reach", {"horizon": {"a": -1e308, "b": 1e308}}, {},
         "reach.T must be positive and finite, got inf"),
        ("simulate", {"shooting": {"fd_h": True}}, {},
         "shooting.fd_h must be positive and finite, got True"),
        ("simulate", {"shooting": {"scales": [True]}}, {},
         "shooting.scales[0] must be positive and finite, got True"),
    ])
    def test_bad_item_exits_2_and_is_named(self, tmp_path, capsys, command, items, files, item):
        data = {key: value for key, value in {**self.SCALAR, **(items or {})}.items()
                if value is not None}
        path = write_problem(tmp_path / "p.json", [] if items is None else data)
        out = tmp_path / "o"
        out.mkdir()
        for name, text in {**self.SCALAR_FILES, **files}.items():
            (out / name).write_text(text)
        rc = cli.main([command, "--problem", path, "--out", str(out)])
        assert rc == 2
        assert item in capsys.readouterr().err

    def test_scalar_problem_and_files_are_good_input(self, tmp_path):
        # each bad-item case above fails on its one item alone
        path = write_problem(tmp_path / "p.json", self.SCALAR)
        out = tmp_path / "o"
        out.mkdir()
        for name, text in self.SCALAR_FILES.items():
            (out / name).write_text(text)
        for command in ("simulate", "cones"):
            assert cli.main([command, "--problem", path, "--out", str(tmp_path / command)]) == 0
        assert cli.main(["check", "--problem", path, "--out", str(out)]) in (0, 1)

    def test_control_set_dimension_mismatch(self, tmp_path, capsys):
        data = bang_problem()
        data["control_set"] = {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
        path = write_problem(tmp_path / "p.json", data)
        assert cli.main(["shoot", "--problem", path, "--out", str(tmp_path)]) == 2

    def test_unknown_builtin(self, tmp_path):
        data = bang_problem()
        data["dynamics"] = {"builtin": "pendulum"}
        path = write_problem(tmp_path / "p.json", data)
        assert cli.main(["shoot", "--problem", path, "--out", str(tmp_path)]) == 2

    def test_bad_flag_value(self):
        assert cli.main(["check", "--problem", "x.json", "--mode", "banana"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "check", "shoot", "cones", "reach"])
    def test_each_command_takes_only_the_flags_it_reads(self, command):
        fn = ast.parse(inspect.getsource(getattr(cli, "cmd_" + command)))
        reads = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "args"}
        args = cli._build_parser().parse_args([command, "--problem", "p"])
        assert set(vars(args)) == reads | {"command", "func"}

    @pytest.mark.parametrize("argv", [["shoot", "--mode", "free"], ["simulate", "--tol", "1"]])
    def test_unread_flag_is_refused(self, argv, capsys):
        assert cli.main([*argv, "--problem", "x.json"]) == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err

    def test_no_command(self):
        assert cli.main([]) == 2

    def test_one_parser_serves_a_run_of_commands(self, tmp_path, capsys):
        # the parser is built once per process; no call leaves a flag or a
        # command behind for the next
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        assert parser.parse_args(["reach", "--problem", "p", "--seed", "7"]).seed == 7
        assert parser.parse_args(["reach", "--problem", "p"]).seed is None
        data = {**lqr_problem(), "control": {"switch_times": [0.5], "values": [[1.0], [-1.0]]},
                "reach": {"n_controls": 3, "max_switches": 1}}
        path = write_problem(tmp_path / "p.json", data)
        out = str(tmp_path / "o")
        runs = [(["simulate", "--problem", path, "--out", out], 0),
                (["--help"], 0),
                (["reach", "--problem", path, "--out", out, "--seed", "3"], 0),
                (["check", "--problem", path, "--mode", "banana"], 2),
                (["reach", "--problem", path, "--out", out, "--tol", "1"], 2),
                (["reach", "--problem", path, "--out", out], 0),
                (["simulate", "--problem", path, "--out", out], 0)]
        trajectories = []
        for argv, rc in runs:
            assert cli.main(argv) == rc, argv
            if argv[0] == "simulate":
                trajectories.append((tmp_path / "o" / "trajectory.csv").read_bytes())
        assert trajectories[0] == trajectories[1]
        assert "usage: pmpkit" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["shoot", "check"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tol_flag_named(self, tmp_path, capsys, command, tol):
        # shoot --tol inf used to exit 0 with converged: true on the
        # unsolved start (residual 4.57)
        out = tmp_path / "o"
        rc = cli.main([command, "--problem", os.path.join(GOLDEN, "min_time_double_integrator",
                                                          "problem.json"),
                       "--out", str(out), "--tol", tol])
        assert rc == 2
        assert f"--tol must be positive and finite, got {float(tol)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["shoot", "check"])
    def test_negative_tol_in_file_named(self, tmp_path, capsys, command):
        # it used to make shoot exit 3 and check exit 1
        path = golden_variant(tmp_path, tol=-1)
        assert cli.main([command, "--problem", path, "--out", str(tmp_path / "o")]) == 2
        assert "tol must be positive and finite, got -1" in capsys.readouterr().err

    def test_non_numeric_tol_in_file_named(self, tmp_path, capsys):
        # it used to exit 2 with float()'s message, which names no item
        path = golden_variant(tmp_path, tol="abc")
        assert cli.main(["shoot", "--problem", path, "--out", str(tmp_path / "o")]) == 2
        assert "tol must be positive and finite, got 'abc'" in capsys.readouterr().err

    def test_non_numeric_p0_in_file_named(self, tmp_path, capsys):
        path = golden_variant(tmp_path, p0="abc")
        assert cli.main(["shoot", "--problem", path, "--out", str(tmp_path / "o")]) == 2
        assert "p0 must be finite, got 'abc'" in capsys.readouterr().err


class TestSimulate:
    def test_double_integrator_endpoint(self, tmp_path):
        data = {"dynamics": {"builtin": "double_integrator"},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [0.0, 0.0]},
                             "final": {"anchor": [0.0, 0.0], "normals": []}},
                "control": {"switch_times": [], "values": [[1.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--problem", path, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x0,x1"
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] - 0.5) < 1e-12 and abs(last[2] - 1.0) < 1e-12
        # numeric output round-trips through its 17-significant-digit form
        for tok in lines[-2].split(","):
            assert "%.17g" % float(tok) == tok

    def test_zero_linear_system_constant_rows(self, tmp_path):
        data = {"dynamics": {"builtin": "linear_system",
                             "A": [[0.0, 0.0], [0.0, 0.0]],
                             "B": [[0.0], [0.0]]},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": 1.0,
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [0.3, -0.4]},
                             "final": {"anchor": [0.0, 0.0], "normals": []}},
                "control": {"switch_times": [], "values": [[1.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--problem", path, "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in ln.split(",")] for ln in
                         (out / "trajectory.csv").read_text().strip().split("\n")[1:]])
        assert np.all(rows[:, 1] == 0.3) and np.all(rows[:, 2] == -0.4)

    def test_cost_accumulates(self, tmp_path):
        data = lqr_problem()
        data["control"] = {"switch_times": [], "values": [[0.0]]}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--problem", path, "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().split("\n")[0]
        assert header.endswith(",xcost")
        cost = json.loads((out / "cost.json").read_text())["cost"]
        assert abs(cost - 1.0) < 1e-9      # x stays at 1, F = x^2
    def test_simulate_needs_control(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", bang_problem())
        assert cli.main(["simulate", "--problem", path, "--out", str(tmp_path)]) == 2
        assert "control" in capsys.readouterr().err

    def test_blow_up_is_numerical_failure(self, tmp_path, capsys):
        data = {"dynamics": {"expressions": ["x0^2 * (1 + u0)"]},
                "control_set": {"kind": "box", "lo": [0.0], "hi": [3.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [1.0]},
                             "final": {"anchor": [0.0], "normals": []}},
                "control": {"switch_times": [], "values": [[1.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["(x0-2)^0.5", "sin((x0-2)^0.5) + u0",
                                      "sin(1e308 * 10 + x0)"])
    def test_non_real_value_is_numerical_failure(self, tmp_path, capsys, expr):
        # a negative base with a fractional exponent, or sin of inf, has no
        # real value
        data = {"dynamics": {"expressions": [expr]},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "control": {"switch_times": [], "values": [[0.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestShootAndCheck:
    def test_bang_result_files(self, bang_dir):
        res = json.loads((bang_dir / "out" / "result.json").read_text())
        assert res["converged"] is True
        assert abs(res["final_time"] - 2.0) < 1e-3
        assert len(res["switch_times"]) == 1
        assert abs(res["switch_times"][0] - 1.0) < 1e-3
        assert res["arc_labels"] == ["u=-1", "u=+1"]
        assert res["n_unknowns"] == 3 and res["jacobian_rank"] == 3
        assert abs(res["cost"] - res["final_time"]) < 1e-9

    def test_check_passes_on_shoot_output(self, bang_dir):
        prob = str(bang_dir / "problem.json")
        rc = cli.main(["check", "--problem", prob, "--out", str(bang_dir / "out")])
        assert rc == 0
        rep = json.loads((bang_dir / "out" / "report.json").read_text())
        assert rep["classification"] == "normal"
        assert rep["res_3a"] < 1e-5 and rep["res_3b"] < 1e-5
        assert rep["res_3c"] > 0.1

    def test_zeroed_adjoint_fails_check(self, bang_dir, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(bang_dir / "out", work)
        lines = (work / "adjoint.csv").read_text().strip().split("\n")
        fixed = [lines[0]]
        for ln in lines[1:]:
            t = ln.split(",")[0]
            fixed.append(",".join([t] + ["0"] * (len(ln.split(",")) - 1)))
        (work / "adjoint.csv").write_text("\n".join(fixed) + "\n")
        prob = str(bang_dir / "problem.json")
        rc = cli.main(["check", "--problem", prob, "--out", str(work)])
        assert rc == 1
        rep = json.loads((work / "report.json").read_text())
        assert rep["res_3c"] == 0.0
        assert rep["classification"] == "undetermined"

    @pytest.mark.parametrize("name", ["control.json", "adjoint.csv"])
    def test_check_names_a_missing_output_file(self, bang_dir, tmp_path, capsys, name):
        # a missing control.json raised FileNotFoundError out of main
        work = tmp_path / "copy"
        shutil.copytree(bang_dir / "out", work)
        (work / name).unlink()
        prob = str(bang_dir / "problem.json")
        assert cli.main(["check", "--problem", prob, "--out", str(work)]) == 2
        assert f"error: missing file: {work / name}\n" in capsys.readouterr().err

    def test_lqr_passes_fixed_fails_free(self, lqr_dir):
        prob = str(lqr_dir / "problem.json")
        out = str(lqr_dir / "out")
        assert cli.main(["check", "--problem", prob, "--out", out]) == 0
        # a fixed-time extremal is not a free-time one: sup H is far from 0
        assert cli.main(["check", "--problem", prob, "--out", out,
                         "--mode", "free"]) == 1
        rep = json.loads((lqr_dir / "out" / "report.json").read_text())
        assert rep["res_3b"] > 0.1

    def test_lqr_transversality(self, lqr_dir):
        adj = np.array([[float(v) for v in ln.split(",")] for ln in
                        (lqr_dir / "out" / "adjoint.csv").read_text().strip().split("\n")[1:]])
        assert abs(adj[-1, 2]) < 1e-6     # free endpoint: p(1) = 0

    def test_unconverged_shoot_is_numerical_failure(self, tmp_path):
        data = {"dynamics": {"builtin": "scalar_integrator"},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "cost": {"expression": "1"},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [0.0]},
                             "final": {"point": [5.0]}},
                "integrator": {"step": 0.05},
                "shooting": {"max_iter": 6, "n_starts": 2, "scales": [1.0]}}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        rc = cli.main(["shoot", "--problem", path, "--out", str(out)])
        assert rc == 3
        res = json.loads((out / "result.json").read_text())
        assert res["converged"] is False
        assert res["residual_norm"] > 1.0


class TestConesAndReach:
    def test_cones_outputs(self, tmp_path):
        data = {"dynamics": {"builtin": "scalar_integrator"},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [0.0]},
                             "final": {"anchor": [0.0], "normals": []}},
                "control": {"switch_times": [], "values": [[0.0]]},
                "integrator": {"step": 0.01},
                "cones": {"time": 1.0,
                          "times": [0.25, 0.5, 0.75],
                          "controls": [[-1.0], [1.0]],
                          "queries": [[0.5], [-0.5]]}}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert cli.main(["cones", "--problem", path, "--out", str(out)]) == 0
        # transported +-1 needles coincide across times; two survive dedup
        cone_rows = (out / "cone.csv").read_text().strip().split("\n")
        assert cone_rows[0] == "tau,l,u0,kind"
        assert len(cone_rows) == 3
        gens = (out / "generators.csv").read_text().strip().split("\n")
        assert len(gens) == 3
        mem = json.loads((out / "membership.json").read_text())
        assert [q["status"] for q in mem["queries"]] == ["interior", "interior"]

    def test_failed_cone_certificate_exits_3(self, tmp_path, capsys, monkeypatch):
        from pmpkit import cone_geometry

        solve, stack = cone_geometry.solve_standard, cone_geometry.solve_stack

        def damaged(res):
            if res.ok:
                res.x = res.x + 1e-3
            return res

        # the margin LPs come from solve_stack, one fan per query
        monkeypatch.setattr(cone_geometry, "solve_standard",
                            lambda *a, **k: damaged(solve(*a, **k)))
        monkeypatch.setattr(cone_geometry, "solve_stack",
                            lambda *a, **k: map(damaged, stack(*a, **k)))
        path = os.path.join(os.path.dirname(__file__), "golden", "pendulum_flow_sample",
                            "problem.json")
        assert cli.main(["cones", "--problem", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: margin certificate misses" in err

    def test_overflowing_needle_exits_3(self, tmp_path, capsys):
        # the needle to u = 1 overflows exp(800 u0): a numerical failure that
        # used to exit 2 as "cone sampling: non-finite perturbation vector"
        data = {"dynamics": {"expressions": ["x1", "exp(800*u0)"]},
                "control_set": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "control": {"switch_times": [], "values": [[0.0]]},
                "integrator": {"step": 0.01},
                "cones": {"time": 1.0, "times": [0.5], "controls": [[1.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        assert cli.main(["cones", "--problem", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite needle vector at t=0.5, u=[1.0]" in err
        # bad sampling input still exits 2
        data["cones"]["times"] = [1.5]
        path = write_problem(tmp_path / "p.json", data)
        assert cli.main(["cones", "--problem", path, "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_transported_needle_exits_3(self, tmp_path, capsys):
        # the class-I vector 6e307 is finite, but carried from 0.5 to 2 on
        # x' = x it grows by e^1.5 and overflows: a numerical failure that
        # used to warn and exit 2 as "cone sampling: non-finite generator"
        data = {"dynamics": {"expressions": ["6e307 * u0 + x0"]},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 2.0},
                "control": {"switch_times": [], "values": [[0.0]]},
                "integrator": {"step": 0.01},
                "cones": {"time": 2.0, "times": [0.5], "controls": [[1.0]],
                          "queries": [[1.0]]}}
        path = write_problem(tmp_path / "p.json", data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["cones", "--problem", path, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite transported needle vector at t=0.5, u=[1.0]" in err

    def test_reach_outputs_reproducible(self, tmp_path):
        data = {"dynamics": {"builtin": "double_integrator"},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [0.0, 0.0]},
                             "final": {"anchor": [0.0, 0.0], "normals": []}},
                "reach": {"n_controls": 15, "max_switches": 2}}
        path = write_problem(tmp_path / "p.json", data)
        out = tmp_path / "out"
        assert cli.main(["reach", "--problem", path, "--out", str(out),
                         "--seed", "7"]) == 0
        lines = (out / "cloud.csv").read_text().strip().split("\n")
        assert lines[0] == "x0,x1,provenance_id"
        assert len(lines) == 16
        side = json.loads((out / "cloud_provenance.json").read_text())
        assert len(side["controls"]) == 15
        # re-simulating the first record reproduces the stored point exactly
        from pmpkit.control_system import ControlSignal, simulate
        from pmpkit.flows import IntegratorConfig
        from pmpkit.cli import Problem
        sys_ = Problem(data).sys
        rec = side["controls"][0]
        sig = ControlSignal(0.0, side["horizon"], tuple(rec["switch_times"]),
                            tuple(tuple(v) for v in rec["values"]))
        y = simulate(sys_, sig, side["x0"], IntegratorConfig(step=side["step"])).endpoint
        stored = [float(v) for v in lines[1].split(",")[:2]]
        assert y[0] == stored[0] and y[1] == stored[1]


class TestEntryPoint:
    """The CLI is imported on demand, so `python -m pmpkit.cli` runs clean."""

    @staticmethod
    def run(*args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(pmpkit.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_package_import_leaves_cli_out(self):
        out = self.run("-c", "import sys, pmpkit; print('pmpkit.cli' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_cli_imports_only_stdlib_and_numpy(self):
        # modules the interpreter's start-up loaded (site hooks) do not count
        code = ("import sys; before = set(sys.modules); import pmpkit.cli; "
                "print(sorted({n.split('.')[0] for n in set(sys.modules) - before}"
                " - set(sys.stdlib_module_names) - {'numpy', 'pmpkit'}))")
        out = self.run("-c", code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_module_run_has_no_runpy_warning(self):
        out = self.run("-W", "error::RuntimeWarning", "-m", "pmpkit.cli", "--help")
        assert out.returncode == 0, out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert "usage: pmpkit" in out.stdout


def item_paths(value, path=()):
    """The path of every item of a JSON value, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from item_paths(item, path + (key,))


def golden_problem(case):
    with open(os.path.join(GOLDEN, case, "problem.json")) as fh:
        return json.load(fh)


GOLDEN_PROBLEMS = {case: golden_problem(case) for case in (
    "linear_system_simulate", "lqr_expression_shoot", "min_time_double_integrator",
    "pendulum_flow_sample")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(case, path) for case, data in GOLDEN_PROBLEMS.items()
                        for path in item_paths(data)]),
       st.sampled_from([None, True, 7, "x", [], {}]))
def test_any_one_bad_item_is_bad_input(tmp_path_factory, item, value):
    # the problem is read, or refused as bad input: no TypeError, KeyError
    # or AttributeError from an item that no check read
    case, path = item
    data = copy.deepcopy(GOLDEN_PROBLEMS[case])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    problem = write_problem(tmp_path_factory.getbasetemp() / "one_bad_item.json", data)
    try:
        assert isinstance(cli.load_problem(problem), cli.Problem)
    except cli.ProblemError:
        pass


@pytest.mark.parametrize("key, value", [
    ("max_iter", "many"), ("max_iter", -1), ("max_iter", 2.5), ("n_starts", 0),
    ("n_starts", True), ("max_switches", -1), ("max_switches", "3"), ("fd_h", 0.0),
    ("fd_h", -1e-6), ("fd_h", math.inf), ("fd_h", "tiny"), ("scales", 1.0),
    ("scales", [1.0, -1.0]), ("scales", [0.0]), ("scales", ["x"]), ("scales", [math.inf]),
], ids=repr)
def test_bad_shooting_option_exits_2_and_names_it(tmp_path, capsys, key, value):
    # the block's other options keep a run short where a bad value gets
    # through: a step of 0 or below makes finite-difference columns of
    # NaN, or Newton trials with final times in the millions
    block = {"max_iter": 0, "n_starts": 1, "scales": [1.0], key: value}
    path = golden_variant(tmp_path, shooting=block)
    assert cli.main(["shoot", "--problem", path, "--out", str(tmp_path / "out")]) == 2
    assert f"shooting.{key}" in capsys.readouterr().err


def test_shooting_options_at_their_defaults_give_the_golden_result(tmp_path):
    # integral floats count as integers, and integers as scales
    block = {"max_iter": 40.0, "n_starts": 8, "max_switches": 200.0, "fd_h": 1e-6,
             "scales": [0.1, 1, 10.0]}
    path = golden_variant(tmp_path, shooting=block)
    out = tmp_path / "out"
    assert cli.main(["shoot", "--problem", path, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "min_time_double_integrator", "result.json")) as fh:
        assert (out / "result.json").read_text() == fh.read()
