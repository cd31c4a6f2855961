"""Byte-for-byte golden outputs of the CLI on builtin and expression problems.

Each case directory under `golden/` holds `problem.json` and the files the
listed commands write into `--out`.  The test reruns the commands and
compares every output file byte for byte.

`golden/classify/` holds, per shooting case, what `classify_extremal` finds
for the extremal the case's `shoot` wrote: the classification, both
candidate covectors and each stage's verdict and reason, and the
certificate text, numbers to 17 digits.  The classifier reaches the
maximizer through `check_pmp`, which no CLI command runs on its lifts.  It
holds the same for the problems of `test_pmp.TestClassify`, among them the
double integrator's abnormal lifts at a switch at 0.7 and at 0.37.

To regenerate after an intended output change, run this file as a script:
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

from pmpkit import cli, perturbations
from pmpkit.control_system import ControlSignal, ControlSystem, box, constant_signal, simulate
from pmpkit.flows import IntegratorConfig
from pmpkit.pmp import BoundarySpec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# case directory -> (command, expected exit code) in run order
CASES = {
    "min_time_double_integrator": (("shoot", 0), ("check", 0)),
    "linear_system_simulate": (("simulate", 0),),
    "lqr_expression_shoot": (("shoot", 0), ("check", 0)),
    "pendulum_flow_sample": (("simulate", 0), ("cones", 0), ("reach", 0)),
}


def _run(case, out):
    problem = os.path.join(GOLDEN, case, "problem.json")
    for command, expected in CASES[case]:
        rc = cli.main([command, "--problem", problem, "--out", out])
        assert rc == expected, f"{case}: {command} exited {rc}"


def _expected_files(case):
    return sorted(f for f in os.listdir(os.path.join(GOLDEN, case))
                  if f != "problem.json")


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path):
    out = str(tmp_path / "out")
    _run(case, out)
    assert sorted(os.listdir(out)) == _expected_files(case)
    for name in _expected_files(case):
        with open(os.path.join(GOLDEN, case, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(out, name), "rb") as fh:
            got = fh.read()
        assert got == want, f"{case}/{name} differs from the golden output"


CLASSIFY = os.path.join(GOLDEN, "classify")
SHOT_CASES = ("lqr_expression_shoot", "min_time_double_integrator")


def _double_integrator():
    return ControlSystem(m=2, k=1, f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]), F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2))


def _scalar_energy():
    # x' = u with running cost u^2 on an unbounded control axis
    return ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                         control_set=box([-np.inf], [np.inf]), F=lambda x, u: float(u[0] ** 2),
                         df_dx=lambda x, u: np.zeros((1, 1)), dF_dx=lambda x, u: np.zeros(1))


def _frozen():
    return ControlSystem(m=1, k=1, f=lambda x, u: np.zeros(1), control_set=box([-1.0], [1.0]),
                         F=lambda x, u: 1.0, df_dx=lambda x, u: np.zeros((1, 1)),
                         dF_dx=lambda x, u: np.zeros(1))


def _bang(switch, b=2.0):
    return ControlSignal(0.0, b, (switch,), ((1.0,), (-1.0,)))


# problem -> (system, control, initial state, step, boundary mode)
PROBLEMS = {
    "energy_strictly_normal": (_scalar_energy, constant_signal(0.0, 1.0, (0.0,)), 1, 0.01,
                               "fixed_time"),
    "energy_coarse_grid": (_scalar_energy, constant_signal(0.0, 1.0, (0.0,)), 1, 0.02,
                           "fixed_time"),
    "frozen_dynamics": (_frozen, constant_signal(0.0, 1.0, (0.0,)), 1, 0.01, "free_time"),
    "time_optimal_bang": (_double_integrator, _bang(1.0), 2, 0.005, "free_time"),
    "abnormal_switch_0.7": (_double_integrator, _bang(0.7), 2, 0.01, "fixed_time"),
    "abnormal_switch_0.37": (_double_integrator, _bang(0.37), 2, 0.01, "fixed_time"),
    "non_extremal": (_double_integrator, constant_signal(0.0, 2.0, (0.3,)), 2, 0.01,
                     "free_time"),
}
CLASSIFY_CASES = SHOT_CASES + tuple(sorted(PROBLEMS))


def _g17(v):
    return None if v is None else [float("%.17g" % x) for x in v]


def _classify_args(case):
    """(system, trajectory, boundary) of a classifier case."""
    if case in PROBLEMS:
        make, u, m, step, mode = PROBLEMS[case]
        sys = make()
        return sys, simulate(sys, u, np.zeros(m), IntegratorConfig(step=step)), BoundarySpec(mode)
    problem = cli.load_problem(os.path.join(GOLDEN, case, "problem.json"))
    extremal = cli._load_extremal(problem, os.path.join(GOLDEN, case))
    return problem.sys, extremal.ext_traj.project(problem.sys), problem.boundary


def _classification(case):
    """The JSON text of `classify_extremal` on the case's trajectory."""
    res = perturbations.classify_extremal(*_classify_args(case))
    return json.dumps({
        "classification": res.classification,
        "certificate": res.certificate,
        "normal_terminal": _g17(res.normal_terminal),
        "abnormal_terminal": _g17(res.abnormal_terminal),
        "attempts": [{"p0": a["p0"], "p_b": _g17(a["p_b"]), "feasible": bool(a["feasible"]),
                      "reason": a["reason"]} for a in res.attempts],
    }, indent=1) + "\n"


@pytest.mark.parametrize("case", CLASSIFY_CASES)
def test_classification_matches_golden_text(case):
    with open(os.path.join(CLASSIFY, case + ".json")) as fh:
        assert _classification(case) == fh.read()


if __name__ == "__main__":
    for case in CLASSIFY_CASES:
        with open(os.path.join(CLASSIFY, case + ".json"), "w") as fh:
            fh.write(_classification(case))
        print(f"regenerated classify/{case}", file=sys.stderr)
    for case in sorted(CASES):
        out = os.path.join(GOLDEN, case, "_out")
        _run(case, out)
        for name in os.listdir(out):
            shutil.move(os.path.join(out, name), os.path.join(GOLDEN, case, name))
        os.rmdir(out)
        print(f"regenerated {case}", file=sys.stderr)
