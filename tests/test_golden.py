"""Byte-for-byte golden outputs of the CLI on builtin and expression problems.

Each case directory under `golden/` holds `problem.json` and the files the
listed commands write into `--out`.  The test reruns the commands and
compares every output file byte for byte.  To regenerate after an intended
output change, run this file as a script: `PYTHONPATH=src python
tests/test_golden.py`.
"""

import os
import shutil
import sys

import pytest

from pmpkit import cli

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


if __name__ == "__main__":
    for case in sorted(CASES):
        out = os.path.join(GOLDEN, case, "_out")
        _run(case, out)
        for name in os.listdir(out):
            shutil.move(os.path.join(out, name), os.path.join(GOLDEN, case, name))
        os.rmdir(out)
        print(f"regenerated {case}", file=sys.stderr)
