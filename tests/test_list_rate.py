"""The dynamics as a list of floats against the array path.

A generated dynamics function takes the state as a list of floats and
returns one, so `simulate` makes no array per RK4 stage.  The same function
wrapped as a plain callable that returns an ndarray goes the array path,
which hands it a float64 array and converts what it returns; both must give
the same bits (NaN compared as NaN, the sign of zero compared), also where
a guarded entry is NaN.  User callables still receive float64 arrays
through every integrator.
"""

import collections
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmpkit import cli, grammar, pmp, shooting
from pmpkit.control_system import (ControlSignal, ControlSystem, box, extend, signal_field,
                                   simulate)
from pmpkit.flows import (FlowBlowUpError, IntegratorConfig, TimeVectorField, flow,
                          tangent_lift_flows)
from test_grammar_properties import K, M, render, trees

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SPECIAL = (0.0, -0.0, 800.0, -800.0, -2.0, math.inf, -math.inf, math.nan)
coordinates = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL))
dynamics = st.lists(trees(), min_size=M, max_size=M)


def bits(v):
    """The bytes of v as a float array with each NaN made the one NaN.

    The sign of a NaN made from two NaNs can differ between two runs of
    one function, so NaN signs are not compared."""
    a = np.array(v, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.shape, a.tobytes()


def as_array_callable(sys):
    """sys with f wrapped as a plain callable returning an ndarray."""
    f = sys.f
    return dataclasses.replace(sys, f=lambda x, u: np.array(f(x, u)))


def compiled(srcs):
    f, df_dx, degree = grammar.compile_dynamics(srcs, M, K)
    return ControlSystem(m=M, k=K, f=f, control_set=box([-2.0] * K, [2.0] * K),
                         df_dx=df_dx, u_degree=degree)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dynamics, st.lists(coordinates, min_size=M + K, max_size=M + K))
# a guarded division by zero gives NaN, a negated zero -0.0
@example([("/", ("n", "x0"), ("n", "x1")), ("neg", ("n", "x1"))], [1.0, 0.0, 0.5, -1.0])
@example([("neg", ("n", "x0")), ("*", ("n", "u0"), ("n", "x1"))], [0.0, -0.0, -1.0, 2.0])
def test_list_rate_matches_array_path(ts, pt):
    sys = compiled([render(t) for t in ts])
    x, u = pt[:M], np.array(pt[M:])
    want = bits(as_array_callable(sys).dynamics(np.array(x), u))
    rates = (sys._rate(x, u), sys._rate(np.array(x), u), as_array_callable(sys)._rate(x, u))
    for got in rates:
        assert type(got) is list and all(type(v) is float for v in got)
        assert bits(got) == want
    assert bits(sys._rate(x, u)) == bits(sys.dynamics(x, u).tolist()) == want


def trajectory_bits(sys, u, x0, cfg):
    try:
        traj = simulate(sys, u, x0, cfg)
    except FlowBlowUpError as e:
        return "blow-up", e.t
    return traj.grid.tobytes(), bits(traj.states), bits(traj.velocities)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dynamics, st.lists(st.floats(-2.0, 2.0), min_size=M + 2 * K, max_size=M + 2 * K))
def test_simulate_list_path_matches_array_path(ts, pt):
    sys = compiled([render(t) for t in ts])
    x0, v1, v2 = pt[:M], pt[M:M + K], pt[M + K:]
    u = ControlSignal(a=0.0, b=1.0, switch_times=(0.45,), values=(v1, v2))
    cfg = IntegratorConfig(step=0.05)
    assert trajectory_bits(sys, u, x0, cfg) == trajectory_bits(as_array_callable(sys), u, x0, cfg)


@pytest.mark.parametrize("extended", [False, True])
def test_simulate_of_problem_file_matches_array_path(extended):
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    systems = [problem.sys, as_array_callable(problem.sys)]
    x0 = problem.x_a
    if extended:
        systems, x0 = [extend(s) for s in systems], np.concatenate(([0.0], x0))
    cfg = IntegratorConfig(step=problem.step)
    got, want = (trajectory_bits(s, problem.control, x0, cfg) for s in systems)
    assert got[0] != "blow-up" and got == want


def test_generated_dynamics_get_each_stage_as_a_list():
    # no array is made for a stage on the way from the stepper to f
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    f, seen = problem.sys.f, collections.Counter()

    def recorded(x, u):
        seen[type(x)] += 1
        return f(x, u)

    recorded.on_lists = True
    sys = dataclasses.replace(problem.sys, f=recorded)
    traj = simulate(sys, problem.control, problem.x_a, IntegratorConfig(step=problem.step))
    assert seen == {list: 4 * (len(traj.grid) - 1) + 1}


def test_user_callables_receive_float64_arrays():
    seen = collections.Counter()

    def checked(name, fn, at):
        # at: the position of x among the arguments
        def wrapper(*args):
            x = args[at]
            assert type(x) is np.ndarray and x.dtype == np.float64, name
            seen[name] += 1
            return fn(*args)
        return wrapper

    sys = ControlSystem(
        m=2, k=1, control_set=box([-np.inf], [np.inf]),
        f=checked("f", lambda x, u: np.array([x[1], u[0]]), 0),
        F=checked("F", lambda x, u: float(x[0] ** 2 + u[0] ** 2), 0),
        df_dx=checked("df_dx", lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]), 0),
        dF_dx=checked("dF_dx", lambda x, u: np.array([2.0 * x[0], 0.0]), 0),
        u_degree=2)
    u = ControlSignal(a=0.0, b=1.0, switch_times=(0.5,), values=([0.5], [-0.5]))
    cfg = IntegratorConfig(step=0.05)
    traj = simulate(sys, u, [1.0, 0.0], cfg)
    simulate(extend(sys), u, [0.0, 1.0, 0.0], cfg)
    pmp.adjoint_flow(sys, traj, -1.0, [0.3, -0.2])
    tangent_lift_flows(signal_field(sys, u), 1.0, 0.0, [1.0, 0.0], [[1.0, 0.0]], cfg)
    # the zero costate solves it: one propagation of the coupled step
    prob = shooting.ShootingProblem(sys=sys, bounds=pmp.BoundarySpec(mode="fixed_time"),
                                    p0=-1.0, x_a=[0.0, 0.0], x_b=[0.0, 0.0], a=0.0, b=1.0)
    assert shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.05)).converged
    assert set(seen) == {"f", "F", "df_dx", "dF_dx"}

    X = TimeVectorField(2, checked("eval", lambda t, x: np.array([x[1], -np.sin(x[0])]), 1),
                        checked("jacobian", lambda t, x: np.array([[0.0, 1.0],
                                                                   [-np.cos(x[0]), 0.0]]), 1))
    flow(X, 1.0, 0.0, [0.3, 0.0], cfg)
    tangent_lift_flows(X, 1.0, 0.0, [0.3, 0.0], [[1.0, 0.0]], cfg)
    no_jacobian = TimeVectorField(2, X.eval)
    tangent_lift_flows(no_jacobian, 1.0, 0.0, [0.3, 0.0], [[1.0, 0.0]], cfg)
    assert {"eval", "jacobian"} <= set(seen)
