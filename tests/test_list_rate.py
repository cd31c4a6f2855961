"""The dynamics as a list of floats against the array path.

A generated dynamics function takes the state as a list of floats and
returns one, so `simulate` makes no array per RK4 stage.  The same function
wrapped as a plain callable that returns an ndarray goes the array path,
which hands it a float64 array and converts what it returns; both must give
the same bits (NaN compared as NaN, the sign of zero compared), also where
a guarded entry is NaN.  Shooting's coupled (x, p) step (the fallback of
`_coupled_field`), its propagation and the CLI's builtin dynamics run on
lists too, with the bits of the array forms kept in `oracles.py`.  User
callables still receive float64 arrays through every integrator,
shooting, `check_pmp` and the maximizer.
"""

import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import BUILTINS_ARRAYS, coupled_rhs_arrays, ordered_dot, propagate_arrays
from pmpkit import cli, grammar, pmp, shooting
from pmpkit.control_system import (ControlSignal, ControlSystem, box, extend, signal_field,
                                   simulate)
from pmpkit.flows import (FlowBlowUpError, IntegratorConfig, TimeVectorField, flow,
                          tangent_lift_flows)
from test_grammar_properties import K, M, _extend, render, trees

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
    f, df_dx, degree = grammar.compile_dynamics(tuple(srcs), M, K)
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
    return traj.grid.tobytes(), bits(traj.states)


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
    assert seen == {list: 4 * (len(traj.grid) - 1)}


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
    assert set(seen) == {"f", "F", "df_dx", "dF_dx"}

    # shooting's coupled step, check_pmp and the maximizer, each on its own;
    # the zero costate solves it: one propagation of the coupled step
    seen.clear()
    bounds = pmp.BoundarySpec(mode="fixed_time")
    prob = shooting.ShootingProblem(sys=sys, bounds=bounds, p0=-1.0, x_a=[0.0, 0.0],
                                    x_b=[0.0, 0.0], a=0.0, b=1.0)
    res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.05))
    assert res.converged and set(seen) == {"f", "F", "df_dx", "dF_dx"}
    seen.clear()
    pmp.check_pmp(sys, res.extremal, bounds)
    assert set(seen) == {"f", "F"}
    seen.clear()
    pmp.maximize_hamiltonian(sys, -1.0, [0.3, -0.2], [1.0, 0.0])
    assert set(seen) == {"f", "F"}

    X = TimeVectorField(2, checked("eval", lambda t, x: np.array([x[1], -np.sin(x[0])]), 1),
                        checked("jacobian", lambda t, x: np.array([[0.0, 1.0],
                                                                   [-np.cos(x[0]), 0.0]]), 1))
    flow(X, 1.0, 0.0, [0.3, 0.0], cfg)
    tangent_lift_flows(X, 1.0, 0.0, [0.3, 0.0], [[1.0, 0.0]], cfg)
    no_jacobian = TimeVectorField(2, X.eval)
    tangent_lift_flows(no_jacobian, 1.0, 0.0, [0.3, 0.0], [[1.0, 0.0]], cfg)
    assert {"eval", "jacobian"} <= set(seen)


def grammar_trees(m, k):
    """Expression trees over x0..x{m-1} and u0..u{k-1}."""
    names = [f"x{j}" for j in range(m)] + [f"u{j}" for j in range(k)]
    leaves = st.one_of(st.tuples(st.just("c"), st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))),
                       st.tuples(st.just("n"), st.sampled_from(names)))
    return st.recursive(leaves, _extend, max_leaves=6)


@st.composite
def coupled_cases(draw):
    """A generated system with m = 1..3 whose cost is absent, generated, a
    user callable or without dF_dx (central differences), its state
    Jacobian generated or by central differences; a stacked (x, p) with
    signed zeros, infinities, NaN and overflowing entries; p0 and u."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    f, df_dx, _ = grammar.compile_dynamics(tuple(render(draw(grammar_trees(m, k)))
                                                  for _ in range(m)), m, k)
    if draw(st.booleans()):
        df_dx = None
    cost = draw(st.sampled_from(("none", "generated", "user", "differences")))
    F = dF = None
    if cost != "none":
        src = render(draw(grammar_trees(m, k)))
        F = grammar.parse_expression(src, m, k)
        grad, _ = grammar.compile_gradient(src, m, k)
        dF = {"generated": grad, "user": lambda x, u: np.array(grad(x, u))}.get(cost)
    sys = ControlSystem(m=m, k=k, f=f, control_set=box([-2.0] * k, [2.0] * k),
                        F=F, df_dx=df_dx, dF_dx=dF)
    y = draw(st.lists(coordinates, min_size=2 * m, max_size=2 * m))
    u = np.array(draw(st.lists(coordinates, min_size=k, max_size=k)))
    return sys, draw(st.sampled_from((-1.0, 0.0))), u, y


def outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            got = fn(*args)
    except Exception as e:
        return type(e)
    assert type(got) is list and all(type(v) is float for v in got)
    return bits(got)


def plain(sys):
    """sys with f wrapped as a plain function, which carries none of the
    grammar's generated steps: shooting and `pmp.adjoint_flows` take their
    fallbacks on it."""
    f = sys.f

    def wrapped(x, u):
        return f(x, u)

    wrapped.on_lists = getattr(f, "on_lists", False)
    return dataclasses.replace(sys, f=wrapped)


def fallback_field(sys, p0):
    """Shooting's fallback coupled (stage, step) of sys: `_coupled_field`
    of `plain(sys)`."""
    return shooting._coupled_field(plain(sys), p0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(coupled_cases())
def test_coupled_rhs_on_lists_matches_array_form(case):
    # the fallback stage gets the maximizer's control as a list and hands
    # the callables the float64 array of it
    sys, p0, u, y = case
    want = outcome(coupled_rhs_arrays(sys, p0, u), 0.0, np.array(y))
    stage, _ = fallback_field(sys, p0)
    assert outcome(stage, y, u.tolist(), -p0) == want


ragged = st.integers(-2 ** 53, 2 ** 53).map(lambda n: n * 2.0 ** -51)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(ragged, min_size=m * m, max_size=m * m), st.lists(ragged, min_size=m, max_size=m),
    st.integers(1, 3).flatmap(lambda r: st.tuples(
        st.lists(ragged, min_size=r, max_size=r),
        st.lists(ragged, min_size=m * r, max_size=m * r))))))
def test_costate_rate_sums_each_column_in_order(case):
    # dense Jacobians with 53-bit mantissas, where the order of the sum
    # shows in its last bits: c_j g_i - (J^T p_j)_i with each (J^T p_j)_i
    # an ordered sum from 0.0, as the oracle folds it
    J, g, (c, p) = case
    m = len(g)
    JT = np.array(J).reshape(m, m).T
    want = [g[i] * c[j] - ordered_dot(JT[i], p[j * m:j * m + m])
            for j in range(len(c)) for i in range(m)]
    assert bits(pmp._costate_rate(J, g, c, p)) == bits(want)


def propagation_problems():
    """(problem, step, unknown vectors) for the minimum-time double
    integrator, the LQR golden, a ball and a finite control set; the
    free-time lists end with an invalid final time."""
    def load(data):
        problem = cli.Problem(data)
        return shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary,
                                        p0=problem.p0, x_a=problem.x_a, x_b=problem.x_b,
                                        a=problem.a, b=problem.b), problem.step

    def golden(name):
        with open(os.path.join(GOLDEN, name, "problem.json")) as fh:
            return json.load(fh)

    di = golden("min_time_double_integrator")
    finite_di = dict(di, control_set={"kind": "finite", "points": [[-1.0], [0.0], [1.0]]},
                     cost={"expression": "1 + x0^2"})
    rotating = {"dynamics": {"expressions": ["x1 + u0", "-x0 + u1"]},
                "control_set": {"kind": "ball", "center": [0.0, 0.5], "radius": 1.0},
                "horizon": {"a": 0.0, "b": 2.0}, "p0": 0.0,
                "boundary": {"mode": "fixed_time", "initial": {"point": [1.0, 0.0]},
                             "final": {"point": [0.0, 0.0]}},
                "integrator": {"step": 0.1}}
    return [
        pytest.param(*load(di), [[0.9, 1.0, 2.19], [-1.0, -0.5, 2.0], [0.0, 0.0, 1.5],
                                 [0.5, 0.5, -1.0]], id="double_integrator"),
        pytest.param(*load(golden("lqr_expression_shoot")), [[-2.0], [0.0], [1.5]], id="lqr"),
        pytest.param(*load(rotating), [[1.0, 0.5], [0.0, -1.0], [0.0, 0.0]], id="ball"),
        pytest.param(*load(finite_di), [[0.9, 1.0, 2.19], [-1.0, -0.5, 2.0], [0.3, 0.2, 0.0]],
                     id="finite"),
    ]


def propagation_bits(prop):
    if prop is None:
        return None
    steps, x_b, p_b, sup_h = prop
    return ([(t, np.array(u).tobytes()) for t, u in steps], bits(x_b), bits(p_b), bits(sup_h))


@pytest.mark.parametrize("problem,step,starts", propagation_problems())
def test_propagation_on_lists_matches_array_loop(problem, step, starts):
    opts = shooting.ShootingOptions(step=step)
    switched = False
    for z in starts:
        z = np.array(z)
        want = propagation_bits(propagate_arrays(problem, z, opts, step))
        prop = shooting._propagator(problem, opts)(z)
        got = propagation_bits(prop and (prop.steps, prop.x_b, prop.p_b, prop.sup_h))
        assert got == want, z
        switched |= prop is not None and len({u for _, u in got[0]}) > 1
        if prop is not None and problem.bounds.mode == "free_time":
            # a later final time resumed from this propagation
            zb = z.copy()
            zb[-1] += 0.3
            later = shooting._propagator(problem, opts)(zb, prop)
            assert propagation_bits((later.steps, later.x_b, later.p_b, later.sup_h)) == \
                propagation_bits(propagate_arrays(problem, zb, opts, step))
    assert switched


@pytest.mark.parametrize("name", sorted(BUILTINS_ARRAYS))
def test_builtins_on_lists_keep_the_array_bits(name):
    new = cli.Problem({"dynamics": {"builtin": name},
                       "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]}}).sys
    old = dataclasses.replace(new, f=BUILTINS_ARRAYS[name][0], df_dx=BUILTINS_ARRAYS[name][1])
    assert new.f.on_lists and new.df_dx.on_lists
    m = new.m
    for x in ([0.3, -0.0][:m], [math.inf, math.nan][:m], [-0.0, 1e308][:m]):
        for u in ([-0.0], [1.0], [math.nan], [-math.inf]):
            for xs in (x, np.array(x)):
                rate = new._rate(xs, np.array(u))
                assert type(rate) is list and all(type(v) is float for v in rate)
                assert bits(rate) == bits(old._rate(xs, np.array(u)))
                assert bits(new.dynamics(xs, np.array(u))) == bits(old.dynamics(xs, np.array(u)))
                assert bits(new.jac_x(xs, np.array(u))) == bits(old.jac_x(xs, np.array(u)))
