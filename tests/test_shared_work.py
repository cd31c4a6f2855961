"""Evaluations shared between integration stages return the same bits.

The projected extended trajectory, the resumed final-time column of the
shooting Jacobian and the vectors carried along one shared base path each
reuse values computed from identical inputs.  Each is compared bit for bit
with the plain computation, and the work of a fixed shooting solve, of a
tangent cone and of a classification is held to the call counts committed
below, as are the number of Hamiltonian evaluations of one maximization,
the generated RK4 steps of a path of expression dynamics, the pair
shooting steps each system by (`_coupled_field`: the generated coupled
step, or `rk4_step` on f and `pmp._costate`) and the compiles of one
problem's generated code.
The adjoint flow, which retraces the forward steps, is held to fourth-order
agreement with the backward scheme it replaced, and the one adjoint sweep
of a needle cone to rounding of the forward lift over the same steps.
"""

import ast
import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmpkit import cli, grammar, perturbations, pmp, shooting
from pmpkit.cone_geometry import GeneratedCone
from pmpkit.control_system import (ControlSignal, ControlSystem, ball, box, extend,
                                   lebesgue_times, signal_field, simulate)
from pmpkit.flows import IntegratorConfig, tangent_lift_flows
from pmpkit.perturbations import NeedleData, build_tangent_cone, multi_needle_vector
from pmpkit.reachable import SamplePolicy, sample_reachable

from oracles import (adjoint_flow_loop, needle_vector_on_grid, propagate_arrays,
                     tangent_lift_stacked)
from test_rk4_step import rk4_combinations

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# control values include both signed zeros and repeats, so that adjacent
# pieces carry equal values held in different arrays
_VALUES = (0.0, -0.0, 0.5, -0.3)


@st.composite
def smooth_systems(draw):
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1.0, 1.0, (m, m))
    B = rng.uniform(-1.0, 1.0, (m, k))
    C = rng.uniform(-0.5, 0.5, (m, m))
    Q = rng.uniform(0.0, 1.0, m)
    c = float(rng.uniform(-1.0, 1.0))

    def f(x, u):
        return A @ x + B @ u + (C @ np.sin(x)) * (1.0 + u[0] ** 2)

    def df(x, u):
        return A + C * np.cos(x)[None, :] * (1.0 + u[0] ** 2)

    # copysign tells -0.0 from 0.0: sharing a linearization between the two
    # would change the result
    def F(x, u):
        return float(Q @ x ** 2 + u @ u + c * np.copysign(1.0, u[0]) * np.cos(x[0]))

    def dF(x, u):
        g = 2.0 * Q * x
        g[0] -= c * np.copysign(1.0, u[0]) * np.sin(x[0])
        return g

    exact = draw(st.booleans())
    sys = ControlSystem(m=m, k=k, f=f, control_set=box([-1.0] * k, [1.0] * k),
                        F=F, df_dx=df if exact else None,
                        dF_dx=dF if exact else None)
    b = draw(st.floats(0.3, 2.0))
    n_sw = draw(st.integers(0, 5))
    times = sorted({round(draw(st.floats(0.05, 0.95)) * b, 6) for _ in range(n_sw)})
    values = [tuple(draw(st.sampled_from(_VALUES)) for _ in range(k))
              for _ in range(len(times) + 1)]
    sig = ControlSignal(0.0, b, tuple(times), tuple(values))
    x0 = rng.uniform(-1.0, 1.0, m)
    p_b = rng.uniform(-2.0, 2.0, m)
    step = draw(st.sampled_from((0.05, 0.1, 0.13)))
    return sys, sig, x0, p_b, step


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=smooth_systems(), p0=st.sampled_from((-1.0, 0.0)),
       source=st.sampled_from(("simulate", "project")))
def test_adjoint_flow_matches_stagewise_loop(case, p0, source):
    # the discrete adjoint and the backward RK4 over Hermite-interpolated
    # states it replaced differ by that scheme's O(h^4) error: the gap
    # shrinks at least 12x per halving of the step until both agree to
    # rounding.  Finite-difference Jacobians would set a noise floor near
    # 1e-10, and the grids are made exact halvings, switches on nodes
    sys, sig, x0, p_b, step = case
    assume(sys.df_dx is not None)
    n = math.ceil(sig.b / step)
    h = sig.b / n
    nodes = sorted({round(t / h) for t in sig.switch_times} - {0, n})
    sig = ControlSignal(0.0, sig.b, tuple(j * h for j in nodes), sig.values[:len(nodes) + 1])
    gaps = []
    for halvings in range(5):
        cfg = IntegratorConfig(step=h / 2 ** halvings)
        if source == "simulate":
            traj = simulate(sys, sig, x0, cfg)
        else:
            traj = simulate(extend(sys), sig, np.concatenate(([0.0], x0)), cfg).project(sys)
        assert len(traj.grid) == n * 2 ** halvings + 1
        want = adjoint_flow_loop(sys, traj, p0, p_b)
        got = pmp.adjoint_flow(sys, traj, p0, p_b).sigma
        gaps.append(float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want)))))
    assert all(gap <= max(coarse / 12.0, 1e-14) for coarse, gap in zip(gaps, gaps[1:])), gaps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=smooth_systems())
def test_projection_with_base_system_is_base_simulation(case):
    sys, sig, x0, _, step = case
    cfg = IntegratorConfig(step=step)
    plain = simulate(sys, sig, x0, cfg)
    proj = simulate(extend(sys), sig, np.concatenate(([0.0], x0)), cfg).project(sys)
    assert proj.system is sys
    for name in ("grid", "states"):
        assert same_bits(getattr(proj, name), getattr(plain, name)), name


def double_integrator():
    return ControlSystem(m=2, k=1,
                         f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]),
                         F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2))


def same_propagation(a, b):
    if a is None or b is None:
        return a is b
    return (same_bits(a.x_b, b.x_b) and same_bits(a.p_b, b.p_b)
            and same_bits(a.sup_h, b.sup_h) and len(a.steps) == len(b.steps)
            and all(ta == tb and same_bits(ua, ub)
                    for (ta, ua), (tb, ub) in zip(a.steps, b.steps)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.floats(-2.0, 2.0), p=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       step=st.sampled_from((0.1, 0.05)),
       where=st.sampled_from(("on_grid", "off_grid", "below_step")),
       k=st.integers(1, 40), frac=st.floats(0.01, 0.99),
       bump=st.one_of(st.just(None), st.floats(1e-9, 0.5)),
       fd_h=st.sampled_from((1e-6, -1e-6)))
def test_final_time_column_resumes_bit_for_bit(d, p, step, where, k, frac, bump, fd_h):
    if where == "on_grid":
        b = k * step
    elif where == "off_grid":
        b = (k + frac) * step
    else:
        b = frac * step
    prob = shooting.ShootingProblem(
        sys=double_integrator(), bounds=pmp.BoundarySpec(mode="free_time"),
        p0=-1.0, x_a=[d, 0.0], x_b=[0.0, 0.0], a=0.0, b=4.0)
    opts = shooting.ShootingOptions(step=step, fd_h=fd_h)
    z = np.array([p[0], p[1], b])
    base = shooting._propagate(prob, z, opts, step)
    assert base is not None

    # any later final time continues the base run
    zp = z.copy()
    zp[2] += 1e-6 * (1.0 + abs(b)) if bump is None else bump
    resumed = shooting._propagate(prob, zp, opts, step, base)
    assert same_propagation(resumed, shooting._propagate(prob, zp, opts, step))

    # the whole Jacobian equals forward differences of fresh residuals,
    # also when a negative fd_h moves the final time down
    R0 = shooting.boundary_residual(prob, z, opts)
    J = shooting._fd_jacobian(prob, z, R0, base, opts)
    want = np.zeros_like(J)
    for j in range(3):
        zj = z.copy()
        zj[j] += opts.fd_h * (1.0 + abs(z[j]))
        Rj = shooting.boundary_residual(prob, zj, opts)
        if Rj is not None:
            want[:, j] = (Rj - R0) / (opts.fd_h * (1.0 + abs(z[j])))
    assert same_bits(J, want)


# Calls made by one shoot of the golden minimum-time double integrator
# (d = 1.2, step 0.1); F counts the Hamiltonian evaluations of the
# maximizer.  Before propagations and stages were shared they were
# f 67830, df_dx 38484, F 29165, dF_dx 38484; before a propagation reused
# the maximizer at the state a bisection returns, f 41980, df_dx 18941,
# F 22997, dF_dx 18941; before H(u_star) was evaluated only where it is
# read (once per propagation), f 41677 and F 22757; before the adjoint
# retraced each forward step for its four stage linearizations (it had
# linearized at nodes and Hermite-interpolated midpoints), f 36165, df_dx
# 18878 and dF_dx 18878.
WORK_BASELINE = {"f": 36166, "df_dx": 18922, "F": 17245, "dF_dx": 18922}


def test_shoot_work_within_committed_counts():
    problem = cli.load_problem(os.path.join(GOLDEN, "min_time_double_integrator",
                                            "problem.json"))
    sys, calls = counted_system(problem.sys, WORK_BASELINE)
    sp = shooting.ShootingProblem(sys=sys, bounds=problem.boundary, p0=problem.p0,
                                  x_a=problem.x_a, x_b=problem.x_b,
                                  a=problem.a, b=problem.b)
    res = shooting.shoot(sp, opts=shooting.ShootingOptions(tol=problem.tol,
                                                           step=problem.step))
    assert res.converged
    over = {k: (calls[k], v) for k, v in WORK_BASELINE.items() if calls[k] > v}
    assert not over, f"calls above the committed counts (got, committed): {over}"


def test_propagation_maximizes_each_state_once(monkeypatch):
    # a bisection returns its state with the maximizer there, and the first
    # midpoint of a bisection over a whole step on the step's starting
    # control is the half-step state already maximized
    problem = cli.load_problem(os.path.join(GOLDEN, "min_time_double_integrator",
                                            "problem.json"))
    sp = shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                                  x_a=problem.x_a, x_b=problem.x_b,
                                  a=problem.a, b=problem.b)
    opts = shooting.ShootingOptions(tol=problem.tol, step=problem.step)
    bind, seen = pmp._maximizer, collections.Counter()

    def counted(sys, p0):
        # the maximizer is bound once per propagation; count what it maximizes
        seen["binds"] += 1
        maximize = bind(sys, p0)

        def wrapper(p, x):
            seen[np.array(x + p).tobytes()] += 1
            return maximize(p, x)

        return wrapper

    monkeypatch.setattr(shooting, "_maximizer", counted)
    switching = 0
    for z in ([0.9, 1.0, 2.19], [-1.0, -0.5, 2.0], [0.2, 0.3, 3.0], [1.0, 0.0, 1.5]):
        seen.clear()
        prop = shooting._propagate(sp, np.array(z), opts, problem.step)
        switching += len({u.tobytes() for _, u in prop.steps}) > 1
        assert seen.pop("binds") == 1
        assert len(seen) > 1 and max(seen.values()) == 1, z
    assert switching == 3


@pytest.mark.parametrize("kind", ("box", "ball", "box with cancelling rates"))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_declared_degree_maximization_evaluates_each_probe_once(monkeypatch, kind, k):
    # H(u0), H(u0 +- e_j delta_j) per axis, H(u0 + e_i delta_i + e_j delta_j)
    # per pair of axes (the single-axis values are reused) and H(u_star);
    # F and f are called once per H evaluation, and the fit runs once.
    # With cancelling rates p . f sums 2^30 + g u and -2^30, each sum
    # exact, and the fit of those values decides the vertex
    calls = collections.Counter()
    g = np.linspace(1.0, -2.0, k)

    def F(x, u):
        calls["F"] += 1
        return float(0.5 * np.sum(u))

    def f(x, u):
        calls["f"] += 1
        return np.array([2.0 ** 30 + g @ u, -2.0 ** 30] if m == 2 else [g @ u])

    fit, fits = pmp._fit_quadratic, []

    def counted_fit(*args):
        fits.append(args[0])
        return fit(*args)

    monkeypatch.setattr(pmp, "_fit_quadratic", counted_fit)
    m = 2 if kind == "box with cancelling rates" else 1
    U = ball([0.5] * k, 2.0) if kind == "ball" else box([-1.0] * k, [2.0] * k)
    sys = ControlSystem(m=m, k=k, f=f, control_set=U, F=F, u_degree=1)
    res = pmp.maximize_hamiltonian(sys, -1.0, [1.0] * m, [0.0] * m)
    assert U.contains(res.u_star)
    assert calls["F"] == calls["f"] == 2 + 2 * k + k * (k - 1) // 2
    assert len(fits) == 1
    if m == 2:
        # the exact sums: u_star is the vertex b = g - 1/2 picks
        assert np.array_equal(res.u_star, np.where(g - 0.5 > 0.0, 2.0, -1.0))


@st.composite
def needle_cases(draw):
    """A smooth system, its trajectory, a Lebesgue needle time on a grid
    node, off one or next to a switch, a cone time and a control list with
    repeats, signed zeros and, when drawn, the reference value u(tau)."""
    sys, sig, x0, _, step = draw(smooth_systems())
    cfg = IntegratorConfig(step=step)
    traj = simulate(sys, sig, x0, cfg)
    where = draw(st.sampled_from(("on_grid", "off_grid", "near_switch")))
    if where == "on_grid":
        tau = draw(st.sampled_from([float(t) for t in traj.grid[1:-1]]))
    elif where == "off_grid":
        i = draw(st.integers(0, len(traj.grid) - 2))
        lo, hi = float(traj.grid[i]), float(traj.grid[i + 1])
        tau = lo + draw(st.floats(0.1, 0.9)) * (hi - lo)
    else:
        switch = draw(st.sampled_from(sig.switch_times or (0.5 * sig.b,)))
        tau = switch + draw(st.sampled_from((-1e-3, -1e-7, 1e-9, 1e-6)))
    assume(lebesgue_times(sig, [tau]))
    t = {"end": sig.b, "at": tau,
         "inside": tau + draw(st.floats(0.2, 0.8)) * (sig.b - tau)}[
        draw(st.sampled_from(("end", "inside", "end", "inside", "at")))]
    controls = [np.array([draw(st.sampled_from(_VALUES + (1.0,))) for _ in range(sys.k)])
                for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        controls.insert(draw(st.integers(0, len(controls))), sig.value_at(tau).copy())
    return sys, traj, tau, t, controls, cfg


def same_or_zero(got, want):
    """Bit equality; a zero needle vector stays zero, whatever the sign of
    the zeros the stacked lift would give it."""
    if not np.any(want):
        return not np.any(got)
    return same_bits(got, want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=needle_cases())
def test_cone_needles_match_forward_lift_on_the_event_grid(case):
    # the adjoint sweep of the cone runs on the path with tau and t as grid
    # nodes; the forward lift over the same steps carries the same vectors
    # up to the order of its sums
    sys, traj, tau, t, controls, cfg = case
    path = simulate(sys, traj.control, traj.states[0], IntegratorConfig(cfg.step, (tau, t)))
    want = [needle_vector_on_grid(sys, path, tau, u, t) for u in controls]
    cone = build_tangent_cone(sys, traj, t, {"times": [tau], "controls": controls}, cfg)
    ref = GeneratedCone(want, n=sys.m)
    assert cone.cone.kept == ref.kept
    for g, w in zip(cone.cone.generators, ref.generators):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (g, w)
    assert [p.needle.u1.tobytes() for p in cone.provenance] == \
        [controls[i].tobytes() for i in ref.kept]
    # multi_needle_vector sums the same vectors, zeros and repeats included
    needles = [NeedleData(t1=tau, l1=1.0, u1=u) for u in controls]
    total = multi_needle_vector(sys, traj, needles, t, cfg).vector
    assert np.max(np.abs(total - sum(want))) <= 1e-14 * sum(np.max(np.abs(w)) for w in want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=smooth_systems(), n=st.integers(1, 4), zero=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_lift_of_many_vectors_matches_stacked_lift(case, n, zero, seed):
    sys, sig, x0, _, step = case
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(step=step)
    vs = [rng.uniform(-1.0, 1.0, sys.m) for _ in range(n)]
    if zero:
        vs.insert(int(rng.integers(0, n + 1)), np.zeros(sys.m))
    x_t, got = tangent_lift_flows(signal_field(sys, sig), sig.b, 0.0, x0, vs, cfg)
    for v, g in zip(vs, got):
        x_want, want = tangent_lift_stacked(sys, sig, sig.b, 0.0, x0, v, cfg)
        assert same_bits(x_t, x_want)
        assert same_or_zero(g, want)


def counted_system(sys, names):
    """sys with each named callable counting its calls, and the counter."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(x, u):
            calls[name] += 1
            return fn(x, u)
        return wrapper

    return dataclasses.replace(sys, **{name: counted(name, getattr(sys, name))
                                       for name in names}), calls


def test_tangent_cone_makes_one_adjoint_sweep():
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    sys, calls = counted_system(problem.sys, ("f", "df_dx"))
    cfg = IntegratorConfig(step=problem.step)
    traj = simulate(sys, problem.control, problem.x_a, cfg)
    t, times, controls = (problem.cones[key] for key in ("time", "times", "controls"))
    assert len(controls) == 3
    calls.clear()
    build_tangent_cone(sys, traj, t, {"times": times, "controls": controls}, cfg)
    # 0.7 is no node of the trajectory's grid, so the cone simulates once
    # with the sampled times as events and sweeps m covectors back from t
    events = IntegratorConfig(step=problem.step, event_times=tuple(times) + (t,))
    steps = len(simulate(problem.sys, problem.control, problem.x_a, events).grid) - 1
    # one Jacobian per RK4 stage of the sweep; carrying each sampled time
    # forward on a base path of its own took one per stage of every path,
    # 4 x 410 steps here
    assert calls["df_dx"] == 4 * steps
    # the simulation and the sweep's retrace of each step, then f(x_tau,
    # u(tau)) and one velocity per control at each sampled time
    assert calls["f"] == 4 * steps + 4 * steps + len(times) * (1 + len(controls))


def test_classification_makes_one_adjoint_sweep():
    # the adjoint is linear in (p0, p_b): the needle cone and both
    # candidates, one per separation, come from the m + 1 columns of one
    # sweep, along the trajectory on its own grid (step 0.005), so a grid
    # of the classifier's own choosing would show in the counts
    sys, calls = counted_system(double_integrator(), ("df_dx", "dF_dx"))
    u = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (-1.0,)))
    traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.005))
    res = perturbations.classify_extremal(sys, traj, pmp.BoundarySpec(mode="fixed_time"))
    assert res.classification == "normal" and len(res.attempts) == 2
    steps = len(traj.grid) - 1
    assert calls == {"df_dx": 4 * steps, "dF_dx": 4 * steps}


@pytest.mark.parametrize("extended", [False, True])
def test_simulate_makes_four_dynamics_calls_per_step(extended):
    # one per RK4 stage: moving the state between lists and arrays must not
    # evaluate any right-hand side twice
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    calls = collections.Counter()
    f = problem.sys.f

    def counted(x, u):
        calls["f"] += 1
        return f(x, u)

    sys = dataclasses.replace(problem.sys, f=counted)
    x0 = problem.x_a
    if extended:
        sys, x0 = extend(sys), np.concatenate(([0.0], x0))
    traj = simulate(sys, problem.control, x0, IntegratorConfig(step=problem.step))
    assert len(traj.grid) > 100
    assert calls["f"] == 4 * (len(traj.grid) - 1)


def test_paths_of_expression_dynamics_make_one_runner_call_per_control_piece():
    # the grammar's dynamics carries its generated runner, so simulate and
    # reach call it once for each piece of the control, which steps the
    # piece's whole run of grid steps, and the dynamics themselves not at all
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    f, run, calls, runs = problem.sys.f, problem.sys.f.runner(), collections.Counter(), []

    def counted_f(x, u):
        calls["dynamics"] += 1
        return f(x, u)

    def counted_run(y, u, ts, i0, i1, xs):
        runs.append(i1 - i0)
        return run(y, u, ts, i0, i1, xs)

    counted_f.on_lists = True
    counted_f.runner = lambda: counted_run
    sys = dataclasses.replace(problem.sys, f=counted_f)
    cfg = IntegratorConfig(step=problem.step)
    traj = simulate(sys, problem.control, problem.x_a, cfg)
    assert len(problem.control.values) == 2
    assert not calls and len(runs) == 2 and sum(runs) == len(traj.grid) - 1
    assert same_bits(traj.states, simulate(problem.sys, problem.control, problem.x_a, cfg).states)
    runs.clear()
    spec = problem.reach
    policy = SamplePolicy(n_controls=spec["n_controls"], max_switches=spec["max_switches"],
                          seed=spec["seed"], step=problem.step)
    cloud = sample_reachable(sys, problem.x_a, problem.b - problem.a, policy)
    assert len(cloud.controls) == spec["n_controls"]
    signals = [cloud.signal(i) for i in range(len(cloud.controls))]
    grids = [simulate(problem.sys, sig, problem.x_a, cfg).grid for sig in signals]
    assert not calls and len(runs) == sum(len(sig.values) for sig in signals)
    assert sum(runs) == sum(len(grid) - 1 for grid in grids)


def counted_costate(monkeypatch):
    """A counter of the `pmp._costate` that shooting's fallback coupled
    field binds from now on, once per propagation."""
    calls, build = collections.Counter(), shooting._costate

    def counted(*args):
        calls["_costate"] += 1
        return build(*args)

    monkeypatch.setattr(shooting, "_costate", counted)
    return calls


def shooting_problem(problem):
    return shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                                    x_a=problem.x_a, x_b=problem.x_b, a=problem.a, b=problem.b)


@pytest.mark.parametrize("name", ["min_time_double_integrator", "lqr_expression_shoot"])
def test_expression_shoots_take_the_generated_coupled_step(monkeypatch, name):
    # the builtin double integrator is the expressions ["x1", "u0"]: both
    # goldens step every propagation by the grammar's coupled step
    problem = cli.load_problem(os.path.join(GOLDEN, name, "problem.json"))
    calls = counted_costate(monkeypatch)
    res = shooting.shoot(shooting_problem(problem),
                         opts=shooting.ShootingOptions(tol=problem.tol, step=problem.step))
    assert res.converged and calls["_costate"] == 0


def counted_calls(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


# Stages and steps of the coupled (x, p) field in one shoot of the golden
# minimum-time double integrator: k1 is evaluated once per control value
# per loop iteration and shared by the trial steps from that state.  The
# golden takes the generated coupled stage and step; with its callables
# wrapped, as in test_shoot_work_within_committed_counts, it takes the
# fallback pair of `_coupled_field`, whose step is one `rk4_step`, and does
# the same work.
COUPLED_WORK_BASELINE = {"stage": 2213, "step": 5539}


def test_coupled_stages_and_steps_within_committed_counts(monkeypatch):
    problem = cli.load_problem(os.path.join(GOLDEN, "min_time_double_integrator",
                                            "problem.json"))
    opts = shooting.ShootingOptions(tol=problem.tol, step=problem.step)
    generate, generated = problem.sys.f.coupled_step, collections.Counter()

    def counted_generate(*args):
        stage, step = generate(*args)
        return (counted_calls(generated, "stage", stage),
                counted_calls(generated, "step", step))

    monkeypatch.setattr(problem.sys.f, "coupled_step", counted_generate)
    assert shooting.shoot(shooting_problem(problem), opts=opts).converged
    over = {k: (generated[k], v) for k, v in COUPLED_WORK_BASELINE.items()
            if generated[k] > v}
    assert not over, f"calls above the committed counts (got, committed): {over}"

    fallback, field = collections.Counter(), shooting._coupled_field

    def counted_field(*args):
        stage, step = field(*args)
        return counted_calls(fallback, "stage", stage), step

    monkeypatch.setattr(shooting, "_coupled_field", counted_field)
    monkeypatch.setattr(shooting, "rk4_step", counted_calls(fallback, "step", shooting.rk4_step))
    sys, _ = counted_system(problem.sys, ("f",))
    sp = dataclasses.replace(shooting_problem(problem), sys=sys)
    assert shooting.shoot(sp, opts=opts).converged
    assert fallback == generated


def di_user_callables():
    """The double integrator with minimum-energy cost as user callables."""
    return ControlSystem(m=2, k=1, f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]),
                         F=lambda x, u: float(x[0] ** 2 + u[0] ** 2),
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.array([2.0 * x[0], 0.0]))


def same_propagations_as_array_loop(prob, costate_calls, monkeypatch):
    """Propagations of prob from three starts, each with the bits of
    `propagate_arrays`; whether each called `pmp._costate`."""
    opts = shooting.ShootingOptions(step=0.1)
    calls = counted_costate(monkeypatch)
    for z in ([0.9, 1.0], [-3.0, -2.5], [0.0, 0.0]):
        calls.clear()
        prop = shooting._propagate(prob, np.array(z), opts, 0.1)
        assert (calls["_costate"] > 0) == costate_calls, z
        steps, x_b, p_b, sup_h = propagate_arrays(prob, np.array(z), opts, 0.1)
        assert [(t, u.tobytes()) for t, u in prop.steps] == \
            [(t, u.tobytes()) for t, u in steps]
        assert same_bits(prop.x_b, x_b) and same_bits(prop.p_b, p_b)
        assert same_bits(prop.sup_h, sup_h)


def fixed_time_problem(sys):
    return shooting.ShootingProblem(sys=sys, bounds=pmp.BoundarySpec(mode="fixed_time"),
                                    p0=-1.0, x_a=[1.0, 0.5], x_b=[0.0, 0.0], a=0.0, b=1.5)


def expression_system(dynamics, cost):
    return cli.Problem({"dynamics": dynamics, "cost": {"expression": cost},
                        "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]}}).sys


@pytest.mark.parametrize("dynamics, cost", [
    ({"builtin": "linear_system", "A": [[0.0, 1.0], [-2.0, -0.3]], "B": [[0.0], [1.0]]},
     "x0^2 + u0^2"),
    (None, None),                                             # user callables
    # a state in an exponent: the cost gradient is finite differences
    ({"builtin": "double_integrator"}, "2^x0 + u0^2"),
], ids=["linear_system", "user_callables", "cost_state_exponent"])
def test_other_systems_keep_rk4_step_on_coupled_rhs(monkeypatch, dynamics, cost):
    sys = di_user_callables() if dynamics is None else expression_system(dynamics, cost)
    same_propagations_as_array_loop(fixed_time_problem(sys), True, monkeypatch)


def test_dense_jacobian_columns_take_the_generated_coupled_step(monkeypatch):
    # a Jacobian column with two entries that are not 0 sums its J^T p in
    # order from 0.0 in the generated step, as the array loop does
    sys = expression_system({"expressions": ["x0 + x1 + u0", "x0"]}, "x0^2 + u0^2")
    same_propagations_as_array_loop(fixed_time_problem(sys), False, monkeypatch)


@pytest.mark.parametrize("srcs, cost", [
    (["-x0 + u0"], None),
    (["x1", "-sin(x0) + u0"], "x0^2 + u0^2"),
    (["x1 * u0", "2 * x2 - u0", "x0^2 / (1 + x0)"], "x1 * x2"),
])
def test_generated_coupled_step_is_one_rk4_step_without_numpy(srcs, cost):
    m = len(srcs)
    bodies = [grammar._tree(src, m, 1, "expression") for src in srcs]
    jacobian = [grammar._derivative(body, j) for body in bodies for j in range(m)]
    gradient = cost and [grammar._derivative(grammar._tree(cost, m, 1, "cost"), j)
                         for j in range(m)]
    _, step = grammar._coupled_step_code(bodies, jacobian, gradient, 1, True)
    # one RK4 combination k1 + 2 k2 + 2 k3 + k4 per component of y = (x, p)
    assert rk4_combinations(ast.unparse(step)) == ["coupled_step"] * (2 * m)
    used = [grammar._GLOBALS.get(node.id) for node in ast.walk(step)
            if isinstance(node, ast.Name)]
    assert not [obj for obj in used
                if obj is np or (getattr(obj, "__module__", None) or "").startswith("numpy")]


def test_a_problem_loaded_again_compiles_nothing(monkeypatch, tmp_path):
    # compiles are kept per process by expression texts, m and k; these
    # texts are used by no other test, so the first loads compile them
    data = {"dynamics": {"expressions": ["x1", "-0.8125 * sin(x0) + u0"]},
            "cost": {"expression": "0.0625 * x0^2 + u0^2"},
            "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "horizon": {"a": 0.0, "b": 0.5}, "integrator": {"step": 0.05},
            "control": {"values": [[0.25]]}, "reach": {"n_controls": 2},
            "boundary": {"mode": "fixed_time", "initial": {"point": [0.5, 0.0]},
                         "final": {"anchor": [0.0, 0.0], "normals": []}}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    calls = collections.Counter()
    monkeypatch.setattr(grammar, "_rk4_step_code",
                        counted_calls(calls, "step", grammar._rk4_step_code))
    monkeypatch.setattr(grammar._Code, "compile",
                        counted_calls(calls, "compile", grammar._Code.compile))
    for run in range(2):
        for command in ("simulate", "shoot", "reach"):
            assert cli.main([command, "--problem", str(path),
                             "--out", str(tmp_path / command)]) == 0
        if run == 0:
            # the dynamics, its Jacobian, the cost, its gradient, the
            # dynamics step (simulate), and the maximizer's probe fit, the
            # coupled stage and step and the adjoint sweep of the final
            # extremal (shoot)
            first = dict(calls)
            assert first == {"step": 3, "compile": 9}
    assert calls == first


@pytest.mark.parametrize("expressions, cost, message", [
    (["x0 +* u0"], None, "parse error"),
    # texts that are no string, which the compiles cannot be keyed on
    ([["x0"]], None, "dynamics.expressions[0] must be a string, got ['x0']"),
    (["u0"], {"expression": ["x0"]}, "cost.expression must be a string, got ['x0']"),
], ids=["parse_error", "list_expression", "list_cost"])
def test_a_bad_problem_fails_at_every_load(tmp_path, capsys, expressions, cost, message):
    # a failed compile is not kept: the second load raises as the first did
    data = {"dynamics": {"expressions": expressions},
            "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "control": {"values": [[0.0]]}}
    if cost is not None:
        data["cost"] = cost
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    errors = []
    for _ in range(2):
        assert cli.main(["simulate", "--problem", str(path), "--out", str(tmp_path / "o")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and message in errors[0]
