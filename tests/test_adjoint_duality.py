"""The adjoint flow is the exact transpose of the forward RK4 step.

`pmp.adjoint_flow` steps back by p_n = M_n^T p_(n+1), where M_n is the step
matrix of the tangent lift of the extended system over the same grid step.
So the pairing of (p0, p) with a tangent vector carried by that lift holds
across every step to rounding, and p(tau) . (f(x(tau), v) - f(x(tau), u(tau)))
equals (p0, p(b)) paired with the needle vector of (tau, v) carried to b:
the maximum condition at tau is the needle-cone separation at b.  A backward
scheme of its own keeps both only to its O(h^4) error.  `pmp.adjoint_flows`
steps a block of covectors back through one retrace per step, and each of
its columns is the adjoint_flow of that column.  The extended system's
sweep of the m + 1 unit covectors equals, to rounding, the blocks
[[1, 0], [-c_n, B_n]] of the base sweep of the m unit covectors and of
p0 = -1.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmpkit import cli, pmp
from pmpkit.control_system import ControlSignal, ControlSystem, box, extend, signal_field, simulate
from pmpkit.flows import IntegratorConfig, tangent_lift_flows
from pmpkit.perturbations import NeedleData, Provenance, _generators

from test_shared_work import smooth_systems

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=smooth_systems(), p0=st.sampled_from((-1.0, 0.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_step_is_the_transpose_of_the_tangent_step(case, p0, seed):
    sys, sig, x0, p_b, step = case
    esys = extend(sys)
    ext = simulate(esys, sig, np.concatenate(([0.0], x0)), IntegratorConfig(step=step))
    adj = pmp.adjoint_flow(sys, ext.project(sys), p0, p_b)
    X = signal_field(esys, sig)
    rng = np.random.default_rng(seed)
    ts = ext.grid.tolist()
    for n, (t0, t1) in enumerate(zip(ts, ts[1:])):
        # M_n v by the tangent lift over the one grid step [t0, t1]
        v = rng.uniform(-1.0, 1.0, esys.m)
        _, (Mv,) = tangent_lift_flows(X, t1, t0, ext.states[n], [v], IntegratorConfig(step=t1 - t0))
        before = np.concatenate(([p0], adj.sigma[n]))
        after = np.concatenate(([p0], adj.sigma[n + 1]))
        defect = abs(float(before @ v) - float(after @ Mv))
        assert defect <= 1e-14 * np.linalg.norm(before) * np.linalg.norm(v), (n, defect)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=smooth_systems(), r=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_block_columns_are_single_adjoints_and_transposed_steps(case, r, seed):
    # one retrace per step carries an m x r block of covectors, each column
    # with its own p0: every column has the bits of its own adjoint_flow and
    # pairs with the tangent lift over each step
    sys, sig, x0, _, step = case
    esys = extend(sys)
    ext = simulate(esys, sig, np.concatenate(([0.0], x0)), IntegratorConfig(step=step))
    traj = ext.project(sys)
    rng = np.random.default_rng(seed)
    P_b = rng.uniform(-2.0, 2.0, (sys.m, r))
    p0 = rng.choice((-1.0, 0.0), r)
    block = pmp.adjoint_flows(sys, traj, P_b, p0)
    assert block.shape == (len(traj.grid), sys.m, r)
    for j in range(r):
        single = pmp.adjoint_flow(sys, traj, p0[j], P_b[:, j]).sigma
        assert block[:, :, j].tobytes() == np.ascontiguousarray(single).tobytes(), j
    X = signal_field(esys, sig)
    ts = ext.grid.tolist()
    for n, (t0, t1) in enumerate(zip(ts, ts[1:])):
        v = rng.uniform(-1.0, 1.0, esys.m)
        _, (Mv,) = tangent_lift_flows(X, t1, t0, ext.states[n], [v], IntegratorConfig(step=t1 - t0))
        before = np.vstack((p0, block[n]))
        after = np.vstack((p0, block[n + 1]))
        defect = np.abs(v @ before - Mv @ after)
        assert np.all(defect <= 1e-14 * np.linalg.norm(before, axis=0) * np.linalg.norm(v)), n


@pytest.mark.parametrize("p0", (0.0, -1.0))
@pytest.mark.parametrize("step", (0.04, 0.02))
def test_maximum_condition_gap_is_the_needle_pairing_at_b(step, p0):
    # the pendulum golden (a switch at 0.9) with a running cost, needles to
    # u = 0 at the grid nodes nearest 0.4, 0.8, 1.2 and 1.6
    problem = cli.load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    sys = dataclasses.replace(problem.sys, F=lambda x, u: 0.5 * float(x[0] ** 2 + u[0] ** 2),
                              dF_dx=lambda x, u: np.array([x[0], 0.0]))
    esys, u = extend(sys), problem.control
    cfg = IntegratorConfig(step=step)
    ext = simulate(esys, u, np.concatenate(([0.0], problem.x_a)), cfg)
    p_b = np.array([0.7, -1.3])
    adj = pmp.adjoint_flow(sys, ext.project(sys), p0, p_b)
    sigma_b = np.concatenate(([p0], p_b))
    v = np.array([0.0])
    for target in (0.4, 0.8, 1.2, 1.6):
        i = int(np.argmin(np.abs(ext.grid - target)))
        tau = float(ext.grid[i])
        x = ext.states[i]
        jump = esys.dynamics(x, v) - esys.dynamics(x, u.value_at(tau))
        at_tau = float(np.concatenate(([p0], adj.sigma[i])) @ jump)
        _, (needle,) = tangent_lift_flows(signal_field(esys, u), u.b, tau, x, [jump], cfg)
        at_b = float(sigma_b @ needle)
        assert abs(at_tau - at_b) <= 1e-10 * np.linalg.norm(sigma_b) * np.linalg.norm(needle), tau


def dense_switched():
    """A user-callable system with a dense Jacobian and a state-dependent
    cost, and a control with one switch."""
    sys = ControlSystem(
        m=2, k=1,
        f=lambda x, u: np.array([np.sin(x[1]) + 0.5 * x[0] + u[0],
                                 -x[0] + 0.3 * x[0] * x[1] + u[0] ** 2]),
        df_dx=lambda x, u: np.array([[0.5, np.cos(x[1])], [-1.0 + 0.3 * x[1], 0.3 * x[0]]]),
        control_set=box([-1.0], [1.0]),
        F=lambda x, u: float(x[0] ** 2 + x[0] * x[1] + u[0] ** 2),
        dF_dx=lambda x, u: np.array([2.0 * x[0] + x[1], x[0]]))
    u = ControlSignal(0.0, 1.5, (0.7,), ((1.0,), (-0.5,)))
    return sys, u, IntegratorConfig(step=0.01)


def test_extended_sweep_matches_the_base_sweep_blocks():
    # the base sweep of the m unit covectors with p0 = 0 and of p_b = 0
    # with p0 = -1 gives B_n and c_n; the transpose of [[1, 0], [-c_n, B_n]]
    # carries (dF, df) at node n to b, as the extended system's sweep does
    sys, u, cfg = dense_switched()
    m = sys.m
    ext = simulate(extend(sys), u, [0.0, 0.4, -0.3], cfg)
    sweep = pmp.adjoint_flows(sys, ext.project(sys), np.hstack((np.eye(m), np.zeros((m, 1)))),
                              [0.0] * m + [-1.0])
    blocks = np.zeros((len(ext.grid), m + 1, m + 1))
    blocks[:, 0, 0], blocks[:, 1:, 0], blocks[:, 1:, 1:] = 1.0, -sweep[:, :, m], sweep[:, :, :m]
    got = pmp.adjoint_flows(extend(sys), ext, np.eye(m + 1))
    assert np.max(np.abs(got - blocks)) <= 1e-14 * np.max(np.abs(blocks))


def test_needle_naming_its_lebesgue_reference_keeps_the_bits():
    # reference u(t1) named at a Lebesgue time is the rule's default, on
    # either arc, at a grid node (0.25) or not (1.13)
    sys, u, cfg = dense_switched()
    traj = simulate(sys, u, [0.4, -0.3], cfg)

    def records(named):
        return [Provenance(kind="needle", source_time=t, needle=NeedleData(t, 1.0, [v]),
                           reference=u.value_at(t) if named else None)
                for t in (0.25, 0.5, 1.13) for v in (-1.0, 0.3, 1.0)]

    plain, _ = _generators(sys, traj, records(False), 1.4, cfg)
    named, _ = _generators(sys, traj, records(True), 1.4, cfg)
    assert [g.tobytes() for g in named] == [g.tobytes() for g in plain]
