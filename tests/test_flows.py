import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmpkit import grammar
from pmpkit.flows import (
    FlowBlowUpError,
    IntegratorConfig,
    SingularTransportError,
    TimeVectorField,
    _lifted_path,
    cotangent_lift_flow,
    flow,
    flow_decomposition_residual,
    integration_grid,
    pairing_drift,
    pullback_field,
    tangent_lift_flow,
    tangent_lift_flows,
)
from pmpkit.cli import load_problem
from pmpkit.control_system import ControlSignal, ControlSystem, box, signal_field, simulate
from pmpkit.reachable import SamplePolicy, sample_reachable

from oracles import (integration_grid_loop, rk4_blow_up_time, signal_path_per_step,
                     tangent_lift_stacked, variation_of_constants)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

ZERO2 = TimeVectorField(2, lambda t, x: np.zeros(2), lambda t, x: np.zeros((2, 2)))
NILP = TimeVectorField(2, lambda t, x: np.array([x[1], 0.0]),
                       lambda t, x: np.array([[0.0, 1.0], [0.0, 0.0]]))
SCALAR = TimeVectorField(1, lambda t, x: x.copy(), lambda t, x: np.ones((1, 1)))


class TestFlow:
    def test_zero_field_identity(self):
        x = flow(ZERO2, 3.0, 0.0, np.array([1.0, -2.0]))
        assert np.array_equal(x, [1.0, -2.0])

    def test_scalar_exponential(self):
        x = flow(SCALAR, 1.0, 0.0, np.array([1.0]))
        assert x[0] == pytest.approx(math.e, abs=1e-6)

    def test_double_integrator_unit_control(self):
        X = TimeVectorField(2, lambda t, x: np.array([x[1], 1.0]))
        x = flow(X, 1.0, 0.0, np.zeros(2))
        assert np.allclose(x, [0.5, 1.0], atol=1e-9)

    def test_backward_integration_inverts(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1]) + t, np.cos(x[0])]))
        x0 = np.array([0.3, -0.4])
        fwd = flow(X, 1.0, 0.0, x0)
        back = flow(X, 0.0, 1.0, fwd)
        assert np.allclose(back, x0, atol=1e-9)

    def test_composition_law(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1] + t), np.cos(x[0])]))
        x0 = np.array([0.2, 0.1])
        cfg = IntegratorConfig(step=1e-3)
        direct = flow(X, 1.0, 0.0, x0, cfg)
        scale = max(1.0, float(np.linalg.norm(direct)))
        for r in (0.25, 1.0 / 3.0, 0.6180339887):
            via = flow(X, 1.0, r, flow(X, r, 0.0, x0, cfg), cfg)
            assert np.linalg.norm(direct - via) < 10.0 * (1e-3) ** 4 * scale

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_raises(self):
        X = TimeVectorField(1, lambda t, x: x * x)
        with pytest.raises(FlowBlowUpError):
            flow(X, 2.0, 0.0, np.array([1.0]), IntegratorConfig(step=0.05))


def _square_first(x):
    return np.array([x[0] * x[0], 0.0])


def _square_first_jacobian(x):
    return np.array([[2.0 * x[0], 0.0], [0.0, 0.0]])


class TestBlowUpLocation:
    """x0' = x0^2 from x0 = 1 leaves the floats soon after t = 1; a tangent
    vector of 1e308 carried along it leaves them well before.  The second
    coordinate stays put and finite, so one non-finite entry must be
    enough.  Each integrator raises FlowBlowUpError at the grid node where
    a plain RK4 loop first sees a non-finite state or tangent vector."""

    STEP = 0.05
    SQUARE = TimeVectorField(2, lambda t, x: _square_first(x),
                             lambda t, x: _square_first_jacobian(x))
    SYSTEM = ControlSystem(m=2, k=1, f=lambda x, u: _square_first(x),
                           control_set=box([-1.0], [1.0]),
                           df_dx=lambda x, u: _square_first_jacobian(x))

    def expected(self, v0=None):
        grid = integration_grid(0.0, 2.0, IntegratorConfig(step=self.STEP))
        t = rk4_blow_up_time(lambda x: x * x, lambda x: 2.0 * x, grid, 1.0, v0)
        assert t is not None
        return t

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @pytest.mark.parametrize("integrator", ["simulate", "flow", "tangent_lift_flows"])
    def test_raises_at_plain_loop_node(self, integrator):
        cfg = IntegratorConfig(step=self.STEP)
        x0 = np.array([1.0, 0.5])
        with pytest.raises(FlowBlowUpError) as info:
            if integrator == "simulate":
                simulate(self.SYSTEM, ControlSignal(0.0, 2.0, (), ((0.0,),)), x0, cfg)
            elif integrator == "flow":
                flow(self.SQUARE, 2.0, 0.0, x0, cfg)
            else:
                tangent_lift_flows(self.SQUARE, 2.0, 0.0, x0,
                                   [np.array([1.0, 1.0]), np.array([1e308, 1.0])], cfg)
        if integrator == "tangent_lift_flows":
            assert info.value.t == self.expected(1e308) < self.expected()
        else:
            assert info.value.t == self.expected() > 1.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @pytest.mark.parametrize("integrator", ["simulate", "flow", "tangent_lift_flows"])
    def test_reports_a_python_float(self, integrator):
        # flow and tangent_lift_flows used to report the node as a numpy
        # scalar, printed "t=np.float64(1.1500000000000001)"
        X = TimeVectorField(1, lambda t, x: x * x, lambda t, x: 2.0 * x.reshape(1, 1))
        cfg = IntegratorConfig(step=self.STEP)
        with pytest.raises(FlowBlowUpError) as info:
            if integrator == "simulate":
                sys = ControlSystem(m=1, k=1, f=lambda x, u: x * x, control_set=box([0.0], [1.0]))
                simulate(sys, ControlSignal(0.0, 2.0, (), ((0.0,),)), [1.0], cfg)
            elif integrator == "flow":
                flow(X, 2.0, 0.0, np.array([1.0]), cfg)
            else:
                tangent_lift_flows(X, 2.0, 0.0, np.array([1.0]), [np.array([1.0])], cfg)
        assert type(info.value.t) is float
        assert str(info.value) == "non-finite state at t=1.1500000000000001 (blow-up)"

    def test_reach_sample_records_the_node(self):
        cloud = sample_reachable(self.SYSTEM, [1.0, 0.5], 2.0,
                                 SamplePolicy(n_controls=3, max_switches=0, step=self.STEP))
        assert len(cloud.points) == 0
        assert [rec["reason"] for rec in cloud.skipped] == [f"blow-up at t={self.expected()}"] * 3


class TestGrid:
    def test_hits_event_times_exactly(self):
        cfg = IntegratorConfig(step=0.1, event_times=(0.123456, 0.77))
        g = integration_grid(0.0, 1.0, cfg)
        assert 0.123456 in g and 0.77 in g
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_event_swallows_near_node(self):
        cfg = IntegratorConfig(step=0.1, event_times=(0.1 + 1e-12,))
        g = integration_grid(0.0, 1.0, cfg)
        assert 0.1 + 1e-12 in g
        assert np.all(np.diff(g) > 1e-10)

    def test_descending_for_backward(self):
        g = integration_grid(1.0, 0.0, IntegratorConfig(step=0.25, event_times=(0.4,)))
        assert g[0] == 1.0 and g[-1] == 0.0
        assert np.all(np.diff(g) < 0)
        assert 0.4 in g

    def test_default_step_is_relative(self):
        g = integration_grid(0.0, 2.0)
        assert len(g) == 1001

    def test_bad_config_rejected(self):
        for step in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step)
        # RK4 is the only scheme, so there is no method option to pass
        with pytest.raises(TypeError):
            IntegratorConfig(method="euler")


@st.composite
def grid_cases(draw):
    """(s, t, cfg): spans from 1e-300 up, base steps of 1 to 400 nodes, and
    events inside, outside, on and within 1e-9 of the span of a base node,
    repeated, signed zeros, inf and NaN."""
    s = draw(st.sampled_from((0.0, -0.0, 1.0, -3.5, 1e-300, 123.456)))
    span = draw(st.sampled_from((1e-300, 1e-8, 0.37, 1.0, 2.0, 1e6)))
    t = s + span if draw(st.booleans()) else s - span
    lo, hi = min(s, t), max(s, t)
    n = draw(st.integers(1, 400))
    width = hi - lo
    default = width == 0.0 or draw(st.integers(0, 9)) == 0
    step = None if default else width / (n + draw(st.floats(-0.4, 0.4)))
    nodes = np.linspace(lo, hi, n + 1).tolist()
    near = st.tuples(st.sampled_from(nodes), st.sampled_from((-1.0, 1.0, 0.5, 2.0)))
    pick = st.one_of(
        st.floats(lo - 0.5 * width, hi + 0.5 * width),
        st.sampled_from(nodes),
        near.map(lambda bf: bf[0] + bf[1] * 1e-9 * width),
        st.sampled_from((lo, hi, 0.0, -0.0, math.inf, -math.inf, math.nan)))
    events = draw(st.lists(pick, max_size=5))
    events += draw(st.sampled_from(([], events[:1])))
    return s, t, IntegratorConfig(step=step, event_times=tuple(events))


def _grid_case(s, t, step, *events):
    return s, t, IntegratorConfig(step=step, event_times=events)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(grid_cases())
# of equal events the first stays: 0.0 and -0.0 are told apart by the bits
@example(_grid_case(-1.0, 1.0, 0.5, 0.0, -0.0))
@example(_grid_case(-1.0, 1.0, 0.01, -0.0, 0.0, -0.0))
@example(_grid_case(1.0, -1.0, 0.25, -0.0, 0.0))
# an event exactly 1e-9 of the span from the base node 0.0 replaces it,
# one ulp further away it does not
@example(_grid_case(-1.0, 1.0, 1.0, 2e-9))
@example(_grid_case(-1.0, 1.0, 1.0, math.nextafter(2e-9, 1.0)))
@example(_grid_case(-1.0, 1.0, 1.0, -2e-9, 0.5))
# events on both sides of a node, within the tolerance on one side only or
# on both, and two that both swallow one node
@example(_grid_case(-1.0, 1.0, 1.0, 3e-9, -2e-9))
@example(_grid_case(-1.0, 1.0, 1.0, -3e-9, 2e-9))
@example(_grid_case(-1.0, 1.0, 1.0, 2e-9, -2e-9, math.nextafter(2e-9, 1.0)))
@example(_grid_case(1.0, -1.0, 0.5, 0.5 + 1e-9, 0.5 - 1e-9, math.nextafter(-0.5 - 2e-9, -1.0)))
@example(_grid_case(0.0, 1e-8, 1e-10, 5e-9, 5e-9 + 1e-17, 5e-9 - 1e-17))
@example(_grid_case(0.0, 1.0, 0.1, 0.3, 0.3, 0.7, 0.3))
def test_grid_matches_node_loop_bit_for_bit(case):
    s, t, cfg = case
    want, got = integration_grid_loop(s, t, cfg), integration_grid(s, t, cfg)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_event_given_twice_makes_no_zero_length_step():
    # a time that is both an event and a control switch, or an event given
    # twice, was a doubled node: a zero-length RK4 step
    problem = load_problem(os.path.join(GOLDEN, "pendulum_flow_sample", "problem.json"))
    assert problem.control.switch_times == (0.9,)
    traj = simulate(problem.sys, problem.control, problem.x_a, IntegratorConfig(0.01, (0.9,)))
    assert len(traj.grid) == 201 and np.all(np.diff(traj.grid) > 0)
    grid = integration_grid(0.0, 1.0, IntegratorConfig(0.01, (0.9, 0.9)))
    assert len(grid) == 101 and np.all(np.diff(grid) > 0)


PENDULUM = ("x1", "-sin(x0) + u0")
# x0' = x0^2 + u0 leaves the floats in finite time
RICCATI = ("x0 * x0 + u0", "x1")


def _walk_system(srcs, generated):
    """The field srcs as the grammar's generated dynamics (which carry a
    runner), or as a user callable doing the same arithmetic on Python
    floats (an overflow is inf, with no numpy warning)."""
    if generated:
        f, df, degree = grammar.compile_dynamics(srcs, 2, 1)
        return ControlSystem(m=2, k=1, f=f, df_dx=df, u_degree=degree,
                             control_set=box([-2.0], [2.0]))
    if srcs == PENDULUM:
        def f(x, u):
            return [float(x[1]), -math.sin(float(x[0])) + float(u[0])]
    else:
        def f(x, u):
            return [float(x[0]) * float(x[0]) + float(u[0]), float(x[1])]
    return ControlSystem(m=2, k=1, f=f, control_set=box([-2.0], [2.0]))


@st.composite
def walk_cases(draw):
    """(srcs, generated, u, s, t, x0, cfg): a control of 0-4 switches on
    [a, b], some on or within 1e-9 of the span of base nodes or of cfg's
    events, or at 0.0; an interval s -> t of either direction whose ends
    may be a, b or switches; and a start that blows up in some runs."""
    srcs = draw(st.sampled_from((PENDULUM, RICCATI)))
    a = draw(st.sampled_from((-1.0, 0.0, 0.25)))
    span = draw(st.sampled_from((0.37, 1.0, 2.0)))
    b = a + span
    n = draw(st.integers(2, 40))
    nodes = np.linspace(a, b, n + 1).tolist()
    shift = st.sampled_from((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 300.0)).map(
        lambda k: k * 1e-9 * span)
    near = st.one_of(st.sampled_from(nodes[1:-1] or nodes), st.floats(a, b))
    events = draw(st.lists(st.tuples(near, shift).map(sum), max_size=3))
    picks = st.one_of(st.floats(a, b), st.sampled_from((0.0, -0.0)),
                      st.tuples(near, shift).map(sum),
                      st.tuples(st.sampled_from(events or [a]), shift).map(sum))
    switches = sorted({x for x in draw(st.lists(picks, max_size=4)) if a < x < b})
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(switches) + 1,
                           max_size=len(switches) + 1))
    u = ControlSignal(a=a, b=b, switch_times=tuple(switches),
                      values=tuple(np.array([v]) for v in values))
    ends = st.one_of(st.sampled_from([a, b] + switches), st.floats(a, b))
    s, t = draw(ends), draw(ends)
    x0 = draw(st.sampled_from(([0.3, -0.2], [-0.5, 0.3], [3.0, 1.0], [40.0, 0.0],
                               [1e154, 0.0])))
    return srcs, draw(st.booleans()), u, s, t, x0, IntegratorConfig(span / n, tuple(events))


def _walk_case(srcs, generated, switches, values, s, t, x0, step, events=()):
    u = ControlSignal(a=0.0, b=1.0, switch_times=switches,
                      values=tuple(np.array([v]) for v in values))
    return srcs, generated, u, s, t, x0, IntegratorConfig(step, events)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(walk_cases())
# four switches: one a base node, one 1e-9 of the span past one, one on a
# cfg event, one 1e-9 of the span short of another event
@example(_walk_case(PENDULUM, True, (0.2, 0.4 + 1e-9, 0.5, 0.7 - 1e-9),
                    (1.0, -1.0, 0.5, -0.5, 0.25), 0.0, 1.0, [0.3, -0.2], 0.1, (0.5, 0.7)))
# backward from a switch to another, and forward from a switch
@example(_walk_case(PENDULUM, True, (0.25, 0.75), (1.0, -1.0, 0.5), 0.75, 0.25, [0.3, -0.2],
                    0.05))
@example(_walk_case(PENDULUM, False, (0.25, 0.75), (1.0, -1.0, 0.5), 0.25, 1.0, [0.3, -0.2],
                    0.05))
# backward from the switch 0.5 to a cfg event one ulp below it: the
# midpoint of that step rounds to 0.5, so it holds the value after the
# switch and the steps below it the value before
@example(_walk_case(PENDULUM, True, (0.5,), (1.0, -1.0), 0.5, 0.0, [0.3, -0.2], 0.05,
                    (math.nextafter(0.5, 0.0),)))
# a blow-up in the second run
@example(_walk_case(RICCATI, True, (0.1,), (0.0, 1.0), 0.0, 1.0, [3.0, 1.0], 0.01))
@example(_walk_case(RICCATI, False, (0.1,), (0.0, 1.0), 0.0, 1.0, [3.0, 1.0], 0.01))
def test_piece_walk_matches_per_step_lookup_bit_for_bit(case):
    # the path loop looks the control up once per run of steps between
    # switches, and generated dynamics step every run in one call; the
    # oracle looks it up at every step's midpoint and steps by array RK4
    srcs, generated, u, s, t, x0, cfg = case
    sys = _walk_system(srcs, generated)
    want_grid, want, blow_up = signal_path_per_step(sys, u, s, t, x0, cfg)
    X = signal_field(sys, u)
    assert (X.run is not None) == generated
    try:
        grid, xs, _ = _lifted_path(X, None, s, t, x0, (), cfg)
    except FlowBlowUpError as e:
        assert blow_up is not None and np.float64(e.t).tobytes() == np.float64(blow_up).tobytes()
        return
    assert blow_up is None
    assert grid.tobytes() == want_grid.tobytes()
    assert np.array(xs).tobytes() == want.tobytes()
    if srcs == PENDULUM:
        # a live lift steps by rk4_step, one control lookup per run too
        v0 = np.array([1.0, -0.5])
        x, (v,) = tangent_lift_flows(X, t, s, x0, [v0], cfg)
        x_want, v_want = tangent_lift_stacked(sys, u, t, s, x0, v0, cfg)
        assert x.tobytes() == x_want.tobytes() and v.tobytes() == v_want.tobytes()


class TestTangentLift:
    def test_zero_field_keeps_v(self):
        _, v = tangent_lift_flow(ZERO2, 2.0, 0.0, np.ones(2), np.array([3.0, 4.0]))
        assert np.array_equal(v, [3.0, 4.0])

    def test_nilpotent_closed_form(self):
        tau = 0.7
        _, v = tangent_lift_flow(NILP, tau, 0.0, np.zeros(2), np.array([0.0, 1.0]))
        assert np.allclose(v, [tau, 1.0], atol=1e-10)

    def test_zero_vector_stays_zero(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1]), x[0] ** 2]))
        _, v = tangent_lift_flow(X, 1.0, 0.0, np.array([0.1, 0.2]), np.zeros(2))
        assert np.array_equal(v, np.zeros(2))

    def test_variational_fd_consistency_ratio(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1] + 0.3 * t), np.cos(x[0])]))
        x0 = np.array([0.2, -0.1])
        w = np.array([0.6, 0.8])
        _, lifted = tangent_lift_flow(X, 1.0, 0.0, x0, w)
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            fd = (flow(X, 1.0, 0.0, x0 + h * w) - flow(X, 1.0, 0.0, x0)) / h
            errs.append(np.linalg.norm(fd - lifted))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_curve_of_initial_conditions(self):
        # transporting the tangent of a curve of initial conditions equals the
        # tangent of the transported curve
        X = TimeVectorField(2, lambda t, x: np.array([x[1] ** 2, np.sin(x[0])]))
        x0 = np.array([1.0, 0.5])
        w = np.array([-0.3, 0.9])
        _, lifted = tangent_lift_flow(X, 0.8, 0.0, x0, w)
        h = 1e-6
        fd = (flow(X, 0.8, 0.0, x0 + h * w) - flow(X, 0.8, 0.0, x0 - h * w)) / (2.0 * h)
        assert np.allclose(fd, lifted, atol=1e-7)


class TestCotangentLift:
    def test_zero_field_keeps_p(self):
        _, p = cotangent_lift_flow(ZERO2, 2.0, 0.0, np.ones(2), np.array([3.0, 4.0]))
        assert np.array_equal(p, [3.0, 4.0])

    def test_nilpotent_closed_form(self):
        tau = 0.7
        _, p = cotangent_lift_flow(NILP, tau, 0.0, np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(p, [1.0, -tau], atol=1e-10)

    def test_zero_covector_stays_zero(self):
        _, p = cotangent_lift_flow(NILP, 1.0, 0.0, np.zeros(2), np.zeros(2))
        assert np.array_equal(p, np.zeros(2))

    def test_transpose_inverse_identity(self):
        # tangent columns M and cotangent columns N satisfy M^T N = I
        for X, m in ((NILP, 2), (SCALAR, 1)):
            M = np.column_stack([
                tangent_lift_flow(X, 1.0, 0.0, np.full(m, 0.5), e)[1]
                for e in np.eye(m)
            ])
            N = np.column_stack([
                cotangent_lift_flow(X, 1.0, 0.0, np.full(m, 0.5), e)[1]
                for e in np.eye(m)
            ])
            assert np.allclose(M.T @ N, np.eye(m), atol=1e-6)


class TestPairing:
    def test_zero_field_zero_drift(self):
        d = pairing_drift(ZERO2, (0.0, 1.0), np.ones(2), np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert d == 0.0

    def test_nilpotent(self):
        d = pairing_drift(NILP, (0.0, 1.0), np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert d < 1e-10

    def test_scalar(self):
        d = pairing_drift(SCALAR, (0.0, 1.0), np.array([1.0]), np.array([2.0]), np.array([3.0]))
        assert d < 1e-8


class TestPullback:
    def test_zero_base_field(self):
        Y = TimeVectorField(2, lambda t, x: np.array([x[0] + t, 1.0]))
        Z = pullback_field(ZERO2, Y, 0.0)
        x = np.array([0.4, -0.2])
        assert np.allclose(Z.eval(0.7, x), Y.eval(0.7, x), atol=1e-9)

    def test_constant_commuting_fields(self):
        X = TimeVectorField(2, lambda t, x: np.array([1.0, 0.0]), lambda t, x: np.zeros((2, 2)))
        Y = TimeVectorField(2, lambda t, x: np.array([0.0, 2.0]), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0)
        assert np.allclose(Z.eval(0.9, np.array([5.0, 6.0])), [0.0, 2.0], atol=1e-9)

    def test_linear_flow_closed_form(self):
        A = np.array([[0.0, 1.0], [-0.5, 0.0]])
        b = np.array([1.0, 2.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0, IntegratorConfig(step=1e-3))
        from scipy.linalg import expm
        t = 0.8
        want = expm(-A * t) @ b
        assert np.allclose(Z.eval(t, np.array([0.3, 0.4])), want, atol=1e-8)

    def test_singular_transport_raises(self):
        # anisotropic contraction makes the differential nearly singular
        A = np.diag([-40.0, 0.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: np.ones(2), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0, IntegratorConfig(step=1e-3))
        with pytest.raises(SingularTransportError):
            Z.eval(1.0, np.array([0.1, 0.1]))


class TestDecomposition:
    def test_zero_base(self):
        Y = TimeVectorField(2, lambda t, x: np.array([x[1], -x[0]]),
                            lambda t, x: np.array([[0.0, 1.0], [-1.0, 0.0]]))
        r = flow_decomposition_residual(ZERO2, Y, 1.0, 0.0, np.array([1.0, 0.0]),
                                        IntegratorConfig(step=1e-2))
        assert r < 1e-10

    def test_constant_commuting(self):
        X = TimeVectorField(2, lambda t, x: np.array([1.0, 0.0]), lambda t, x: np.zeros((2, 2)))
        Y = TimeVectorField(2, lambda t, x: np.array([0.0, 2.0]), lambda t, x: np.zeros((2, 2)))
        r = flow_decomposition_residual(X, Y, 1.0, 0.0, np.zeros(2), IntegratorConfig(step=1e-2))
        assert r < 1e-8

    def test_linear_plus_constant_with_oracle(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.3]])
        b = np.array([0.5, 1.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        x0 = np.array([1.0, -1.0])
        cfg = IntegratorConfig(step=1e-2)
        r = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, cfg)
        assert r < 1e-6
        # the direct endpoint itself must match variation of constants
        XY = TimeVectorField(2, lambda t, x: A @ x + b, lambda t, x: A)
        direct = flow(XY, 1.0, 0.0, x0, cfg)
        assert np.allclose(direct, variation_of_constants(A, b, 1.0, x0), atol=1e-8)

    def test_step_order_decay(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        x0 = np.array([0.5, 0.5])
        r_coarse = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, IntegratorConfig(step=0.05))
        r_fine = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, IntegratorConfig(step=0.025))
        assert r_fine < r_coarse / 8.0  # fourth-order scheme
