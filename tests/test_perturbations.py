import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import carried_on_grid, needle_vector_on_grid
from pmpkit import cli

from pmpkit.cone_geometry import GeneratedCone, conic_membership
from pmpkit.control_system import (
    ControlSignal,
    ControlSystem,
    _event_path,
    box,
    constant_signal,
    signal_field,
    simulate,
)
from pmpkit.flows import IntegratorConfig, tangent_lift_flows
from pmpkit.perturbations import (
    NeedleData,
    NeedleLayoutError,
    NeedleOverflowError,
    PerturbationCone,
    Provenance,
    RealizationError,
    RealizationOptions,
    TimePerturbationData,
    apply_needle_suite,
    build_initial_cone,
    build_tangent_cone,
    build_time_cone,
    class1_vector,
    cone_transport_check,
    multi_needle_vector,
    realize_direction,
    time_perturbation_vector,
)


def double_integrator():
    return ControlSystem(
        m=2, k=1,
        f=lambda x, u: np.array([x[1], u[0]]),
        df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        control_set=box([-1.0], [1.0]),
    )


def scalar_integrator():
    return ControlSystem(
        m=1, k=1,
        f=lambda x, u: np.array([u[0]]),
        df_dx=lambda x, u: np.zeros((1, 1)),
        control_set=box([-1.0], [1.0]),
    )


def rest_trajectory(b=1.0):
    return simulate(double_integrator(), constant_signal(0.0, b, [0.0]), [0.0, 0.0])


# times, lengths and values of the needle-layout properties are multiples
# of 1/16 on the horizon [0, 4], so every interval end is exact
UNIT = 1.0 / 16.0


@st.composite
def needle_signals(draw):
    """A piecewise-constant u on [0, 4] and a needle scale s."""
    cuts = sorted(draw(st.lists(st.integers(1, 63), unique=True, max_size=4)))
    values = draw(st.lists(st.integers(-2, 2), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    u = ControlSignal(0.0, 4.0, tuple(c * UNIT for c in cuts), tuple((v,) for v in values))
    return u, draw(st.sampled_from((0.5, 1.0)))


def needles_in(draw, s, t1, room):
    """One to three needles at t1 whose stacked intervals take at most
    room units at scale s; zero lengths included."""
    needles = []
    for _ in range(draw(st.integers(1, 3))):
        units = draw(st.integers(0, room))
        room -= units
        needles.append(NeedleData(t1 * UNIT, units * UNIT / s, [draw(st.integers(-2, 2))]))
    return needles


@st.composite
def valid_layouts(draw):
    """Needle groups at distinct times whose intervals lie in (0, 4] and
    meet at most at an end, listed in a drawn order of the groups."""
    u, s = draw(needle_signals())
    ends = sorted(draw(st.lists(st.integers(1, 64), unique=True, min_size=1, max_size=4)))
    groups = [needles_in(draw, s, t1, t1 - prev - (prev == 0))
              for prev, t1 in zip([0] + ends, ends)]
    return u, s, [n for g in draw(st.permutations(groups)) for n in g]


@st.composite
def invalid_layouts(draw):
    """A layout with two overlapping needle groups, or one whose interval
    reaches the start or whose time passes the end."""
    u, s = draw(needle_signals())
    kind = draw(st.sampled_from(("overlap", "start", "end")))
    if kind == "overlap":
        t1 = draw(st.integers(2, 63))
        t2 = draw(st.integers(t1 + 1, 64))
        units = [draw(st.integers(1, t1 - 1)), draw(st.integers(t2 - t1 + 1, t2 - 1))]
        times = [t1, t2]
    elif kind == "start":
        times = [draw(st.integers(1, 64))]
        units = [draw(st.integers(times[0], 80))]
    else:
        times, units = [draw(st.integers(65, 80))], [1]
    needles = [NeedleData(t * UNIT, n * UNIT / s, [1.0]) for t, n in zip(times, units)]
    return u, s, draw(st.permutations(needles))


class TestApplyNeedle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(valid_layouts())
    def test_valid_layout_overrides_exactly_the_needle_intervals(self, case):
        u, s, needles = case
        out = apply_needle_suite(u, needles, s)
        # later-listed needles at a time sit innermost, ending at t1
        spans, ends = [], {}
        for n in reversed(needles):
            hi = ends.get(n.t1, n.t1)
            ends[n.t1] = hi - n.l1 * s
            spans.append((hi - n.l1 * s, hi, n.u1))
        cuts = sorted({u.a, u.b, *u.switch_times, *(e for lo, hi, _ in spans for e in (lo, hi))})
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            want = next((v for a, b, v in spans if a <= mid < b), u.value_at(mid))
            assert np.array_equal(out.value_at(mid), want)
        assert (out.a, out.b) == (u.a, u.b)
        assert all(u.a < t < u.b for t in out.switch_times)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(invalid_layouts())
    def test_overlapping_or_escaping_layout_is_refused(self, case):
        u, s, needles = case
        with pytest.raises(NeedleLayoutError):
            apply_needle_suite(u, needles, s)

    def test_zero_length_noop(self):
        u = constant_signal(0.0, 2.0, [0.0])
        assert apply_needle_suite(u, [NeedleData(1.0, 0.0, [1.0])], 0.1) is u

    def test_single_needle_window(self):
        u = constant_signal(0.0, 2.0, [0.0])
        out = apply_needle_suite(u, [NeedleData(1.0, 1.0, [1.0])], 0.1)
        assert out.value_at(0.85)[0] == 0.0
        assert out.value_at(0.95)[0] == 1.0
        assert out.value_at(1.05)[0] == 0.0
        assert out.switch_times == (0.9, 1.0)

    def test_stacked_same_time_later_innermost(self):
        u = constant_signal(0.0, 2.0, [0.0])
        out = apply_needle_suite(
            u,
            [NeedleData(1.0, 1.0, [2.0]), NeedleData(1.0, 0.5, [3.0])],
            0.1,
        )
        # later-listed needle occupies [0.95, 1.0], first one [0.85, 0.95]
        assert out.value_at(0.9)[0] == 2.0
        assert out.value_at(0.97)[0] == 3.0
        assert out.value_at(0.8)[0] == 0.0
        assert out.value_at(1.01)[0] == 0.0

    def test_overlap_rejected(self):
        u = constant_signal(0.0, 2.0, [0.0])
        with pytest.raises(NeedleLayoutError):
            apply_needle_suite(
                u,
                [NeedleData(1.0, 1.0, [1.0]), NeedleData(0.95, 1.0, [1.0])],
                0.1,
            )

    def test_escape_rejected(self):
        u = constant_signal(0.0, 2.0, [0.0])
        with pytest.raises(NeedleLayoutError):
            apply_needle_suite(u, [NeedleData(0.05, 1.0, [1.0])], 0.1)

    def test_needle_equal_to_reference_is_invisible(self):
        u = constant_signal(0.0, 2.0, [0.0])
        out = apply_needle_suite(u, [NeedleData(1.0, 1.0, [0.0])], 0.1)
        assert out.switch_times == ()


class TestClass1Vector:
    def test_double_integrator_formula(self):
        traj = rest_trajectory()
        v = class1_vector(double_integrator(), traj, NeedleData(0.5, 1.0, [1.0]))
        assert np.allclose(v.vector, [0.0, 1.0], atol=1e-12)
        assert v.base_time == 0.5

    def test_reference_control_gives_zero(self):
        traj = rest_trajectory()
        v = class1_vector(double_integrator(), traj, NeedleData(0.5, 1.0, [0.0]))
        assert np.array_equal(v.vector, [0.0, 0.0])

    def test_positive_homogeneity_exact(self):
        traj = rest_trajectory()
        v1 = class1_vector(double_integrator(), traj, NeedleData(0.5, 1.0, [1.0]))
        v2 = class1_vector(double_integrator(), traj, NeedleData(0.5, 2.0, [1.0]))
        assert np.array_equal(v2.vector, 2.0 * v1.vector)

    def test_switch_time_rejected(self):
        sys = double_integrator()
        u = ControlSignal(a=0.0, b=1.0, switch_times=(0.5,),
                          values=(np.array([0.0]), np.array([1.0])))
        traj = simulate(sys, u, [0.0, 0.0])
        with pytest.raises(ValueError):
            class1_vector(sys, traj, NeedleData(0.5, 1.0, [1.0]))


def node_state(sys, traj, t, times=(), cfg=None):
    """gamma(t), the node state at t of the path that holds t and times,
    as the perturbation vectors and cones read it (`_event_path`)."""
    path, node = _event_path(sys, traj, [*times, t], cfg)
    return path.states[node[t]]


def transport(sys, traj, base, v, t):
    """v at gamma(base) carried to t by the tangent lift along traj."""
    _, (out,) = tangent_lift_flows(signal_field(sys, traj.control), t, base,
                                   node_state(sys, traj, base), [v])
    return out


class TestTransport:
    def test_identity_at_base_time(self):
        traj = rest_trajectory()
        out = transport(double_integrator(), traj, 0.5, np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(out, [1.0, 2.0])

    def test_nilpotent_closed_form(self):
        traj = rest_trajectory()
        out = transport(double_integrator(), traj, 0.25, np.array([0.0, 1.0]), 1.0)
        assert np.allclose(out, [0.75, 1.0], atol=1e-9)

    def test_zero_stays_zero(self):
        traj = rest_trajectory()
        out = transport(double_integrator(), traj, 0.25, np.zeros(2), 1.0)
        assert np.array_equal(out, [0.0, 0.0])


class TestMultiNeedle:
    def test_single_equals_transport(self):
        sys = double_integrator()
        traj = rest_trajectory()
        pi = NeedleData(0.3, 1.0, [1.0])
        lhs = multi_needle_vector(sys, traj, [pi], 1.0)
        rhs = transport(sys, traj, pi.t1, class1_vector(sys, traj, pi).vector, 1.0)
        assert np.allclose(lhs.vector, rhs, atol=1e-12)

    def test_same_time_additivity(self):
        sys = double_integrator()
        traj = rest_trajectory()
        pis = [NeedleData(0.3, 1.0, [1.0]), NeedleData(0.3, 0.5, [-1.0])]
        total = multi_needle_vector(sys, traj, pis, 1.0)
        parts = [transport(sys, traj, p.t1, class1_vector(sys, traj, p).vector, 1.0)
                 for p in pis]
        assert np.allclose(total.vector, parts[0] + parts[1], atol=1e-12)

    def test_unordered_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        with pytest.raises(ValueError):
            multi_needle_vector(sys, traj,
                                [NeedleData(0.6, 1.0, [1.0]), NeedleData(0.3, 1.0, [1.0])],
                                1.0)

    def test_time_beyond_eval_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        with pytest.raises(ValueError):
            multi_needle_vector(sys, traj, [NeedleData(0.9, 1.0, [1.0])], 0.5)


class TestTimePerturbationVector:
    def test_zero_delta_reduces_to_class1(self):
        sys = double_integrator()
        traj = rest_trajectory()
        tp = time_perturbation_vector(sys, traj, TimePerturbationData(0.5, 1.0, 0.0, [1.0]))
        c1 = class1_vector(sys, traj, NeedleData(0.5, 1.0, [1.0]))
        assert np.array_equal(tp.vector, c1.vector)

    def test_pure_time_shift_gives_drift(self):
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        tp = time_perturbation_vector(sys, traj, TimePerturbationData(0.5, 0.0, 1.0, [1.0]))
        assert np.allclose(tp.vector, [0.5, 1.0], atol=1e-9)

    def test_combined_formula(self):
        # gamma(0.5) = (0, 1) under zero control from x0 = (-0.5, 1)
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [-0.5, 1.0])
        tp = time_perturbation_vector(sys, traj,
                                      TimePerturbationData(0.5, 1.0, 0.5, [1.0]))
        assert np.allclose(tp.vector, [0.5, 1.0], atol=1e-9)


def swung_pendulum():
    """x' = (x1, -sin x0 + u cos x0) from (0.3, 0), u = +1 then -1 after
    0.9, on a grid of step 0.05."""
    sys = ControlSystem(m=2, k=1,
                        f=lambda x, u: np.array([x[1], -np.sin(x[0]) + u[0] * np.cos(x[0])]),
                        control_set=box([-1.0], [1.0]))
    u = ControlSignal(a=0.0, b=2.0, switch_times=(0.9,),
                      values=(np.array([1.0]), np.array([-1.0])))
    return sys, simulate(sys, u, [0.3, 0.0], IntegratorConfig(step=0.05))


class TestOneStateRule:
    """The needle and time-perturbation vectors read gamma where the cones
    do, at a node of the path that holds their time, so off the grid they
    equal the cones' generators bit for bit."""

    @pytest.mark.parametrize("t1", [0.523, 1.37])
    def test_off_grid_vectors_are_the_cone_generators(self, t1):
        sys, traj = swung_pendulum()
        assert t1 not in traj.grid.tolist()
        pi = NeedleData(t1, 0.7, [-0.4])
        assert class1_vector(sys, traj, pi).vector.tobytes() == \
            multi_needle_vector(sys, traj, [pi], t1).vector.tobytes()
        tp = TimePerturbationData(t1, 0.7, -0.3, [-0.4])
        cone = build_time_cone(sys, traj, t1, {"times": [t1], "controls": [[-0.4]]})
        gen = {p.kind: g for g, p in zip(cone.cone.generators, cone.provenance)}
        want = tp.delta_tau * gen["axis+"] + tp.l_tau * gen["needle"]
        assert time_perturbation_vector(sys, traj, tp).vector.tobytes() == want.tobytes()

    def test_overflowing_time_perturbation_is_a_numerical_failure(self):
        # f(x, 1) overflows while the reference u = 0 stays finite: the
        # time-perturbation vector used to raise the bad-input ValueError
        # of PerturbationVector where class1_vector raises NeedleOverflowError
        sys = ControlSystem(m=2, k=1, f=lambda x, u: np.array([1.0, u[0] * 1e300 * 1e300]),
                            control_set=box([-1.0], [1.0]))
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [0.0, 0.0],
                        IntegratorConfig(step=0.1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NeedleOverflowError, match="t=0.5"):
                class1_vector(sys, traj, NeedleData(0.5, 1.0, [1.0]))
            with pytest.raises(NeedleOverflowError, match="t=0.5"):
                time_perturbation_vector(sys, traj, TimePerturbationData(0.5, 1.0, 0.2, [1.0]))

    def test_overflowing_needle_sum_is_a_numerical_failure(self):
        # each needle vector is finite, (0, 1e308), but two of them sum to
        # inf: the sum used to raise PerturbationVector's bad-input
        # ValueError, with numpy's overflow warning
        sys = ControlSystem(m=2, k=1, f=lambda x, u: np.array([1.0, u[0] * 1e308]),
                            control_set=box([-1.0], [1.0]))
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [0.0, 0.0])
        pi = NeedleData(0.5, 1.0, [1.0])
        assert multi_needle_vector(sys, traj, [pi], 0.5).vector.tolist() == [0.0, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NeedleOverflowError, match="sum of 2 needle vectors at t=0.5"):
                multi_needle_vector(sys, traj, [pi, pi], 0.5)

    def test_overflowing_transport_drift_is_a_numerical_failure(self):
        # f overflows at x(t1) alone, the drift's base point; the cone at t1
        # and the rebuilt cone at t2 read other nodes and stay finite
        trap = []

        def f(x, u):
            rate = float(u[0]) - float(x[0])
            return np.array([rate * 1e308 * 10.0 if x.tolist() == trap else rate])

        sys = ControlSystem(m=1, k=1, f=f, df_dx=lambda x, u: -np.ones((1, 1)),
                            control_set=box([-1.0], [1.0]))
        cfg = IntegratorConfig(step=0.25)
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0], cfg)
        sampling = {"times": [0.25], "controls": [[-1.0]]}
        cone = build_tangent_cone(sys, traj, 0.5, sampling, cfg)
        trap.extend(traj.states[2].tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NeedleOverflowError, match="drift at t=0.5"):
                cone_transport_check(sys, traj, 0.5, 0.75, cone, cfg)


def rk4_arcs(f, y, a, b, switches, values, step):
    """y(b) of y' = f(y, u) from y(a) = y, u piecewise constant (values[i]
    after the i-th of the switches): plain RK4 on Python floats, each arc
    inside [a, b] on its own uniform grid of at most `step`."""
    cuts = [a] + [s for s in switches if a < s < b] + [b]
    for lo, hi in zip(cuts, cuts[1:]):
        u = values[sum(s <= lo for s in switches)]
        n = max(1, math.ceil((hi - lo) / step))
        h = (hi - lo) / n
        for _ in range(n):
            k1 = f(y, u)
            k2 = f([yi + 0.5 * h * ki for yi, ki in zip(y, k1)], u)
            k3 = f([yi + 0.5 * h * ki for yi, ki in zip(y, k2)], u)
            k4 = f([yi + h * ki for yi, ki in zip(y, k3)], u)
            y = [yi + h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                 for yi, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
    return y


def pendulum_needle_reference(x0, switches, values, tau, u1, t, step=1e-3):
    """The unit-rate needle vector (tau, u1) at t of the pendulum
    x0' = x1, x1' = -sin x0 + u: f(x, u1) - f(x, u(tau)) = (0, u1 - u(tau))
    carried by v' = (df/dx) v, written out without the package."""
    def f(y, u):
        return [y[1], -math.sin(y[0]) + u, y[3], -math.cos(y[0]) * y[2]]

    x = rk4_arcs(f, list(x0) + [0.0, 0.0], 0.0, tau, switches, values, step)[:2]
    u_tau = values[sum(s <= tau for s in switches)]
    return rk4_arcs(f, x + [0.0, u1 - u_tau], tau, t, switches, values, step)[2:]


class TestTangentCone:
    def test_pendulum_golden_needles_match_piecewise_reference(self):
        # the needles before the switch at 0.9 cross it; a step ending on
        # the switch must run on the arc's own control at every stage, or
        # the vector is only first-order accurate (8.6e-4 off at step 0.01)
        problem = cli.load_problem(os.path.join(os.path.dirname(__file__), "golden",
                                                "pendulum_flow_sample", "problem.json"))
        cfg = cli._cfg(problem)
        traj = simulate(problem.sys, problem.control, problem.x_a, cfg)
        t = problem.cones["time"]
        cone = build_tangent_cone(problem.sys, traj, t, problem.cones, cfg)
        switches = problem.control.switch_times
        values = [float(v[0]) for v in problem.control.values]
        assert len(cone.cone.generators) == 8
        assert sum(p.needle.t1 < switches[0] for p in cone.provenance) == 4
        for g, p in zip(cone.cone.generators, cone.provenance):
            want = pendulum_needle_reference(problem.x_a, switches, values, p.needle.t1,
                                             float(p.needle.u1[0]), t)
            assert np.max(np.abs(g - want)) < 1e-8

    def test_reference_only_sampling_gives_origin(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": [0.5], "controls": [[0.0]]})
        assert cone.cone.generators == []
        assert conic_membership(cone.cone, [0.0, 0.0]) == "interior"

    def test_scalar_integrator_spans_line(self):
        sys = scalar_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [0.0])
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": [0.5], "controls": [[-1.0], [1.0]]})
        gens = sorted(g[0] for g in cone.cone.generators)
        assert np.allclose(gens, [-1.0, 1.0], atol=1e-12)
        assert conic_membership(cone.cone, [0.3]) == "interior"

    def test_double_integrator_generators_closed_form(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": [0.25, 0.5, 0.75], "controls": [[-1.0], [1.0]]})
        want = []
        for tau in (0.25, 0.5, 0.75):
            want.append(np.array([1.0 - tau, 1.0]))
            want.append(-np.array([1.0 - tau, 1.0]))
        assert len(cone.cone.generators) == 6
        for g, p in zip(cone.cone.generators, cone.provenance):
            expect = p.needle.u1[0] * np.array([1.0 - p.needle.t1, 1.0])
            assert np.allclose(g, expect, atol=1e-9)
        assert conic_membership(cone.cone, [0.6, 1.0]) == "interior"

    def test_empty_sampling_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        with pytest.raises(ValueError):
            build_tangent_cone(sys, traj, 1.0, {"times": [], "controls": [[1.0]]})
        with pytest.raises(ValueError):
            build_tangent_cone(sys, traj, 1.0, {"times": [0.5], "controls": []})

    def test_monotone_in_sampling(self):
        sys = double_integrator()
        traj = rest_trajectory()
        small = build_tangent_cone(sys, traj, 1.0,
                                   {"times": [0.25, 0.5], "controls": [[-1.0], [1.0]]})
        big = build_tangent_cone(sys, traj, 1.0,
                                 {"times": [0.25, 0.5, 0.75], "controls": [[-1.0], [1.0]]})
        v = [0.6, 1.0]
        assert conic_membership(small.cone, v) == "interior"
        assert conic_membership(big.cone, v) == "interior"


class TestTimeCone:
    def test_zero_drift_equals_tangent_cone(self):
        sys = double_integrator()
        traj = rest_trajectory()
        sampling = {"times": [0.25], "controls": [[-1.0], [1.0]]}
        tc = build_time_cone(sys, traj, 0.5, sampling)
        kc = build_tangent_cone(sys, traj, 0.5, sampling)
        assert len(tc.cone.generators) == len(kc.cone.generators)
        for g, h in zip(tc.cone.generators, kc.cone.generators):
            assert np.array_equal(g, h)

    def test_pure_drift_spans_line(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.ones(1),
                            df_dx=lambda x, u: np.zeros((1, 1)),
                            control_set=box([-1.0], [1.0]))
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [0.0])
        cone = build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[0.0]]})
        gens = sorted(g[0] for g in cone.cone.generators)
        assert np.allclose(gens, [-1.0, 1.0])
        assert conic_membership(cone.cone, [0.4]) == "interior"

    def test_double_integrator_axis_generators(self):
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        cone = build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[-1.0]]})
        kinds = [p.kind for p in cone.provenance]
        assert "axis+" in kinds and "axis-" in kinds
        for g, p in zip(cone.cone.generators, cone.provenance):
            if p.kind == "axis+":
                assert np.allclose(g, [0.5, 1.0], atol=1e-9)
            if p.kind == "axis-":
                assert np.allclose(g, [-0.5, -1.0], atol=1e-9)

    def test_overflowing_axis_is_a_numerical_failure(self):
        # f overflows at x(b) alone, which no RK4 stage of the path visits,
        # so the final-time axis f(x(b), u(b-)) is the one generator that
        # meets it: a numerical failure, not GeneratedCone's bad-input
        # ValueError for a non-finite generator
        trap = []

        def f(x, u):
            rate = float(u[0]) - float(x[0])
            return np.array([rate * 1e308 * 10.0 if x.tolist() == trap else rate])

        sys = ControlSystem(m=1, k=1, f=f, df_dx=lambda x, u: -np.ones((1, 1)),
                            control_set=box([-1.0], [1.0]))
        u = constant_signal(0.0, 1.0, [1.0])
        cfg = IntegratorConfig(step=0.25)
        traj = simulate(sys, u, [0.0], cfg)
        trap.extend(traj.endpoint.tolist())
        # simulated again with the trap set, the path keeps its bits
        assert np.array_equal(simulate(sys, u, [0.0], cfg).states, traj.states)
        with pytest.raises(NeedleOverflowError, match="final-time axis at t=1.0"):
            build_time_cone(sys, traj, 1.0, {"times": [0.5], "controls": [[-1.0]]}, cfg)

    def test_switch_time_rejected(self):
        sys = double_integrator()
        u = ControlSignal(a=0.0, b=1.0, switch_times=(0.5,),
                          values=(np.array([0.0]), np.array([1.0])))
        traj = simulate(sys, u, [0.0, 0.0])
        with pytest.raises(ValueError):
            build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[1.0]]})


class TestInitialCone:
    def test_empty_basis_equals_time_cone(self):
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        sampling = {"times": [0.25], "controls": [[-1.0]]}
        ic = build_initial_cone(sys, traj, 0.5, [], sampling)
        tc = build_time_cone(sys, traj, 0.5, sampling)
        assert len(ic.cone.generators) == len(tc.cone.generators)

    def test_transported_basis_closed_form(self):
        sys = double_integrator()
        traj = rest_trajectory(b=1.2)
        cone = build_initial_cone(sys, traj, 1.0, [np.array([1.0, 0.0])],
                                  {"times": [0.5], "controls": [[1.0]]})
        init_gens = [g for g, p in zip(cone.cone.generators, cone.provenance)
                     if p.kind.startswith("init")]
        assert len(init_gens) == 2
        assert np.allclose(np.abs(init_gens), [[1.0, 0.0], [1.0, 0.0]], atol=1e-9)

    def test_full_basis_spans_state_space(self):
        sys = double_integrator()
        traj = rest_trajectory(b=1.2)
        cone = build_initial_cone(sys, traj, 1.0, list(np.eye(2)),
                                  {"times": [0.5], "controls": [[1.0]]})
        for v in ([0.3, -0.8], [-1.0, 0.2], [0.0, 0.9]):
            assert conic_membership(cone.cone, v) == "interior"


class TestConeTransportCheck:
    def test_same_time_zero_violation(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[-1.0], [1.0]]})
        rep = cone_transport_check(sys, traj, 0.5, 0.5, cone)
        assert rep.max_violation < 1e-8

    def test_double_integrator_inclusion(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = build_time_cone(sys, traj, 0.5,
                               {"times": [0.25, 0.4], "controls": [[-1.0], [1.0]]})
        rep = cone_transport_check(sys, traj, 0.5, 0.75, cone)
        assert rep.max_violation < 1e-8
        assert all(v in ("interior", "boundary") for v in rep.memberships)

    def test_axis_identity_constant_control(self):
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        cone = build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[-1.0]]})
        rep = cone_transport_check(sys, traj, 0.5, 0.8, cone)
        assert rep.axis_defect < 1e-6


def switched_double_integrator():
    """The double integrator under u = 1 then -1 from 0.7, with needles on
    both arcs, so the early needles are carried across the switch."""
    sys = double_integrator()
    u = ControlSignal(a=0.0, b=2.0, switch_times=(0.7,),
                      values=(np.array([1.0]), np.array([-1.0])))
    cfg = IntegratorConfig(step=0.01)
    sampling = {"times": [0.2, 0.5, 1.1, 1.4], "controls": [[-1.0], [0.0], [1.0]]}
    return sys, simulate(sys, u, [0.3, -0.1], cfg), sampling, cfg, 1.6, 1.9


def pendulum():
    problem = cli.load_problem(os.path.join(os.path.dirname(__file__), "golden",
                                            "pendulum_flow_sample", "problem.json"))
    cfg = cli._cfg(problem)
    traj = simulate(problem.sys, problem.control, problem.x_a, cfg)
    return problem.sys, traj, problem.cones, cfg, 1.8, 1.95


def record(p):
    """A provenance record as comparable bits."""
    needle = (p.needle.t1, p.needle.l1, p.needle.u1.tobytes()) if p.needle else None
    init = p.initial_vector.tobytes() if p.initial_vector is not None else None
    return p.kind, p.source_time, needle, p.delta_tau, init


def assert_same_cone(got, gens, prov):
    """got is the cone of gens after dropping zeros and duplicates, each kept
    generator paired with its record, bit for bit."""
    want = GeneratedCone(gens, n=got.cone.n)
    assert [g.tobytes() for g in got.cone.generators] == [g.tobytes() for g in want.generators]
    assert [record(p) for p in got.provenance] == [record(prov[i]) for i in want.kept]


@pytest.mark.parametrize("case", [switched_double_integrator, pendulum])
class TestProvenanceRule:
    """Every cone is built from its provenance by one rule: a needle's
    carried class-I vector, an axis's delta_tau f(gamma(t), u(t)), and an
    initial-manifold vector carried from the start."""

    def test_time_cone_is_tangent_cone_plus_axis(self, case):
        sys, traj, sampling, cfg, t, _ = case()
        kc = build_tangent_cone(sys, traj, t, sampling, cfg)
        tc = build_time_cone(sys, traj, t, sampling, cfg)
        f = sys.dynamics(node_state(sys, traj, t, sampling["times"], cfg),
                         traj.control.value_at(t))
        axis = [Provenance(kind="axis+", source_time=t, delta_tau=1.0),
                Provenance(kind="axis-", source_time=t, delta_tau=-1.0)]
        assert len(kc.cone.generators) >= 8
        assert_same_cone(tc, list(kc.cone.generators) + [f, -f], list(kc.provenance) + axis)

    def test_cones_at_the_horizon_end_take_the_last_arc(self, case):
        # at b the axis is +-f(x_b, u(b-)), at the node state of the path the
        # needles are read on; the time and initial cones once raised there
        sys, traj, sampling, cfg, _, _ = case()
        b = traj.b
        kc = build_tangent_cone(sys, traj, b, sampling, cfg)
        tc = build_time_cone(sys, traj, b, sampling, cfg)
        path = simulate(sys, traj.control, traj.states[0],
                        IntegratorConfig(cfg.step, (*sampling["times"], b)))
        f = sys.dynamics(path.states[-1], traj.control.values[-1])
        axis = [Provenance(kind="axis+", source_time=b, delta_tau=1.0),
                Provenance(kind="axis-", source_time=b, delta_tau=-1.0)]
        assert len(kc.cone.generators) >= 8
        assert_same_cone(tc, list(kc.cone.generators) + [f, -f], list(kc.provenance) + axis)
        ic = build_initial_cone(sys, traj, b, [np.array([1.0, 0.0])], sampling, cfg)
        assert [p.kind for p in ic.provenance[len(tc.provenance):]] == ["init+", "init-"]
        with pytest.raises(ValueError):
            build_time_cone(sys, traj, traj.control.switch_times[0], sampling, cfg)

    def test_transport_check_rebuilds_the_time_cone(self, case):
        # the rebuilt cone keeps the records of the cone at t1
        sys, traj, sampling, cfg, t1, t2 = case()
        cone = build_time_cone(sys, traj, t1, sampling, cfg)
        rep = cone_transport_check(sys, traj, t1, t2, cone, cfg)
        want = build_time_cone(sys, traj, t2, sampling, cfg)
        assert_same_cone(rep.cone, list(want.cone.generators), list(cone.provenance))
        assert rep.cone.at_time == want.at_time == t2

    def test_initial_cone_is_time_cone_plus_lifted_basis(self, case):
        sys, traj, sampling, cfg, t, _ = case()
        basis = [np.array([1.0, 0.0]), np.array([0.6, -0.8])]
        ic = build_initial_cone(sys, traj, t, basis, sampling, cfg)
        tc = build_time_cone(sys, traj, t, sampling, cfg)
        ws = [sgn * w for w in basis for sgn in (1.0, -1.0)]
        init = [Provenance(kind=kind, source_time=traj.a, initial_vector=w)
                for w, kind in zip(ws, ["init+", "init-"] * len(basis))]
        assert [record(p) for p in ic.provenance] == \
            [record(p) for p in list(tc.provenance) + init]
        n = len(tc.provenance)
        assert_same_cone(tc, ic.cone.generators[:n], tc.provenance)
        # the sweep carries the basis as the forward lift does on its grid
        path = simulate(sys, traj.control, traj.states[0],
                        IntegratorConfig(cfg.step, (*sampling["times"], t)))
        for g, w in zip(ic.cone.generators[n:], ws):
            want = carried_on_grid(sys, path, traj.a, w, t)
            assert np.max(np.abs(g - want)) <= 1e-14 * np.max(np.abs(want))

    def test_initial_cone_rejects_a_non_finite_basis_vector(self, case):
        sys, traj, sampling, cfg, t, _ = case()
        with pytest.raises(ValueError):
            build_initial_cone(sys, traj, t, [np.array([1.0, np.nan])], sampling, cfg)


class TestSlopeInvariants:
    def needle_deviation(self, sys, traj, needles, s, t_eval):
        from pmpkit.perturbations import _clip_signal
        pert = apply_needle_suite(traj.control, needles, s)
        ref = simulate(sys, _clip_signal(traj.control, t_eval), traj.states[0]).endpoint
        end = simulate(sys, _clip_signal(pert, t_eval), traj.states[0]).endpoint
        return (end - ref) / s

    def test_needle_tangency_slope(self):
        sys = double_integrator()
        traj = rest_trajectory()
        pi = NeedleData(0.3, 1.0, [1.0])
        v = class1_vector(sys, traj, pi).vector
        errs = [np.linalg.norm(self.needle_deviation(sys, traj, [pi], s, 0.3) - v)
                for s in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_two_needle_distinct_times_slope(self):
        sys = double_integrator()
        traj = rest_trajectory()
        pis = [NeedleData(0.3, 1.0, [1.0]), NeedleData(0.6, 0.5, [-1.0])]
        w = multi_needle_vector(sys, traj, pis, 0.6).vector
        errs = [np.linalg.norm(self.needle_deviation(sys, traj, pis, s, 0.6) - w)
                for s in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_two_needle_same_time_slope(self):
        sys = double_integrator()
        traj = rest_trajectory()
        pis = [NeedleData(0.5, 1.0, [1.0]), NeedleData(0.5, 0.5, [-1.0])]
        w = multi_needle_vector(sys, traj, pis, 0.5).vector
        errs = [np.linalg.norm(self.needle_deviation(sys, traj, pis, s, 0.5) - w)
                for s in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_time_perturbation_slope(self):
        from pmpkit.perturbations import _clip_signal
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        tau, l, dt, u1 = 0.5, 1.0, 0.3, [-1.0]
        v = time_perturbation_vector(sys, traj, TimePerturbationData(tau, l, dt, u1)).vector
        ref = simulate(sys, _clip_signal(traj.control, tau), traj.states[0]).endpoint
        errs = []
        for s in (1e-2, 1e-3, 1e-4):
            pert = apply_needle_suite(traj.control, [NeedleData(tau, l, u1)], s)
            end = simulate(sys, _clip_signal(pert, tau + dt * s), traj.states[0]).endpoint
            errs.append(np.linalg.norm((end - ref) / s - v))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


def full_plane_cone(sys, traj, t=1.0):
    return build_tangent_cone(sys, traj, t,
                              {"times": [0.25, 0.75], "controls": [[-1.0], [1.0]]})


class TestRealizeDirection:
    def test_scalar_linear_exact(self):
        sys = scalar_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.0]), [0.0])
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": [0.5], "controls": [[-1.0], [1.0]]})
        res = realize_direction(sys, traj, 1.0, [0.5], cone)
        assert res.s_prime == pytest.approx(res.s, rel=1e-6)
        assert res.endpoint[0] == pytest.approx(0.5 * res.s_prime, abs=1e-12)
        assert res.residual <= 0.02 * res.s

    def test_generator_direction_slope(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = full_plane_cone(sys, traj)
        v = np.array([0.75, 1.0])  # the transported tau=0.25, u=+1 generator
        opts = RealizationOptions(cfg=IntegratorConfig(step=2e-3))
        res = realize_direction(sys, traj, 1.0, v, cone, opts)
        assert 0.5 <= res.s_prime / res.s <= 2.0
        assert res.residual <= opts.tol * res.s
        # the single needle alone realizes the direction in the limit
        errs = []
        for s in (1e-2, 1e-3):
            pert = apply_needle_suite(traj.control, [NeedleData(0.25, 1.0, [1.0])], s)
            end = simulate(sys, pert, [0.0, 0.0]).endpoint
            errs.append(np.linalg.norm(end / s - v))
        assert errs[1] < errs[0]

    def test_interior_direction_two_dim(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = full_plane_cone(sys, traj)
        opts = RealizationOptions(cfg=IntegratorConfig(step=2e-3))
        res = realize_direction(sys, traj, 1.0, [0.5, 1.0], cone, opts)
        assert res.residual <= opts.tol * res.s
        assert 0.5 <= res.s_prime / res.s <= 2.0
        want = res.s_prime * np.array([0.5, 1.0])
        assert np.linalg.norm(res.endpoint - want) <= opts.tol * res.s

    def test_resimulation_bit_exact(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = full_plane_cone(sys, traj)
        opts = RealizationOptions(cfg=IntegratorConfig(step=2e-3))
        res = realize_direction(sys, traj, 1.0, [0.5, 1.0], cone, opts)
        again = simulate(sys, res.control, traj.states[0], opts.cfg).endpoint
        assert np.array_equal(again, res.endpoint)

    def test_zero_vector_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = full_plane_cone(sys, traj)
        with pytest.raises(ValueError):
            realize_direction(sys, traj, 1.0, [0.0, 0.0], cone)

    def test_boundary_direction_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = PerturbationCone(
            at_time=1.0,
            cone=GeneratedCone([np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
            provenance=(
                Provenance(kind="needle", source_time=0.5,
                           needle=NeedleData(0.5, 1.0, [1.0])),
                Provenance(kind="needle", source_time=0.5,
                           needle=NeedleData(0.5, 1.0, [-1.0])),
            ),
            control_dim=1,
        )
        with pytest.raises(ValueError):
            realize_direction(sys, traj, 1.0, [1.0, 0.0], cone)

    def test_flat_cone_rejected(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": [0.25], "controls": [[1.0]]})
        with pytest.raises(ValueError):
            realize_direction(sys, traj, 1.0, [1.5, 2.0], cone)

    def test_free_time_scalar(self):
        sys = ControlSystem(m=1, k=1,
                            f=lambda x, u: np.array([u[0]]),
                            df_dx=lambda x, u: np.zeros((1, 1)),
                            control_set=box([0.0], [1.0]))
        traj = simulate(sys, constant_signal(0.0, 1.0, [0.5]), [0.0])
        cone = build_time_cone(sys, traj, 0.5,
                               {"times": [0.25], "controls": [[0.25], [0.75]]})
        res = realize_direction(sys, traj, 0.5, [0.1], cone)
        assert res.s_prime > 0
        assert res.residual <= 0.02 * res.s
        want = 0.25 + res.s_prime * 0.1
        assert res.endpoint[0] == pytest.approx(want, abs=1e-9)

    def test_budget_exhaustion_reports_best_residual(self):
        sys = double_integrator()
        traj = rest_trajectory()
        cone = full_plane_cone(sys, traj)
        opts = RealizationOptions(tol=1e-12, max_attempts=1, root_max_iter=1,
                                  cfg=IntegratorConfig(step=5e-3))
        with pytest.raises(RealizationError) as info:
            realize_direction(sys, traj, 1.0, [0.5, 1.0], cone, opts)
        assert np.isfinite(info.value.best_residual)


class TestConeCsv:
    def test_columns_and_kinds(self):
        sys = double_integrator()
        traj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        cone = build_time_cone(sys, traj, 0.5, {"times": [0.25], "controls": [[-1.0]]})
        buf = io.StringIO()
        cone.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "tau,l,u0,kind"
        kinds = [ln.split(",")[-1] for ln in lines[1:]]
        assert "needle" in kinds and "axis+" in kinds and "axis-" in kinds
        needle_row = lines[1 + kinds.index("needle")].split(",")
        assert float(needle_row[0]) == 0.25
        assert float(needle_row[1]) == 1.0
        assert float(needle_row[2]) == -1.0


class TestProvenanceAlignment:
    """Each kept generator stays paired with the needle that made it when
    zero, duplicate and -0.0 needles are dropped."""

    def test_cone_and_generator_rows_pair_up(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "golden",
                               "pendulum_flow_sample", "problem.json")) as fh:
            data = json.load(fh)
        # u = 1 before the switch at 0.9 and -1 after it: the needles equal
        # to u(tau) are zero, a repeated time or control repeats a generator
        times = [0.3, 0.3, 1.2, 1.7]
        controls = [[1.0], [-1.0], [1.0], [0.0], [-0.0], [-1.0]]
        data["cones"] = {"time": 2.0, "times": times, "controls": controls}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["cones", "--problem", str(path), "--out", str(out)]) == 0
        rows = (out / "cone.csv").read_text().strip().split("\n")[1:]
        gens = (out / "generators.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == len(gens) == 2 * 3

        problem = cli.load_problem(str(path))
        cfg = cli._cfg(problem)
        traj = simulate(problem.sys, problem.control, problem.x_a, cfg)
        path = simulate(problem.sys, problem.control, problem.x_a,
                        IntegratorConfig(cfg.step, (*times, 2.0)))
        for row, gen in zip(rows, gens):
            tau, l1, u0, kind = row.split(",")
            assert (float(l1), kind) == (1.0, "needle")
            want = needle_vector_on_grid(problem.sys, path, float(tau), [float(u0)], 2.0)
            got = np.array([float(c) for c in gen.split(",")])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        cone = build_tangent_cone(problem.sys, traj, 2.0,
                                  {"times": times, "controls": controls}, cfg)
        sampled = [(tau, u[0]) for tau in times for u in controls]
        assert [(p.needle.t1, p.needle.u1[0]) for p in cone.provenance] == \
            [sampled[i] for i in cone.cone.kept]
        # per time, the first listed -1 (or 1) and 0 needle; the repeated
        # time 0.3 adds nothing
        assert cone.cone.kept == (1, 3, 12, 15, 18, 21)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(st.sampled_from((0.0, -0.0, 1.0, -2.5)),
                                  min_size=2, max_size=2), max_size=12))
    def test_kept_indices_follow_the_dropping_rule(self, rows):
        gens = [np.array(r) for r in rows]
        cone = GeneratedCone(gens, n=2)
        # first occurrence of each nonzero value; -0.0 equals 0.0
        want = []
        for i, g in enumerate(gens):
            if g.any() and not any(np.array_equal(g, gens[j]) for j in want):
                want.append(i)
        assert cone.kept == tuple(want)
        assert all(g is gens[i] or g.tobytes() == gens[i].tobytes()
                   for g, i in zip(cone.generators, cone.kept))
