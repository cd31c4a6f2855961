import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import needle_vector_stacked
from pmpkit import cli

from pmpkit.cone_geometry import GeneratedCone, conic_membership
from pmpkit.control_system import (
    ControlSignal,
    ControlSystem,
    box,
    constant_signal,
    signal_field,
    simulate,
)
from pmpkit.flows import IntegratorConfig, tangent_lift_flows
from pmpkit.perturbations import (
    NeedleData,
    NeedleLayoutError,
    PerturbationCone,
    Provenance,
    RealizationError,
    RealizationOptions,
    TimePerturbationData,
    _transport_group,
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


class TestApplyNeedle:
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


def transport(sys, traj, base, v, t):
    (out,) = _transport_group(sys, traj, base, [v], t, None)
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

    def test_backward_rejected(self):
        traj = rest_trajectory()
        with pytest.raises(ValueError):
            transport(double_integrator(), traj, 0.5, np.ones(2), 0.25)


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
    transported class-I vector, an axis's delta_tau f(gamma(t), u(t)), and an
    initial-manifold vector carried by the tangent lift."""

    def test_time_cone_is_tangent_cone_plus_axis(self, case):
        sys, traj, sampling, cfg, t, _ = case()
        kc = build_tangent_cone(sys, traj, t, sampling, cfg)
        tc = build_time_cone(sys, traj, t, sampling, cfg)
        f = sys.dynamics(traj.state_at(t), traj.control.value_at(t))
        axis = [Provenance(kind="axis+", source_time=t, delta_tau=1.0),
                Provenance(kind="axis-", source_time=t, delta_tau=-1.0)]
        assert len(kc.cone.generators) >= 8
        assert_same_cone(tc, list(kc.cone.generators) + [f, -f], list(kc.provenance) + axis)

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
        _, moved = tangent_lift_flows(signal_field(sys, traj.control), t, traj.a,
                                      traj.state_at(traj.a), ws, cfg)
        init = [Provenance(kind=kind, source_time=traj.a, initial_vector=w)
                for w, kind in zip(ws, ["init+", "init-"] * len(basis))]
        assert_same_cone(ic, list(tc.cone.generators) + moved, list(tc.provenance) + init)

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
        for row, gen in zip(rows, gens):
            tau, l1, u0, kind = row.split(",")
            assert (float(l1), kind) == (1.0, "needle")
            want = needle_vector_stacked(problem.sys, traj, float(tau), [float(u0)], 2.0, cfg)
            assert [float(c) for c in gen.split(",")] == list(want)

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
