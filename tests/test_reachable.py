import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmpkit import cli
from pmpkit.control_system import ControlSignal, ControlSystem, ball, box, finite, simulate
from pmpkit.flows import IntegratorConfig, SingularTransportError
from pmpkit.perturbations import build_tangent_cone
from pmpkit.cone_geometry import GeneratedCone
from pmpkit.reachable import (
    ReachCloud,
    SamplePolicy,
    _box_window,
    _draw_times,
    _draw_value,
    cone_approximation_check,
    decomposition_reach_check,
    reproduce_point,
    sample_reachable,
)

from oracles import draw_times_uniform, draw_value_uniform, variation_of_constants


def scalar_system():
    return ControlSystem(m=1, k=1, f=lambda x, u: np.atleast_1d(u[0]),
                         control_set=box([-1.0], [1.0]),
                         df_dx=lambda x, u: np.zeros((1, 1)))


def double_integrator():
    return ControlSystem(m=2, k=1,
                         f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]),
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSampleReachable:
    def test_scalar_endpoints_within_bounds(self):
        sys = scalar_system()
        cloud = sample_reachable(sys, [0.0], 1.0, SamplePolicy(n_controls=100, seed=0))
        assert len(cloud.points) == 100
        assert np.all(np.abs(cloud.points) <= 1.0 + 1e-12)
        # the extreme endpoints are attained by the constant controls
        for v, target in ((1.0, 1.0), (-1.0, -1.0)):
            u = ControlSignal(0.0, 1.0, (), ((v,),))
            y = simulate(sys, u, [0.0], IntegratorConfig(step=cloud.step)).endpoint
            assert abs(y[0] - target) < 1e-12

    def test_frozen_dynamics_stay_put(self):
        sys = ControlSystem(m=2, k=1, f=lambda x, u: np.zeros(2),
                            control_set=box([-1.0], [1.0]),
                            df_dx=lambda x, u: np.zeros((2, 2)))
        cloud = sample_reachable(sys, [0.4, -0.7], 1.0, SamplePolicy(n_controls=20))
        assert np.allclose(cloud.points, np.array([0.4, -0.7])[None, :], atol=0.0)

    def test_double_integrator_velocity_bound(self):
        cloud = sample_reachable(double_integrator(), [0.0, 0.0], 1.0,
                                 SamplePolicy(n_controls=80, seed=1))
        assert np.all(np.abs(cloud.points[:, 1]) <= 1.0 + 1e-12)

    def test_blow_up_recorded_and_skipped(self):
        sys = ControlSystem(m=1, k=1,
                            f=lambda x, u: np.atleast_1d((1.0 + u[0]) * x[0] ** 2),
                            control_set=box([-3.0], [3.0]),
                            df_dx=lambda x, u: np.atleast_2d(2.0 * (1.0 + u[0]) * x[0]))
        cloud = sample_reachable(sys, [1.0], 1.0, SamplePolicy(n_controls=30, seed=2))
        assert len(cloud.skipped) > 0
        assert len(cloud.points) + len(cloud.skipped) == 30
        assert all("blow-up" in rec["reason"] for rec in cloud.skipped)
        # surviving provenance still reproduces
        if len(cloud.points):
            assert np.array_equal(reproduce_point(sys, cloud, 0), cloud.points[0])

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            sample_reachable(scalar_system(), [0.0], 0.0)

    def test_cloud_reproducibility_bit_exact(self):
        # invariant: every provenance record re-simulates to its stored point
        sys = double_integrator()
        for seed in (0, 1, 2):
            cloud = sample_reachable(sys, [0.2, -0.1], 0.8,
                                     SamplePolicy(n_controls=25, seed=seed))
            for i in range(len(cloud.points)):
                assert np.array_equal(reproduce_point(sys, cloud, i), cloud.points[i])

    def test_near_policy_concentrates(self):
        sys = scalar_system()
        ref = ControlSignal(0.0, 1.0, (), ((1.0,),))
        cloud = sample_reachable(sys, [0.0], 1.0,
                                 SamplePolicy(n_controls=60, seed=3,
                                              near=ref, spread=0.2))
        assert np.all(cloud.points[:, 0] > 0.7)

    @pytest.mark.parametrize("control_set", [
        finite([(-1.0, 0.0), (0.0, 1.0), (0.5, -0.5)]),
        ball([0.5, -0.25], 1.5),
    ], ids=["finite", "ball"])
    @pytest.mark.parametrize("near", [False, True], ids=["uniform", "near"])
    def test_finite_and_ball_draws_lie_in_the_set_and_replay(self, control_set, near):
        # x' = u in R^2; near draws spread over the whole set around a
        # reference that switches between two of its values, so many land
        # outside and are projected back
        sys = ControlSystem(m=2, k=2, f=lambda x, u: np.array(u, dtype=float),
                            control_set=control_set, df_dx=lambda x, u: np.zeros((2, 2)))
        inside = {"finite": ((-1.0, 0.0), (0.5, -0.5)), "ball": ((0.5, -0.25), (1.5, -0.25))}
        ref = ControlSignal(0.0, 1.0, (0.5,), inside[control_set.kind]) if near else None
        cloud = sample_reachable(sys, [0.1, -0.2], 1.0,
                                 SamplePolicy(n_controls=30, seed=5, near=ref, spread=1.5))
        assert len(cloud.points) == 30
        values = [np.array(v) for rec in cloud.controls for v in rec["values"]]
        assert all(control_set.contains(v) for v in values)
        if control_set.kind == "finite":
            # each value is one of the points, bit for bit
            points = {np.array(p, dtype=float).tobytes() for p in control_set.points}
            assert {v.tobytes() for v in values} == points
        elif near:
            # some draws left the disc and were projected onto its edge
            assert any(abs(np.linalg.norm(v - control_set.center) - 1.5) < 1e-12 for v in values)
        for i in range(len(cloud.points)):
            assert np.array_equal(reproduce_point(sys, cloud, i), cloud.points[i])

    def test_csv_and_provenance_round_trip(self, tmp_path):
        sys = scalar_system()
        cloud = sample_reachable(sys, [0.0], 1.0, SamplePolicy(n_controls=10, seed=4))
        csv = tmp_path / "cloud.csv"
        side = tmp_path / "cloud_provenance.json"
        cloud.to_csv(csv)
        cloud.save_provenance(side)
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "x0,provenance_id"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[0]) == cloud.points[0, 0]
        assert int(first[1]) == 0
        data = json.loads(side.read_text())
        assert len(data["controls"]) == 10
        rec = data["controls"][3]
        sig = ControlSignal(0.0, data["horizon"], tuple(rec["switch_times"]),
                            tuple(tuple(v) for v in rec["values"]))
        y = simulate(sys, sig, data["x0"], IntegratorConfig(step=data["step"])).endpoint
        assert np.array_equal(y, cloud.points[3])


class TestConeApproximation:
    def test_full_space_cone_fraction_one(self):
        sys = double_integrator()
        u = ControlSignal(0.0, 1.0, (), ((0.0,),))
        traj = simulate(sys, u, [0.0, 0.0], IntegratorConfig(step=0.01))
        cloud = sample_reachable(sys, [0.0, 0.0], 1.0, SamplePolicy(n_controls=60, seed=0))
        full = GeneratedCone(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), n=2)
        st = cone_approximation_check(sys, traj, 1.0, full, cloud, 0.5)
        assert st.fraction == 1.0
        assert st.max_distance <= 1e-9

    def test_scalar_needle_cone_covers_all_scales(self):
        sys = scalar_system()
        u = ControlSignal(0.0, 1.0, (), ((0.0,),))
        cfg = IntegratorConfig(step=0.01)
        traj = simulate(sys, u, [0.0], cfg)
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": (0.25, 0.5, 0.75),
                                   "controls": ((-1.0,), (1.0,))}, cfg)
        cloud = sample_reachable(sys, [0.0], 1.0, SamplePolicy(n_controls=200, seed=0))
        for s in (0.4, 0.2, 0.1, 0.05):
            st = cone_approximation_check(sys, traj, 1.0, cone, cloud, s)
            assert st.n_slice > 0
            assert st.fraction == 1.0

    def test_double_integrator_two_scale_report(self):
        sys = double_integrator()
        uref = ControlSignal(0.0, 1.0, (), ((1.0,),))
        cfg = IntegratorConfig(step=0.01)
        traj = simulate(sys, uref, [0.0, 0.0], cfg)
        cone = build_tangent_cone(sys, traj, 1.0,
                                  {"times": tuple(0.05 + 0.1 * j for j in range(10)),
                                   "controls": ((-1.0,), (1.0,))}, cfg)
        cloud = sample_reachable(sys, [0.0, 0.0], 1.0,
                                 SamplePolicy(n_controls=400, seed=1,
                                              near=uref, spread=0.4))
        stats = [cone_approximation_check(sys, traj, 1.0, cone, cloud, s)
                 for s in (0.1, 0.05)]
        assert stats[0].n_slice >= 50 and stats[1].n_slice >= 50
        # tolerance shrinks faster than the slice scale
        assert stats[1].tolerance < stats[0].tolerance
        assert all(st.tolerance == st.s_scale ** 1.5 for st in stats)
        # inside-fraction does not fall as the scale halves, and the small
        # scale explains essentially everything
        assert stats[1].fraction >= stats[0].fraction >= 0.99
        assert stats[1].max_distance < 1e-3

    def test_empty_slice_raises(self):
        sys = scalar_system()
        cfg = IntegratorConfig(step=0.01)
        far = simulate(sys, ControlSignal(0.0, 1.0, (), ((-1.0,),)), [0.0], cfg)
        ref = ControlSignal(0.0, 1.0, (), ((1.0,),))
        cloud = sample_reachable(sys, [0.0], 1.0,
                                 SamplePolicy(n_controls=30, seed=5,
                                              near=ref, spread=0.1))
        full = GeneratedCone(((1.0,), (-1.0,)), n=1)
        with pytest.raises(ValueError, match="empty slice"):
            cone_approximation_check(sys, far, 1.0, full, cloud, 0.01)

    def test_horizon_mismatch_raises(self):
        sys = scalar_system()
        cfg = IntegratorConfig(step=0.01)
        traj = simulate(sys, ControlSignal(0.0, 1.0, (), ((0.0,),)), [0.0], cfg)
        cloud = sample_reachable(sys, [0.0], 1.0, SamplePolicy(n_controls=10))
        full = GeneratedCone(((1.0,), (-1.0,)), n=1)
        with pytest.raises(ValueError, match="horizon"):
            cone_approximation_check(sys, traj, 0.5, full, cloud, 0.5)


def rotation_system():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return A, ControlSystem(m=2, k=1,
                            f=lambda x, u: A @ x + np.array([0.0, u[0]]),
                            control_set=box([-2.0], [2.0]),
                            df_dx=lambda x, u: A)


def pendulum_system():
    return ControlSystem(m=2, k=1,
                         f=lambda x, u: np.array([x[1], -np.sin(x[0]) + u[0]]),
                         control_set=box([-1.0], [1.0]),
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]]))


class TestDecomposition:
    def test_identical_signals_vanish(self):
        sys = scalar_system()
        u = ControlSignal(0.0, 1.0, (0.4,), ((0.3,), (-0.5,)))
        assert decomposition_reach_check(sys, u, u, 1.0, [0.2]) < 1e-10

    def test_scalar_zero_versus_one(self):
        sys = scalar_system()
        u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
        u1 = ControlSignal(0.0, 1.0, (), ((1.0,),))
        assert decomposition_reach_check(sys, u0, u1, 1.0, [0.0]) < 1e-7

    def test_linear_constant_controls(self):
        A, sys = rotation_system()
        u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
        u1 = ControlSignal(0.0, 1.0, (), ((0.7,),))
        x0 = np.array([0.3, -0.4])
        # direct endpoint agrees with the closed-form forced-linear solution
        exact = variation_of_constants(A, np.array([0.0, 0.7]), 1.0, x0)
        direct = simulate(sys, u1, x0, IntegratorConfig(step=0.02)).endpoint
        assert np.linalg.norm(direct - exact) < 1e-6
        assert decomposition_reach_check(sys, u0, u1, 1.0, x0) < 1e-6

    def test_switching_signals_merge_events(self):
        sys = double_integrator()
        uref = ControlSignal(0.0, 1.0, (0.5,), ((1.0,), (-1.0,)))
        ualt = ControlSignal(0.0, 1.0, (0.3,), ((1.0,), (0.2,)))
        r = decomposition_reach_check(sys, uref, ualt, 1.0, [0.1, 0.0])
        assert r < 1e-9

    def test_fourth_order_step_decay(self):
        # the switching pendulum: a step ending on a switch must keep its
        # arc's control at every stage; reading u(t) per stage made the
        # residual fall only 2x per halving
        cases = [
            (rotation_system()[1], ControlSignal(0.0, 1.0, (), ((0.0,),)),
             ControlSignal(0.0, 1.0, (), ((0.7,),)), np.array([0.3, -0.4])),
            (pendulum_system(), ControlSignal(0.0, 1.0, (0.35,), ((1.0,), (-1.0,))),
             ControlSignal(0.0, 1.0, (0.6,), ((0.5,), (-0.5,))), np.array([0.4, -0.2])),
        ]
        for sys, u0, u1, x0 in cases:
            coarse = decomposition_reach_check(sys, u0, u1, 1.0, x0,
                                               IntegratorConfig(step=0.05))
            fine = decomposition_reach_check(sys, u0, u1, 1.0, x0,
                                             IntegratorConfig(step=0.025))
            assert coarse > 1e-12
            assert fine <= coarse / 8.0

    def test_singular_transport_propagates(self):
        D = np.array([[20.0, 0.0], [0.0, -20.0]])
        sys = ControlSystem(m=2, k=1,
                            f=lambda x, u: D @ x + np.array([0.0, u[0]]),
                            control_set=box([-1.0], [1.0]),
                            df_dx=lambda x, u: D)
        u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
        u1 = ControlSignal(0.0, 1.0, (), ((1.0,),))
        with pytest.raises(SingularTransportError):
            decomposition_reach_check(sys, u0, u1, 1.0, [1.0, 1.0])

    def test_mismatched_start_raises(self):
        sys = scalar_system()
        u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
        u1 = ControlSignal(0.5, 1.0, (), ((1.0,),))
        with pytest.raises(ValueError):
            decomposition_reach_check(sys, u0, u1, 1.0, [0.0])

    def test_horizon_overrun_raises(self):
        sys = scalar_system()
        u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
        with pytest.raises(ValueError):
            decomposition_reach_check(sys, u0, u0, 2.0, [0.0])


# ---------------------------------------------------------------------------
# the draws of one sample, against Generator.uniform as the sampler used it

side = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1.0, -1.0, 5.0, -5.0)))


@st.composite
def boxes(draw):
    """A box of k = 1..4 axes, each finite or with one infinite side."""
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 4))):
        a, b = sorted((draw(side), draw(side)))
        kind = draw(st.sampled_from(("finite", "upper", "lower")))
        lo.append(-math.inf if kind == "lower" else a)
        hi.append(math.inf if kind == "upper" else b)
    return box(lo, hi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(boxes(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_box_draws_keep_the_bits_and_stream_of_generator_uniform(U, seed, count):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [_draw_value(new, U, _box_window(U)) for _ in range(count)]
    try:
        want = [draw_value_uniform(old, U) for _ in range(count)]
    except ValueError:
        # numpy refused a window whose width has its sign bit set: a finite
        # side past -1 or 1 with the other infinite, or lo = 0.0, hi = -0.0;
        # the first stands its infinite side 2 beyond the finite one
        old.random(count * U.dim)
        sides = zip(U.lo.tolist(), U.hi.tolist(), *_box_window(U))
        stood = [(a, b, a if math.isfinite(a) else -1.0, b if math.isfinite(b) else 1.0, lo_j)
                 for a, b, lo_j, _ in sides]
        assert any(math.copysign(1.0, b1 - a1) < 0 for _, _, a1, b1, _ in stood)
        for a, b, a1, b1, lo_j in stood:
            assert lo_j == (a1 if a1 <= b1 else a if math.isfinite(a) else b - 2.0)
        assert U.contains(np.array(got))
    else:
        assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()
    assert new.bit_generator.state == old.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4),
       st.sampled_from((1.0, 2.0, 0.37, 1e-300, 3e10)))
def test_switch_time_draws_keep_the_bits_and_stream_of_generator_uniform(seed, n, T):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_times(new, T, n)
    assert np.array(got, dtype=float).tobytes() == draw_times_uniform(old, T, n).tobytes()
    assert new.bit_generator.state == old.bit_generator.state


def test_the_golden_cloud_replays_bit_for_bit():
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                          "pendulum_flow_sample")
    sys = cli.load_problem(os.path.join(golden, "problem.json")).sys
    with open(os.path.join(golden, "cloud_provenance.json")) as fh:
        prov = json.load(fh)
    with open(os.path.join(golden, "cloud.csv")) as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    cloud = ReachCloud(x0=np.array(prov["x0"]), horizon=prov["horizon"], step=prov["step"],
                       points=np.zeros((0, sys.m)),
                       controls=tuple({"switch_times": tuple(c["switch_times"]),
                                       "values": tuple(map(tuple, c["values"]))}
                                      for c in prov["controls"]))
    assert len(rows) == len(prov["controls"]) > 0
    for i, row in enumerate(rows):
        assert int(row[-1]) == i
        want = np.array([float(c) for c in row[:-1]])
        assert reproduce_point(sys, cloud, i).tobytes() == want.tobytes()
