"""End-to-end acceptance run: nine numbered criteria, one verdict line each.

Every test prints a single "criterion N: PASS/FAIL - detail" line on the
live terminal (capture is bypassed), then asserts, so a full run shows the
scoreboard in order regardless of verbosity flags.
"""

import time

import numpy as np

from pmpkit import pmp, shooting
from pmpkit.cone_geometry import GeneratedCone, conic_membership, difference_spans, separate
from pmpkit.control_system import (
    ControlSignal,
    ControlSystem,
    box,
    constant_signal,
    extend,
    simulate,
)
from pmpkit.flows import IntegratorConfig, TimeVectorField, pairing_drift
from pmpkit.perturbations import (
    NeedleData,
    RealizationOptions,
    TimePerturbationData,
    _clip_signal,
    apply_needle_suite,
    build_tangent_cone,
    build_time_cone,
    class1_vector,
    cone_transport_check,
    multi_needle_vector,
    realize_direction,
    time_perturbation_vector,
)
from pmpkit.reachable import decomposition_reach_check

from oracles import (
    double_integrator_time_optimal,
    riccati_lqr_reference,
    separated_2d,
    separated_3d,
    variation_of_constants,
)


def _report(capsys, n, ok, detail):
    line = "criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def timed_double_integrator():
    # running cost 1: total cost equals elapsed time
    return ControlSystem(m=2, k=1,
                         f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]),
                         F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2))


def plain_double_integrator():
    return ControlSystem(
        m=2, k=1,
        f=lambda x, u: np.array([x[1], u[0]]),
        df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        control_set=box([-1.0], [1.0]),
    )


def rest_trajectory(b=1.0):
    sys = plain_double_integrator()
    return simulate(sys, constant_signal(0.0, b, [0.0]), [0.0, 0.0])


def test_criterion_1_minimum_time_double_integrator(capsys):
    start = time.monotonic()
    prob = shooting.ShootingProblem(
        sys=timed_double_integrator(), bounds=pmp.BoundarySpec(mode="free_time"),
        p0=-1.0, x_a=[1.0, 0.0], x_b=[0.0, 0.0], a=0.0, b=3.0)
    res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.02))
    elapsed = time.monotonic() - start
    t_star, t_switch = double_integrator_time_optimal(1.0)
    ss = shooting.switching_structure(res.extremal)
    rep = pmp.check_pmp(prob.sys, res.extremal, prob.bounds)
    sw = ss.switch_times[0] if ss.switch_times else float("nan")
    ok = (res.converged
          and abs(res.extremal.control.b - t_star) <= 1e-3
          and len(ss.switch_times) == 1
          and abs(sw - t_switch) <= 1e-3
          and rep.res_3a < 1e-5 and rep.res_3b < 1e-5
          and rep.res_3c > 0.1
          and res.extremal.adjoint.sigma0 == -1.0
          and elapsed < 10.0)
    _report(capsys, 1, ok,
            "min time %.4f, switch %.4f, res_3a %.1e, res_3b %.1e, %.1fs"
            % (res.extremal.control.b, sw, rep.res_3a, rep.res_3b, elapsed))


def test_criterion_2_lqr_matches_riccati(capsys):
    sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                        control_set=box([-np.inf], [np.inf]),
                        F=lambda x, u: float(x[0] ** 2 + u[0] ** 2),
                        df_dx=lambda x, u: np.zeros((1, 1)),
                        dF_dx=lambda x, u: np.array([2.0 * x[0]]))
    bounds = pmp.BoundarySpec(mode="fixed_time", final=((1.0,),))
    prob = shooting.ShootingProblem(sys=sys, bounds=bounds, p0=-1.0,
                                    x_a=[1.0], x_b=[0.0], a=0.0, b=1.0)
    res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=1e-3))
    traj = res.extremal.ext_traj
    x_or, p_or = riccati_lqr_reference(traj.grid)
    sup_x = float(np.max(np.abs(traj.states[:, 1] - x_or)))
    sup_p = float(np.max(np.abs(res.extremal.adjoint.sigma[:, 0] - p_or)))
    p_end = abs(float(res.extremal.adjoint.sigma[-1, 0]))
    ok = res.converged and sup_x < 1e-4 and p_end < 1e-6
    _report(capsys, 2, ok,
            "sup|x - oracle| %.1e (adjoint %.1e), |p(1)| %.1e"
            % (sup_x, sup_p, p_end))


def test_criterion_3_pairing_invariance_random_fields(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        A = rng.standard_normal((m, m))
        c = rng.standard_normal(m)
        X = TimeVectorField(
            m,
            lambda t, x, A=A, c=c: A @ np.tanh(x) + c * np.sin(t),
            lambda t, x, A=A: A * (1.0 - np.tanh(x) ** 2),
        )
        d = pairing_drift(X, (0.0, 1.0), rng.standard_normal(m),
                          rng.standard_normal(m), rng.standard_normal(m))
        worst = max(worst, float(d))
    ok = worst < 1e-6
    _report(capsys, 3, ok, "20 random smooth fields (m <= 4), worst drift %.1e" % worst)


def _slope_errors(sys, traj, needles, vector, t_eval):
    """Gap between the finite-difference slope and the predicted vector."""
    ref = simulate(sys, _clip_signal(traj.control, t_eval), traj.states[0]).endpoint
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        pert = apply_needle_suite(traj.control, needles, s)
        end = simulate(sys, _clip_signal(pert, t_eval), traj.states[0]).endpoint
        errs.append(float(np.linalg.norm((end - ref) / s - vector)))
    return errs


def test_criterion_4_needle_tangency_slopes(capsys):
    sys = plain_double_integrator()
    traj = rest_trajectory()
    cases = []

    pi = NeedleData(0.3, 1.0, [1.0])
    cases.append(("single", _slope_errors(
        sys, traj, [pi], class1_vector(sys, traj, pi).vector, 0.3)))

    pis = [NeedleData(0.3, 1.0, [1.0]), NeedleData(0.6, 0.5, [-1.0])]
    cases.append(("pair", _slope_errors(
        sys, traj, pis, multi_needle_vector(sys, traj, pis, 0.6).vector, 0.6)))

    pis = [NeedleData(0.5, 1.0, [1.0]), NeedleData(0.5, 0.5, [-1.0])]
    cases.append(("stacked", _slope_errors(
        sys, traj, pis, multi_needle_vector(sys, traj, pis, 0.5).vector, 0.5)))

    # time dilation: the perturbed endpoint is read at tau + dt * s
    mtraj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
    tau, dt = 0.5, 0.3
    v = time_perturbation_vector(
        sys, mtraj, TimePerturbationData(tau, 1.0, dt, [-1.0])).vector
    ref = simulate(sys, _clip_signal(mtraj.control, tau), mtraj.states[0]).endpoint
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        pert = apply_needle_suite(mtraj.control, [NeedleData(tau, 1.0, [-1.0])], s)
        end = simulate(sys, _clip_signal(pert, tau + dt * s), mtraj.states[0]).endpoint
        errs.append(float(np.linalg.norm((end - ref) / s - v)))
    cases.append(("dilation", errs))

    ok = all(e[0] > e[1] > e[2] and e[2] < 1e-3 for _, e in cases)
    worst = max(e[2] for _, e in cases)
    _report(capsys, 4, ok,
            "slope error decreases over s in {1e-2,1e-3,1e-4} for %d variants,"
            " worst final gap %.1e" % (len(cases), worst))


def test_criterion_5_flow_decomposition(capsys):
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = ControlSystem(m=2, k=1,
                        f=lambda x, u: A @ x + np.array([0.0, u[0]]),
                        df_dx=lambda x, u: A,
                        control_set=box([-2.0], [2.0]))
    u0 = ControlSignal(0.0, 1.0, (), ((0.0,),))
    u1 = ControlSignal(0.0, 1.0, (), ((0.7,),))
    x0 = np.array([0.3, -0.4])
    exact = variation_of_constants(A, np.array([0.0, 0.7]), 1.0, x0)
    direct = simulate(sys, u1, x0, IntegratorConfig(step=0.02)).endpoint
    oracle_gap = float(np.linalg.norm(direct - exact))
    resid = float(decomposition_reach_check(sys, u0, u1, 1.0, x0))
    coarse = float(decomposition_reach_check(sys, u0, u1, 1.0, x0,
                                             IntegratorConfig(step=0.05)))
    fine = float(decomposition_reach_check(sys, u0, u1, 1.0, x0,
                                           IntegratorConfig(step=0.025)))
    ok = (oracle_gap < 1e-6 and resid < 1e-6
          and coarse > 1e-12 and fine <= coarse / 8.0)
    _report(capsys, 5, ok,
            "residual %.1e vs closed form %.1e, halving scales %.1e -> %.1e"
            % (resid, oracle_gap, coarse, fine))


def test_criterion_6_separation_oracle_agreement(capsys):
    rng = np.random.default_rng(11)
    n_sep, bad = 0, 0
    for dim, oracle, count in ((2, separated_2d, 100), (3, separated_3d, 100)):
        for _ in range(count):
            G1 = [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 5)))]
            G2 = [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 5)))]
            c1, c2 = GeneratedCone(G1, dim), GeneratedCone(G2, dim)
            got = separate(c1, c2).separated
            if got != oracle(G1, G2) or difference_spans(c1, c2) != (not got):
                bad += 1
            n_sep += got
    _report(capsys, 6, bad == 0,
            "200 random pairs match the sweep oracle, %d separated, %d mismatches"
            % (n_sep, bad))


def test_criterion_7_direction_realization(capsys):
    sys = plain_double_integrator()
    traj = rest_trajectory()
    cone = build_tangent_cone(
        sys, traj, 1.0,
        {"times": [0.2, 0.4, 0.6, 0.8], "controls": [[-1.0], [1.0]]})
    opts = RealizationOptions(tol=0.05, cfg=IntegratorConfig(step=2e-3))
    rng = np.random.default_rng(13)
    worst, checked, ok = 0.0, 0, True
    while checked < 10:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        v = np.array([np.cos(ang), np.sin(ang)])
        if conic_membership(cone.cone, v) != "interior":
            continue
        res = realize_direction(sys, traj, 1.0, v, cone, opts)
        ratio = res.residual / res.s
        ok = ok and res.s == 1e-2 and ratio < 0.05 and 0.5 <= res.s_prime / res.s <= 2.0
        worst = max(worst, ratio)
        checked += 1
    _report(capsys, 7, ok,
            "10 interior directions realized at s=1e-2, worst residual/s %.3f" % worst)


def test_criterion_8_cone_transport(capsys):
    sys = plain_double_integrator()
    traj = rest_trajectory()
    cone = build_time_cone(sys, traj, 0.5,
                           {"times": [0.25, 0.4], "controls": [[-1.0], [1.0]]})
    rep = cone_transport_check(sys, traj, 0.5, 0.75, cone)
    mtraj = simulate(sys, constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
    mcone = build_time_cone(sys, mtraj, 0.5, {"times": [0.25], "controls": [[-1.0]]})
    mrep = cone_transport_check(sys, mtraj, 0.5, 0.8, mcone)
    ok = (rep.max_violation < 1e-8
          and all(v in ("interior", "boundary") for v in rep.memberships)
          and mrep.axis_defect < 1e-6)
    _report(capsys, 8, ok,
            "transported generators stay conic (violation %.1e), axis defect %.1e"
            % (rep.max_violation, mrep.axis_defect))


def test_criterion_9_negative_controls(capsys):
    sys = timed_double_integrator()
    bounds = pmp.BoundarySpec(mode="free_time")
    u = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (-1.0,)))
    ext_traj = simulate(extend(sys), u, np.zeros(3), IntegratorConfig(step=0.01))
    grid = ext_traj.grid
    sigma = np.column_stack([np.ones_like(grid), 1.0 - grid])

    flipped = pmp.AdjointCurve(grid=grid.copy(), sigma0=1.0, sigma=-sigma)
    rep_flip = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, flipped), bounds)

    dead = pmp.AdjointCurve(grid=grid.copy(), sigma0=0.0, sigma=np.zeros_like(sigma))
    rep_dead = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, dead), bounds)

    # second arc coasts at u = 0 although the adjoint demands u = -1 there
    u_lazy = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (0.0,)))
    lazy_traj = simulate(extend(sys), u_lazy, np.zeros(3), IntegratorConfig(step=0.01))
    lazy_adj = pmp.AdjointCurve(
        grid=lazy_traj.grid.copy(), sigma0=-1.0,
        sigma=np.column_stack([np.ones_like(lazy_traj.grid), 1.0 - lazy_traj.grid]))
    rep_lazy = pmp.check_pmp(sys, pmp.Extremal(lazy_traj, u_lazy, lazy_adj), bounds)

    ok = (rep_flip.res_3d[1] is False
          and rep_flip.classification == "undetermined"
          and rep_dead.res_3c < 1e-12
          and rep_dead.classification == "undetermined"
          and rep_lazy.res_3a > 1e-2)
    _report(capsys, 9, ok,
            "sign flip trips 3d, zero covector trips 3c (%.1e),"
            " sub-maximal arc lifts res_3a to %.2f"
            % (rep_dead.res_3c, rep_lazy.res_3a))
