import json

import numpy as np
import pytest

from pmpkit.control_system import (
    _event_path,
    ball,
    ControlSignal,
    ControlSystem,
    box,
    constant_signal,
    extend,
    finite,
    signal_field,
    simulate,
)
from pmpkit.flows import IntegratorConfig, cotangent_lift_flow, tangent_lift_flows
from pmpkit.cone_geometry import ConeCertificateError, GeneratedCone, null_space
from pmpkit.perturbations import NeedleData, class1_vector
from pmpkit import perturbations, pmp


def double_integrator():
    return ControlSystem(
        m=2, k=1,
        f=lambda x, u: np.array([x[1], u[0]]),
        control_set=box([-1.0], [1.0]),
        F=lambda x, u: 1.0,
        df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        dF_dx=lambda x, u: np.zeros(2),
    )


def scalar_energy(lo=-np.inf, hi=np.inf):
    # xdot = u with running cost u^2
    return ControlSystem(
        m=1, k=1,
        f=lambda x, u: np.array([u[0]]),
        control_set=box([lo], [hi]),
        F=lambda x, u: float(u[0] ** 2),
        df_dx=lambda x, u: np.zeros((1, 1)),
        dF_dx=lambda x, u: np.zeros(1),
    )


def bang_extremal(step=0.005):
    """Time-optimal transfer of the double integrator from rest to (1, 0).

    u = +1 on [0, 1), -1 on [1, 2]; the adjoint (1, 1 - t) with sigma0 = -1
    makes it a free-time extremal.
    """
    sys = double_integrator()
    u = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (-1.0,)))
    cfg = IntegratorConfig(step=step)
    ext_traj = simulate(extend(sys), u, np.zeros(3), cfg)
    grid = ext_traj.grid
    sigma = np.column_stack([np.ones_like(grid), 1.0 - grid])
    adj = pmp.AdjointCurve(grid=grid.copy(), sigma0=-1.0, sigma=sigma)
    return sys, u, ext_traj, adj


class TestHamiltonian:
    def test_arithmetic(self):
        sys = double_integrator()
        val = pmp.hamiltonian(sys, -1.0, (1.0, 2.0), (0.0, 3.0), 0.5)
        assert val == pytest.approx(3.0, abs=1e-15)

    def test_zero_multiplier_drops_cost(self):
        sys = double_integrator()
        val = pmp.hamiltonian(sys, 0.0, (1.0, 2.0), (0.0, 3.0), 0.5)
        assert val == pytest.approx(4.0, abs=1e-15)

    def test_dimension_mismatch(self):
        sys = double_integrator()
        with pytest.raises(ValueError):
            pmp.hamiltonian(sys, -1.0, (1.0,), (0.0, 3.0), 0.5)


class TestMaximize:
    def test_linear_box_vertex(self):
        # H has linear u coefficient +2: the upper vertex wins
        sys = double_integrator()
        res = pmp.maximize_hamiltonian(sys, -1.0, (0.0, 2.0), (0.0, 0.0))
        assert res.u_star == pytest.approx([1.0], abs=1e-12)
        assert res.value == pytest.approx(2.0 - 1.0, abs=1e-12)

    def test_concave_interior(self):
        # H = -u^2 + u on [-1, 1] peaks at 0.5
        sys = scalar_energy(-1.0, 1.0)
        res = pmp.maximize_hamiltonian(sys, -1.0, (1.0,), (0.0,))
        assert res.u_star == pytest.approx([0.5], abs=1e-9)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_finite_enumeration(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                            control_set=finite([(-1.0,), (0.5,), (1.0,)]))
        res = pmp.maximize_hamiltonian(sys, 0.0, (2.0,), (0.0,))
        assert res.u_star == pytest.approx([1.0])
        assert res.value == pytest.approx(2.0)

    def test_finite_tie_lowest_index(self):
        # H = u^2 ties at -1 and +1; the first listed point wins
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0] ** 2]),
                            control_set=finite([(-1.0,), (1.0,)]))
        res = pmp.maximize_hamiltonian(sys, 0.0, (1.0,), (0.0,))
        assert res.u_star == pytest.approx([-1.0])

    def test_stationary_on_unbounded_box(self):
        sys = scalar_energy()
        res = pmp.maximize_hamiltonian(sys, -1.0, (3.0,), (0.0,))
        assert res.u_star == pytest.approx([1.5], abs=1e-9)

    def test_unbounded_linear_raises(self):
        sys = scalar_energy()
        with pytest.raises(pmp.UnboundedHamiltonianError):
            pmp.maximize_hamiltonian(sys, 0.0, (3.0,), (0.0,))

    def test_unbounded_convex_axis_raises(self):
        # p0 = -1 with cost -u^2 makes H = u^2 + ... convex in u
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                            control_set=box([-1.0], [np.inf]),
                            F=lambda x, u: -float(u[0] ** 2))
        with pytest.raises(pmp.UnboundedHamiltonianError):
            pmp.maximize_hamiltonian(sys, -1.0, (0.0,), (0.0,))

    def test_grid_refinement_non_quadratic(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([np.sin(u[0])]),
                            control_set=box([0.0], [3.0]))
        res = pmp.maximize_hamiltonian(sys, 0.0, (1.0,), (0.0,))
        assert abs(res.u_star[0] - np.pi / 2) < 1e-5
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_grid_refinement_deterministic(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([np.sin(u[0])]),
                            control_set=box([0.0], [3.0]))
        r1 = pmp.maximize_hamiltonian(sys, 0.0, (1.0,), (0.0,))
        r2 = pmp.maximize_hamiltonian(sys, 0.0, (1.0,), (0.0,))
        assert np.array_equal(r1.u_star, r2.u_star)
        assert r1.value == r2.value

    def test_ball_linear(self):
        sys = ControlSystem(m=2, k=2, f=lambda x, u: u.copy(),
                            control_set=ball((1.0, 0.0), 2.0))
        res = pmp.maximize_hamiltonian(sys, 0.0, (0.0, 3.0), (0.0, 0.0))
        assert res.u_star == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_positive_scaling_leaves_argmax(self):
        # scaling (p0, p) by a positive factor rescales H without moving
        # its maximizer
        bang = double_integrator()
        lqr = scalar_energy()
        for lam in (0.5, 2.0, 10.0):
            r1 = pmp.maximize_hamiltonian(bang, -1.0, (1.0, -0.3), (0.2, 0.1))
            r2 = pmp.maximize_hamiltonian(bang, -lam, (lam, -0.3 * lam), (0.2, 0.1))
            assert np.allclose(r1.u_star, r2.u_star, atol=1e-9)
            r3 = pmp.maximize_hamiltonian(lqr, -1.0, (0.8,), (0.0,))
            r4 = pmp.maximize_hamiltonian(lqr, -lam, (0.8 * lam,), (0.0,))
            assert np.allclose(r3.u_star, r4.u_star, atol=1e-9)


class TestAdjointFlow:
    def test_zero_terminal_stays_zero(self):
        sys = double_integrator()
        u = constant_signal(0.0, 2.0, (0.5,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.01))
        adj = pmp.adjoint_flow(sys, traj, 0.0, (0.0, 0.0))
        assert np.all(adj.sigma == 0.0)
        assert adj.sigma0 == 0.0

    def test_double_integrator_closed_form(self):
        # p1 constant, p2' = -p1: from p(2) = (1, 0), p(t) = (1, 2 - t)
        sys = double_integrator()
        u = constant_signal(0.0, 2.0, (0.0,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.01))
        adj = pmp.adjoint_flow(sys, traj, -1.0, (1.0, 0.0))
        expect = np.column_stack([np.ones_like(adj.grid), 2.0 - adj.grid])
        assert np.max(np.abs(adj.sigma - expect)) < 1e-12

    def test_constant_when_jacobian_vanishes(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                            control_set=box([-1.0], [1.0]))
        u = constant_signal(0.0, 1.0, (0.3,))
        traj = simulate(sys, u, np.zeros(1), IntegratorConfig(step=0.01))
        adj = pmp.adjoint_flow(sys, traj, -1.0, (2.5,))
        assert np.max(np.abs(adj.sigma - 2.5)) < 1e-12

    def test_grid_is_shared(self):
        sys = double_integrator()
        u = constant_signal(0.0, 2.0, (0.5,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.01))
        adj = pmp.adjoint_flow(sys, traj, -1.0, (1.0, 0.0))
        assert np.array_equal(adj.grid, traj.grid)

    def test_wrong_dimension_raises(self):
        sys = double_integrator()
        u = constant_signal(0.0, 2.0, (0.5,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.05))
        with pytest.raises(ValueError):
            pmp.adjoint_flow(sys, traj, -1.0, (1.0,))


class TestCheckPmp:
    def test_bang_extremal_passes(self):
        sys, u, ext_traj, adj = bang_extremal()
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj),
                            pmp.BoundarySpec(mode="free_time"))
        assert rep.res_3a < 1e-6
        assert rep.res_3b < 1e-6
        assert rep.res_3c > 1.0
        assert rep.res_3d == (0.0, True)
        assert rep.res_3e == (0.0, 0.0)
        assert rep.classification == "normal"

    def test_zero_adjoint_flags_3c(self):
        sys, u, ext_traj, _ = bang_extremal(step=0.01)
        grid = ext_traj.grid
        adj = pmp.AdjointCurve(grid=grid.copy(), sigma0=0.0,
                               sigma=np.zeros((len(grid), 2)))
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj),
                            pmp.BoundarySpec(mode="free_time"))
        assert rep.res_3c == 0.0
        assert rep.classification == "undetermined"

    def test_final_manifold_residual(self):
        # final manifold {x1 = c} has tangent basis {(0, 1)}; the residual
        # is |sigma_2(b)|, here |1 - 2| = 1
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        bounds = pmp.BoundarySpec(mode="free_time", final=((0.0, 1.0),))
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj), bounds)
        assert rep.res_3e[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.classification == "undetermined"

    def test_annihilating_final_covector_passes_manifold(self):
        sys = double_integrator()
        u = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (-1.0,)))
        cfg = IntegratorConfig(step=0.01)
        ext_traj = simulate(extend(sys), u, np.zeros(3), cfg)
        base = simulate(sys, u, np.zeros(2), cfg)
        adj = pmp.adjoint_flow(sys, base, -1.0, (1.0, 0.0))
        bounds = pmp.BoundarySpec(mode="fixed_time", final=((0.0, 1.0),))
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj), bounds)
        assert rep.res_3e[1] == 0.0

    def test_fixed_vs_free_constancy(self):
        # doubling the adjoint keeps H constant at 1 instead of 0: still a
        # fixed-time extremal, no longer a free-time one
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        scaled = pmp.AdjointCurve(grid=adj.grid.copy(), sigma0=-1.0,
                                  sigma=2.0 * adj.sigma)
        ex = pmp.Extremal(ext_traj, u, scaled)
        rep_fixed = pmp.check_pmp(sys, ex, pmp.BoundarySpec(mode="fixed_time"))
        rep_free = pmp.check_pmp(sys, ex, pmp.BoundarySpec(mode="free_time"))
        assert rep_fixed.res_3b < 1e-9
        assert rep_fixed.classification == "normal"
        assert rep_free.res_3b == pytest.approx(1.0, abs=1e-9)
        assert rep_free.classification == "undetermined"

    def test_wrong_control_large_gap(self):
        # swapping the bang order leaves a maximization gap of 2 max|p2|
        sys = double_integrator()
        u = ControlSignal(0.0, 2.0, (1.0,), ((-1.0,), (1.0,)))
        ext_traj = simulate(extend(sys), u, np.zeros(3), IntegratorConfig(step=0.01))
        grid = ext_traj.grid
        sigma = np.column_stack([np.ones_like(grid), 1.0 - grid])
        adj = pmp.AdjointCurve(grid=grid.copy(), sigma0=-1.0, sigma=sigma)
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj),
                            pmp.BoundarySpec(mode="free_time"))
        assert rep.res_3a == pytest.approx(2.0, abs=1e-9)
        assert rep.classification == "undetermined"

    def test_flipped_adjoint_flags_sign(self):
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        flipped = pmp.AdjointCurve(grid=adj.grid.copy(), sigma0=1.0,
                                   sigma=-adj.sigma)
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, flipped),
                            pmp.BoundarySpec(mode="free_time"))
        assert rep.res_3d[1] is False
        assert rep.classification == "undetermined"

    def test_grid_mismatch_raises(self):
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        bad = pmp.AdjointCurve(grid=adj.grid[:-1].copy(), sigma0=-1.0,
                               sigma=adj.sigma[:-1])
        with pytest.raises(ValueError, match="grid"):
            pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, bad),
                          pmp.BoundarySpec(mode="free_time"))

    def test_json_fields(self):
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj),
                            pmp.BoundarySpec(mode="free_time"))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"res_3a", "res_3b", "res_3c", "res_3d", "res_3e",
                            "classification", "tolerances"}
        assert doc["classification"] == "normal"
        assert doc["res_3d"][1] is True
        assert doc["tolerances"]["tol"] == 1e-6

    def test_bad_boundary_spec(self):
        with pytest.raises(ValueError):
            pmp.BoundarySpec(mode="sometimes")
        with pytest.raises(ValueError):
            pmp.BoundarySpec(mode="fixed_time",
                             final=((1.0, 0.0), (2.0, 0.0)))

    def test_basis_independence_takes_the_null_space_rank_rule(self):
        # the two vectors differ below null_space's 1e-12 relative rank
        # rule, which leaves them a line of annihilating covectors, not 0
        basis = ((1.0, 0.0), (1.0, 1e-13))
        assert null_space([np.array(w) for w in basis], 2).shape[1] == 1
        with pytest.raises(ValueError, match="linearly dependent"):
            pmp.BoundarySpec(mode="fixed_time", final=basis)


class TestInvariants:
    def test_cost_multiplier_constant_under_extended_lift(self):
        # integrating the cotangent lift of the extended field moves
        # (p0, p) together; the cost component never drifts
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        X = signal_field(extend(sys), u)
        cfg = IntegratorConfig(step=0.01)
        x_b = ext_traj.states[-1]
        p_b = np.concatenate(([adj.sigma0], adj.sigma[-1]))
        for t in (1.5, 1.0, 0.5, 0.0):
            _, p = cotangent_lift_flow(X, t, 2.0, x_b, p_b, cfg)
            assert abs(p[0] - adj.sigma0) < 1e-9
            i = int(np.argmin(np.abs(ext_traj.grid - t)))
            assert np.max(np.abs(p[1:] - adj.sigma[i])) < 1e-6

    def test_adjoint_pairs_constantly_with_transported_needles(self):
        # <sigma_hat(t), V[pi](t)> is conserved along the extremal for any
        # needle variation vector transported by the variational flow
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        ext = extend(sys)
        base_traj = ext_traj
        for t1, u1 in ((0.3, (-1.0,)), (0.7, (0.0,)), (1.4, (1.0,))):
            v = class1_vector(ext, base_traj, NeedleData(t1=t1, l1=1.0, u1=u1))
            i1 = int(np.argmin(np.abs(adj.grid - t1)))
            sig_hat = np.concatenate(([adj.sigma0], adj.sigma[i1]))
            ref = float(sig_hat @ v.vector)
            # the node state at t1 that class1_vector reads
            path, node = _event_path(ext, base_traj, [t1], None)
            for t in (t1 + 0.2, 1.7, 2.0):
                _, (moved,) = tangent_lift_flows(signal_field(ext, u), t, t1,
                                                 path.states[node[t1]], [v.vector],
                                                 IntegratorConfig(step=0.01))
                j = int(np.argmin(np.abs(adj.grid - t)))
                sig_t = np.concatenate(([adj.sigma0], adj.sigma[j]))
                assert abs(float(sig_t @ moved) - ref) < 1e-6

    def test_hamiltonian_flat_in_time(self):
        # grid finite differences of sup_u H stay small along the extremal
        sys, u, ext_traj, adj = bang_extremal(step=0.01)
        grid = ext_traj.grid
        states = ext_traj.states[:, 1:]
        vals = []
        for i in range(len(grid)):
            vals.append(pmp.maximize_hamiltonian(sys, adj.sigma0, adj.sigma[i],
                                                 states[i]).value)
        vals = np.array(vals)
        dt = np.diff(grid)
        keep = dt > 1e-12
        assert np.max(np.abs(np.diff(vals)[keep] / dt[keep])) < 1e-3


class TestTerminalCovector:
    def test_trivial_cone(self):
        sh = perturbations.terminal_covector_from_cone(GeneratedCone([], n=3))
        assert sh == pytest.approx([-1.0, 0.0, 0.0])

    def test_full_cone_has_no_covector(self):
        gens = [v for i in range(3) for v in (np.eye(3)[i], -np.eye(3)[i])]
        assert perturbations.terminal_covector_from_cone(GeneratedCone(gens, n=3)) is None

    def test_single_state_generator(self):
        g = np.array([0.0, 2.0, 1.0])
        sh = perturbations.terminal_covector_from_cone(GeneratedCone([g], n=3))
        assert sh[0] == -1.0
        assert float(sh @ g) <= 1e-9

    def test_downward_cost_ray_normalized(self):
        # a cone containing steep descent directions forces a nonzero
        # state covector
        gens = [np.array([-0.3, 0.0, -1.0])]
        basis = [np.array([1.0, 0.0])]
        sh = perturbations.terminal_covector_from_cone(GeneratedCone(gens, n=3), basis)
        assert sh[0] == -1.0
        assert abs(sh[1]) <= 1e-9
        assert float(sh @ gens[0]) <= 1e-9
        assert sh[2] >= 0.3 - 1e-9

    def test_degenerate_multiplier_fallback(self):
        # generators force sigma0 = 0; the state part still separates
        gens = [np.array([-1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        sh = perturbations.terminal_covector_from_cone(GeneratedCone(gens, n=3))
        assert sh is not None
        assert sh[0] == 0.0
        assert np.linalg.norm(sh[1:]) > 1e-9
        for g in gens:
            assert float(sh @ g) <= 1e-9

    def test_annihilates_final_basis(self):
        g = np.array([0.0, 2.0, 1.0])
        basis = [np.array([0.0, 1.0])]
        sh = perturbations.terminal_covector_from_cone(GeneratedCone([g], n=3), basis)
        assert abs(sh[2]) <= 1e-9

    # the LP's row duals y = (y+, y-), p = y+ - y- = 0, moved by one on the
    # entry that makes p positive on the generator, or not annihilate the
    # basis vector
    @pytest.mark.parametrize("basis, entry", [(None, 0), ([np.array([0.0, 1.0])], 3)])
    def test_damaged_stage_one_optimum_is_refused(self, monkeypatch, basis, entry):
        solve = perturbations.solve_standard

        def damaged(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.y[entry] += 1.0
            return res

        monkeypatch.setattr(perturbations, "solve_standard", damaged)
        g = np.array([0.0, 2.0, 1.0])
        with pytest.raises(ConeCertificateError, match="misses a generator"):
            perturbations.terminal_covector_from_cone(GeneratedCone([g], n=3), basis)


class TestClassify:
    def test_energy_problem_strictly_normal(self):
        sys = scalar_energy()
        u = constant_signal(0.0, 1.0, (0.0,))
        traj = simulate(sys, u, np.zeros(1), IntegratorConfig(step=0.01))
        res = perturbations.classify_extremal(sys, traj,
                                              pmp.BoundarySpec(mode="fixed_time"))
        assert res.classification == "strict_normal_certificate"
        assert res.normal_terminal == pytest.approx([0.0])
        assert res.abnormal_terminal is None
        # the probe controls' needles span R^1 with a margin
        assert "span R^1 with margin" in res.certificate

    def test_frozen_dynamics_abnormal(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: np.zeros(1),
                            control_set=box([-1.0], [1.0]),
                            F=lambda x, u: 1.0,
                            df_dx=lambda x, u: np.zeros((1, 1)),
                            dF_dx=lambda x, u: np.zeros(1))
        u = constant_signal(0.0, 1.0, (0.0,))
        traj = simulate(sys, u, np.zeros(1), IntegratorConfig(step=0.01))
        res = perturbations.classify_extremal(sys, traj,
                                              pmp.BoundarySpec(mode="free_time"))
        assert res.classification in ("abnormal", "strict_abnormal_certificate")
        assert res.abnormal_terminal is not None
        assert np.linalg.norm(res.abnormal_terminal) > 1e-9
        assert res.normal_terminal is None

    def test_time_optimal_bang_normal(self):
        sys = double_integrator()
        u = ControlSignal(0.0, 2.0, (1.0,), ((1.0,), (-1.0,)))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.005))
        res = perturbations.classify_extremal(sys, traj,
                                              pmp.BoundarySpec(mode="free_time"))
        assert res.classification in ("normal", "strict_normal_certificate")
        assert res.normal_terminal is not None
        # the separation recovers the analytic terminal covector (1, -1)
        assert res.normal_terminal == pytest.approx([1.0, -1.0], abs=1e-9)

    @pytest.mark.parametrize("switch", [0.7, 0.37])
    def test_abnormal_lift_at_any_switch(self, switch):
        # u = +1 then -1 on [0, 2] in fixed time: with p0 = 0 the switching
        # function p2(t) = p1 (2 - t) + p2 vanishes at the switch for p_b
        # proportional to (1, -(2 - switch)), at any switch time
        sys = double_integrator()
        u = ControlSignal(0.0, 2.0, (switch,), ((1.0,), (-1.0,)))
        cfg = IntegratorConfig(step=0.01)
        traj = simulate(sys, u, np.zeros(2), cfg)
        bounds = pmp.BoundarySpec(mode="fixed_time")
        res = perturbations.classify_extremal(sys, traj, bounds)
        p_b = res.abnormal_terminal
        assert p_b / p_b[0] == pytest.approx([1.0, -(2.0 - switch)], abs=1e-9)
        ext_traj = simulate(extend(sys), u, np.zeros(3), cfg)
        adj = pmp.adjoint_flow(sys, ext_traj.project(sys), 0.0, p_b)
        rep = pmp.check_pmp(sys, pmp.Extremal(ext_traj, u, adj), bounds, perturbations.CLASSIFY_TOL)
        assert rep.classification == "abnormal"

    def test_non_extremal_undetermined(self):
        # a gentle interior constant control is not a free-time extremal of
        # the minimum-time problem
        sys = double_integrator()
        u = constant_signal(0.0, 2.0, (0.3,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.01))
        res = perturbations.classify_extremal(sys, traj,
                                              pmp.BoundarySpec(mode="free_time"))
        assert res.classification == "undetermined"
        assert res.normal_terminal is None
        assert res.abnormal_terminal is None

    def test_attempts_recorded(self):
        sys = scalar_energy()
        u = constant_signal(0.0, 1.0, (0.0,))
        traj = simulate(sys, u, np.zeros(1), IntegratorConfig(step=0.02))
        res = perturbations.classify_extremal(sys, traj,
                                              pmp.BoundarySpec(mode="fixed_time"))
        # one attempt per separation
        assert len(res.attempts) == 2
        for att in res.attempts:
            assert set(att) == {"p0", "p_b", "feasible", "reason"}
            assert att["p0"] in (0.0, -1.0)

    def test_rejects_extended_system(self):
        sys = double_integrator()
        u = constant_signal(0.0, 1.0, (0.0,))
        traj = simulate(sys, u, np.zeros(2), IntegratorConfig(step=0.05))
        with pytest.raises(ValueError):
            perturbations.classify_extremal(extend(sys), traj,
                                            pmp.BoundarySpec(mode="fixed_time"))
