import os

import numpy as np
import pytest

from pmpkit.control_system import ControlSystem, ball, box, finite
from pmpkit import cli, pmp, shooting

from oracles import double_integrator_time_optimal, riccati_lqr_reference


def energy_system():
    # xdot = u with running cost u^2, unconstrained control
    return ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                         control_set=box([-np.inf], [np.inf]),
                         F=lambda x, u: float(u[0] ** 2),
                         df_dx=lambda x, u: np.zeros((1, 1)),
                         dF_dx=lambda x, u: np.zeros(1))


def double_integrator():
    return ControlSystem(m=2, k=1,
                         f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]),
                         F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2))


def lqr_system():
    return ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                         control_set=box([-np.inf], [np.inf]),
                         F=lambda x, u: float(x[0] ** 2 + u[0] ** 2),
                         df_dx=lambda x, u: np.zeros((1, 1)),
                         dF_dx=lambda x, u: np.array([2.0 * x[0]]))


@pytest.fixture(scope="module")
def bang_result():
    prob = shooting.ShootingProblem(
        sys=double_integrator(), bounds=pmp.BoundarySpec(mode="free_time"),
        p0=-1.0, x_a=[1.0, 0.0], x_b=[0.0, 0.0], a=0.0, b=3.0)
    res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.02))
    return prob, res


@pytest.fixture(scope="module")
def lqr_result():
    bounds = pmp.BoundarySpec(mode="fixed_time", final=((1.0,),))
    prob = shooting.ShootingProblem(sys=lqr_system(), bounds=bounds, p0=-1.0,
                                    x_a=[1.0], x_b=[0.0], a=0.0, b=1.0)
    res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=1e-3))
    return prob, res


class TestTrivial:
    def test_zero_is_fixed_point(self):
        prob = shooting.ShootingProblem(
            sys=energy_system(), bounds=pmp.BoundarySpec(mode="fixed_time"),
            p0=-1.0, x_a=[0.0], x_b=[0.0], a=0.0, b=1.0)
        res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.01))
        assert res.converged
        assert res.residual_norm <= 1e-12
        assert res.iterations == 0
        assert res.extremal.ext_traj.states[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(res.extremal.adjoint.sigma)) < 1e-12

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            shooting.ShootingProblem(
                sys=energy_system(), bounds=pmp.BoundarySpec(mode="fixed_time"),
                p0=-0.5, x_a=[0.0], x_b=[0.0])
        with pytest.raises(ValueError):
            shooting.ShootingProblem(
                sys=energy_system(), bounds=pmp.BoundarySpec(mode="fixed_time"),
                p0=-1.0, x_a=[0.0, 0.0], x_b=[0.0])
        with pytest.raises(ValueError):
            shooting.ShootingProblem(
                sys=energy_system(), bounds=pmp.BoundarySpec(mode="fixed_time"),
                p0=-1.0, x_a=[0.0], x_b=[0.0], a=1.0, b=1.0)

    def test_guess_dimension_checked(self):
        prob = shooting.ShootingProblem(
            sys=energy_system(), bounds=pmp.BoundarySpec(mode="fixed_time"),
            p0=-1.0, x_a=[0.0], x_b=[0.0])
        with pytest.raises(ValueError):
            shooting.shoot(prob, guess=[0.0, 0.0])


class TestBangBang:
    def test_minimum_time_and_switch(self, bang_result):
        t_star, t_switch = double_integrator_time_optimal(1.0)
        _, res = bang_result
        assert res.converged
        assert abs(res.extremal.control.b - t_star) <= 1e-3
        ss = shooting.switching_structure(res.extremal)
        assert len(ss.switch_times) == 1
        assert abs(ss.switch_times[0] - t_switch) <= 1e-3
        assert ss.arc_labels == ("u=-1", "u=+1")

    def test_checker_cross_validation(self, bang_result):
        prob, res = bang_result
        rep = pmp.check_pmp(prob.sys, res.extremal, prob.bounds)
        tol10 = 10.0 * 1e-6
        assert rep.res_3a <= tol10
        assert rep.res_3b <= tol10
        assert rep.res_3c > 0.1
        assert rep.res_3e[0] <= tol10 and rep.res_3e[1] <= tol10
        assert rep.classification == "normal"

    def test_hamiltonian_flat_on_grid(self, bang_result):
        # free-time solutions keep sup_u H below 1e-5 everywhere
        prob, res = bang_result
        adj = res.extremal.adjoint
        states = res.extremal.ext_traj.states[:, 1:]
        for i in range(0, len(adj.grid), 7):
            val = pmp.maximize_hamiltonian(prob.sys, adj.sigma0, adj.sigma[i],
                                           states[i]).value
            assert abs(val) < 1e-5

    def test_square_system(self, bang_result):
        prob, res = bang_result
        assert prob.n_unknowns == 3
        assert res.jacobian_rank == 3


class TestLqr:
    def test_matches_riccati_oracle(self, lqr_result):
        _, res = lqr_result
        assert res.converged
        traj = res.extremal.ext_traj
        x_or, p_or = riccati_lqr_reference(traj.grid)
        assert np.max(np.abs(traj.states[:, 1] - x_or)) < 1e-4
        assert np.max(np.abs(res.extremal.adjoint.sigma[:, 0] - p_or)) < 1e-4

    def test_transversality_at_free_endpoint(self, lqr_result):
        _, res = lqr_result
        assert abs(res.extremal.adjoint.sigma[-1, 0]) < 1e-6

    def test_checker_cross_validation(self, lqr_result):
        prob, res = lqr_result
        rep = pmp.check_pmp(prob.sys, res.extremal, prob.bounds)
        assert rep.res_3a <= 1e-5
        assert rep.res_3b <= 1e-5
        assert rep.res_3e[1] <= 1e-5
        assert rep.classification == "normal"

    def test_smooth_control_has_no_switches(self, lqr_result):
        _, res = lqr_result
        ss = shooting.switching_structure(res.extremal)
        assert ss.switch_times == ()
        assert len(ss.arc_labels) == 1

    def test_fd_jacobian_two_step_consistency(self, lqr_result):
        # the residual Jacobian is robust to the finite-difference step
        prob, res = lqr_result
        opts = shooting.ShootingOptions(step=1e-3)
        z = np.array([res.extremal.adjoint.sigma[0, 0]])
        R0 = shooting.boundary_residual(prob, z, opts)
        Js = []
        for h in (1e-5, 1e-6):
            J = np.zeros((len(R0), len(z)))
            for j in range(len(z)):
                zp = z.copy()
                zp[j] += h * (1.0 + abs(z[j]))
                Rp = shooting.boundary_residual(prob, zp, opts)
                J[:, j] = (Rp - R0) / (h * (1.0 + abs(z[j])))
            Js.append(J)
        scale = np.max(np.abs(Js[0]))
        assert np.allclose(Js[0], Js[1], rtol=5e-2, atol=1e-4 * scale)


class TestManifoldStart:
    def test_free_initial_point(self):
        # start anywhere on R, land on x(1) = 1 with least energy: the
        # solution starts at 1 and stays (p(0) = 0 forces u = 0)
        bounds = pmp.BoundarySpec(mode="fixed_time", initial=((1.0,),))
        prob = shooting.ShootingProblem(sys=energy_system(), bounds=bounds,
                                        p0=-1.0, x_a=[0.0], x_b=[1.0],
                                        a=0.0, b=1.0)
        assert prob.n_unknowns == 2
        res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.01))
        assert res.converged
        base = res.extremal.ext_traj.states[:, 1]
        assert base[0] == pytest.approx(1.0, abs=1e-6)
        assert res.extremal.ext_traj.states[-1, 0] < 1e-9


class TestDiagnostics:
    def test_rank_deficiency_reported(self):
        # frozen dynamics with p0 = 0: the residual is constant in the
        # unknowns, every direction is null
        deg = ControlSystem(m=1, k=1, f=lambda x, u: np.zeros(1),
                            control_set=box([-1.0], [1.0]),
                            F=lambda x, u: 1.0,
                            df_dx=lambda x, u: np.zeros((1, 1)),
                            dF_dx=lambda x, u: np.zeros(1))
        prob = shooting.ShootingProblem(
            sys=deg, bounds=pmp.BoundarySpec(mode="free_time"), p0=0.0,
            x_a=[0.5], x_b=[0.5], a=0.0, b=1.0)
        res = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.05))
        assert res.converged
        assert res.jacobian_rank == 0
        assert res.n_unknowns == 2

    def test_non_convergence_flagged(self):
        # target outside the reachable set: |x(1)| <= 1 < 5
        sat = ControlSystem(m=1, k=1, f=lambda x, u: np.array([u[0]]),
                            control_set=box([-1.0], [1.0]),
                            F=lambda x, u: 1.0,
                            df_dx=lambda x, u: np.zeros((1, 1)),
                            dF_dx=lambda x, u: np.zeros(1))
        prob = shooting.ShootingProblem(
            sys=sat, bounds=pmp.BoundarySpec(mode="fixed_time"), p0=-1.0,
            x_a=[0.0], x_b=[5.0], a=0.0, b=1.0)
        res = shooting.shoot(prob, opts=shooting.ShootingOptions(
            step=0.05, max_iter=6, n_starts=2, scales=(1.0,)))
        assert not res.converged
        assert res.residual_norm > 1.0
        assert res.extremal is not None

    def test_deterministic_reruns(self, bang_result):
        prob, res = bang_result
        res2 = shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.02))
        assert res2.residual_norm == res.residual_norm
        assert res2.extremal.control.b == res.extremal.control.b
        assert np.array_equal(res2.extremal.adjoint.sigma, res.extremal.adjoint.sigma)


class TestTrialFailures:
    """A numerical failure ends one propagation; an error raised by the
    user's callables propagates as itself instead of reading as a blow-up."""

    @staticmethod
    def problem(f, x_a=(1.0, 0.0)):
        sys = ControlSystem(m=2, k=1, f=f, control_set=box([-1.0], [1.0]),
                            F=lambda x, u: 1.0)
        return shooting.ShootingProblem(
            sys=sys, bounds=pmp.BoundarySpec(mode="free_time"),
            p0=-1.0, x_a=x_a, x_b=[0.0, 0.0], a=0.0, b=3.0)

    def test_type_error_in_dynamics_surfaces(self):
        def f(x, u):
            raise TypeError("bad dynamics")

        with pytest.raises(TypeError, match="bad dynamics"):
            shooting.shoot(self.problem(f), opts=shooting.ShootingOptions(step=0.1))

    def test_wrong_shape_dynamics_surfaces(self):
        prob = self.problem(lambda x, u: np.array([x[1], u[0], 0.0]))
        with pytest.raises(ValueError):
            shooting.shoot(prob, opts=shooting.ShootingOptions(step=0.1))

    def test_unsupported_maximization_ends_only_its_trial(self):
        # x' = u in R^4 with cost u.Q.u / 2 and a coupled Q: H is a concave
        # quadratic whose maximizer Q^-1 p leaves the box [-1, 1]^4 for the
        # guess, which needs grid refinement over 4 controls; the zero
        # covector starts next and converges to the interior control x_b
        Q = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
        sys = ControlSystem(m=4, k=4, f=lambda x, u: u, control_set=box([-1.0] * 4, [1.0] * 4),
                            F=lambda x, u: 0.5 * float(u @ Q @ u), u_degree=2)
        x_b = np.array([0.2, -0.1, 0.3, 0.1])
        prob = shooting.ShootingProblem(sys=sys, bounds=pmp.BoundarySpec(mode="fixed_time"),
                                        p0=-1.0, x_a=np.zeros(4), x_b=x_b, a=0.0, b=1.0)
        opts = shooting.ShootingOptions(step=0.25)
        guess = np.full(4, 10.0)
        with pytest.raises(pmp.UnsupportedMaximizationError):
            pmp.maximize_hamiltonian(sys, -1.0, guess, np.zeros(4))
        assert shooting._propagate(prob, guess, opts, 0.25) is None
        res = shooting.shoot(prob, guess=guess, opts=opts)
        assert res.converged
        np.testing.assert_allclose(res.extremal.control.value_at(0.5), x_b, atol=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", ([np.inf, 1.0, 2.0], [1.0, np.inf, 2.0]))
    def test_first_maximization_ignores_invalid_values_as_every_step_does(self, z):
        # an infinite initial costate makes p . f NaN at the first
        # maximization: numpy stays as quiet there as at every later state,
        # and the trial fails
        problem = cli.load_problem(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                "golden", "min_time_double_integrator",
                                                "problem.json"))
        prob = shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary,
                                        p0=problem.p0, x_a=problem.x_a, x_b=problem.x_b,
                                        a=problem.a, b=problem.b)
        opts = shooting.ShootingOptions(step=problem.step)
        assert shooting._propagate(prob, np.array(z), opts, problem.step) is None

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("value", (np.nan, -np.inf))
    def test_hamiltonian_nowhere_above_minus_inf_ends_the_trial(self, value):
        # H is NaN (or -inf) at every control where x0 < 0.5, the start
        # included: the finite box has no grid point to refine around, and
        # the trial fails
        def f(x, u):
            return np.array([x[1], u[0] if x[0] > 0.5 else value])

        prob = self.problem(f, x_a=(0.2, 0.0))
        opts = shooting.ShootingOptions(step=0.1)
        assert shooting._propagate(prob, np.array([1.0, 1.0, 2.0]), opts, 0.1) is None
        with pytest.raises(shooting.ShootingFailure):
            shooting.shoot(prob, opts=opts)


@pytest.mark.parametrize("U, tol", ((box([-1.0, 0.0], [1.0, np.inf]), 0.1),
                                    (ball([0.0, 1.0], 2.0), 0.2),
                                    (finite([[0.5]]), 1e-9)), ids=repr)
def test_jump_tolerance_is_kept_with_the_control_set(U, tol):
    assert shooting._auto_jump_tol(U) == tol
    assert U.__dict__["_jump_tol"] == tol


def test_finite_set_keeps_its_jump_tolerance_from_read_only_copies():
    # rows of a caller's array made the points: the set copies them, so the
    # tolerance kept with it cannot go stale
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    U = finite(pts)
    assert shooting._auto_jump_tol(U) == 0.5
    pts[1] = 0.0
    assert shooting._auto_jump_tol(U) == 0.5
    assert all(not p.flags.writeable for p in U.points)
    with pytest.raises(ValueError):
        U.points[0][0] = 1.0
