"""Independent brute-force oracles for the test suite.

Everything here is written against the mathematics directly (angle sweeps,
cross products, textbook ODE solutions, scipy integrators) and never calls
into the package's LP or RK4 code, so these functions can serve as
cross-checks for the implementations.  Two exceptions keep an earlier
form of a package routine as its reference: `adjoint_flow_loop`, the plain
per-stage form of `pmp.adjoint_flow` (bit for bit), `tangent_lift_stacked`
and `needle_vector_stacked`, the per-vector lift of the stacked (x, v)
that the shared needle lift replaced (bit for bit), and
`membership_margin_bisect`, the bisection form of
`cone_geometry.membership_margin`.
"""
import numpy as np


def _angles(vectors):
    return [float(np.arctan2(g[1], g[0])) for g in vectors]


def sweep_separation_candidates_2d(G1, G2, eps=1e-6, dense=2048):
    """Candidate separating normals: generator angles rotated by multiples of
    pi/2, each nudged by +-eps, plus a dense sweep."""
    cand = []
    for th in _angles(list(G1) + list(G2)):
        for quarter in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi):
            for d in (0.0, eps, -eps):
                cand.append(th + quarter + d)
    cand.extend(2.0 * np.pi * np.arange(dense) / dense)
    return [np.array([np.cos(a), np.sin(a)]) for a in cand]


def separated_2d(G1, G2, tol=1e-9):
    """Brute-force separation verdict for cone pairs in R^2.

    Separated iff some candidate unit normal alpha has alpha.g <= tol for all
    of G1 and alpha.g >= -tol for all of G2.  The candidate set contains every
    exact generator perpendicular, which pins down isolated separators.
    """
    if not G1 and not G2:
        return True  # two copies of {0}: any hyperplane contains both
    for alpha in sweep_separation_candidates_2d(G1, G2):
        if all(alpha @ g <= tol for g in G1) and all(alpha @ g >= -tol for g in G2):
            return True
    return False


def separated_3d(G1, G2, tol=1e-9):
    """Brute-force separation verdict for cone pairs in R^3.

    A separating normal of cone(G1 u -G2) != R^3 is either orthogonal to the
    span (rank-deficient case) or normal to a facet, and every facet of a
    finitely generated cone contains two independent generators, so the
    candidate list of all pair cross products plus null-space directions is
    exhaustive.
    """
    D = [np.asarray(g, float) for g in G1] + [-np.asarray(g, float) for g in G2]
    if not D:
        return True
    A = np.array(D)
    cand = []
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    for j in range(rank, 3):
        cand.append(Vt[j])
        cand.append(-Vt[j])
    for i in range(len(D)):
        for j in range(i + 1, len(D)):
            c = np.cross(D[i], D[j])
            nc = np.linalg.norm(c)
            if nc > 1e-12:
                cand.append(c / nc)
                cand.append(-c / nc)
    scale = max(1.0, max(np.linalg.norm(g) for g in D))
    for alpha in cand:
        if all(alpha @ g <= tol * scale for g in D):
            # alpha supports the difference cone, hence separates the pair
            return True
    return False


def membership_2d(G, v, tol=1e-9, dense=4096):
    """Brute-force closed-cone membership in R^2 via a dense polar sample.

    v is in the closed cone iff every sampled polar direction also pairs
    nonpositively with v.  Reliable away from the boundary at sweep
    resolution; callers should avoid adversarially thin queries.
    """
    if not G:
        return bool(np.linalg.norm(v) <= tol)
    scale = max(1.0, max(np.linalg.norm(g) for g in G))
    for alpha in sweep_separation_candidates_2d(G, [], dense=dense):
        if all(alpha @ g <= 1e-10 * scale for g in G) and alpha @ v > tol * max(1.0, np.linalg.norm(v)):
            return False
    return True


def facet_margin(G, v, Q, cap, eps=1e-10):
    """Largest r <= cap with v +- r q in cone(G) for every column q of Q.

    For a pointed full-dimensional cone in R^2 or R^3, read off its facet
    inequalities.  Every facet contains n - 1 independent generators, so its
    inward normal is a perpendicular (R^2) or a pair cross product (R^3) of
    generators that every generator pairs nonnegatively with.
    """
    G = np.asarray(G, float)
    n = G.shape[1]
    if n == 2:
        C = np.column_stack([-G[:, 1], G[:, 0]])
    elif n == 3:
        i, j = np.triu_indices(len(G), k=1)
        C = np.cross(G[i], G[j])
    else:
        raise ValueError("facet margin supports n = 2 and 3 only")
    norms = np.linalg.norm(C, axis=1)
    C = C[norms > 1e-12] / norms[norms > 1e-12, None]
    C = np.vstack([C, -C])
    Gu = G / np.linalg.norm(G, axis=1)[:, None]
    N = C[np.all(C @ Gu.T >= -eps, axis=1)]
    slack = N @ np.asarray(v, float)
    out = cap
    for q in np.asarray(Q, float).T:
        for d in (q, -q):
            rate = N @ d
            leaving = rate < 0
            if np.any(leaving):
                out = min(out, float(np.min(slack[leaving] / -rate[leaving])))
    return out


def membership_margin_bisect(cone, v, tol=1e-9, cap=None):
    """`membership_margin` as a 40-step bisection per +-q direction.

    Accepts r when `cone_residual(v + r d) <= tol`, so it may overshoot the
    exact margin by the distance a residual of tol allows.
    """
    from pmpkit.cone_geometry import cone_residual

    v = np.asarray(v, float)
    if cone_residual(cone, v, tol) > tol:
        return 0.0
    Q = cone.span_basis()
    if Q.shape[1] == 0:
        return np.inf
    if cap is None:
        cap = max(1.0, float(np.linalg.norm(v)))
    out = np.inf
    for j in range(Q.shape[1]):
        for sgn in (1.0, -1.0):
            d = sgn * Q[:, j]
            lo, hi = 0.0, cap
            if cone_residual(cone, v + hi * d, tol) <= tol:
                out = min(out, hi)
                continue
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if cone_residual(cone, v + mid * d, tol) <= tol:
                    lo = mid
                else:
                    hi = mid
            out = min(out, lo)
    return out


def riccati_lqr_reference(ts):
    """Scalar LQR oracle: dx = u, cost x^2 + u^2, x(0)=1, x(1) free, T=1.

    Integrates the Riccati equation dP/dt = P^2 - 1, P(1) = 0 backwards with
    scipy, then the closed-loop state dx = -P x forwards.  Returns (x, p)
    sampled on ts, with the adjoint p = -2 P x.  Closed forms for
    verification: P(t) = tanh(1-t), x(t) = cosh(1-t)/cosh(1).
    """
    from scipy.integrate import solve_ivp

    ts = np.asarray(ts, float)
    sol_P = solve_ivp(lambda t, P: P * P - 1.0, (1.0, 0.0), [0.0],
                      dense_output=True, rtol=1e-12, atol=1e-14)
    P = lambda t: sol_P.sol(t)[0]
    sol_x = solve_ivp(lambda t, x: -P(t) * x, (0.0, 1.0), [1.0],
                      dense_output=True, rtol=1e-12, atol=1e-14)
    xs = np.array([sol_x.sol(t)[0] for t in ts])
    ps = np.array([-2.0 * P(t) * sol_x.sol(t)[0] for t in ts])
    return xs, ps


def double_integrator_time_optimal(d=1.0):
    """Analytic bang-bang oracle for (d, 0) -> (0, 0) with |u| <= 1.

    Minimum time 2 sqrt(d), control u = -1 then +1 with the switch at
    sqrt(d).  Returns (t_star, t_switch)."""
    return 2.0 * np.sqrt(d), np.sqrt(d)


def variation_of_constants(A, b, t, x0):
    """Endpoint of dx = A x + b at time t from x0 via the matrix exponential."""
    from scipy.linalg import expm

    A = np.asarray(A, float)
    n = A.shape[0]
    # augmented system [[A, b], [0, 0]] integrates the affine field exactly
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = np.asarray(b, float)
    E = expm(M * t)
    aug = np.append(np.asarray(x0, float), 1.0)
    return (E @ aug)[:n]


def adjoint_flow_loop(sys, traj, p0, p_b):
    """Backward RK4 adjoint with `state_at` and the linearization per stage.

    The straightforward loop that `pmp.adjoint_flow` shortens by sharing
    evaluations at equal inputs; both must return the same sigma bit for
    bit.
    """
    p = np.asarray(p_b, dtype=float).ravel()
    grid = traj.grid
    n = len(grid)
    sigma = np.empty((n, sys.m))
    sigma[n - 1] = p
    for i in range(n - 1, 0, -1):
        t1, t0 = float(grid[i]), float(grid[i - 1])
        h = t0 - t1
        uval = traj.control.value_at(0.5 * (t0 + t1))

        def rhs(t, q):
            xx = traj.state_at(t)
            return -p0 * sys.cost_grad_x(xx, uval) - sys.jac_x(xx, uval).T @ q

        k1 = rhs(t1, p)
        k2 = rhs(t1 + 0.5 * h, p + 0.5 * h * k1)
        k3 = rhs(t1 + 0.5 * h, p + 0.5 * h * k2)
        k4 = rhs(t0, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sigma[i - 1] = p
    return sigma


def tangent_lift_stacked(X, t, s, x0, v0, cfg=None):
    """(x(t), v(t)) of the complete lift as one RK4 path of y = (x, v) with
    y' = (X(x), dX/dx v), on the package's integration grid."""
    from pmpkit.flows import integration_grid

    m = X.dim

    def f(tt, y):
        x = y[:m]
        return np.concatenate([np.asarray(X.eval(tt, x)), X.jac(tt, x) @ y[m:]])

    grid = integration_grid(s, t, cfg)
    y = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    for i in range(len(grid) - 1):
        t0 = grid[i]
        h = grid[i + 1] - t0
        k1 = f(t0, y)
        k2 = f(t0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[:m], y[m:]


def needle_vector_stacked(sys, traj, tau, u1, t, cfg=None):
    """The unit-rate class-I vector of the needle (tau, u1), transported to t
    on its own by `tangent_lift_stacked` along traj, the grid also hitting
    the control's switch times."""
    from pmpkit.flows import IntegratorConfig, TimeVectorField

    u = traj.control
    x = traj.state_at(tau)
    v = 1.0 * (sys.dynamics(x, np.asarray(u1, float)) - sys.dynamics(x, u.value_at(tau)))
    if t == tau:
        return v
    cfg = cfg or IntegratorConfig()
    merged = IntegratorConfig(step=cfg.step,
                              event_times=tuple(cfg.event_times) + tuple(u.switch_times))
    X = TimeVectorField(sys.m, lambda tt, xx: sys.dynamics(xx, u.value_at(tt)),
                        lambda tt, xx: sys.jac_x(xx, u.value_at(tt)))
    return tangent_lift_stacked(X, t, tau, traj.state_at(tau), v, merged)[1]
