"""Hamiltonian maximization, adjoint flow, condition checks, classification.

The Hamiltonian of a control system with cost rate F is
H(p0, p, x, u) = p0 F(x, u) + p . f(x, u) with a constant p0 <= 0.  A
candidate trajectory is an extremal when an adjoint curve exists making the
reference control a pointwise maximizer of H, keeping H constant in time
(zero, when the final time is free), with (p0, p) never vanishing and p
annihilating the tangent spaces of the boundary manifolds.  `check_pmp`
measures all of these as residuals on the integration grid;
`classify_extremal` searches terminal covectors for admissible lifts with
p0 = -1 and p0 = 0 separately, emitting strict certificates only when the
complementary search space is provably exhausted.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cone_geometry import (
    GeneratedCone,
    _checked_hyperplane,
    null_space,
    rank_split,
    supporting_hyperplane,
    unit_directions,
)
from .control_system import (
    ControlSignal,
    ControlSystem,
    ExtendedTrajectory,
    Trajectory,
    extend,
    simulate,
)
from .flows import FlowBlowUpError, IntegratorConfig, _all_finite, _recorded_step, rk4_step
from ._simplex import linprog_dense


class UnboundedHamiltonianError(RuntimeError):
    """The Hamiltonian grows without bound along a ray of the control set."""


class UnsupportedMaximizationError(RuntimeError):
    """The maximizer has no method for this Hamiltonian on this control set.

    Whether it is raised depends on p and x (a coupled quadratic model that
    is concave at one costate and not at another), so shooting treats it as
    the failure of one propagation."""


@dataclass
class AdjointCurve:
    """Adjoint covector per grid node, with the constant cost multiplier."""

    grid: np.ndarray
    sigma0: float
    sigma: np.ndarray


@dataclass
class Extremal:
    ext_traj: ExtendedTrajectory
    control: ControlSignal
    adjoint: AdjointCurve


@dataclass
class BoundarySpec:
    """Endpoint conditions: fixed or free final time, point or manifold ends.

    `initial` and `final` are None for point constraints, or a tuple of
    linearly independent tangent vectors for a manifold constraint.
    """

    mode: str
    initial: Optional[Tuple[np.ndarray, ...]] = None
    final: Optional[Tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        if self.mode not in ("fixed_time", "free_time"):
            raise ValueError("mode must be fixed_time or free_time")
        for name in ("initial", "final"):
            basis = getattr(self, name)
            if basis is None:
                continue
            vecs = tuple(np.asarray(w, dtype=float).ravel() for w in basis)
            # the rank rule of null_space, which the basis feeds
            if vecs and rank_split(np.vstack(vecs))[1] < len(vecs):
                raise ValueError(f"{name} tangent basis is linearly dependent")
            object.__setattr__(self, name, vecs)


@dataclass
class PMPReport:
    """Condition residuals; see check_pmp for what each one measures."""

    res_3a: float
    res_3b: float
    res_3c: float
    res_3d: Tuple[float, bool]
    res_3e: Tuple[float, float]
    classification: str
    tol: float

    def to_json(self) -> str:
        return json.dumps({
            "res_3a": self.res_3a,
            "res_3b": self.res_3b,
            "res_3c": self.res_3c,
            "res_3d": [self.res_3d[0], bool(self.res_3d[1])],
            "res_3e": list(self.res_3e),
            "classification": self.classification,
            "tolerances": {"tol": self.tol},
        })


def hamiltonian(sys: ControlSystem, p0: float, p, x, u) -> float:
    """p0 F(x, u) + p . f(x, u); with p0 = 0 the cost plays no role."""
    p = np.asarray(p, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if p.size != sys.m or x.size != sys.m:
        raise ValueError("dimension mismatch")
    return float(p0) * sys.cost_rate(x, u) + float(p @ sys.dynamics(x, u))


# the maximizer's constants: the exact-fit test's relative tolerance, and
# the points per axis and final cell width of grid refinement
FIT_TOL = 1e-9
GRID_POINTS = 9
GRID_RESOLUTION = 1e-6


@dataclass
class MaximizationResult:
    u_star: np.ndarray
    value: float


def _pick_best(cands, H):
    best_u, best_v = None, -np.inf
    for u in cands:
        v = H(u)
        if v > best_v:
            best_u, best_v = np.asarray(u, dtype=float), v
    return best_u, best_v


def _read_only(a):
    a.flags.writeable = False
    return a


class _Probes:
    """Where the quadratic fit evaluates H; fixed by the control set.

    u0 is the centre and delta the step of each axis.  The probes are the
    arrays u0 + e and u0 - e, and that arithmetic sets the sign of a zero
    where u0 holds -0.0 (-0.0 + 0.0 is +0.0); they are kept read-only.
    Per-axis values are numpy float64 scalars: a square that overflows or a
    division by an underflowed step gives inf or nan, where Python floats
    would raise.
    """

    def __init__(self, u0, delta):
        k = u0.size
        self.k = k
        self.u0 = _read_only(u0)
        self.u0_axes = tuple(u0)
        self.delta = tuple(delta)
        self.live = tuple(j for j in range(k) if delta[j] > 0)

        def step(*axes):
            e = np.zeros(k)
            for j in axes:
                e[j] = delta[j]
            return e

        self.axis = {j: (_read_only(u0 + step(j)), _read_only(u0 - step(j)))
                     for j in self.live}
        self.pairs = tuple((i, j, _read_only(u0 + step(i, j)))
                           for i, j in itertools.combinations(self.live, 2))
        # the points that test the fit, each with its offset from u0
        self.checks = []
        for coeffs in ((0.37,) * k, (-0.61,) * k,
                       tuple(0.5 if j % 2 == 0 else -0.5 for j in range(k))):
            probe = u0 + np.array(coeffs) * delta
            self.checks.append((_read_only(probe), _read_only(probe - u0)))


def _probes(U) -> _Probes:
    """The fit's probes of the box or ball U, made on first use and kept on U."""
    probes = U.__dict__.get("_probes")
    if probes is not None:
        return probes
    if U.kind == "ball":
        k = U.center.size
        probes = _Probes(U.center.copy(), np.full(k, max(U.radius, 1.0) / 4.0))
    else:
        lo, hi = U.lo, U.hi
        k = lo.size
        u0 = np.empty(k)
        delta = np.empty(k)
        for j in range(k):
            if np.isfinite(lo[j]) and np.isfinite(hi[j]):
                u0[j] = 0.5 * (lo[j] + hi[j])
                delta[j] = (hi[j] - lo[j]) / 4.0
            elif np.isfinite(lo[j]):
                u0[j], delta[j] = lo[j] + 1.0, 1.0
            elif np.isfinite(hi[j]):
                u0[j], delta[j] = hi[j] - 1.0, 1.0
            else:
                u0[j], delta[j] = 0.0, 1.0
        probes = _Probes(u0, delta)
        probes.lo, probes.hi = tuple(lo), tuple(hi)
    # ControlSet is frozen; the probes are derived data, not a field
    U.__dict__["_probes"] = probes
    return probes


def _absmax(*groups) -> float:
    """float(np.max(np.abs(.))) over the scalars of groups: NaN wherever a
    NaN stands, and an error when there are none."""
    top = None
    for group in groups:
        for v in group:
            v = abs(v)
            if v != v:
                return math.nan
            if top is None or v > top:
                top = v
    if top is None:
        raise ValueError("zero-size array to reduction operation maximum")
    return float(top)


def _matrix(a, mixed):
    A = np.diag(a)
    for (i, j), v in mixed.items():
        A[i, j] = A[j, i] = v
    return A


def _fit_quadratic(H, probes: _Probes, fit_tol, verify=True):
    """Exact-fit quadratic model at the probes, or None if H is not quadratic.

    Returns (b, a, mixed): the gradient and the Hessian diagonal per axis
    (0.0 on an axis of zero width) and the Hessian entries of the live axis
    pairs by (i, j), at u0.  verify=False skips the three probes that
    test the fit, for an H known to be at most quadratic in u.
    """
    k = probes.k
    delta = probes.delta
    f0 = H(probes.u0)
    b = [0.0] * k
    a = [0.0] * k
    up = {}
    for j in probes.live:
        plus, minus = probes.axis[j]
        fp, fm = H(plus), H(minus)
        b[j] = (fp - fm) / (2.0 * delta[j])
        a[j] = (fp - 2.0 * f0 + fm) / delta[j] ** 2
        up[j] = fp
    mixed = {(i, j): (H(u) - up[i] - up[j] + f0) / (delta[i] * delta[j])
             for i, j, u in probes.pairs}
    if not verify:
        return b, a, mixed

    # numpy's dot may fuse a multiply and an add, so the model is
    # evaluated by the same dot products it was fitted for
    bv, A = np.array(b), _matrix(a, mixed)

    def model(d):
        return f0 + bv @ d + 0.5 * d @ A @ d

    scale = 1.0 + abs(f0) + _absmax(b) + _absmax(a, mixed.values())
    for probe, d in probes.checks:
        if abs(H(probe) - model(d)) > fit_tol * scale:
            return None
    return b, a, mixed


def _clip(v, lo, hi):
    """np.clip of one value: a NaN anywhere passes through, and a value equal
    to a bound is kept with its own sign of zero."""
    v = v if v >= lo or v != v else lo
    return v if v <= hi or v != v else hi


def _axis_max(b, a, lo, hi, u0j, tol):
    """Maximize b t + a t^2 / 2 for u0j + t in [lo, hi]; returns the u value."""
    if abs(a) <= tol:
        if b > tol:
            if math.isinf(hi):
                raise UnboundedHamiltonianError("linear growth toward +inf")
            return hi
        if b < -tol:
            if math.isinf(lo):
                raise UnboundedHamiltonianError("linear growth toward -inf")
            return lo
        if math.isfinite(lo):
            return lo
        if math.isfinite(hi):
            return hi
        return u0j
    if a < 0:
        return float(_clip(u0j - b / a, lo, hi))
    # convex axis: maximum at an endpoint
    if math.isinf(lo) or math.isinf(hi):
        raise UnboundedHamiltonianError("convex growth on an unbounded axis")
    tl, th = lo - u0j, hi - u0j
    return lo if b * tl + 0.5 * a * tl * tl >= b * th + 0.5 * a * th * th else hi


def _grid_refine(H, lo, hi):
    if lo.size > 3:
        raise UnsupportedMaximizationError(
            "grid refinement supports at most 3 control dimensions")
    cur_lo, cur_hi = lo.copy(), hi.copy()
    g = GRID_POINTS
    best = None
    for _ in range(60):
        axes = [np.linspace(cur_lo[j], cur_hi[j], g) for j in range(lo.size)]
        best_u, best_v = None, -np.inf
        for combo in itertools.product(*axes):
            u = np.array(combo)
            v = H(u)
            if v > best_v:
                best_u, best_v = u, v
        best = best_u, best_v
        cell = (cur_hi - cur_lo) / (g - 1)
        # with no H above -inf on the grid there is nothing to refine
        # around: u_star is None, as `_pick_best` returns it
        if np.max(cell) <= GRID_RESOLUTION or best_u is None:
            return best
        cur_lo = np.maximum(lo, best_u - cell)
        cur_hi = np.minimum(hi, best_u + cell)
    return best


def _maximizer(sys: ControlSystem, p0: float):
    """The one Hamiltonian maximizer, bound to sys and p0: maximize(p, x) of
    p and x lists of floats, unchecked, is (u_star, H, value), with H bound
    to p and x as `hamiltonian` computes it and value H(u_star) if the search
    evaluated it, else None."""
    p0f, rate, F, fit_tol = float(p0), sys._rate, sys.F, FIT_TOL
    verify = sys.u_degree is None or sys.u_degree > 2
    U = sys.control_set
    probes = None if U.kind == "finite" else _probes(U)
    if U.kind == "finite":
        def search(H):
            return _pick_best(U.points, H)

    elif U.kind == "ball":
        c, R = U.center, U.radius

        def search(H):
            fit = _fit_quadratic(H, probes, fit_tol, verify)
            if fit is not None:
                b, a, mixed = fit
                curvature = _absmax(a, mixed.values())
                scale = 1.0 + _absmax(b) + curvature
                if curvature <= fit_tol * scale:
                    nb = np.linalg.norm(b)
                    return (c + R * np.array(b) / nb if nb > fit_tol * scale else c.copy()), None
            cands = [c.copy()]
            for r in np.linspace(R / 8.0, R, 8):
                for d in unit_directions(c.size, 32, seed=0):
                    cands.append(c + r * d)
            return _pick_best(cands, H)

    else:
        lo, hi, k = U.lo, U.hi, probes.k
        bounded = bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

        def search(H):
            fit = _fit_quadratic(H, probes, fit_tol, verify)
            if fit is not None:
                b, a, mixed = fit
                scale = 1.0 + _absmax(b) + _absmax(a, mixed.values())
                ztol = fit_tol * scale
                # the off-diagonal part A - diag(diag(A)): inf - inf is nan
                # on the diagonal, as in the matrix
                off_diag = _absmax([v - v for v in a], mixed.values()) if k > 1 else 0.0
                if off_diag <= ztol:
                    return np.array([_axis_max(b[j], a[j], probes.lo[j], probes.hi[j],
                                               probes.u0_axes[j], ztol)
                                     if probes.delta[j] > 0 else probes.lo[j]
                                     for j in range(k)]), None
                A = _matrix(a, mixed)
                # a model that is not finite makes ztol inf or nan, so it is
                # no concave one, and eigvalsh may not converge on it
                if math.isfinite(ztol) and np.linalg.eigvalsh(A).max() < -ztol:
                    u_star = probes.u0 + np.linalg.solve(A, -np.array(b))
                    if np.all(u_star >= lo - 1e-12) and np.all(u_star <= hi + 1e-12):
                        return np.clip(u_star, lo, hi), None
                    if bounded:
                        return _grid_refine(H, lo, hi)
                    raise UnsupportedMaximizationError(
                        "coupled concave maximization with mixed infinite bounds "
                        "is not supported")
                if bounded:
                    return _grid_refine(H, lo, hi)
                raise UnboundedHamiltonianError("non-concave quadratic on an unbounded box")
            if bounded:
                return _grid_refine(H, lo, hi)
            raise UnboundedHamiltonianError("non-quadratic Hamiltonian on an unbounded box")

    def maximize(p, x):
        # p @ an array: the bits of p @ a list, in less time; F gets x as an array
        p, xa = np.array(p), np.array(x)

        def H(u):
            # with no cost, p0f * 0.0 still signs a zero H as `hamiltonian` does
            return (p0f * (0.0 if F is None else float(F(xa, u)))
                    + float(p @ np.array(rate(x, u))))

        u_star, value = search(H)
        return u_star, H, value

    return maximize


def maximize_hamiltonian(sys: ControlSystem, p0: float, p, x) -> MaximizationResult:
    """Pointwise supremum of H over the control set.

    Finite sets are enumerated (first listed wins ties).  Boxes are handled
    exactly whenever H is numerically quadratic in u (verified by an
    exact-fit test, unless `sys.u_degree` declares degree <= 2): linear
    coefficients pick vertices, concave axes or a concave coupled model
    pick stationary points, with unbounded growth along an infinite side
    reported as an error.  Non-quadratic H on a finite box falls back to
    deterministic grid refinement.  When H is NaN or -inf at every
    candidate, u_star is None and value is -inf.

    p and x are checked and handed to `_maximizer`, which binds H to them;
    the fit's probe points come from the control set (`_probes`).
    """
    p = np.asarray(p, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if p.size != sys.m or x.size != sys.m:
        raise ValueError("dimension mismatch")
    u, H, value = _maximizer(sys, p0)(p.tolist(), x.tolist())
    return MaximizationResult(u, H(u) if value is None else value)


def adjoint_flows(sys: ControlSystem, traj: Trajectory, P_b, p0=0.0) -> np.ndarray:
    """Integrate p' = -p0 grad_x F - (df/dx)^T p backward along the trajectory
    for each column of the m x r block P_b, p0 a scalar or one per column;
    returns the blocks at the grid nodes, shape (nodes, m, r).

    The discrete adjoint of RK4 (Hager, Numer. Math. 87, 2000; Sandu, ICCS
    2006): each step of traj is retraced once from its node state and
    linearized at its four stages, and the block steps back by one rk4_step
    with step -h on those in reverse stage order.  So P_n = M_n^T P_(n+1),
    M_n the step matrix of the tangent lift of the extended system: with P_b
    the identity, P_n^T v is v carried from node n to the end, and the
    maximum condition at a node is the needle-cone separation at b.  p0 is
    constant: the extended dynamics never depend on the cost coordinate.
    """
    P = np.array(P_b, dtype=float)
    if P.ndim != 2 or P.shape[0] != sys.m:
        raise ValueError("terminal covectors have the wrong dimension")
    m, r = P.shape
    # c = -p0 at entry i r + j of the block laid out row by row; a single
    # column steps as a plain vector, as fast as the one-covector sweep was
    cs = (-np.broadcast_to(np.asarray(p0, dtype=float), (r,))).tolist() * m
    block = np.array if r == 1 else (lambda pp: np.array(pp).reshape(m, r))
    ts = traj.grid.tolist()
    states = traj.states.tolist()
    p = P.ravel().tolist()
    sigma = [p]
    rate, jac, grad = sys._rate, sys._jac, sys._grad
    for i in range(len(ts) - 2, -1, -1):
        t0, t1 = ts[i], ts[i + 1]
        uval = traj.control.value_at(0.5 * (t0 + t1))

        def linearize(_, x):
            # P' = grad_x F c^T - (df/dx)^T P at the stage state x, c = -p0,
            # as the coupled shooting step computes it
            g, JT = grad(x, uval), jac(x, uval).T
            g = g if r == 1 else [gi for gi in g for _ in range(r)]
            return lambda pp: [gi * ci - q for gi, ci, q in
                               zip(g, cs, (JT @ block(pp)).ravel().tolist())]

        _, rates = _recorded_step(lambda _, x: rate(x, uval), linearize, t0, states[i], t1 - t0)
        # stage 4 gives k1, then stages 3, 2 and 1
        stages = iter(rates[::-1])
        p = rk4_step(lambda _, pp: next(stages)(pp), t1, p, t0 - t1, next(stages)(p))
        if not _all_finite(p):
            raise FlowBlowUpError(t0)
        sigma.append(p)
    sigma.reverse()
    return np.array(sigma).reshape(len(ts), m, r)


def adjoint_flow(sys: ControlSystem, traj: Trajectory, p0: float, p_b) -> AdjointCurve:
    """The adjoint curve of one terminal covector: `adjoint_flows` of one column."""
    p = np.asarray(p_b, dtype=float).ravel()
    sigma = adjoint_flows(sys, traj, p[:, None], p0).reshape(-1, p.size)
    return AdjointCurve(grid=traj.grid.copy(), sigma0=float(p0), sigma=sigma)


def check_pmp(sys: ControlSystem, extremal: Extremal, bounds: BoundarySpec,
              tol: float = 1e-6) -> PMPReport:
    """Evaluate all maximum-principle conditions on the shared grid.

    res_3a: worst gap sup_u H - H(u(t)) over non-switch nodes.
    res_3b: worst deviation of sup_u H from its grid median (fixed time) or
            from zero (free time).
    res_3c: minimum of |(p0, p(t))| over the grid (must stay positive).
    res_3d: (p0 drift, sign flag p0 <= 0); the drift is zero by storage.
    res_3e: worst |p(a) . w| over the initial tangent basis and worst
            |p(b) . w| over the final one (zero when the end is a point).
    classification: normal/abnormal by the sign of p0 when every condition
    passes at the report tolerance, undetermined otherwise.
    """
    adj = extremal.adjoint
    traj = extremal.ext_traj
    u = extremal.control
    if len(traj.grid) != len(adj.grid) or np.max(np.abs(traj.grid - adj.grid)) > 1e-12:
        raise ValueError("trajectory and adjoint grids do not match")
    states = traj.states[:, 1:] if traj.states.shape[1] == sys.m + 1 else traj.states
    if states.shape[1] != sys.m:
        raise ValueError("state dimension mismatch")
    p0 = adj.sigma0

    maximize = _maximizer(sys, p0)
    switch = set(u.switch_times)
    gaps: List[float] = []
    sups: List[float] = []
    for i, t in enumerate(traj.grid):
        mn = np.sqrt(p0 * p0 + float(adj.sigma[i] @ adj.sigma[i]))
        min_norm = mn if i == 0 else min(min_norm, mn)
        if any(abs(t - s) <= 1e-12 * (1.0 + abs(s)) for s in switch):
            continue
        u_star, H, sup = maximize(adj.sigma[i].tolist(), states[i].tolist())
        sup = H(u_star) if sup is None else sup
        href = hamiltonian(sys, p0, adj.sigma[i], states[i], u.value_at(float(t)))
        gaps.append(max(sup - href, 0.0))
        sups.append(sup)
    sups_arr = np.array(sups)
    res_3a = float(np.max(gaps))
    if bounds.mode == "free_time":
        res_3b = float(np.max(np.abs(sups_arr)))
    else:
        res_3b = float(np.max(np.abs(sups_arr - np.median(sups_arr))))
    res_3c = float(min_norm)
    sign_ok = bool(p0 <= tol)
    res_3d = (0.0, sign_ok)
    ri = max((abs(float(adj.sigma[0] @ w)) for w in (bounds.initial or ())), default=0.0)
    rf = max((abs(float(adj.sigma[-1] @ w)) for w in (bounds.final or ())), default=0.0)
    res_3e = (ri, rf)

    passes = (res_3a <= tol and res_3b <= tol and res_3c > tol and sign_ok
              and ri <= tol and rf <= tol)
    if not passes:
        cls = "undetermined"
    elif p0 <= -tol:
        cls = "normal"
    else:
        cls = "abnormal"
    return PMPReport(res_3a=res_3a, res_3b=res_3b, res_3c=res_3c, res_3d=res_3d,
                     res_3e=res_3e, classification=cls, tol=tol)


def terminal_covector_from_cone(cone_b, final_tangent_basis=None,
                                tol: float = 1e-9) -> Optional[np.ndarray]:
    """Separating covector for a perturbation cone on the extended space.

    Finds a nonzero sigma_hat (cost component first) with sigma_hat . g <= 0
    for every generator, sigma_hat_0 <= 0, and sigma_hat annihilating the
    lifted final tangent basis.  Prefers sigma_hat_0 = -1; falls back to
    sigma_hat_0 = 0; returns None when no such covector exists, which
    certifies that the downward cost direction is interior to the cone.
    The covector is checked to satisfy sigma_hat . g <= tol |sigma_hat| |g|
    for every generator and both signs of every lifted basis vector;
    ConeCertificateError is raised otherwise.
    """
    cone = cone_b.cone if hasattr(cone_b, "cone") else cone_b
    n = cone.n
    m = n - 1
    gens = [np.asarray(g, dtype=float) for g in cone.generators]
    basis = [np.asarray(w, dtype=float).ravel() for w in (final_tangent_basis or [])]

    # stage 1: sigma_hat = (-1, p); constraints p . g_x <= g_0, p . w = 0.
    # Split p = p_pos - p_neg and minimize the l1 norm so the canonical
    # small solution comes back when the feasible set is fat.
    if m > 0:
        A_ub = ([np.concatenate((g[1:], -g[1:])) for g in gens]
                if gens else None)
        b_ub = [float(g[0]) for g in gens] if gens else None
        A_eq = ([np.concatenate((w, -w)) for w in basis] if basis else None)
        b_eq = [0.0] * len(basis) if basis else None
        res = linprog_dense(np.ones(2 * m),
                            A_ub=np.array(A_ub) if A_ub else None,
                            b_ub=np.array(b_ub) if b_ub else None,
                            A_eq=np.array(A_eq) if A_eq else None,
                            b_eq=np.array(b_eq) if b_eq else None,
                            bounds=[(0.0, 1e6)] * (2 * m))
        if res.ok:
            lifted = [np.concatenate(([0.0], s * w)) for w in basis for s in (1.0, -1.0)]
            return _checked_hyperplane(GeneratedCone(gens + lifted, n=n).matrix,
                                       np.concatenate(([-1.0], res.x[:m] - res.x[m:])), tol)
    else:
        if all(g[0] >= -tol for g in gens):
            return np.array([-1.0])

    # stage 2: sigma_hat = (0, p), p nonzero supporting the projected cone
    proj = [g[1:] for g in gens] + [w for w in basis] + [-w for w in basis]
    proj_cone = GeneratedCone(proj, n=m) if m > 0 else None
    if proj_cone is None:
        return None
    alpha = supporting_hyperplane(proj_cone, tol)
    if alpha is None:
        return None
    return np.concatenate(([0.0], alpha))


# classify_extremal's constants: the residual tolerance of a lift, and the
# number of sampled directions and the scales of its terminal covectors
CLASSIFY_TOL = 1e-6
CLASSIFY_DIRS = 8
CLASSIFY_SCALES = (0.1, 1.0, 10.0)


@dataclass
class ClassificationResult:
    classification: str
    certificate: Optional[str]
    normal_terminal: Optional[np.ndarray]
    abnormal_terminal: Optional[np.ndarray]
    attempts: Tuple[dict, ...]


def classify_extremal(sys: ControlSystem, traj: Trajectory, control: ControlSignal,
                      bounds: BoundarySpec,
                      cfg: Optional[IntegratorConfig] = None) -> ClassificationResult:
    """Search for admissible adjoint lifts with p0 = -1 and p0 = 0.

    Terminal covectors are drawn from the annihilator of the final tangent
    basis (plus the H(b) = 0 hyperplane in free-time mode).  The p0 = 0
    problem is positively homogeneous, so each ray is decided exactly: the
    ray carries a lift iff its worst residual is smaller than its minimum
    covector norm.  Strict certificates are only claimed when that ray space
    has dimension <= 1 (both rays enumerable) or dimension 0; the analogous
    rule covers p0 = -1 when its affine candidate space is a single point.
    """
    if sys.extended:
        raise ValueError("classify_extremal expects the base control system")
    m = sys.m
    x0 = np.asarray(traj.states[0], dtype=float).ravel()
    if x0.size != m:
        raise ValueError("trajectory state dimension does not match the system")
    span = control.b - control.a
    cfg = cfg or IntegratorConfig(step=1e-2 * span)
    free = bounds.mode == "free_time"

    ext_traj = simulate(extend(sys), control, np.concatenate(([0.0], x0)), cfg)
    base = ext_traj.project(sys)
    f_b = sys.dynamics(base.endpoint, control.value_at(control.b))
    F_b = sys.cost_rate(base.endpoint, control.value_at(control.b))
    final_rows = [np.asarray(w, float) for w in (bounds.final or ())]

    attempts: List[dict] = []
    # the adjoint is linear in (p0, p_b): one sweep of the unit covectors
    # with p0 = 0 and of p_b = 0 with p0 = -1 gives every candidate's
    basis = adjoint_flows(sys, base, np.hstack((np.eye(m), np.zeros((m, 1)))),
                          [0.0] * m + [-1.0])

    def residuals(p0, p_b):
        """(max residual, min covector norm, reason) for one candidate lift."""
        sigma = basis[:, :, :m] @ np.asarray(p_b, dtype=float) - p0 * basis[:, :, m]
        adj = AdjointCurve(grid=base.grid.copy(), sigma0=float(p0), sigma=sigma)
        try:
            rep = check_pmp(sys, Extremal(ext_traj, control, adj), bounds, CLASSIFY_TOL)
        except UnboundedHamiltonianError as e:
            return np.inf, 0.0, f"unbounded Hamiltonian: {e}"
        worst = max(rep.res_3a, rep.res_3b, rep.res_3e[0], rep.res_3e[1])
        return worst, rep.res_3c, ""

    def directions(N):
        """Unit directions in the column space of N: both of a line's."""
        k = N.shape[1]
        return ([] if k == 0 else [N[:, 0], -N[:, 0]] if k == 1
                else [N @ d for d in unit_directions(k, CLASSIFY_DIRS)])

    # p0 = 0: ray space is the annihilator of the final basis (and of f(b)
    # in free-time mode, since sup H = p . f must vanish at b)
    abn_rows = final_rows + ([f_b] if free else [])
    N0 = null_space(abn_rows, m)
    abn_dim = N0.shape[1]
    abnormal_terminal = None
    abn_exhaustive = abn_dim <= 1
    abn_reasons: List[str] = []
    if abn_dim == 0:
        abn_reasons.append("annihilator is trivial, only the zero covector remains")
    for ray in directions(N0):
        worst, min_norm, reason = residuals(0.0, ray)
        # the p0 = 0 problem is homogeneous, so judge the ray by the
        # scale-invariant ratio residual / covector norm
        rel = worst / min_norm if min_norm > 0 else np.inf
        feasible = rel <= CLASSIFY_TOL
        attempts.append({"p0": 0.0, "p_b": ray.tolist(),
                         "feasible": bool(feasible),
                         "reason": reason or f"relative residual {rel:.3e}"})
        if feasible and abnormal_terminal is None:
            abnormal_terminal = ray
        elif not feasible:
            abn_reasons.append(
                reason or f"ray {np.round(ray, 6).tolist()}: "
                          f"relative residual {rel:.3e} above tolerance")

    # p0 = -1: candidates from the annihilator, plus the affine slice
    # p . f(b) = F(b) in free-time mode
    Nf = null_space(final_rows, m)
    normal_terminal = None
    dirs = directions(Nf)
    nrm_cands: List[np.ndarray] = [np.zeros(m)] + [s * d for s in CLASSIFY_SCALES for d in dirs]
    nrm_dim = Nf.shape[1]
    if free:
        rows = final_rows + [f_b]
        rhs = np.array([0.0] * len(final_rows) + [F_b])
        A = np.vstack(rows)
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
        if np.linalg.norm(A @ sol - rhs) <= 1e-9 * (1.0 + abs(F_b)):
            Na = null_space(rows, m)
            nrm_dim = Na.shape[1]
            dirs = directions(Na)
            nrm_cands = [sol] + [sol + s * d for s in CLASSIFY_SCALES for d in dirs] + nrm_cands
        else:
            nrm_dim = -1  # no admissible normal covector satisfies H(b) = 0
            nrm_cands = []
    nrm_reasons: List[str] = []
    for cand in nrm_cands:
        worst, min_norm, reason = residuals(-1.0, cand)
        feasible = worst <= CLASSIFY_TOL and min_norm > CLASSIFY_TOL
        attempts.append({"p0": -1.0, "p_b": np.asarray(cand).tolist(),
                         "feasible": bool(feasible),
                         "reason": reason or f"worst {worst:.3e}"})
        if feasible:
            normal_terminal = np.asarray(cand, dtype=float)
            break
        nrm_reasons.append(reason or f"residual {worst:.3e}")
    # a certificate against normal lifts needs the admissible terminal set
    # to be a single point (dim 0) or provably empty (dim -1)
    nrm_exhaustive = nrm_dim <= 0

    certificate = None
    if normal_terminal is not None:
        if abnormal_terminal is None and abn_exhaustive:
            certificate = ("no abnormal lift exists: " + "; ".join(abn_reasons))
            classification = "strict_normal_certificate"
        else:
            classification = "normal"
    elif abnormal_terminal is not None:
        if nrm_exhaustive:
            certificate = ("no normal lift exists: " +
                           ("; ".join(nrm_reasons) if nrm_reasons
                            else "the H(b)=0 slice is empty"))
            classification = "strict_abnormal_certificate"
        else:
            classification = "abnormal"
    else:
        classification = "undetermined"
    return ClassificationResult(classification=classification,
                                certificate=certificate,
                                normal_terminal=normal_terminal,
                                abnormal_terminal=abnormal_terminal,
                                attempts=tuple(attempts))
