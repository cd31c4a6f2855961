"""Hamiltonian maximization, adjoint flow and condition checks.

The Hamiltonian of a control system with cost rate F is
H(p0, p, x, u) = p0 F(x, u) + p . f(x, u) with a constant p0 <= 0.  A
candidate trajectory is an extremal when an adjoint curve exists making the
reference control a pointwise maximizer of H, keeping H constant in time
(zero, when the final time is free), with (p0, p) never vanishing and p
annihilating the tangent spaces of the boundary manifolds.  `check_pmp`
measures all of these as residuals on the integration grid.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cone_geometry import rank_split, unit_directions
from .control_system import (ControlSignal, ControlSystem, ExtendedTrajectory, Trajectory,
                             _derived, _switches_at)
from .flows import FlowBlowUpError, _all_finite, _recorded_step, _runs, rk4_step


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

    The fit reads only `axes`, one (j, u0 + e_j, u0 - e_j, 2 delta_j,
    delta_j ** 2) per live axis j, and `pairs`, one (i, j, u0 + e_i + e_j,
    delta_i delta_j) per pair of live axes, so its pass computes no step.
    numpy computes the divisors, so a square that overflows reads inf.  They
    are kept as Python floats, which divide faster and round the same; a
    divisor that underflows to zero stays numpy's 0.0, so that dividing by
    it gives inf or nan where a Python float would raise.
    """

    def __init__(self, u0, delta):
        k = u0.size
        self.k = k
        self.u0 = _read_only(u0)
        d = tuple(delta)
        live = tuple(j for j in range(k) if d[j] > 0)

        def step(*axes):
            e = np.zeros(k)
            for j in axes:
                e[j] = delta[j]
            return e

        self.axis = {j: (_read_only(u0 + step(j)), _read_only(u0 - step(j)))
                     for j in live}

        def divisor(v):
            return float(v) if v else v

        with np.errstate(over="ignore"):
            self.axes = tuple((j, *self.axis[j], divisor(2.0 * d[j]), divisor(d[j] ** 2))
                              for j in live)
            self.pairs = tuple((i, j, _read_only(u0 + step(i, j)), divisor(d[i] * d[j]))
                               for i, j in itertools.combinations(live, 2))
        # the points that test the fit, each with its offset from u0
        self.checks = []
        for coeffs in ((0.37,) * k, (-0.61,) * k,
                       tuple(0.5 if j % 2 == 0 else -0.5 for j in range(k))):
            probe = u0 + np.array(coeffs) * delta
            self.checks.append((_read_only(probe), _read_only(probe - u0)))


def _probes(U) -> _Probes:
    """The fit's probes of the box or ball U, made on first use and kept on U."""
    return _derived(U, "_probes", _make_probes)


def _make_probes(U) -> _Probes:
    if U.kind == "ball":
        k = U.center.size
        return _Probes(U.center.copy(), np.full(k, max(U.radius, 1.0) / 4.0))
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
    # per axis (lo, hi, u0, delta) for the axis maxima
    probes.sides = tuple(zip(lo, hi, u0, delta))
    return probes


def _matrix(a, mixed):
    A = np.diag(a)
    for i, j, v in mixed:
        A[i, j] = A[j, i] = v
    return A


def _fit_quadratic(H, probes: _Probes, fit_tol, verify=True):
    """Exact-fit quadratic model at the probes, or None if H is not quadratic.

    One pass over the probes' per-axis and per-pair tuples returns (b, a,
    mixed, bmax, cmax, off):
    - b and a, the gradient and the Hessian diagonal per axis (0.0 on an
      axis of zero width), and mixed, the Hessian entries (i, j, value) of
      the live axis pairs, all at u0;
    - bmax and cmax, the largest |b| and the largest |entry| of the Hessian,
      and off that of its off-diagonal part (0.0 for k = 1).  Each is
      float(np.max(np.abs(.))) of the arrays: NaN wherever a NaN stands, and
      off is NaN beside an infinite diagonal entry, where inf - inf stands.
    verify=False skips the three probes that test the fit, for an H known
    to be at most quadratic in u.
    """
    k = probes.k
    f0 = H(probes.u0)
    b = [0.0] * k
    a = [0.0] * k
    up = [0.0] * k if probes.pairs else None
    bmax = amax = 0.0
    for j, plus, minus, two_delta, delta_sq in probes.axes:
        fp, fm = H(plus), H(minus)
        bj = b[j] = (fp - fm) / two_delta
        aj = a[j] = (fp - 2.0 * f0 + fm) / delta_sq
        bj, aj = abs(bj), abs(aj)
        # a running maximum that keeps the first NaN it meets
        if bj > bmax or bj != bj:
            bmax = bj
        if aj > amax or aj != aj:
            amax = aj
        if up is not None:
            up[j] = fp
    mixed, mmax = [], 0.0
    for i, j, u, delta_ij in probes.pairs:
        v = (H(u) - up[i] - up[j] + f0) / delta_ij
        mixed.append((i, j, v))
        v = abs(v)
        if v > mmax or v != v:
            mmax = v
    cmax = amax if amax >= mmax or amax != amax else mmax
    off = mmax if k == 1 or math.isfinite(amax) else math.nan
    if not verify:
        return b, a, mixed, bmax, cmax, off

    # numpy's dot may fuse a multiply and an add, so the model is
    # evaluated by the same dot products it was fitted for
    bv, A = np.array(b), _matrix(a, mixed)

    def model(d):
        return f0 + bv @ d + 0.5 * d @ A @ d

    scale = 1.0 + abs(f0) + bmax + cmax
    for probe, d in probes.checks:
        if abs(H(probe) - model(d)) > fit_tol * scale:
            return None
    return b, a, mixed, bmax, cmax, off


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
    for _ in range(60):
        axes = [np.linspace(cur_lo[j], cur_hi[j], g) for j in range(lo.size)]
        best_u, best_v = _pick_best(map(np.array, itertools.product(*axes)), H)
        cell = (cur_hi - cur_lo) / (g - 1)
        # with no H above -inf on the grid there is nothing to refine
        # around: u_star is None, as `_pick_best` returns it
        if np.max(cell) <= GRID_RESOLUTION or best_u is None:
            break
        cur_lo = np.maximum(lo, best_u - cell)
        cur_hi = np.minimum(hi, best_u + cell)
    return best_u, best_v


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
                b, _, _, bmax, curvature, _ = fit
                scale = 1.0 + bmax + curvature
                if curvature <= fit_tol * scale:
                    nb = np.linalg.norm(b)
                    return (c + R * np.array(b) / nb if nb > fit_tol * scale else c.copy()), None
            cands = [c.copy()]
            for r in np.linspace(R / 8.0, R, 8):
                for d in unit_directions(c.size, 32, seed=0):
                    cands.append(c + r * d)
            return _pick_best(cands, H)

    else:
        lo, hi, sides = U.lo, U.hi, probes.sides
        bounded = bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

        def search(H):
            fit = _fit_quadratic(H, probes, fit_tol, verify)
            if fit is not None:
                b, a, mixed, bmax, cmax, off_diag = fit
                ztol = fit_tol * (1.0 + bmax + cmax)
                if off_diag <= ztol:
                    return np.array([_axis_max(bj, aj, lo_j, hi_j, u0_j, ztol)
                                     if delta_j > 0 else lo_j
                                     for bj, aj, (lo_j, hi_j, u0_j, delta_j)
                                     in zip(b, a, sides)]), None
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

    def linearize(_, x):
        # P' = grad_x F c^T - (df/dx)^T P at the stage state x, c = -p0,
        # as the coupled shooting step computes it
        g, JT = grad(x, uval), jac(x, uval).T
        g = g if r == 1 else [gi for gi in g for _ in range(r)]
        return lambda pp: [gi * ci - q for gi, ci, q in
                           zip(g, cs, (JT @ block(pp)).ravel().tolist())]

    # the forward path's runs, last first: each holds one control value
    for i0, i1 in reversed(_runs(traj.grid, traj.control.switch_times)):
        uval = traj.control.value_at(0.5 * (ts[i0] + ts[i0 + 1]))
        for i in range(i1 - 1, i0 - 1, -1):
            t0, t1 = ts[i], ts[i + 1]
            _, rates = _recorded_step(lambda _, x: rate(x, uval), linearize, t0, states[i],
                                      t1 - t0)
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
    gaps: List[float] = []
    sups: List[float] = []
    for i, t in enumerate(traj.grid.tolist()):
        mn = np.sqrt(p0 * p0 + float(adj.sigma[i] @ adj.sigma[i]))
        min_norm = mn if i == 0 else min(min_norm, mn)
        if _switches_at(u.switch_times, t):
            continue
        u_star, H, sup = maximize(adj.sigma[i].tolist(), states[i].tolist())
        sup = H(u_star) if sup is None else sup
        href = hamiltonian(sys, p0, adj.sigma[i], states[i], u.value_at(t))
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
