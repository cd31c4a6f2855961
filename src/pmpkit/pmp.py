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
                             _switches_at)
from .flows import FlowBlowUpError, _all_finite, _dot, _recorded_step, _runs, rk4_step


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
    """p0 F(x, u) + p . f(x, u); with p0 = 0 the cost plays no role.  p . f
    is `flows._dot`, the products summed in order from 0.0."""
    p = np.asarray(p, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if p.size != sys.m or x.size != sys.m:
        raise ValueError("dimension mismatch")
    return _h_sum(float(p0), sys.cost_rate(x, u), p.tolist(), sys._rate(x, u))


def _h_sum(p0f, F, p, f):
    """p0f F + p . f of the cost value F and the rate f: the one sum of H,
    which the grammar runs on symbolic operands too."""
    return p0f * F + _dot(p, f)


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
    """Where the quadratic fit evaluates H on the box or ball U; fixed by U.

    u0 is the centre and delta the step of each axis.  The probes are the
    arrays u0 + e and u0 - e, and that arithmetic sets the sign of a zero
    where u0 holds -0.0 (-0.0 + 0.0 is +0.0); they are kept read-only.

    The fit reads H at `points`: u0, then u0 + e_j and u0 - e_j per live
    axis j, then u0 + e_i + e_j per pair of live axes.  Beside those values
    it reads only `axes`, one (j, n, 2 delta_j, delta_j ** 2) per live axis,
    n the index in `points` of u0 + e_j (n + 1 that of u0 - e_j), and
    `pairs`, one (i, j, n, n_i, n_j, delta_i delta_j) per pair, n the index
    of u0 + e_i + e_j and n_i, n_j those of u0 + e_i and u0 + e_j, so its
    pass computes no step and no index.  Other readers take `points` and
    the `checks` by name.
    numpy computes the divisors, so a square that overflows reads inf.  They
    are kept as Python floats, which divide faster and round the same; a
    divisor that underflows to zero stays numpy's 0.0, so that dividing by
    it gives inf or nan where a Python float would raise.

    A box also keeps `sides`, (lo, hi, u0, delta) per axis for the axis
    maxima.  `bounded` says U is a finite box, and `plain_divisors` that it
    is one whose fit divides by positive finite floats, which generated code
    binds as numbers.
    """

    def __init__(self, U):
        if U.kind == "ball":
            k = U.center.size
            u0, delta = U.center.copy(), np.full(k, max(U.radius, 1.0) / 4.0)
        else:
            lo, hi = U.lo, U.hi
            k = lo.size
            u0, delta = np.empty(k), np.empty(k)
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
            self.sides = tuple(zip(lo, hi, u0, delta))
        self.bounded = U.kind == "box" and bool(np.all(np.isfinite([U.lo, U.hi])))
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
        plus = {j: 1 + 2 * n for n, j in enumerate(live)}
        corners = [_read_only(u0 + step(i, j)) for i, j in itertools.combinations(live, 2)]
        self.points = (self.u0, *(u for j in live for u in self.axis[j]), *corners)

        def divisor(v):
            return float(v) if v else v

        with np.errstate(over="ignore"):
            self.axes = tuple((j, plus[j], divisor(2.0 * d[j]), divisor(d[j] ** 2))
                              for j in live)
            self.pairs = tuple((i, j, n, plus[i], plus[j], divisor(d[i] * d[j]))
                               for n, (i, j) in enumerate(itertools.combinations(live, 2),
                                                          1 + 2 * len(live)))
        divisors = [d for *_, two, sq in self.axes for d in (two, sq)] + [d for *_, d in self.pairs]
        self.plain_divisors = self.bounded and all(0.0 < d < math.inf for d in divisors)
        # the points that test the fit, each with its offset from u0
        self.checks = []
        for coeffs in ((0.37,) * k, (-0.61,) * k,
                       tuple(0.5 if j % 2 == 0 else -0.5 for j in range(k))):
            probe = u0 + np.array(coeffs) * delta
            self.checks.append((_read_only(probe), _read_only(probe - u0)))


def _probes(U) -> _Probes:
    """The fit's probes of the box or ball U, made on first use and kept on
    U: ControlSet is frozen, and the probes are kept data, not a field."""
    kept = U.__dict__
    if "_probes" not in kept:
        kept["_probes"] = _Probes(U)
    return kept["_probes"]


def _matrix(a, mixed):
    A = np.diag(a)
    for i, j, v in mixed:
        A[i, j] = A[j, i] = v
    return A


def _nan_max(top, v):
    """v where it is larger than top or NaN, else top: one step of a running
    maximum that keeps the first NaN it meets."""
    return v if v > top or v != v else top


def _off_max(amax, mmax):
    """mmax, or NaN beside an infinite or NaN amax, as np.max(np.abs(.)) of
    the off-diagonal part of a Hessian reads inf - inf there."""
    return mmax if math.isfinite(amax) else math.nan


def _fit_quadratic(values, probes: _Probes, fit_tol, H=None):
    """Exact-fit quadratic model of H from values, H at `probes.points` in
    order, or None if H is not quadratic.

    One pass over the probes' per-axis and per-pair tuples, reading the
    values by index, returns (b, a, mixed, bmax, cmax, off):
    - b and a, the gradient and the Hessian diagonal per axis (0.0 on an
      axis of zero width), and mixed, the Hessian entries (i, j, value) of
      the live axis pairs, all at u0;
    - bmax and cmax, the largest |b| and the largest |entry| of the Hessian,
      and off that of its off-diagonal part (0.0 for k = 1).  Each is
      float(np.max(np.abs(.))) of the arrays: NaN wherever a NaN stands, and
      off is NaN beside an infinite diagonal entry, where inf - inf stands.
      cmax, of two nonnegative maxima, is one more `_nan_max` step.
    With H given, the fit is tested at three more probes, where H is
    evaluated; without it the fit is trusted, for an H known to be at most
    quadratic in u.  The grammar runs it on symbolic operands to write the
    generated probe fit.
    """
    k = probes.k
    f0 = values[0]
    b = [0.0] * k
    a = [0.0] * k
    bmax = amax = 0.0
    for j, n, two_delta, delta_sq in probes.axes:
        fp, fm = values[n], values[n + 1]
        bj = b[j] = (fp - fm) / two_delta
        aj = a[j] = (fp - 2.0 * f0 + fm) / delta_sq
        bmax = _nan_max(bmax, abs(bj))
        amax = _nan_max(amax, abs(aj))
    mixed, mmax = [], 0.0
    for i, j, n, n_i, n_j, delta_ij in probes.pairs:
        v = (values[n] - values[n_i] - values[n_j] + f0) / delta_ij
        mixed.append((i, j, v))
        mmax = _nan_max(mmax, abs(v))
    cmax = _nan_max(mmax, amax)
    off = mmax if k == 1 else _off_max(amax, mmax)
    if H is None:
        return b, a, mixed, bmax, cmax, off

    # the model's numpy products pair no covector with a rate; they keep
    # the bits of the array form of this test
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


def _model_tol(bmax, cmax, fit_tol):
    """ztol of a fit: a gradient or Hessian entry of the model at most ztol
    in size counts as zero.  The grammar runs it on symbolic operands."""
    return fit_tol * (1.0 + bmax + cmax)


def _axis_maxima(b, a, ztol, sides):
    """The maximizer of the separable model of gradient b and Hessian
    diagonal a on the box of `sides`, as a list: `_axis_max` per live axis,
    lo on an axis of zero width.  The grammar runs it on symbolic operands,
    with `_axis_max` recorded as a call, to write the generated arc loop's
    decision."""
    return [_axis_max(bj, aj, lo_j, hi_j, u0_j, ztol) if delta_j > 0 else lo_j
            for bj, aj, (lo_j, hi_j, u0_j, delta_j) in zip(b, a, sides)]


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
    evaluated it, else None.

    H is p0 F + p . f, F the cost `sys._cost` and f the rate `sys._rate`,
    both of x as a list, and p . f `flows._dot`.  Boxes and balls fit a
    quadratic model to H's values at the probes (`_probes`).  On a finite
    box with a declared degree of at most 2 and plain divisors, a grammar
    system's F and f give that fit through one generated function,
    `f.probe_fit` (`grammar.compile_dynamics`), bit for bit.  Every other
    search evaluates H at each point it reads.

    maximize(p, x, fit) decides from fit, that function's value at (p, x),
    without evaluating it again.  maximize carries what a generated loop
    needs to make the same decisions (`shooting._propagator`): `hamiltonian`,
    where hamiltonian(p, x) is H bound to p and x, `probe_fit`, falsy where
    the fit is not generated, and a box's `sides`.
    """
    p0f, rate, cost, fit_tol = float(p0), sys._rate, sys._cost, FIT_TOL
    verify = sys.u_degree is None or sys.u_degree > 2
    U = sys.control_set
    probes = None if U.kind == "finite" else _probes(U)
    probe_fit = sides = None

    def fit_of(H):
        # the fit of H's values at the probes, verified unless declared
        return _fit_quadratic([H(u) for u in probes.points], probes, fit_tol,
                              H if verify else None)

    if U.kind == "finite":
        def search(H):
            return _pick_best(U.points, H)

    elif U.kind == "ball":
        c, R = U.center, U.radius

        def search(H):
            fit = fit_of(H)
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
        lo, hi, sides, bounded = U.lo, U.hi, probes.sides, probes.bounded
        generate = not verify and probes.plain_divisors and getattr(sys.f, "probe_fit", None)
        probe_fit = generate and generate(sys.F, probes.points, probes.axes, probes.pairs)

        def decide(fit, H):
            if fit is None:
                error = UnboundedHamiltonianError("non-quadratic Hamiltonian on an unbounded box")
            else:
                b, a, mixed, bmax, cmax, off_diag = fit
                ztol = _model_tol(bmax, cmax, fit_tol)
                if off_diag <= ztol:
                    return np.array(_axis_maxima(b, a, ztol, sides)), None
                A = _matrix(a, mixed)
                # a model that is not finite makes ztol inf or nan, so it is
                # no concave one, and eigvalsh may not converge on it
                if math.isfinite(ztol) and np.linalg.eigvalsh(A).max() < -ztol:
                    u_star = probes.u0 + np.linalg.solve(A, -np.array(b))
                    if np.all(u_star >= lo - 1e-12) and np.all(u_star <= hi + 1e-12):
                        return np.clip(u_star, lo, hi), None
                    error = UnsupportedMaximizationError(
                        "coupled concave maximization with mixed infinite bounds "
                        "is not supported")
                else:
                    error = UnboundedHamiltonianError("non-concave quadratic on an unbounded box")
            if bounded:
                return _grid_refine(H, lo, hi)
            raise error

        def search(H):
            return decide(fit_of(H), H)

    def hamiltonian(p, x):
        def H(u):
            # with no cost, p0f * 0.0 still signs a zero H as `hamiltonian`
            # does
            return _h_sum(p0f, cost(x, u), p, rate(x, u))
        return H

    def maximize(p, x, fit=None):
        H = hamiltonian(p, x)
        u_star, value = decide(fit or probe_fit(p, x, p0f), H) if probe_fit else search(H)
        return u_star, H, value

    maximize.hamiltonian, maximize.probe_fit, maximize.sides = hamiltonian, probe_fit, sides
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
    the fit's probe points come from the control set (`_probes`).  H sums
    p . f in order from 0.0 (`flows._dot`), so u_star and value have the
    same bits with any BLAS.  For a system of grammar expressions on a
    finite box, the probe values and their fit come from one generated
    function that p0 = -1 and p0 = 0 share.
    """
    p = np.asarray(p, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if p.size != sys.m or x.size != sys.m:
        raise ValueError("dimension mismatch")
    u, H, value = _maximizer(sys, p0)(p.tolist(), x.tolist())
    return MaximizationResult(u, H(u) if value is None else value)


def _multipliers(p0, r: int) -> list:
    """c = -p0 of each of r columns, p0 a scalar or one per column."""
    return (-np.broadcast_to(np.asarray(p0, dtype=float), (r,))).tolist()


def _costate_rate(J, g, c, p):
    """The rate c_j g_i - (J^T p_j)_i of each entry i of each column p_j of
    an m x r block p, laid out column after column: J the m x m Jacobian
    laid out row after row, g the cost gradient and c the r multipliers
    c_j = -p0.  (J^T p_j)_i is `flows._dot` of column i of J with p_j, so
    a block column has the bits of its own sweep.  `_costate` runs it on
    floats, and the grammar on symbolic operands, to write the same
    arithmetic into the generated coupled step and adjoint sweep."""
    m = len(g)
    columns = [J[i::m] for i in range(m)]
    blocks = [p[j:j + m] for j in range(0, len(p), m)]
    return [gi * cj - _dot(column, pj) for cj, pj in zip(c, blocks)
            for gi, column in zip(g, columns)]


def _costate(sys: ControlSystem, p0, r: int):
    """The one -dH/dx = c grad_x F - (df/dx)^T p, c = -p0, of an m x r block
    p, p0 a scalar or one per column: held(u)(t, x) evaluates grad_x F and
    df/dx at x with u held and returns the `_costate_rate` of a block, laid
    out column after column as a list."""
    jac, grad, c = sys._jac, sys._grad, _multipliers(p0, r)

    def held(u):
        def stage(_, x):
            g, J = grad(x, u), jac(x, u).ravel().tolist()
            return lambda pp: _costate_rate(J, g, c, pp)
        return stage

    return held


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

    A block column has the bits of its own sweep: the block is carried
    column after column, and each column's (df/dx)^T p is summed in order
    from 0.0 (`_costate_rate`).  Where the grammar's generated dynamics give
    the system an `adjoint_run` (`grammar.compile_dynamics`), the block
    steps back over every control run in that one generated call instead,
    on the control's values as one list of rows, bit for bit.
    """
    P = np.array(P_b, dtype=float)
    if P.ndim != 2 or P.shape[0] != sys.m:
        raise ValueError("terminal covectors have the wrong dimension")
    m, r = P.shape
    costate, rate = _costate(sys, p0, r), sys._rate
    run, c = getattr(sys.f, "adjoint_run", None), _multipliers(p0, r)
    run = run and run(sys.df_dx, sys.F, sys.dF_dx, r)
    ts = traj.grid.tolist()
    states = traj.states.tolist()
    p = P.T.ravel().tolist()
    sigma = [p]
    # the forward path's runs, last first: run j holds the control's value j
    runs = _runs(traj.grid, traj.control.switch_times)[::-1]
    if run is not None:
        node = run(p, traj.control.values.tolist(), runs, c, ts, states, sigma)
        if node is not None:
            raise FlowBlowUpError(ts[node])
    else:
        for i0, i1, j in runs:
            uval = traj.control.values[j]
            linearize = costate(uval)
            for i in range(i1 - 1, i0 - 1, -1):
                t0, t1 = ts[i], ts[i + 1]
                _, rates = _recorded_step(lambda _, x: rate(x, uval), linearize, t0,
                                          states[i], t1 - t0)
                # stage 4 gives k1, then stages 3, 2 and 1
                stages = iter(rates[::-1])
                p = rk4_step(lambda _, pp: next(stages)(pp), t1, p, t0 - t1, next(stages)(p))
                if not _all_finite(p):
                    raise FlowBlowUpError(t0)
                sigma.append(p)
    sigma.reverse()
    return np.array(sigma).reshape(len(ts), r, m).transpose(0, 2, 1).copy()


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
    sigma = adj.sigma.tolist()
    for i, t in enumerate(traj.grid.tolist()):
        mn = math.sqrt(p0 * p0 + _dot(sigma[i], sigma[i]))
        min_norm = mn if i == 0 else min(min_norm, mn)
        if _switches_at(u.switch_times, t):
            continue
        u_star, H, sup = maximize(sigma[i], states[i].tolist())
        sup = H(u_star) if sup is None else sup
        href = H(u.value_at(t))
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
    ri = max((abs(_dot(sigma[0], w.tolist())) for w in (bounds.initial or ())), default=0.0)
    rf = max((abs(_dot(sigma[-1], w.tolist())) for w in (bounds.final or ())), default=0.0)
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
