"""Time-dependent vector fields and their evolution operators.

Integration is fixed-step RK4 on a grid refined to hit every event time
exactly (control switches, needle boundaries); backward integration is the
same scheme with negative steps.  The complete (tangent) lift transports
tangent vectors by v' = (dX/dx) v, the cotangent lift transports covectors by
p' = -(dX/dx)^T p, and their pairing <p, v> is an invariant of the transport,
which pairing_drift measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class FlowBlowUpError(RuntimeError):
    """Non-finite state encountered during integration."""

    def __init__(self, t):
        super().__init__("non-finite state at t=%r (blow-up)" % (t,))
        self.t = t


class SingularTransportError(RuntimeError):
    """Transported differential too ill-conditioned to invert."""

    def __init__(self, cond):
        super().__init__("transported Jacobian condition estimate %.3e" % cond)
        self.cond = cond


_FD_H = 1e-6


def _fd_jacobian(g, x):
    """Central differences of g at x, step 1e-6 (1 + |x|); column j from
    g(x + h e_j) and g(x - h e_j)."""
    x = np.asarray(x, dtype=float)
    h = _FD_H * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((np.asarray(g(x + e), dtype=float) - np.asarray(g(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


@dataclass
class TimeVectorField:
    """Field X(t, x) on R^dim with an optional analytic state Jacobian.

    `eval` and `jacobian` get x as a float64 array, but an `eval` marked
    `on_lists` runs on lists of floats.  When `jacobian` is None, central
    finite differences with step 1e-6 (1 + |x|) are used.  The grid hits the
    `switch_times` where a field may jump, and `on` gives the smooth field
    of one grid segment.
    """

    dim: int
    eval: Callable
    jacobian: Callable | None = None
    switch_times = ()

    def jac(self, t, x):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, np.asarray(x, dtype=float)), dtype=float)
        return _fd_jacobian(lambda y: self.eval(t, y), x)

    def on(self, t0, t1):
        """The field at every RK4 stage of the step over [t0, t1]."""
        return self


class PiecewiseField(TimeVectorField):
    """A field jumping at switch_times, segment(t0, t1) on a grid segment
    and segment(t, t) at a single time t."""

    def __init__(self, dim, segment, switch_times):
        super().__init__(dim, lambda t, x: segment(t, t).eval(t, x),
                         lambda t, x: segment(t, t).jac(t, x))
        self.on = segment
        self.switch_times = tuple(switch_times)


def combined_field(X, Y, op=np.add):
    """The field op(X, Y), op being np.add or np.subtract, of the segment
    fields of X and Y on each grid segment."""

    def segment(t0, t1):
        A, B = X.on(t0, t1), Y.on(t0, t1)
        return TimeVectorField(X.dim, lambda t, x: op(np.asarray(A.eval(t, x)),
                                                      np.asarray(B.eval(t, x))))

    return PiecewiseField(X.dim, segment, X.switch_times + Y.switch_times)


@dataclass
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    step None means 1e-3 times the integration span; otherwise it must be
    positive and finite.  event_times are hit exactly by the grid.
    """

    step: float | None = None
    event_times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.step is not None and not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        self.event_times = tuple(float(t) for t in self.event_times)


@dataclass
class TangentState:
    x: np.ndarray
    v: np.ndarray


@dataclass
class CotangentState:
    x: np.ndarray
    p: np.ndarray


def integration_grid(s, t, cfg=None):
    """Monotone grid from s to t, uniform at the base step but hitting every
    event time exactly.  Base nodes closer than 1e-9 of the span to an event
    are replaced by the event node, and an event time given again (0.0 and
    -0.0 being equal) is dropped, so no step has length zero."""
    cfg = cfg or IntegratorConfig()
    s = float(s)
    t = float(t)
    if t == s:
        return np.array([s])
    lo, hi = (s, t) if t > s else (t, s)
    span = hi - lo
    step = cfg.step if cfg.step is not None else 1e-3 * span
    n = max(1, math.ceil(span / step - 1e-12))
    grid = np.linspace(lo, hi, n + 1)
    events = list(dict.fromkeys(e for e in cfg.event_times if lo < e < hi))
    if events:
        inner = grid[1:-1]
        keep = np.ones(inner.size, dtype=bool)
        for e in events:
            keep &= np.abs(inner - e) > 1e-9 * span
        # a stable sort keeps equal nodes (0.0 and -0.0) in this order
        grid = np.sort(np.concatenate(([lo], inner[keep], events, [hi])), kind="stable")
    if t < s:
        grid = grid[::-1]
    return grid


def rk4_step(f, t, y, h, k1):
    """One classical RK4 step of y' = f(t, y) from (t, y) with step h.

    y, k1 = f(t, y), the stages f gets and f's values are lists of floats,
    as is the returned state.  The stage arithmetic runs on Python floats
    in the order of the array form y + (h/2) k and y + (h/6) (((k1 + 2 k2)
    + 2 k3) + k4), so it gives the same bits without numpy's fixed cost per
    call on short vectors.  k1 is passed in, so a caller that also needs it
    (a stage shared by several trial steps) evaluates it once.
    """
    a = 0.5 * h
    k2 = f(t + a, [yi + a * ki for yi, ki in zip(y, k1)])
    k3 = f(t + a, [yi + a * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    c = h / 6.0
    return [yi + c * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
            for yi, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4, strict=True)]


def _recorded_step(rate, linearize, t, y, h):
    """rk4_step of y' = rate(t, y) from (t, y) with step h, and the list of
    linearize(t, y) at its four stages: the one place where RK4 stages are
    linearized, for the lifts of `_lifted_path` and for `pmp.adjoint_flow`."""
    lins = []

    def recording(tt, yy):
        k = rate(tt, yy)
        lins.append(linearize(tt, yy))
        return k

    return rk4_step(recording, t, y, h, recording(t, y)), lins


def _all_finite(v):
    return all(map(math.isfinite, v))


def flow(X, t, s, x0, cfg=None):
    """Endpoint of the evolution operator from (s, x0) to time t."""
    return np.array(_lifted_path(X, None, s, t, x0, (), cfg)[1][-1])


def _lifted_path(X, lift, s, t, x0, ws, cfg):
    """RK4 paths from s to t of x' = X and, along that one base path, of each
    w' = lift(dX/dx, w) with w(s) in ws: the package's one forward path loop.
    Returns the grid, then as lists the x path and the w paths.

    The grid hits cfg's event times, then X's switch times, and each step
    runs on X.on(t0, t1), whose eval gets each stage as an array unless it
    is marked `on_lists`; lift gets w as an array.  x advances once a step
    by rk4_step, recording dX/dx at its four stages if some w is nonzero;
    each nonzero w then advances by rk4_step on the recorded Jacobians.  RK4
    is elementwise outside its right-hand side, so every w path has the bits
    of the RK4 path of the stacked (x, w).  A zero w stays zero.
    """
    cfg = cfg or IntegratorConfig()
    grid = integration_grid(s, t, IntegratorConfig(cfg.step, cfg.event_times + X.switch_times))
    ts = grid.tolist()
    x = np.array(x0, dtype=float).tolist()
    ws = [np.array(w, dtype=float).tolist() for w in ws]
    live = [j for j, w in enumerate(ws) if any(w)]
    xs = [x]
    rows = [[w] if j in live else [w] * len(ts) for j, w in enumerate(ws)]

    def array_rate(tt, xx):
        return np.asarray(F.eval(tt, np.array(xx))).tolist()

    for t0, t1 in zip(ts, ts[1:]):
        h = t1 - t0
        F = X.on(t0, t1)
        rate = F.eval if getattr(F.eval, "on_lists", False) else array_rate
        if live:
            x, jacs = _recorded_step(rate, F.jac, t0, x, h)
        else:
            x = rk4_step(rate, t0, x, h, rate(t0, x))
        if not _all_finite(x):
            raise FlowBlowUpError(t1)
        xs.append(x)
        for j in live:
            stage = iter(jacs[1:])
            w = rows[j][-1]
            w = rk4_step(lambda tt, ww: lift(next(stage), np.array(ww)).tolist(), t0, w, h,
                         lift(jacs[0], np.array(w)).tolist())
            if not _all_finite(w):
                raise FlowBlowUpError(t1)
            rows[j].append(w)
    return grid, xs, rows


def tangent_lift_flows(X, t, s, x0, vs, cfg=None):
    """Transport the tangent vectors vs at x0 by the complete lift along one
    base path: x' = X, v' = (dX/dx) v.  Returns x(t) and the list of v(t)."""
    _, xs, paths = _lifted_path(X, lambda J, v: J @ v, s, t, x0, vs, cfg)
    return np.array(xs[-1]), [np.array(path[-1]) for path in paths]


def tangent_lift_flow(X, t, s, init, cfg=None):
    """Transport (x, v) by the complete lift: x' = X, v' = (dX/dx) v."""
    x, (v,) = tangent_lift_flows(X, t, s, init.x, [init.v], cfg)
    return TangentState(x, v)


def cotangent_lift_flow(X, t, s, init, cfg=None):
    """Transport (x, p) by the cotangent lift: x' = X, p' = -(dX/dx)^T p."""
    _, xs, (path,) = _lifted_path(X, lambda J, p: -J.T @ p, s, t, init.x, [init.p], cfg)
    return CotangentState(np.array(xs[-1]), np.array(path[-1]))


def pairing_drift(X, interval, x0, v0, p0, cfg=None):
    """Max over the grid of |<p(t), v(t)> - <p0, v0>| for both lifts run
    along the same base trajectory."""
    a, b = interval
    m = X.dim

    def both(J, w):
        return np.concatenate([J @ w[:m], -J.T @ w[m:]])

    path = np.array(_lifted_path(X, both, a, b, x0, [np.concatenate([v0, p0])], cfg)[2][0])
    ref = float(np.dot(p0, v0))
    pairings = np.einsum("ij,ij->i", path[:, m:], path[:, :m])
    return float(np.max(np.abs(pairings - ref)))


def _transport_matrix(X, t, s, x, cfg=None):
    """Differential of the flow map at x, T_x Phi_(t,s), as an m x m matrix,
    together with the transported base point."""
    m = X.dim
    _, xs, (path,) = _lifted_path(X, lambda J, M: (J @ M.reshape(m, m)).ravel(), s, t,
                                     x, [np.eye(m).ravel()], cfg)
    return np.array(xs[-1]), np.array(path[-1]).reshape(m, m)


def pullback_field(X, Y, s, cfg=None):
    """Field Z with Z(t, x) = (T Phi^X_(t,s))^{-1} Y(t, Phi^X_(t,s)(x)).

    The transported differential is inverted by a dense solve; condition
    estimates above 1e12 raise SingularTransportError.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")

    def segment(t0, t1):
        Yseg = Y.on(t0, t1)

        def zeval(t, x):
            base, M = _transport_matrix(X, t, s, x, cfg)
            cond = np.linalg.cond(M)
            if not np.isfinite(cond) or cond > 1e12:
                raise SingularTransportError(cond)
            return np.linalg.solve(M, np.asarray(Yseg.eval(t, base), dtype=float))

        return TimeVectorField(dim=X.dim, eval=zeval)

    return PiecewiseField(X.dim, segment, X.switch_times + Y.switch_times)


def flow_decomposition_residual(X, Y, t, s, x0, cfg=None):
    """Norm of Phi^{X+Y}(t,s,x0) - Phi^X(t,s, Phi^Z(t,s,x0)) with Z the
    pulled-back difference field."""
    direct = flow(combined_field(X, Y), t, s, x0, cfg)
    Z = pullback_field(X, Y, s, cfg)
    composed = flow(X, t, s, flow(Z, t, s, x0, cfg), cfg)
    return float(np.linalg.norm(direct - composed))
