"""Control systems, piecewise-constant control signals, and trajectory simulation.

A control system is a parameterized vector field f(x, u) with an optional
running-cost rate F(x, u).  Controls are represented exclusively as
piecewise-constant signals: every perturbation this library constructs is
itself a piecewise-constant edit, so the machinery built on top is exactly
representable in this class.  The extended system prepends a cost coordinate
x0' = F(x, u) to the state, so minimizing total cost becomes a question about
the final value of one coordinate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .flows import (IntegratorConfig, PiecewiseField, TimeVectorField, _fd_jacobian,
                    _lifted_path)


def _frozen_array(values) -> np.ndarray:
    """A read-only float copy of values, flattened: what the maximizer and
    shooting derive from a control set (its fit probes, its jump tolerance)
    cannot go stale."""
    a = np.array(values, dtype=float).ravel()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ControlSet:
    """Admissible control values: a box, a finite list, or a closed ball."""

    kind: str
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    points: Optional[Tuple[np.ndarray, ...]] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind == "box":
            lo = _frozen_array(self.lo)
            hi = _frozen_array(self.hi)
            # a NaN bound fails lo <= hi
            if lo.shape != hi.shape or not np.all(lo <= hi):
                raise ValueError("box bounds need lo <= hi componentwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "finite":
            if not self.points:
                raise ValueError("finite control set needs at least one point")
            pts = tuple(_frozen_array(p) for p in self.points)
            if len({p.size for p in pts}) != 1:
                raise ValueError("finite control points must share a dimension")
            object.__setattr__(self, "points", pts)
        elif self.kind == "ball":
            c = _frozen_array(self.center)
            if not np.all(np.isfinite(c)):
                raise ValueError("ball center must be finite")
            if self.radius is None or not self.radius >= 0:
                raise ValueError("ball needs a nonnegative radius")
            object.__setattr__(self, "center", c)
        else:
            raise ValueError(f"unknown control set kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return self.lo.size
        if self.kind == "finite":
            return self.points[0].size
        return self.center.size

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        u = np.asarray(u, dtype=float).ravel()
        if u.size != self.dim:
            return False
        if self.kind == "box":
            return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))
        if self.kind == "finite":
            return any(np.max(np.abs(u - p)) <= tol for p in self.points)
        return float(np.linalg.norm(u - self.center)) <= self.radius + tol


def _derived(U: ControlSet, name: str, make):
    """make(U), made on first use and kept on U under name: ControlSet is
    frozen, and what is derived from it (the maximizer's fit probes,
    shooting's jump tolerance) is kept data, not a field."""
    kept = U.__dict__
    if name not in kept:
        kept[name] = make(U)
    return kept[name]


def box(lo, hi) -> ControlSet:
    return ControlSet(kind="box", lo=lo, hi=hi)


def finite(points) -> ControlSet:
    return ControlSet(kind="finite", points=tuple(points))


def ball(center, radius) -> ControlSet:
    return ControlSet(kind="ball", center=center, radius=float(radius))


@dataclass
class ControlSystem:
    """Dynamics f(x, u), cost rate F(x, u), and the admissible control set.

    `df_dx` and `dF_dx` may be omitted; central finite differences stand in.
    `extended` marks a system produced by `extend` so it cannot be extended
    twice.  `u_degree` declares the polynomial degree of f and F in u, None
    when unknown; at most 2 lets the Hamiltonian maximizer trust its
    quadratic fit without probing it.  The callables get x as a float64
    array, but `f`, `df_dx` or `dF_dx` marked `on_lists` take a list of floats;
    `_rate`, `_jac` and `_grad` call them so and normalise all the others.
    """

    m: int
    k: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    control_set: ControlSet
    F: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    df_dx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dF_dx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    extended: bool = False
    u_degree: Optional[int] = None

    def __post_init__(self):
        # f(x, u) and dF/dx(x, u) as lists of floats, df/dx(x, u) as an
        # array, for x a list of floats or an array
        f, df, dF, m = self.f, self.df_dx, self.dF_dx, self.m
        self._rate = f if getattr(f, "on_lists", False) else (
            lambda x, u: np.asarray(f(np.asarray(x, dtype=float), u), dtype=float).ravel().tolist())
        self._jac = df if getattr(df, "on_lists", False) else self.jac_x
        self._grad = ((lambda x, u: [0.0] * m) if self.F is None
                      else dF if getattr(dF, "on_lists", False)
                      else lambda x, u: self.cost_grad_x(x, u).tolist())

    def dynamics(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.array(self._rate(x, u))

    def cost_rate(self, x: np.ndarray, u: np.ndarray) -> float:
        if self.F is None:
            return 0.0
        return float(self.F(np.asarray(x, dtype=float), u))

    def jac_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.df_dx is not None:
            return np.asarray(self.df_dx(np.asarray(x, dtype=float), u), dtype=float).reshape(self.m, self.m)
        return _fd_jacobian(lambda y: self.dynamics(y, u), x)

    def cost_grad_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.F is None:
            return np.zeros(self.m)
        if self.dF_dx is not None:
            return np.asarray(self.dF_dx(np.asarray(x, dtype=float), u), dtype=float).ravel()
        return _fd_jacobian(lambda y: self.cost_rate(y, u), x).ravel()


def extend(sys: ControlSystem) -> ControlSystem:
    """Prepend the running-cost coordinate: state (x0, x), dynamics (F, f).

    The Jacobian of the extended dynamics has a zero column for x0, so the
    adjoint coordinate paired with x0 is constant along any adjoint flow.
    """
    if sys.extended:
        raise ValueError("system is already extended")

    def f_hat(xh, u):
        x = xh[1:]
        return [sys.cost_rate(x, u)] + sys._rate(x, u)

    def df_hat(xh, u):
        x = xh[1:]
        J = np.zeros((sys.m + 1, sys.m + 1))
        J[0, 1:] = sys.cost_grad_x(x, u)
        J[1:, 1:] = sys.jac_x(x, u)
        return J

    f_hat.on_lists = True
    return ControlSystem(m=sys.m + 1, k=sys.k, f=f_hat, control_set=sys.control_set,
                         F=None, df_dx=df_hat, extended=True, u_degree=sys.u_degree)


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: values[i] on [switch_times[i-1], switch_times[i]).

    Right-continuous at switches; the final value extends to b.
    """

    a: float
    b: float
    switch_times: Tuple[float, ...]
    values: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")
        st = tuple(float(t) for t in self.switch_times)
        # a NaN switch fails a < t < b
        if not all(self.a < t < self.b for t in st):
            raise ValueError("switch times must lie strictly inside (a, b)")
        if any(t2 <= t1 for t1, t2 in zip(st, st[1:])):
            raise ValueError("switch times must be strictly increasing")
        vals = tuple(np.asarray(v, dtype=float).ravel() for v in self.values)
        if len(vals) != len(st) + 1:
            raise ValueError("need exactly one value per piece")
        object.__setattr__(self, "switch_times", st)
        object.__setattr__(self, "values", vals)

    def value_at(self, t: float) -> np.ndarray:
        return self.values[bisect.bisect_right(self.switch_times, t)]


def constant_signal(a: float, b: float, value) -> ControlSignal:
    return ControlSignal(a=a, b=b, switch_times=(), values=(np.asarray(value, dtype=float),))


@dataclass
class Trajectory:
    """States of `system` under `control` on a dense time grid."""

    grid: np.ndarray
    states: np.ndarray
    control: ControlSignal
    system: ControlSystem = field(repr=False)

    @property
    def a(self) -> float:
        return float(self.grid[0])

    @property
    def b(self) -> float:
        return float(self.grid[-1])

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1].copy()

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x{j}" for j in range(self.states.shape[1]))
        _write_csv(path, header, np.column_stack([self.grid, self.states]))


@dataclass
class ExtendedTrajectory(Trajectory):
    """Trajectory of the extended system; states[:, 0] is the running cost."""

    def project(self, system: ControlSystem) -> Trajectory:
        """Drop the cost coordinate; shares the grid and control.

        `system` is the base system this one extends.  The result is the
        trajectory `simulate` returns for it on the same signal, bit for
        bit: the RK4 step of the extended system does the same elementwise
        arithmetic on the state coordinates.
        """
        return Trajectory(grid=self.grid.copy(), states=self.states[:, 1:].copy(),
                          control=self.control, system=system)

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x{j}" for j in range(self.states.shape[1] - 1)) + ",xcost"
        _write_csv(path, header, np.column_stack([self.grid, self.states[:, 1:],
                                                  self.states[:, 0]]))


def _write_csv(path, header: str, rows) -> None:
    """The one CSV writer: header and rows to path or a file object, numbers
    as %.17g (they read back exactly), strings as they are."""
    lines = [header] + [",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
                        for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def signal_field(sys: ControlSystem, u: ControlSignal) -> PiecewiseField:
    """The field x' = f(x, u(t)), holding on each grid segment the value of
    u at its midpoint: the grid hits u's switches, so a step that ends on
    one keeps its own arc's control at every stage.  When f is the
    grammar's generated dynamics, each piece carries its generated runner
    with the piece's control bound, as a list of floats."""
    rate, pieces = sys._rate, {}
    runner = getattr(sys.f, "runner", None)
    run = runner and runner()
    for v in u.values:
        pieces[id(v)] = X = TimeVectorField(
            sys.m, lambda _, x, v=v: rate(x, v), lambda _, x, v=v: sys.jac_x(x, v),
            run and (lambda y, ts, i0, i1, xs, v=v.tolist(): run(y, v, ts, i0, i1, xs)))
        X.eval.on_lists = True
    return PiecewiseField(sys.m, lambda t0, t1: pieces[id(u.value_at(0.5 * (t0 + t1)))],
                          u.switch_times)


def simulate(sys: ControlSystem, u: ControlSignal, x0,
             cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate x' = f(x, u(t)), the field `signal_field(sys, u)`, on [a, b]
    by fixed-step RK4 on a grid hitting every switch."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.m or not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite with the system dimension")
    for v in u.values:
        if not sys.control_set.contains(v):
            raise ValueError("control signal value outside the control set")
    grid, states, _ = _lifted_path(signal_field(sys, u), None, u.a, u.b, x0, (), cfg)
    cls = ExtendedTrajectory if sys.extended else Trajectory
    return cls(grid=grid, states=np.array(states), control=u, system=sys)


def _event_path(sys: ControlSystem, traj: Trajectory, times: Sequence[float],
                cfg: Optional[IntegratorConfig]):
    """traj on [a, max(times)] with each of times a grid node, and the node
    index of each time: traj's own nodes if its grid holds them all, else
    those of `simulate` from its start on cfg's grid with times as events.
    It is the one reader of the reference state gamma(t): the cones, the
    needle and time-perturbation vectors, the transport and reach checks
    read gamma only at its nodes, and no state is interpolated."""
    node = {s: i for i, s in enumerate(traj.grid.tolist())}
    if not all(s in node for s in times):
        cfg = cfg or IntegratorConfig()
        traj = simulate(sys, traj.control, traj.states[0],
                        IntegratorConfig(cfg.step, cfg.event_times + tuple(times)))
        node = {s: i for i, s in enumerate(traj.grid.tolist())}
    if not all(s in node for s in times):
        raise ValueError(f"times {times!r} must lie in the horizon ({traj.a!r}, {traj.b!r}]")
    end = max(node[s] for s in times) + 1
    return Trajectory(traj.grid[:end], traj.states[:end], traj.control, sys), node


def cost(ext_traj: ExtendedTrajectory) -> float:
    """Total running cost: the final value of the cost coordinate."""
    return float(ext_traj.states[-1, 0])


def lebesgue_times(u: ControlSignal, candidates: Sequence[float]) -> List[float]:
    """Interior candidate times that avoid the switch set.

    For a piecewise-constant control every interior non-switch time is a
    Lebesgue time: the control is constant near it, so the needle-variation
    expansion holds with the plain integrand value.
    """
    out = []
    for t in candidates:
        t = float(t)
        if not (u.a < t < u.b):
            continue
        if _switches_at(u.switch_times, t):
            continue
        out.append(t)
    return out


def _switches_at(switch_times, t: float) -> List[int]:
    """Indices j, in order, of the sorted switch_times s_j that the finite t
    falls on: |t - s_j| <= 1e-12 (1 + |s_j|).  Such an s_j has
    1 + |s_j| <= (1 + |t|) / (1 - 1e-12), so it lies within 2e-12 (1 + |t|)
    of t, with room for the rounding of the window's ends; two bisections
    find the switches in that window, and each is tested exactly."""
    w = 2e-12 * (1.0 + abs(t))
    return [j for j in range(bisect.bisect_left(switch_times, t - w),
                             bisect.bisect_right(switch_times, t + w))
            if abs(t - switch_times[j]) <= 1e-12 * (1.0 + abs(switch_times[j]))]
