"""Batch front end: problem files in, reports and plot-ready data out.

Problem files are JSON.  Dynamics come either from a builtin
(double_integrator, scalar_integrator, linear_system) or from expression
strings over x0..x{m-1}, u0..u{k-1} in a small arithmetic grammar:
+, -, *, /, ^ and the functions sin, cos, exp.  Exit codes: 0 success or
check passed, 1 check failed, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .control_system import (ControlSignal, ControlSystem, ExtendedTrajectory,
                             _write_csv, ball, box, cost, extend, finite, lebesgue_times,
                             simulate)
from ._simplex import SimplexError
from .cone_geometry import RANK_TOL, ConeCertificateError, _queries, null_space
from .flows import FlowBlowUpError, IntegratorConfig, SingularTransportError
from .grammar import (ProblemError, compile_dynamics, compile_gradient, max_degree,
                      parse_expression)
from .perturbations import NeedleOverflowError, build_tangent_cone
from .pmp import (AdjointCurve, BoundarySpec, Extremal, UnboundedHamiltonianError,
                  UnsupportedMaximizationError, check_pmp)
from .reachable import SamplePolicy, sample_reachable
from .shooting import (ShootingFailure, ShootingOptions, ShootingProblem,
                       shoot, switching_structure)


# ---------------------------------------------------------------------------
# problem files
#
# Every item of a problem file is fetched by `_get` and checked by a typed
# read: a function of the item and its path in the file that returns the
# item's value, or refuses it as "<path> must be <what>, got <value>".

_NEEDED = object()


def _bad(path, what, value):
    return ProblemError(f"{path} must be {what}, got {value!r}")


def _get(obj, key, path, read, default=_NEEDED):
    """The item `key` of the object at `path` ("" for the file's top level),
    read by `read`.  A missing or null item is `default`, and bad input
    without one."""
    item = f"{path}.{key}" if path else key
    value = obj.get(key)
    if value is None:
        if default is _NEEDED:
            raise ProblemError(f"problem file needs '{item}'")
        return default
    return read(value, item)


def _object(*keys):
    """A read of an object whose keys are among `keys`."""
    def read(value, path):
        if not isinstance(value, dict):
            raise _bad(path, "an object", value)
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ProblemError(f"{path} must be an object with keys from {sorted(keys)}, "
                               f"got unknown {unknown}")
        return value
    return read


def _list(entry, nonempty=False):
    """A read of a list, as a tuple of its entries read by `entry` as path[i]."""
    def read(value, path):
        if not isinstance(value, list) or nonempty and not value:
            raise _bad(path, "a nonempty list" if nonempty else "a list", value)
        return tuple(entry(v, f"{path}[{i}]") for i, v in enumerate(value))
    return read


def _string(*names):
    """A read of a string, one of `names` where they are given."""
    def read(value, path):
        if not isinstance(value, str) or names and value not in names:
            raise _bad(path, f"one of {list(names)}" if names else "a string", value)
        return value
    return read


def _real(value):
    """value as a float, or None if it is not a JSON number: a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        return math.copysign(math.inf, value)


def _finite_floats(items):
    """Whether the list items holds only finite floats of Python's own type."""
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def _number(what, ok=None):
    """A read of a number that `ok` accepts."""
    def read(value, path):
        v = _real(value)
        if v is None or ok and not ok(v):
            raise _bad(path, what, value)
        return v
    return read


_finite = _number("finite", math.isfinite)
_positive = _number("positive and finite", lambda v: 0 < v < math.inf)


def _integer(least):
    """A read of an integer (an integral float counts) of at least `least`."""
    def read(value, path):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise _bad(path, f"an integer >= {least}", value)
        return value
    return read


def _array(ndim, size=None, finite=True, within=None):
    """A read of a float vector (ndim 1; a number is one entry) or matrix
    (ndim 2) of `size` entries or rows, finite or merely free of NaN, and a
    point of the control set `within` where it is given."""
    shape = ("a numeric " + ("vector" if ndim == 1 else "matrix") if size is None
             else f"a numeric vector of length {size}" if ndim == 1
             else f"a {size}-row numeric matrix")
    ok = math.isfinite if finite else (lambda v: not math.isnan(v))

    def read(value, path):
        a = np.array(value, dtype=object)
        reals = [_real(v) for v in a.flat]
        if None in reals or a.ndim > ndim or ndim == 2 and a.ndim < 2:
            raise _bad(path, shape, value)
        x = np.array(reals, dtype=float).reshape(a.shape if ndim == 2 else -1)
        if size is not None and len(x) != size:
            raise _bad(path, shape, value)
        if not all(map(ok, reals)):
            raise _bad(path, "finite" if finite else "free of NaN", value)
        if within is not None and not within.contains(x):
            raise _bad(path, "in the control set", value)
        return x
    return read


def _vectors(size, within):
    """A read of a list of points of the control set `within`, each a finite
    numeric vector of length `size`: `_list(_array(1, size, within=within))`,
    whose errors it raises.  A list of lists of `size` floats, as `shoot`
    writes, is read in one pass, with `contains` on each value."""
    each = _list(_array(1, size, within=within))

    def read(value, path):
        if (isinstance(value, list) and set(map(type, value)) == {list}
                and set(map(len, value)) == {size}
                and _finite_floats(list(itertools.chain.from_iterable(value)))):
            x = np.array(value)
            if within.contains(x):
                return x
        return each(value, path)
    return read


def _times(value, path):
    """A read of a list of numbers, `_list(_number("a number"))`; a list of
    floats is read at once."""
    if isinstance(value, list) and set(map(type, value)) <= {float}:
        return tuple(value)
    return _list(_number("a number"))(value, path)


def _horizon(value, path):
    """An object with 'a' and 'b', or the number b."""
    return _object("a", "b")(value, path) if isinstance(value, dict) else {"b": value}


def _parse_control_set(spec):
    kind = _get(spec, "kind", "control_set", _string("box", "finite", "ball"))
    if kind == "box":
        lo = _get(spec, "lo", "control_set", _array(1, finite=False))
        hi = _get(spec, "hi", "control_set", _array(1, lo.size, finite=False))
        if not np.all(lo <= hi):
            raise _bad("control_set.hi", ">= control_set.lo componentwise", spec["hi"])
        return box(lo, hi)
    if kind == "finite":
        points = _get(spec, "points", "control_set", _list(_array(1), nonempty=True))
        for i, p in enumerate(points):
            if p.size != points[0].size:
                raise _bad(f"control_set.points[{i}]",
                           f"a numeric vector of length {points[0].size}", spec["points"][i])
        return finite(points)
    return ball(_get(spec, "center", "control_set", _array(1)),
                _get(spec, "radius", "control_set", _number("a nonnegative number",
                                                            lambda v: v >= 0)))


# the builtin integrators are expressions of the grammar, and so get its
# generated RK4 steps
_INTEGRATORS = {"double_integrator": ("x1", "u0"), "scalar_integrator": ("u0",)}


def _build_dynamics(spec, cset):
    """Returns (m, k, f, df_dx, degree in u)."""
    name = _get(spec, "builtin", "dynamics", _string("linear_system", *_INTEGRATORS), None)
    if name == "linear_system":
        A = _get(spec, "A", "dynamics", _array(2))
        if A.shape[0] != A.shape[1]:
            raise _bad("dynamics.A", "a square matrix", spec["A"])
        B = _get(spec, "B", "dynamics", _array(2, len(A)))
        return (len(A), B.shape[1],
                lambda x, u: A @ x + B @ np.atleast_1d(u),
                lambda x, u: A, 1)
    exprs = _INTEGRATORS.get(name) or _get(spec, "expressions", "dynamics",
                                           _list(_string(), nonempty=True))
    m, k = len(exprs), 1 if name else cset.dim
    return (m, k, *compile_dynamics(exprs, m, k))


def _parse_boundary_end(bd, end, m):
    """Returns (anchor, basis or None) of boundary.<end>."""
    path = f"boundary.{end}"
    spec = _get(bd, end, "boundary", _object("point", "anchor", "normals"))
    vector = _array(1, m)
    point = _get(spec, "point", path, vector, None)
    if point is not None:
        return point, None
    anchor = _get(spec, "anchor", path, vector)
    normals = _get(spec, "normals", path, _list(vector), ())
    for i, w in enumerate(normals):
        if not np.linalg.norm(w) > RANK_TOL:
            raise _bad(f"{path}.normals[{i}]", f"nonzero (norm > {RANK_TOL:g})",
                       spec["normals"][i])
    # manifold tangent space = annihilator of the level-set normals
    return anchor, tuple(null_space(normals, m).T)


_SIGNAL = _object("switch_times", "values")


def _parse_signal(spec, path, a, b, values):
    """The control signal read from the object at `path`, its values by the
    read `values`."""
    times = _get(spec, "switch_times", path, _times, ())
    values = _get(spec, "values", path, values)
    try:
        return ControlSignal(a, b, times, values)
    except ValueError as e:
        raise ProblemError(f"bad control signal: {e}")


def _emit_signal(sig):
    return {"switch_times": list(sig.switch_times),
            "values": sig.values.tolist()}


_PROBLEM = _object("name", "dynamics", "control_set", "cost", "horizon", "p0", "boundary",
                   "tol", "integrator", "control", "cones", "reach", "guess", "shooting")
# n_starts >= 1: the seeded starts need at least one direction per scale
_SHOOTING = {"max_iter": _integer(0), "n_starts": _integer(1), "max_switches": _integer(0),
             "fd_h": _positive, "scales": _list(_positive)}


class Problem:
    """Parsed problem file."""

    def __init__(self, data):
        data = _PROBLEM(data, "problem file")
        self.name = _get(data, "name", "", _string(), "problem")
        self.control_set = _parse_control_set(_get(
            data, "control_set", "", _object("kind", "lo", "hi", "points", "center", "radius")))
        m, k, f, df, degree = _build_dynamics(
            _get(data, "dynamics", "", _object("builtin", "expressions", "A", "B")),
            self.control_set)
        if k != self.control_set.dim:
            raise ProblemError("control_set dimension does not match the dynamics")
        F = dF = None
        cost = _get(data, "cost", "", _object("expression"), None)
        if cost is not None:
            src = _get(cost, "expression", "cost", _string())
            F = parse_expression(src, m, k, "cost.expression")
            dF, cost_degree = compile_gradient(src, m, k)
            degree = max_degree((degree, cost_degree))
        self.sys = ControlSystem(m=m, k=k, f=f, control_set=self.control_set,
                                 F=F, df_dx=df, dF_dx=dF, u_degree=degree)
        hz = _get(data, "horizon", "", _horizon, {"b": 1.0})
        self.a = _get(hz, "a", "horizon", _finite, 0.0)
        self.b = _get(hz, "b", "horizon", _finite)
        if not self.b > self.a:
            raise ProblemError("horizon needs b > a")
        bd = _get(data, "boundary", "", _object("mode", "initial", "final"),
                  {"initial": {"point": [0.0] * m}, "final": {"anchor": [0.0] * m}})
        mode = _get(bd, "mode", "boundary", _string("fixed_time", "free_time"), "fixed_time")
        self.x_a, ib = _parse_boundary_end(bd, "initial", m)
        self.x_b, fb = _parse_boundary_end(bd, "final", m)
        self.boundary = BoundarySpec(mode=mode, initial=ib, final=fb)
        self.p0 = _get(data, "p0", "", _finite, -1.0)
        self.tol = _get(data, "tol", "", _positive, 1e-6)
        integ = _get(data, "integrator", "", _object("step"), {})
        self.step = _get(integ, "step", "integrator", _positive, None)
        control = _get(data, "control", "", _SIGNAL, None)
        self.control = (None if control is None else _parse_signal(
            control, "control", self.a, self.b, _vectors(k, self.control_set)))
        spec = _get(data, "cones", "", _object("time", "times", "controls", "queries"), None)
        self.cones = None
        if spec is not None:
            t = _get(spec, "time", "cones", _finite)
            if not self.a < t <= self.b:
                raise _bad("cones.time", f"in (a, b] = ({self.a!r}, {self.b!r}]", spec["time"])
            times = _get(spec, "times", "cones", _list(_finite, nonempty=True))
            for i, tau in enumerate(times):
                if tau > t:
                    raise _bad(f"cones.times[{i}]", f"at most cones.time = {t!r}",
                               spec["times"][i])
                # a needle is placed where the control is constant nearby
                if self.control is not None and not lebesgue_times(self.control, [tau]):
                    raise _bad(f"cones.times[{i}]", "a Lebesgue time of control: in (a, b) = "
                               f"({self.a!r}, {self.b!r}) and on no switch", spec["times"][i])
            self.cones = {"time": t, "times": times,
                          "controls": _get(spec, "controls", "cones", _list(_array(
                              1, k, within=self.control_set), nonempty=True)),
                          "queries": _get(spec, "queries", "cones", _list(_array(1, m)), ())}
        spec = _get(data, "reach", "", _object("n_controls", "max_switches", "seed", "T"), {})
        self.reach = {"n_controls": _get(spec, "n_controls", "reach", _integer(1), 64),
                      "max_switches": _get(spec, "max_switches", "reach", _integer(0), 3),
                      "seed": _get(spec, "seed", "reach", _integer(0), 0),
                      # b - a, the default, may overflow
                      "T": (_get(spec, "T", "reach", _positive, None)
                            or _positive(self.b - self.a, "reach.T"))}
        self.guess = _get(data, "guess", "", _array(1), None)
        spec = _get(data, "shooting", "", _object(*_SHOOTING), {})
        self.shooting = {key: _get(spec, key, "shooting", read)
                         for key, read in _SHOOTING.items() if spec.get(key) is not None}


def _read_json(path, missing):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        raise ProblemError(f"{missing}: {path}")
    except json.JSONDecodeError as e:
        raise ProblemError(f"invalid JSON in {path}: line {e.lineno}: {e.msg}")


def load_problem(path) -> Problem:
    return Problem(_read_json(path, "problem file not found"))


# ---------------------------------------------------------------------------
# output helpers

def _json_text(obj, indent="\n"):
    """The text `json.dumps(obj, indent=2)` writes for obj, whose lines
    start at indent (a newline and the spaces before them): objects whose
    keys are strings, numbers, booleans or None, lists and tuples, strings
    (json's own C escaping), None,
    booleans, integers and floats, a float subclass such as numpy's
    float64 included (`float.__repr__`, or NaN, Infinity or -Infinity).
    Any other type raises TypeError, as json does without a default."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        # a signal's times, a list of finite floats, and its values, a list
        # of lists of as many finite floats, are formatted in one operation
        if _finite_floats(obj):
            items = sep.join(map(float.__repr__, obj))
        elif (set(map(type, obj)) == {list} and len(set(map(len, obj))) == 1
                and _finite_floats(cells := list(itertools.chain.from_iterable(obj)))):
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%r"] * len(obj[0])) + inner + "]"
            items = sep.join([row] * len(obj)) % tuple(cells)
        else:
            items = sep.join([_json_text(v, inner) for v in obj])
        return "[" + inner + items + indent + "]"
    if isinstance(obj, dict):
        items = []
        for key, v in obj.items():
            if isinstance(key, (int, float)) or key is None:
                # json writes such a key as the string of its value
                key = _json_text(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path, obj):
    """Write to path, in one write, the bytes `json.dump(obj, fh, indent=2)`
    and a newline would."""
    text = _json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _adjoint_to_csv(adj: AdjointCurve, path):
    header = "t,sigma0," + ",".join(f"sigma{j + 1}" for j in range(adj.sigma.shape[1]))
    _write_csv(path, header, np.column_stack([adj.grid, np.full(len(adj.grid), adj.sigma0),
                                              adj.sigma]))


def _load_csv(path, expect_prefix):
    """The rows under the header of the CSV file at path, blank lines
    skipped, as a float array, every cell parsed in one pass by `float`.  A
    header that does not start with expect_prefix, a cell that is no
    number, rows of unequal length, fewer than two rows and a cell that is
    not finite are bad input; the last is named by its row, counted from 0
    under the header, and its column."""
    try:
        with open(path) as fh:
            lines = [ln for ln in map(str.strip, fh) if ln]
    except (FileNotFoundError, NotADirectoryError):
        raise ProblemError(f"missing file: {path}")
    if not lines or not lines[0].startswith(expect_prefix):
        raise ProblemError(f"{path}: expected header starting with '{expect_prefix}'")
    rows = lines[1:]
    if not rows:
        raise ProblemError(f"{path}: need at least two data rows")
    try:
        cells = list(map(float, ",".join(rows).split(",")))
    except ValueError:
        raise ProblemError(f"{path}: non-numeric row")
    if len({row.count(",") for row in rows}) != 1:
        raise ProblemError(f"{path}: non-numeric row")
    if len(rows) < 2:
        raise ProblemError(f"{path}: need at least two data rows")
    data = np.array(cells).reshape(len(rows), -1)
    if not np.isfinite(data).all():
        i, j = divmod(int(np.flatnonzero(~np.isfinite(data))[0]), data.shape[1])
        names = lines[0].split(",")
        column = names[j].strip() if j < len(names) else f"{j}"
        raise ProblemError(f"{path}: row {i}, column {column} must be finite, "
                           f"got {rows[i].split(',')[j].strip()!r}")
    return data


def _cfg(problem: Problem) -> IntegratorConfig:
    return IntegratorConfig(step=problem.step)


def _out_dir(path, make=True):
    """path, the --out directory, made with its parents first if make: a
    path that names a file, or cannot be made, is bad input."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ProblemError(f"--out {path!r} is not a directory")
    if make:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as e:
            raise ProblemError(f"--out {path!r}: {e.strerror}") from None
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    if problem.control is None:
        raise ProblemError("simulate needs a 'control' entry in the problem file")
    _out_dir(args.out)
    if problem.sys.F is not None:
        traj = simulate(extend(problem.sys), problem.control,
                        np.concatenate(([0.0], problem.x_a)), _cfg(problem))
        total = cost(traj)
    else:
        traj = simulate(problem.sys, problem.control, problem.x_a, _cfg(problem))
        total = 0.0
    traj.to_csv(os.path.join(args.out, "trajectory.csv"))
    _write_json(os.path.join(args.out, "cost.json"),
                {"name": problem.name, "cost": total})
    _write_json(os.path.join(args.out, "control.json"), _emit_signal(problem.control))
    return 0


def _load_extremal(problem: Problem, out_dir):
    """Rebuild an Extremal from the three files shoot (or simulate) wrote."""
    m = problem.sys.m
    tdata = _load_csv(os.path.join(out_dir, "trajectory.csv"), "t,")
    header_cols = tdata.shape[1] - 1
    path = os.path.join(out_dir, "control.json")
    grid = tdata[:, 0]
    # a stored value outside the control set could pass the maximum
    # condition, H there exceeding its sup over U, so it is bad input
    sig = _parse_signal(_SIGNAL(_read_json(path, "missing file"), path), path,
                        float(grid[0]), float(grid[-1]),
                        _vectors(problem.sys.k, problem.control_set))
    if header_cols == m + 1:
        states = np.column_stack([tdata[:, -1], tdata[:, 1:m + 1]])
    elif header_cols == m:
        states = np.column_stack([np.zeros(len(grid)), tdata[:, 1:m + 1]])
    else:
        raise ProblemError("trajectory.csv column count does not match the problem")
    traj = ExtendedTrajectory(grid=grid, states=states, control=sig, system=extend(problem.sys))
    adata = _load_csv(os.path.join(out_dir, "adjoint.csv"), "t,sigma0")
    if adata.shape[1] != m + 2:
        raise ProblemError("adjoint.csv column count does not match the problem")
    if len(adata) != len(grid) or np.max(np.abs(adata[:, 0] - grid)) > 1e-12:
        raise ProblemError("adjoint.csv grid does not match trajectory.csv")
    adj = AdjointCurve(grid=grid, sigma0=float(adata[0, 1]), sigma=adata[:, 2:])
    return Extremal(ext_traj=traj, control=sig, adjoint=adj)


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    tol = problem.tol if args.tol is None else _positive(args.tol, "--tol")
    ext = _load_extremal(problem, _out_dir(args.out, make=False))
    bounds = problem.boundary
    if args.mode is not None:
        mode = "free_time" if args.mode == "free" else "fixed_time"
        bounds = BoundarySpec(mode=mode, initial=bounds.initial or None,
                              final=bounds.final or None)
    report = check_pmp(problem.sys, ext, bounds, tol)
    _write_json(os.path.join(args.out, "report.json"),
                json.loads(report.to_json()))
    return 0 if report.classification in ("normal", "abnormal") else 1


def cmd_shoot(args) -> int:
    problem = load_problem(args.problem)
    tol = problem.tol if args.tol is None else _positive(args.tol, "--tol")
    seed = 0 if args.seed is None else _integer(0)(args.seed, "--seed")
    _out_dir(args.out)
    sp = ShootingProblem(sys=problem.sys, bounds=problem.boundary,
                         p0=problem.p0, x_a=problem.x_a, x_b=problem.x_b,
                         a=problem.a, b=problem.b)
    # simulate and check take no guess, so its length is read here
    if problem.guess is not None and problem.guess.size != sp.n_unknowns:
        raise _bad("guess", f"a numeric vector of length {sp.n_unknowns}",
                   problem.guess.tolist())
    opts = ShootingOptions(tol=tol,
                           step=problem.step,
                           seed=seed,
                           **problem.shooting)
    result = shoot(sp, guess=problem.guess, opts=opts)
    struct = switching_structure(result.extremal)
    payload = {
        "name": problem.name,
        "converged": bool(result.converged),
        "residual_norm": float(result.residual_norm),
        "iterations": int(result.iterations),
        "jacobian_rank": int(result.jacobian_rank),
        "n_unknowns": int(result.n_unknowns),
        "final_time": result.extremal.ext_traj.b,
        "cost": cost(result.extremal.ext_traj),
        "switch_times": list(struct.switch_times),
        "arc_labels": list(struct.arc_labels),
    }
    _write_json(os.path.join(args.out, "result.json"), payload)
    result.extremal.ext_traj.to_csv(os.path.join(args.out, "trajectory.csv"))
    _adjoint_to_csv(result.extremal.adjoint, os.path.join(args.out, "adjoint.csv"))
    _write_json(os.path.join(args.out, "control.json"),
                _emit_signal(result.extremal.control))
    return 0 if result.converged else 3


def cmd_cones(args) -> int:
    problem = load_problem(args.problem)
    if problem.control is None:
        raise ProblemError("cones needs a 'control' entry in the problem file")
    spec, m = problem.cones, problem.sys.m
    if spec is None:
        raise ProblemError("cones needs a 'cones' object with 'time'")
    _out_dir(args.out)
    cfg = _cfg(problem)
    # with the sampled times and t on its grid the cone sweeps this path
    traj = simulate(problem.sys, problem.control, problem.x_a,
                    IntegratorConfig(cfg.step, (*spec["times"], spec["time"])))
    try:
        cone = build_tangent_cone(problem.sys, traj, spec["time"], spec, cfg)
    except ValueError as e:
        raise ProblemError(f"cone sampling: {e}")
    cone.to_csv(os.path.join(args.out, "cone.csv"))
    _write_csv(os.path.join(args.out, "generators.csv"), ",".join(f"g{j}" for j in range(m)),
               cone.cone.generators)
    queries = spec["queries"]
    # each LP kind for every query in one stack, the residual LP once a query
    _, statuses, margins = _queries(cone.cone, np.reshape(queries, (len(queries), m)))
    results = [{"vector": [float(c) for c in v], "status": status, "margin": float(margin)}
               for v, status, margin in zip(queries, statuses, margins)]
    _write_json(os.path.join(args.out, "membership.json"), {"queries": results})
    return 0


def cmd_reach(args) -> int:
    problem = load_problem(args.problem)
    spec = problem.reach
    seed = spec["seed"] if args.seed is None else _integer(0)(args.seed, "--seed")
    policy = SamplePolicy(n_controls=spec["n_controls"], max_switches=spec["max_switches"],
                          seed=seed, step=problem.step)
    _out_dir(args.out)
    cloud = sample_reachable(problem.sys, problem.x_a, spec["T"], policy)
    cloud.to_csv(os.path.join(args.out, "cloud.csv"))
    cloud.save_provenance(os.path.join(args.out, "cloud_provenance.json"))
    return 0


# ---------------------------------------------------------------------------

# the optional flags, each given only to the commands that read it
_FLAGS = {"--tol": {"type": float}, "--seed": {"type": int},
          "--mode": {"choices": ("fixed", "free")}}


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every call of `main` shares it."""
    p = argparse.ArgumentParser(
        prog="pmpkit",
        description="simulate, check, shoot, cones, reach on problem files")
    sub = p.add_subparsers(dest="command")
    for name, fn, flags in (("simulate", cmd_simulate, ()),
                            ("check", cmd_check, ("--tol", "--mode")),
                            ("shoot", cmd_shoot, ("--tol", "--seed")),
                            ("cones", cmd_cones, ()),
                            ("reach", cmd_reach, ("--seed",))):
        sp = sub.add_parser(name)
        sp.add_argument("--problem", required=True)
        sp.add_argument("--out", default=".")
        for flag in flags:
            sp.add_argument(flag, default=None, **_FLAGS[flag])
        sp.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ProblemError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ShootingFailure, FlowBlowUpError, SingularTransportError,
            UnboundedHamiltonianError, ConeCertificateError, SimplexError,
            NeedleOverflowError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, UnsupportedMaximizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
