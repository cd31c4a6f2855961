"""Batch front end: problem files in, reports and plot-ready data out.

Problem files are JSON.  Dynamics come either from a builtin
(double_integrator, scalar_integrator, linear_system) or from expression
strings over x0..x{m-1}, u0..u{k-1} in a small arithmetic grammar:
+, -, *, /, ^ and the functions sin, cos, exp.  Exit codes: 0 success or
check passed, 1 check failed, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .control_system import (ControlSignal, ControlSystem, ExtendedTrajectory,
                             _write_csv, ball, box, cost, extend, finite, simulate)
from ._simplex import SimplexError
from .cone_geometry import (RANK_TOL, ConeCertificateError, conic_membership,
                            membership_margin, null_space)
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

def _as_matrix(obj, name):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ProblemError(f"{name} must be a numeric matrix")
    if M.ndim != 2:
        raise ProblemError(f"{name} must be two-dimensional")
    return M


def _parse_control_set(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ProblemError("control_set must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "box":
        return box(_bound(spec, "lo"), _bound(spec, "hi"))
    if kind == "finite":
        return finite([tuple(np.atleast_1d(p)) for p in _item(spec, "points")])
    if kind == "ball":
        given = _item(spec, "radius")
        try:
            radius = float(given)
        except (TypeError, ValueError):
            radius = math.nan
        if not radius >= 0:
            raise ProblemError("control_set.radius must be a nonnegative number, "
                               f"got {given!r}")
        center = _bound(spec, "center")
        if not np.isfinite(center).all():
            raise ProblemError("control_set.center must be finite")
        return ball(center, radius)
    raise ProblemError(f"unknown control_set kind '{kind}'")


def _item(spec, key):
    try:
        return spec[key]
    except KeyError:
        raise ProblemError(f"problem file needs 'control_set.{key}'")


def _bound(spec, key):
    """A numeric vector of the control set, infinite entries allowed, no NaN."""
    name = f"control_set.{key}"
    given = _item(spec, key)
    try:
        v = np.asarray(given, dtype=float)
    except (TypeError, ValueError):
        raise ProblemError(f"{name} must be a numeric vector")
    if np.isnan(v).any():
        raise ProblemError(f"{name} must not be NaN")
    return v


def _text(src):
    """src, checked to be a string: the grammar keeps its compiles keyed on
    the expression texts, so they must be hashable."""
    if not isinstance(src, str):
        raise ProblemError(f"parse error: expression must be a string, got {src!r}")
    return src


def _build_dynamics(spec, cset):
    """Returns (m, k, f, df_dx, degree in u)."""
    if not isinstance(spec, dict):
        raise ProblemError("dynamics must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        # the integrators are expressions of the grammar, and so get its
        # generated RK4 steps
        if name == "double_integrator":
            return (2, 1, *compile_dynamics(("x1", "u0"), 2, 1))
        if name == "scalar_integrator":
            return (1, 1, *compile_dynamics(("u0",), 1, 1))
        if name == "linear_system":
            A = _as_matrix(spec.get("A"), "A")
            B = _as_matrix(spec.get("B"), "B")
            if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
                raise ProblemError("linear_system needs square A and matching B")
            return (A.shape[0], B.shape[1],
                    lambda x, u: A @ x + B @ np.atleast_1d(u),
                    lambda x, u: A, 1)
        raise ProblemError(f"unknown builtin '{name}'")
    if "expressions" in spec:
        exprs = spec["expressions"]
        if not isinstance(exprs, list) or not exprs:
            raise ProblemError("dynamics.expressions must be a nonempty list")
        m, k = len(exprs), cset.dim
        return (m, k, *compile_dynamics(tuple(map(_text, exprs)), m, k))
    raise ProblemError("dynamics needs 'builtin' or 'expressions'")


def _finite(value, name, positive=False):
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and (v > 0 or not positive)):
        what = "positive and finite" if positive else "finite"
        raise ProblemError(f"{name} must be {what}, got {value!r}")
    return v


def _integer(value, name, least):
    """An integer (an integral float counts) of at least `least`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ProblemError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _options(data, name, allowed):
    """The optional `name` block of a problem file; unknown keys are rejected."""
    block = data.get(name)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ProblemError(f"{name} must be an object")
    bad = set(block) - allowed
    if bad:
        raise ProblemError(f"unknown {name} option(s): {sorted(bad)}")
    return block


def _list(items, name):
    if not isinstance(items, list):
        raise ProblemError(f"{name} must be a list, got {items!r}")
    return items


def _finite_vector(obj, m, name):
    try:
        x = np.asarray(obj, dtype=float).ravel()
    except (TypeError, ValueError):
        raise ProblemError(f"{name} must be a numeric vector")
    if x.size != m:
        raise ProblemError(f"{name} has wrong dimension")
    if not np.all(np.isfinite(x)):
        raise ProblemError(f"{name} must be finite")
    return x


def _parse_boundary_end(spec, m, name):
    """Returns (anchor, basis or None)."""
    if not isinstance(spec, dict):
        raise ProblemError(f"boundary.{name} must be an object")
    if "point" in spec:
        return _finite_vector(spec["point"], m, f"boundary.{name}.point"), None
    if "anchor" in spec:
        x = _finite_vector(spec["anchor"], m, f"boundary.{name}.anchor")
        normals = []
        for i, w in enumerate(spec.get("normals", [])):
            where = f"boundary.{name}.normals[{i}]"
            w = _finite_vector(w, m, where)
            if not np.linalg.norm(w) > RANK_TOL:
                raise ProblemError(f"{where} must be nonzero (norm > {RANK_TOL:g})")
            normals.append(w)
        # manifold tangent space = annihilator of the level-set normals
        return x, tuple(null_space(normals, m).T)
    raise ProblemError(f"boundary.{name} needs 'point' or 'anchor'")


def _parse_signal(spec, a, b, k):
    if not isinstance(spec, dict) or "values" not in spec:
        raise ProblemError("control must be an object with 'values'")
    times = tuple(float(t) for t in spec.get("switch_times", []))
    values = tuple(tuple(np.atleast_1d(np.asarray(v, dtype=float))) for v in spec["values"])
    if any(len(v) != k for v in values):
        raise ProblemError("control value has wrong dimension")
    try:
        return ControlSignal(a, b, times, values)
    except ValueError as e:
        raise ProblemError(f"bad control signal: {e}")


def _emit_signal(sig):
    return {"switch_times": list(sig.switch_times),
            "values": [list(v) for v in sig.values]}


class Problem:
    """Parsed problem file."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ProblemError("problem file must hold a JSON object")
        self.name = str(data.get("name", "problem"))
        if "control_set" not in data:
            raise ProblemError("problem file needs 'control_set'")
        self.control_set = _parse_control_set(data["control_set"])
        try:
            dyn = data["dynamics"]
        except KeyError:
            raise ProblemError("problem file needs 'dynamics'")
        m, k, f, df, degree = _build_dynamics(dyn, self.control_set)
        if k != self.control_set.dim:
            raise ProblemError("control_set dimension does not match the dynamics")
        F = dF = None
        cost = data.get("cost")
        if cost is not None:
            if not isinstance(cost, dict) or "expression" not in cost:
                raise ProblemError("cost must be an object with 'expression'")
            src = _text(cost["expression"])
            F = parse_expression(src, m, k, "cost.expression")
            dF, cost_degree = compile_gradient(src, m, k)
            degree = max_degree((degree, cost_degree))
        self.sys = ControlSystem(m=m, k=k, f=f, control_set=self.control_set,
                                 F=F, df_dx=df, dF_dx=dF, u_degree=degree)
        hz = data.get("horizon", {"a": 0.0, "b": 1.0})
        if isinstance(hz, (int, float)):
            hz = {"a": 0.0, "b": hz}
        if not isinstance(hz, dict) or "b" not in hz:
            raise ProblemError("horizon must be a number or an object with 'b'")
        self.a = _finite(hz.get("a", 0.0), "horizon.a")
        self.b = _finite(hz["b"], "horizon.b")
        if not self.b > self.a:
            raise ProblemError("horizon needs b > a")
        bd = data.get("boundary")
        if bd is None:
            bd = {"mode": "fixed_time",
                  "initial": {"point": [0.0] * m},
                  "final": {"anchor": [0.0] * m, "normals": []}}
        mode = bd.get("mode", "fixed_time")
        if mode not in ("fixed_time", "free_time"):
            raise ProblemError(f"unknown boundary mode '{mode}'")
        self.x_a, ib = _parse_boundary_end(bd["initial"], m, "initial")
        self.x_b, fb = _parse_boundary_end(bd["final"], m, "final")
        self.boundary = BoundarySpec(mode=mode, initial=ib, final=fb)
        self.p0 = _finite(data.get("p0", -1.0), "p0")
        self.tol = _finite(data.get("tol", 1e-6), "tol", positive=True)
        integ = data.get("integrator", {})
        self.step = (_finite(integ["step"], "integrator.step", positive=True)
                     if "step" in integ else None)
        self.control = None
        if data.get("control") is not None:
            self.control = _parse_signal(data["control"], self.a, self.b, k)
        self.cones = _options(data, "cones", {"time", "times", "controls", "queries"})
        self.reach = _options(data, "reach", {"n_controls", "max_switches", "seed", "T"})
        self.guess = data.get("guess")
        self.shooting = _options(data, "shooting",
                                 {"max_iter", "n_starts", "scales", "fd_h", "max_switches"})


def load_problem(path) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ProblemError(f"problem file not found: {path}")
    except json.JSONDecodeError as e:
        raise ProblemError(f"invalid JSON in {path}: line {e.lineno}: {e.msg}")
    return Problem(data)


# ---------------------------------------------------------------------------
# output helpers

def _g17(v) -> float:
    # round-trips exactly; JSON then prints the shortest exact form
    return float("%.17g" % float(v))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _adjoint_to_csv(adj: AdjointCurve, path):
    header = "t,sigma0," + ",".join(f"sigma{j + 1}" for j in range(adj.sigma.shape[1]))
    _write_csv(path, header, np.column_stack([adj.grid, np.full(len(adj.grid), adj.sigma0),
                                              adj.sigma]))


def _load_csv(path, expect_prefix):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        raise ProblemError(f"missing file: {path}")
    if not lines or not lines[0].startswith(expect_prefix):
        raise ProblemError(f"{path}: expected header starting with '{expect_prefix}'")
    try:
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        raise ProblemError(f"{path}: non-numeric row")
    if data.ndim != 2 or data.shape[0] < 2:
        raise ProblemError(f"{path}: need at least two data rows")
    return data


def _cfg(problem: Problem) -> IntegratorConfig:
    return IntegratorConfig(step=problem.step)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    if problem.control is None:
        raise ProblemError("simulate needs a 'control' entry in the problem file")
    os.makedirs(args.out, exist_ok=True)
    if problem.sys.F is not None:
        traj = simulate(extend(problem.sys), problem.control,
                        np.concatenate(([0.0], problem.x_a)), _cfg(problem))
        total = cost(traj)
    else:
        traj = simulate(problem.sys, problem.control, problem.x_a, _cfg(problem))
        total = 0.0
    traj.to_csv(os.path.join(args.out, "trajectory.csv"))
    _write_json(os.path.join(args.out, "cost.json"),
                {"name": problem.name, "cost": _g17(total)})
    _write_json(os.path.join(args.out, "control.json"), _emit_signal(problem.control))
    return 0


def _load_extremal(problem: Problem, out_dir):
    """Rebuild an Extremal from the three files shoot (or simulate) wrote."""
    m = problem.sys.m
    tdata = _load_csv(os.path.join(out_dir, "trajectory.csv"), "t,")
    header_cols = tdata.shape[1] - 1
    with open(os.path.join(out_dir, "control.json")) as fh:
        sig_spec = json.load(fh)
    grid = tdata[:, 0]
    sig = _parse_signal(sig_spec, float(grid[0]), float(grid[-1]), problem.sys.k)
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
    tol = problem.tol if args.tol is None else _finite(args.tol, "--tol", positive=True)
    ext = _load_extremal(problem, args.out)
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
    tol = problem.tol if args.tol is None else _finite(args.tol, "--tol", positive=True)
    os.makedirs(args.out, exist_ok=True)
    sp = ShootingProblem(sys=problem.sys, bounds=problem.boundary,
                         p0=problem.p0, x_a=problem.x_a, x_b=problem.x_b,
                         a=problem.a, b=problem.b)
    extra = dict(problem.shooting or {})
    if "scales" in extra:
        extra["scales"] = tuple(float(s) for s in extra["scales"])
    opts = ShootingOptions(tol=tol,
                           step=problem.step,
                           seed=args.seed if args.seed is not None else 0,
                           **extra)
    guess = None if problem.guess is None else np.asarray(problem.guess, dtype=float)
    result = shoot(sp, guess=guess, opts=opts)
    struct = switching_structure(result.extremal)
    payload = {
        "name": problem.name,
        "converged": bool(result.converged),
        "residual_norm": _g17(result.residual_norm),
        "iterations": int(result.iterations),
        "jacobian_rank": int(result.jacobian_rank),
        "n_unknowns": int(result.n_unknowns),
        "final_time": _g17(result.extremal.ext_traj.b),
        "cost": _g17(cost(result.extremal.ext_traj)),
        "switch_times": [_g17(t) for t in struct.switch_times],
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
    spec = problem.cones
    if spec is None or "time" not in spec:
        raise ProblemError("cones needs a 'cones' object with 'time'")
    m, k = problem.sys.m, problem.sys.k
    t = _finite(spec["time"], "cones.time")
    if not problem.a < t <= problem.b:
        raise ProblemError(f"cones.time must lie in (a, b] = ({problem.a!r}, {problem.b!r}], "
                           f"got {spec['time']!r}")
    times = [_finite(tau, f"cones.times[{i}]")
             for i, tau in enumerate(_list(spec.get("times", []), "cones.times"))]
    controls = []
    for i, c in enumerate(_list(spec.get("controls", []), "cones.controls")):
        u = _finite_vector(c, k, f"cones.controls[{i}]")
        if not problem.control_set.contains(u):
            raise ProblemError(f"cones.controls[{i}] must lie in the control set, got {c!r}")
        controls.append(u)
    queries = [_finite_vector(q, m, f"cones.queries[{i}]")
               for i, q in enumerate(_list(spec.get("queries", []), "cones.queries"))]
    os.makedirs(args.out, exist_ok=True)
    cfg = _cfg(problem)
    # with the sampled times and t on its grid the cone sweeps this path
    traj = simulate(problem.sys, problem.control, problem.x_a,
                    IntegratorConfig(cfg.step, (*times, t)))
    try:
        cone = build_tangent_cone(problem.sys, traj, t,
                                  {"times": times, "controls": controls}, cfg)
    except ValueError as e:
        raise ProblemError(f"cone sampling: {e}")
    cone.to_csv(os.path.join(args.out, "cone.csv"))
    _write_csv(os.path.join(args.out, "generators.csv"), ",".join(f"g{j}" for j in range(m)),
               cone.cone.generators)
    results = [{"vector": [_g17(c) for c in v],
                "status": conic_membership(cone.cone, v),
                "margin": _g17(membership_margin(cone.cone, v))} for v in queries]
    _write_json(os.path.join(args.out, "membership.json"), {"queries": results})
    return 0


def cmd_reach(args) -> int:
    problem = load_problem(args.problem)
    spec = problem.reach or {}
    seed = (_integer(args.seed, "--seed", 0) if args.seed is not None
            else _integer(spec.get("seed", 0), "reach.seed", 0))
    policy = SamplePolicy(
        n_controls=_integer(spec.get("n_controls", 64), "reach.n_controls", 1),
        max_switches=_integer(spec.get("max_switches", 3), "reach.max_switches", 0),
        seed=seed, step=problem.step)
    T = _finite(spec.get("T", problem.b - problem.a), "reach.T", positive=True)
    os.makedirs(args.out, exist_ok=True)
    cloud = sample_reachable(problem.sys, problem.x_a, T, policy)
    cloud.to_csv(os.path.join(args.out, "cloud.csv"))
    cloud.save_provenance(os.path.join(args.out, "cloud_provenance.json"))
    return 0


# ---------------------------------------------------------------------------

# the optional flags, each given only to the commands that read it
_FLAGS = {"--tol": {"type": float}, "--seed": {"type": int},
          "--mode": {"choices": ("fixed", "free")}}


def _build_parser():
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
