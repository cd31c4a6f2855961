"""Spans and counters around pmpkit's public functions, patched from outside.

A module that does `from .pmp import maximize_hamiltonian` holds its own
reference, so each function is replaced in every pmpkit module that holds
it.  Coarse boundaries record a span (name, start, end, parent, op);
per-step boundaries (dynamics, Jacobian, Hamiltonian and expression
evaluations) only count, so their cost does not swamp the trace; the cost
gradient, also called per step, is timed but leaves no span records.  Self time
is a span's duration minus the time its child spans cover; the time of a
counted call belongs to the self time of the span that made it.
"""

import json
import time
from collections import Counter, defaultdict

from pmpkit import (_simplex, cli, cone_geometry, control_system, flows,
                    perturbations, pmp, reachable, shooting)
from pmpkit.control_system import ControlSystem

MODULES = (cli, shooting, pmp, control_system, flows, perturbations,
           reachable, cone_geometry, _simplex)

# (module, function): span name is "<module>.<function>"
SPANS = (
    (cli, "main"),
    (shooting, "shoot"),
    (shooting, "boundary_residual"),
    (pmp, "maximize_hamiltonian"),
    (pmp, "check_pmp"),
    (pmp, "adjoint_flow"),
    (control_system, "simulate"),
    (flows, "tangent_lift_flow"),
    (perturbations, "build_tangent_cone"),
    (reachable, "sample_reachable"),
    (cone_geometry, "separate"),
    (cone_geometry, "conic_membership"),
    (cone_geometry, "membership_margin"),
    (cone_geometry, "cone_residual"),
    (_simplex, "solve_standard"),
    (_simplex, "linprog_dense"),
)
# called once per integration stage: timed and counted, but no span records
METHOD_SPANS = ("cost_grad_x",)
METHOD_COUNTERS = ("dynamics", "jac_x")
COUNTERS = ((pmp, "hamiltonian"),)

QUERIES = ("cone_geometry.separate", "cone_geometry.conic_membership",
           "cone_geometry.membership_margin")


def _short(module):
    return module.__name__.split(".")[-1]


class Tracer:
    """Collects spans and counts while `active`; patch() installs it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.active = False
        self.op = -1
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, post=None, keep=True):
        """Time fn as a span; keep=False aggregates it without a record."""
        spans, stack, counts, self_s = self.spans, self._stack, self.counts, self.self_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = None
            if keep:
                idx = len(spans)
                spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if keep:
                    spans[idx] = (name, t0, t1, stack[-1][0] if stack else -1, self.op)
                self_s[name] += dur - frame[1]
                counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(out)
            return out

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _posts(self):
        counts = self.counts

        def residual(out):
            if out is None:
                counts["shooting.boundary_residual.failed"] += 1

        def lp(out):
            if out.status != "optimal":
                counts["_simplex.solve_standard.not_optimal"] += 1

        def cloud(out):
            counts["reachable.skipped"] += len(out.skipped)

        return {"shooting.boundary_residual": residual,
                "_simplex.solve_standard": lp,
                "reachable.sample_reachable": cloud}

    def _parse_expression(self, fn):
        counter = self._counter

        def wrapper(*args, **kwargs):
            return counter("cli.expr_evals", fn(*args, **kwargs))

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper, attr):
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch(self):
        posts = self._posts()
        for mod, attr in SPANS:
            name = f"{_short(mod)}.{attr}"
            orig = getattr(mod, attr)
            self._replace(orig, self._span(name, orig, posts.get(name)), attr)
        for mod, attr in COUNTERS:
            orig = getattr(mod, attr)
            self._replace(orig, self._counter(f"{_short(mod)}.{attr}.calls", orig), attr)
        orig = cli.parse_expression
        self._replace(orig, self._parse_expression(orig), "parse_expression")
        for attr in METHOD_SPANS + METHOD_COUNTERS:
            orig = ControlSystem.__dict__[attr]
            name = f"control_system.{attr}"
            wrap = (self._span(name, orig, keep=False) if attr in METHOD_SPANS
                    else self._counter(name + ".calls", orig))
            self._undo.append((ControlSystem, attr, orig))
            setattr(ControlSystem, attr, wrap)

    def unpatch(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Counts, self times and spans gathered so far; then start afresh.

        The wrappers hold the containers themselves, so they are copied and
        cleared in place.
        """
        out = {"counts": dict(self.counts), "self_s": dict(self.self_s),
               "spans": list(self.spans)}
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()
        return out


def layer_metrics(snap, n_ops):
    """Per-op layer metrics from one traced pass over n_ops operations."""
    c, s = snap["counts"], snap["self_s"]

    def calls(name):
        return c.get(name + ".calls", 0) / n_ops

    def self_time(name):
        return s.get(name, 0.0) / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    lps = c.get("_simplex.solve_standard.calls", 0)
    queries = sum(c.get(q + ".calls", 0) for q in QUERIES)
    out = {
        "shooting.boundary_residual.calls": calls("shooting.boundary_residual"),
        "shooting.boundary_residual.self_s": self_time("shooting.boundary_residual"),
        "shooting.boundary_residual.failed": c.get("shooting.boundary_residual.failed", 0) / n_ops,
        "shooting.shoot.self_s": self_time("shooting.shoot"),
        "pmp.maximize_hamiltonian.calls": calls("pmp.maximize_hamiltonian"),
        "pmp.maximize_hamiltonian.self_s": self_time("pmp.maximize_hamiltonian"),
        "pmp.hamiltonian.calls": calls("pmp.hamiltonian"),
        "pmp.h_per_max": ratio(c.get("pmp.hamiltonian.calls", 0),
                               c.get("pmp.maximize_hamiltonian.calls", 0)),
        "pmp.check_pmp.self_s": self_time("pmp.check_pmp"),
        "pmp.adjoint_flow.self_s": self_time("pmp.adjoint_flow"),
        "control_system.dynamics.calls": calls("control_system.dynamics"),
        "control_system.jac_x.calls": calls("control_system.jac_x"),
        "control_system.cost_grad_x.calls": calls("control_system.cost_grad_x"),
        "control_system.cost_grad_x.self_s": self_time("control_system.cost_grad_x"),
        "control_system.simulate.calls": calls("control_system.simulate"),
        "control_system.simulate.self_s": self_time("control_system.simulate"),
        "flows.tangent_lift_flow.calls": calls("flows.tangent_lift_flow"),
        "flows.tangent_lift_flow.self_s": self_time("flows.tangent_lift_flow"),
        "perturbations.build_tangent_cone.self_s": self_time("perturbations.build_tangent_cone"),
        "reachable.sample_reachable.self_s": self_time("reachable.sample_reachable"),
        "reachable.skipped": c.get("reachable.skipped", 0) / n_ops,
        "cli.main.self_s": self_time("cli.main"),
        "cli.expr_evals": c.get("cli.expr_evals", 0) / n_ops,
        "cone_geometry.separate.self_s": self_time("cone_geometry.separate"),
        "cone_geometry.conic_membership.self_s": self_time("cone_geometry.conic_membership"),
        "cone_geometry.membership_margin.self_s": self_time("cone_geometry.membership_margin"),
        "cone_geometry.cone_residual.calls": calls("cone_geometry.cone_residual"),
        "cone_geometry.lps_per_query": ratio(lps, queries),
        "simplex.solve_standard.calls": calls("_simplex.solve_standard"),
        "simplex.solve_standard.self_s": self_time("_simplex.solve_standard"),
        "simplex.solve_standard.not_optimal": c.get("_simplex.solve_standard.not_optimal", 0) / n_ops,
        "simplex.linprog_dense.calls": calls("_simplex.linprog_dense"),
        "simplex.ms_per_lp": 1e3 * ratio(s.get("_simplex.solve_standard", 0.0), lps),
    }
    return out


def _unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ms") or name.endswith("ms_per_lp"):
        return "ms"
    if name.endswith(("h_per_max", "lps_per_query", "overhead_frac")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in
         list(layer_metrics({"counts": {}, "self_s": {}}, 1))
         + ["trace.op_ms", "trace.untraced_op_ms", "trace.overhead_frac",
            "trace.count_mismatches"]}


def write_spans(path, passes):
    """Write the recorded spans of each traced pass as JSON."""
    doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
           "passes": [{"pass": label, "counts": snap["counts"],
                       "spans": snap["spans"]} for label, snap in passes]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
