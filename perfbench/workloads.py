"""The four benchmark workloads: seeded inputs, one timed op, and its check.

Each workload makes its op list from the seed in a fixed cycle of strata,
so that every run covers the same mix of sizes whatever the seed; the seed
only moves each instance inside its stratum.  `run` is the timed op.  `read`
collects its output (untimed) and `verify` compares it with an oracle from
`oracles.py`; `corrupt` damages a real output so the run can show that
`verify` rejects it.
"""

import json
import math
import os

import numpy as np

# called through their modules, so that the traced run sees the calls
from pmpkit import cli, cone_geometry, reachable
from pmpkit.cone_geometry import GeneratedCone

import oracles


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[0], lines[1:]


def _table(rows):
    return np.array([[float(c) for c in r.split(",")] for r in rows])


class Instance:
    """One op's input: parameters plus the directory its files live in."""

    def __init__(self, index, label, **params):
        self.index = index
        self.label = label
        self.params = params
        self.dir = None

    def path(self, name):
        return os.path.join(self.dir, name)


# ---------------------------------------------------------------------------
# bang_shoot: minimum-time double integrator, shoot + check through the CLI

class BangShoot:
    name = "bang_shoot"
    unit = ("solve_s", "s", "solves")
    trace_ops = 3
    cycle = 8     # untraced runs do whole cycles of the strata
    op_s = 2.2    # nominal wall seconds per op, check included
    step = 0.1
    # eighths of d in [0.5, 2]; d > 0 keeps every instance on criterion 1's
    # path (six of seven Newton starts fail), mirrored starts take a shorter
    # start sequence and would make op times bimodal.  Solve time moves
    # from 1.5 s to 2.9 s over the range, so a run does one of each eighth.
    strata = (0, 4, 2, 6, 1, 5, 3, 7)

    def make(self, rng, i):
        k = self.strata[i % len(self.strata)]
        d = 0.5 + 1.5 * (k + rng.uniform(0.05, 0.95)) / len(self.strata)
        return Instance(i, "d=%.6f" % d, d=d)

    def problem(self, inst, shooting=None, step=None):
        data = {"name": "di-min-time",
                "dynamics": {"builtin": "double_integrator"},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "cost": {"expression": "1"},
                "horizon": {"a": 0.0, "b": 3.0},
                "p0": -1.0,
                "boundary": {"mode": "free_time",
                             "initial": {"point": [inst.params["d"], 0.0]},
                             "final": {"point": [0.0, 0.0]}},
                "integrator": {"step": step or self.step}}
        if shooting:
            data["shooting"] = shooting
        return data

    def write(self, inst, shooting=None, step=None):
        os.makedirs(inst.dir, exist_ok=True)
        _write_json(inst.path("problem.json"), self.problem(inst, shooting, step))

    shoot_args = ()

    def run(self, inst):
        prob, out = inst.path("problem.json"), inst.path("out")
        rc_shoot = cli.main(["shoot", "--problem", prob, "--out", out, *self.shoot_args])
        rc_check = cli.main(["check", "--problem", prob, "--out", out])
        return rc_shoot, rc_check

    def warmup(self, inst):
        # a capped solve on a coarse grid: one Newton iteration from two starts
        self.write(inst, {"max_iter": 1, "n_starts": 1, "scales": [1.0]}, 10 * self.step)
        self.run(inst)

    def read(self, inst, rcs):
        return {"rcs": rcs, "result": _read_json(inst.path("out/result.json")),
                "report": _read_json(inst.path("out/report.json"))}

    def verify(self, inst, data):
        errs = []
        if data["rcs"] != (0, 0):
            errs.append("exit codes shoot/check %s, want (0, 0)" % (data["rcs"],))
        d = inst.params["d"]
        res = data["result"]
        t_star, t_sw = oracles.double_integrator_min_time(d)
        if abs(res["final_time"] - t_star) > 1e-3:
            errs.append("final time %.9f, oracle %.9f" % (res["final_time"], t_star))
        sw = res["switch_times"]
        if len(sw) != 1 or abs(sw[0] - t_sw) > 1e-3:
            errs.append("switch times %s, oracle [%.9f]" % (sw, t_sw))
        want = ["u=-1", "u=+1"] if d > 0 else ["u=+1", "u=-1"]
        if res["arc_labels"] != want:
            errs.append("arcs %s, want %s" % (res["arc_labels"], want))
        if data["report"]["classification"] != "normal":
            errs.append("check says %s" % data["report"]["classification"])
        return errs

    def corrupt(self, inst, data):
        data["result"]["final_time"] += 1e-2
        return "final time shifted by 1e-2"


# ---------------------------------------------------------------------------
# lqr_shoot: scalar LQR with expression dynamics, shoot + check through the CLI

class LqrShoot(BangShoot):
    name = "lqr_shoot"
    step = 5e-3
    # twelfths of log q over [0.25, 4]; the sign of x0 alternates
    strata = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)
    cycle = 12
    op_s = 1.4
    shoot_args = ("--tol", "1e-9")

    def make(self, rng, i):
        k = self.strata[i % len(self.strata)]
        q = 0.25 * 16.0 ** ((k + rng.uniform(0.05, 0.95)) / len(self.strata))
        x0 = (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.5, 1.5)
        return Instance(i, "q=%.6f x0=%.6f" % (q, x0), q=q, x0=x0)

    def state_bound(self, inst):
        """Sup-norm error allowed against the closed form: RK4 on the state
        is exact here, so what remains is the O(h^2) error of holding the
        control constant on each step."""
        q, x0 = inst.params["q"], abs(inst.params["x0"])
        return 0.01 * self.step ** 2 * (1.0 + q) ** 2 * x0

    def check_tol(self, inst):
        """Maximization gap of a discretized smooth arc, O(h^2)."""
        q, x0 = inst.params["q"], abs(inst.params["x0"])
        return 0.5 * self.step ** 2 * (1.0 + q) ** 2 * x0 * x0

    def problem(self, inst, shooting=None, step=None):
        data = {"name": "lqr",
                "dynamics": {"expressions": ["u0"]},
                "control_set": {"kind": "box", "lo": [-10.0], "hi": [10.0]},
                "cost": {"expression": "%r*x0^2 + u0^2" % inst.params["q"]},
                "horizon": {"a": 0.0, "b": 1.0},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": [inst.params["x0"]]},
                             "final": {"anchor": [0.0], "normals": []}},
                "integrator": {"step": step or self.step},
                "tol": self.check_tol(inst)}
        if shooting:
            data["shooting"] = shooting
        return data

    def read(self, inst, rcs):
        _, rows = _read_rows(inst.path("out/trajectory.csv"))
        return {"rcs": rcs, "traj": _table(rows),
                "result": _read_json(inst.path("out/result.json"))}

    def verify(self, inst, data):
        errs = []
        if data["rcs"] != (0, 0):
            errs.append("exit codes shoot/check %s, want (0, 0)" % (data["rcs"],))
        if not data["result"]["converged"]:
            errs.append("shoot did not converge")
        t, x = data["traj"][:, 0], data["traj"][:, 1]
        err = float(np.max(np.abs(x - oracles.lqr_state(t, inst.params["q"], inst.params["x0"]))))
        if not err <= self.state_bound(inst):
            errs.append("sup |x - cosh oracle| %.3e > %.3e" % (err, self.state_bound(inst)))
        return errs

    def corrupt(self, inst, data):
        data["traj"][len(data["traj"]) // 2, 1] += 1e-3
        return "one trajectory state shifted by 1e-3"


# ---------------------------------------------------------------------------
# cone_lp: separation and membership queries through the cone API

def _unit(v):
    return v / np.linalg.norm(v)


def _perp(rng, d):
    """A random unit vector orthogonal to unit d."""
    w = rng.standard_normal(d.size)
    return _unit(w - (w @ d) * d)


def _sphere_cone(rng, d, rho, ng):
    """Generators d + rho r with unit r orthogonal to unit d, in +-r pairs.

    Every generator is an extreme ray (for n = 2 the extreme pair is
    r = +-e), d is a positive combination of all of them, and the cone lies
    inside the circular cone of half-angle atan(rho) around d.
    """
    n = d.size
    _, _, vt = np.linalg.svd(d[None, :])
    P = vt[1:]
    if n == 2:
        t = np.concatenate([[1.0], rng.uniform(0.0, 1.0, ng // 2 - 1)])
        R = np.concatenate([t, -t])[:, None] * P
    else:
        R = rng.standard_normal((ng // 2, n - 1))
        R /= np.linalg.norm(R, axis=1)[:, None]
        R = np.vstack([R, -R]) @ P
    return [d + rho * r for r in R]


class ConeLp:
    name = "cone_lp"
    unit = ("query_ms", "ms", "queries")
    trace_ops = 160
    cycle = 35
    op_s = 0.0365
    kinds = ("sep_yes", "sep_no", "mem_in", "mem_bd", "mem_out", "margin_in", "margin_out")

    def make(self, rng, i):
        # n cycles through 2..6 and the kind through `kinds`: every 35 ops
        # cover each (n, kind) pair once.  Successive rounds pick the even
        # generator count in [2n, 40] by a golden-ratio sequence, which
        # spreads evenly over the range for any number of rounds, so a
        # short run does the same mix of sizes as a long one.
        n = 2 + i % 5
        kind = self.kinds[i % 7]
        counts = range(2 * n, 41, 2)
        spread = (i // 35) * 0.6180339887498949
        ng = counts[int(spread % 1.0 * len(counts))]
        rho = rng.uniform(0.2, 0.6)
        p = {"n": n, "kind": kind}
        if kind.startswith("sep"):
            ng2 = counts[int((spread + 0.5) % 1.0 * len(counts))]
            if kind == "sep_yes":
                # C1 lies in a.x < 0 and C2 in a.x > 0
                a = _unit(rng.standard_normal(n))
                d1 = _unit(-a + 0.6 * _perp(rng, a))
                d2 = _unit(a + 0.6 * _perp(rng, a))
            else:
                # both cones hold d in their interiors
                d1 = d2 = _unit(rng.standard_normal(n))
            p["G1"] = _sphere_cone(rng, d1, rho, ng)
            p["G2"] = _sphere_cone(rng, d2, rng.uniform(0.2, 0.6), ng2)
        else:
            d = _unit(rng.standard_normal(n))
            G = _sphere_cone(rng, d, rho, ng)
            p["G"] = G
            if kind in ("mem_in", "margin_in"):
                lam = rng.uniform(0.5, 1.5, ng)
            elif kind == "mem_bd":
                lam = np.zeros(ng)
                lam[0] = rng.uniform(0.5, 2.0)
            else:
                lam = None
                psi = math.atan(rho) + rng.uniform(0.1, 0.5)
                p["v"] = math.cos(psi) * d + math.sin(psi) * _perp(rng, d)
                p["axis"], p["half_angle"] = d, math.atan(rho)
            if lam is not None:
                p["lam"] = lam
                p["v"] = np.column_stack(G) @ lam
        sizes = "ng=%d" % ng if "G" in p else "ng=%d,%d" % (len(p["G1"]), len(p["G2"]))
        return Instance(i, "%s n=%d %s" % (kind, n, sizes), **p)

    def write(self, inst):
        pass

    def warmup(self, inst):
        self.run(inst)

    def run(self, inst):
        p = inst.params
        if "G1" in p:
            return cone_geometry.separate(GeneratedCone(p["G1"], p["n"]), GeneratedCone(p["G2"], p["n"]))
        cone = GeneratedCone(p["G"], p["n"])
        if p["kind"].startswith("mem"):
            return cone_geometry.conic_membership(cone, p["v"])
        return cone_geometry.membership_margin(cone, p["v"])

    def read(self, inst, out):
        if inst.params["kind"].startswith("sep"):
            return {"separated": out.separated, "hyperplane": out.hyperplane,
                    "witness": out.witness}
        return {"answer": out}

    def verify(self, inst, data):
        p = inst.params
        kind, n = p["kind"], p["n"]
        errs = []
        if kind.startswith("sep"):
            want = kind == "sep_yes"
            if data["separated"] != want:
                errs.append("separated=%s, built %s" % (data["separated"], want))
            elif want:
                alpha = np.asarray(data["hyperplane"], float)
                if not np.linalg.norm(alpha) > 0:
                    errs.append("zero hyperplane")
                else:
                    alpha = alpha / np.linalg.norm(alpha)
                    worst = max(max(alpha @ _unit(g) for g in p["G1"]),
                                max(-(alpha @ _unit(g)) for g in p["G2"]))
                    if worst > 1e-8:
                        errs.append("hyperplane sign check off by %.2e" % worst)
            elif not np.linalg.norm(data["witness"]) > 0:
                errs.append("zero separation witness")
            if n <= 3 and oracles.separated_brute(p["G1"], p["G2"]) != want:
                errs.append("brute-force oracle disagrees with construction")
            return errs
        G, v = p["G"], p["v"]
        if "lam" in p:
            # the construction's nonnegative representation backs 'inside'
            lam = p["lam"]
            if np.any(lam < 0) or np.linalg.norm(np.column_stack(G) @ lam - v) > 1e-12 * (1 + np.linalg.norm(v)):
                errs.append("representation check failed")
            want = "boundary" if kind == "mem_bd" else "interior"
        else:
            # outside the circular cone of half-angle atan(rho) that holds the cone
            cosang = float(_unit(v) @ p["axis"])
            if not math.acos(min(1.0, cosang)) > p["half_angle"]:
                errs.append("outside certificate failed")
            want = "outside"
        answer = data["answer"]
        if kind.startswith("mem"):
            if answer != want:
                errs.append("status %s, want %s" % (answer, want))
            if n <= 3 and oracles.membership_status(G, v) != answer:
                errs.append("status %s, facet oracle %s" % (answer, oracles.membership_status(G, v)))
            return errs
        if want == "outside":
            if answer != 0.0:
                errs.append("margin %.3e for an outside vector" % answer)
            return errs
        if not answer > 0:
            errs.append("margin %.3e for an interior vector" % answer)
        if n <= 3:
            cone = GeneratedCone(G, n)
            ref = oracles.cross_polytope_margin(G, v, cone.span_basis(),
                                                max(1.0, float(np.linalg.norm(v))))
            if abs(answer - ref) > 1e-6 * (1.0 + ref):
                errs.append("margin %.9f, facet oracle %.9f" % (answer, ref))
        return errs

    def corrupt(self, inst, data):
        if "separated" in data:
            if data["separated"]:
                data["hyperplane"] = -np.asarray(data["hyperplane"])
                return "separating hyperplane negated"
            data["separated"] = True
            data["hyperplane"] = np.zeros(inst.params["n"])
            return "separation verdict flipped"
        if isinstance(data["answer"], str):
            data["answer"] = "outside" if data["answer"] != "outside" else "interior"
            return "membership verdict flipped"
        data["answer"] = 0.0 if data["answer"] > 0 else 1.0
        return "margin changed to %g" % data["answer"]


# ---------------------------------------------------------------------------
# flow_sample: simulate + cones + reach on a pendulum through the CLI

class FlowSample:
    name = "flow_sample"
    unit = ("job_s", "s", "jobs")
    trace_ops = 5
    cycle = 2
    op_s = 0.9
    T = 2.0
    step = 0.01
    n_taus = 8
    n_queries = 4
    n_controls = 32

    def make(self, rng, i):
        ts = rng.uniform(0.6, 1.4)
        s = 1.0 if i % 2 == 0 else -1.0
        taus = []
        for j in range(self.n_taus):
            tau = self.T * (j + rng.uniform(0.1, 0.9)) / self.n_taus
            if abs(tau - ts) < 1e-3:
                tau += 2e-3
            taus.append(tau)
        angles = rng.uniform(0.0, 2.0 * math.pi, self.n_queries)
        p = {"x0": [rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)],
             "switch": ts, "values": [[s], [-s]], "taus": taus,
             "queries": [[math.cos(a), math.sin(a)] for a in angles],
             "reach_seed": int(rng.integers(0, 2 ** 31)),
             "n_controls": self.n_controls}
        return Instance(i, "x0=(%.4f,%.4f) switch=%.4f" % (p["x0"][0], p["x0"][1], ts), **p)

    def problem(self, inst):
        p = inst.params
        return {"name": "pendulum",
                "dynamics": {"expressions": ["x1", "-sin(x0) + u0"]},
                "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "horizon": {"a": 0.0, "b": self.T},
                "boundary": {"mode": "fixed_time",
                             "initial": {"point": p["x0"]},
                             "final": {"anchor": [0.0, 0.0], "normals": []}},
                "control": {"switch_times": [p["switch"]], "values": p["values"]},
                "integrator": {"step": self.step},
                "cones": {"time": self.T, "times": p["taus"],
                          "controls": [[-1.0], [0.0], [1.0]],
                          "queries": p["queries"]},
                "reach": {"n_controls": p["n_controls"], "max_switches": 3,
                          "seed": p["reach_seed"]}}

    def write(self, inst):
        os.makedirs(inst.dir, exist_ok=True)
        _write_json(inst.path("problem.json"), self.problem(inst))

    def run(self, inst):
        prob, out = inst.path("problem.json"), inst.path("out")
        return tuple(cli.main([cmd, "--problem", prob, "--out", out])
                     for cmd in ("simulate", "cones", "reach"))

    def warmup(self, inst):
        inst.params = dict(inst.params, taus=inst.params["taus"][:1], n_controls=2)
        self.write(inst)
        self.run(inst)

    def read(self, inst, rcs):
        _, traj = _read_rows(inst.path("out/trajectory.csv"))
        _, gens = _read_rows(inst.path("out/generators.csv"))
        _, cloud = _read_rows(inst.path("out/cloud.csv"))
        return {"rcs": rcs, "end": _table(traj[-1:])[0],
                "gens": _table(gens) if gens else np.zeros((0, 2)),
                "membership": _read_json(inst.path("out/membership.json"))["queries"],
                "cloud": cloud,
                "provenance": _read_json(inst.path("out/cloud_provenance.json"))}

    def verify(self, inst, data):
        p = inst.params
        errs = []
        if data["rcs"] != (0, 0, 0):
            errs.append("exit codes simulate/cones/reach %s" % (data["rcs"],))
        ref = oracles.rk4_piecewise(
            lambda x, u: np.array([x[1], -math.sin(x[0]) + u[0]]),
            p["x0"], [p["switch"]], p["values"], self.T, self.step / 4.0)
        if np.max(np.abs(data["end"][1:] - ref)) > 1e-7:
            errs.append("simulate endpoint %s, reference %s" % (data["end"][1:], ref))
        for q in data["membership"]:
            want = oracles.sweep_status_2d(data["gens"], q["vector"])
            if want is not None and q["status"] != want:
                errs.append("query %s: %s, angle sweep %s" % (q["vector"], q["status"], want))
            if (q["status"] == "outside") != (q["margin"] == 0.0):
                errs.append("query %s: margin %s with status %s" % (q["vector"], q["margin"], q["status"]))
        prov = data["provenance"]
        sys_ = cli.load_problem(inst.path("problem.json")).sys
        cloud = reachable.ReachCloud(
            x0=np.asarray(prov["x0"], float), horizon=prov["horizon"], step=prov["step"],
            points=np.zeros((0, 2)),
            controls=tuple({"switch_times": tuple(c["switch_times"]),
                            "values": tuple(tuple(v) for v in c["values"])}
                           for c in prov["controls"]))
        if len(data["cloud"]) != len(prov["controls"]) or not data["cloud"]:
            errs.append("cloud has %d points for %d records" % (len(data["cloud"]), len(prov["controls"])))
        for i, row in enumerate(data["cloud"]):
            cells = row.split(",")
            stored = [float(c) for c in cells[:-1]]
            again = reachable.reproduce_point(sys_, cloud, i)
            if int(cells[-1]) != i or any(a != b for a, b in zip(again, stored)):
                errs.append("cloud point %d does not replay bit for bit" % i)
        return errs

    def corrupt(self, inst, data):
        cells = data["cloud"][0].split(",")
        num = cells[0]
        mant, _, exp = num.partition("e")
        for pos in range(len(mant) - 1, -1, -1):
            if not mant[pos].isdigit():
                continue
            for digit in "0123456789":
                cand = mant[:pos] + digit + mant[pos + 1:] + ("e" + exp if exp else "")
                if float(cand) != float(num):
                    cells[0] = cand
                    data["cloud"][0] = ",".join(cells)
                    return "cloud coordinate %s -> %s" % (num, cand)
        raise RuntimeError("could not corrupt %s" % num)


WORKLOADS = {w.name: w for w in (BangShoot(), LqrShoot(), ConeLp(), FlowSample())}
