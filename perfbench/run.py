"""pmpkit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload bang_shoot --seed 1 --seconds 20 --trace 0

Run from the root of a pmpkit checkout; pmpkit is imported from ./src.
With --trace 0 it times a fixed number of ops sized to fill about
--seconds and reports the end-to-end metrics; with --trace 1 it runs a
fixed number of ops twice with tracing and once without, and reports
per-layer metrics.  Human-readable lines come first; the last line of
stdout is the JSON result.  See README.md.
"""

import argparse
import copy
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.05
RUN_LOAD = 0.75        # untraced ops take about this share of --seconds
GUARD = 1.5            # a run stops early only past GUARD x --seconds
TRACE_SECONDS = 20.0   # each workload's trace_ops fill about this long

REF_PROBE_S = 0.8e-3   # about the time of `probe` on the reference host


def probe():
    """Seconds taken by a fixed computation of about a millisecond in
    pmpkit's style: RK4 steps on two-element arrays, then row pivots on a
    small dense tableau."""
    t0 = time.perf_counter()
    x, h = np.array([0.5, 0.0]), 0.01
    for _ in range(40):
        k1 = np.array([x[1], -math.sin(x[0])])
        y = x + 0.5 * h * k1
        k2 = np.array([y[1], -math.sin(y[0])])
        y = x + 0.5 * h * k2
        k3 = np.array([y[1], -math.sin(y[0])])
        y = x + h * k3
        k4 = np.array([y[1], -math.sin(y[0])])
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    T = np.arange(72.0).reshape(6, 12) % 7.0 + np.eye(6, 12) * 50.0
    for r in range(6):
        T[r] /= T[r, r]
        for i in range(6):
            if i != r:
                T[i] -= T[i, r] * T[r]
    return time.perf_counter() - t0


class Probes:
    """Runs `probe` inside the timed ops, every PROBE_EVERY_S of wall time,
    from a SIGALRM interval timer.

    A shared host switches between a fast and a slow state for seconds at a
    time, and ops and probes both slow down by 1.5-1.8x in the slow one.
    Probes taken during the ops see the same states the ops do, so the
    mean op time over the mean probe time does not move with them.  The
    time spent in probes is taken out of each op's time.
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0
        self.active = False

    def _fire(self, signum, frame):
        if self.active:
            t = probe()
            self.times.append(t)
            self.spent += t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def run_ops(wl, seconds):
    """Ops in one untraced run: whole cycles of the workload's strata that
    take about RUN_LOAD x `seconds` at its nominal op time.

    A count, not a deadline, so that the same seed attempts the same ops,
    and fails the same ones, however fast the host is at the moment.
    """
    return wl.cycle * max(1, round(RUN_LOAD * seconds / (wl.op_s * wl.cycle)))


def set_up(wl, seed, work, count):
    """Fresh-interpreter import, input generation and files, one warm-up op."""
    subprocess.run([sys.executable, "-c", "import pmpkit.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rng = np.random.default_rng(seed)
    insts = [wl.make(rng, i) for i in range(count)]
    for inst in insts:
        inst.dir = os.path.join(work, "op%04d" % inst.index)
        wl.write(inst)
    warm = wl.make(np.random.default_rng([seed, 1]), 0)
    warm.dir = os.path.join(work, "warmup")
    wl.warmup(warm)
    return insts


def timed_setups(wl, seed, work, count):
    """Set up SETUP_REPEATS times; returns the median set-up time and the inputs.

    Set-up time is wall time less the probes inside it, over the mean
    probe time inside it, times REF_PROBE_S: seconds on the reference host,
    so that it moves with the work in set-up and not with the host's state.
    """
    samples = []
    with Probes() as probes:
        for _ in range(SETUP_REPEATS):
            first, spent = len(probes.times), probes.spent
            probes.active = True
            t0 = time.perf_counter()
            insts = set_up(wl, seed, work, count)
            wall = time.perf_counter() - t0
            probes.active = False
            inside = probes.times[first:] or [probe()]
            samples.append((wall - (probes.spent - spent))
                           / statistics.mean(inside) * REF_PROBE_S)
    return statistics.median(samples), insts


class Op:
    """Outcome of one timed op and its check."""

    def __init__(self, inst, seconds, errors, data, reported):
        self.inst = inst
        self.seconds = seconds
        self.errors = errors
        self.data = data
        # the program itself signalled the failure (exception or exit code)
        self.reported = reported

    @property
    def wrong(self):
        return bool(self.errors) and not self.reported


def do_op(wl, inst, tracer=None, probes=None):
    if tracer is not None:
        tracer.op, tracer.active = inst.index, True
    if probes is not None:
        probes.active, probed = True, probes.spent
    error = None
    t0 = time.perf_counter()
    try:
        out = wl.run(inst)
    except Exception as e:  # one failed op must not end the run
        error = "%s: %s" % (type(e).__name__, e)
    finally:
        if tracer is not None:
            tracer.active = False
        if probes is not None:
            probes.active = False
    seconds = time.perf_counter() - t0
    if probes is not None:
        seconds -= probes.spent - probed
    if error is not None:
        return Op(inst, seconds, [error], None, True)
    reported = isinstance(out, tuple) and any(out)
    try:
        data = wl.read(inst, out)
        errors = wl.verify(inst, data)
    except (OSError, ValueError, KeyError, IndexError) as e:
        data, errors = None, ["unreadable output: %s: %s" % (type(e).__name__, e)]
    return Op(inst, seconds, errors, data, reported)


def timed_loop(wl, insts, seconds):
    """Closed loop over every op in `insts`; on a host so slow that
    GUARD x `seconds` has passed, the rest are left out and counted.

    Returns the ops, the mean op time over the mean probe time (see
    `Probes`), the probe times and the number of ops left out.
    """
    ops = []
    start = time.perf_counter()
    with Probes() as probes:
        for inst in insts:
            if time.perf_counter() - start > GUARD * seconds:
                break
            ops.append(do_op(wl, inst, probes=probes))
    if not probes.times:
        probes.times.append(probe())
    rel = statistics.mean(op.seconds for op in ops) / statistics.mean(probes.times)
    return ops, rel, probes.times, len(insts) - len(ops)


def control(wl, ops):
    """Corrupt a copy of the last verified output; verify must reject it."""
    good = [op for op in ops if not op.errors and op.data is not None]
    if not good:
        return None, "no verified output to corrupt"
    op = good[-1]
    data = copy.deepcopy(op.data)
    what = wl.corrupt(op.inst, data)
    rejected = bool(wl.verify(op.inst, data))
    return rejected, "%s in op %d: %s" % (what, op.inst.index,
                                           "rejected" if rejected else "ACCEPTED")


def report_failures(wl, ops):
    for op in ops:
        if op.errors:
            kind = "WRONG" if op.wrong else "FAILED"
            print("  %s %s op %d (%s): %s" % (kind, wl.name, op.inst.index,
                                              op.inst.label, "; ".join(op.errors)))


def untraced(wl, args, insts, setup_s):
    ops, rel, probe_times, skipped = timed_loop(wl, insts, args.seconds)
    rejected, note = control(wl, ops)
    times = [op.seconds for op in ops]
    mean = sum(times) / len(times)
    failed = sum(1 for op in ops if op.errors)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    name, unit, noun = wl.unit
    scale = 1.0 if unit == "s" else 1e3
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print("%s seed %d: %d %s in %.1f s, one client, closed loop"
          % (wl.name, args.seed, len(ops), noun, sum(times)))
    if skipped:
        print("  GUARD: %d of %d %s left out, the run passed %.0f s"
              % (skipped, len(insts), noun, GUARD * args.seconds))
    print("  setup_s      %.4f s   (median of %d set-ups)" % (setup_s, SETUP_REPEATS))
    print("  %-12s %.4f %s   (median of %d; quartiles %.4f, %.4f; mean %.4f)"
          % (name, med * scale, unit, len(ops), q1 * scale, q3 * scale, mean * scale))
    if wl.name == "cone_lp":
        if len(ops) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            print("  query_p90_ms %.4f ms   (%d queries, %d above it)"
                  % (p90 * 1e3, len(ops), sum(1 for t in times if t > p90)))
        else:
            print("  query_p90_ms n/a: %d queries, need 100" % len(ops))
    print("  op_rel       %.1f     (mean op time over the mean of %d %.3f ms probes inside the ops)"
          % (rel, len(probe_times), 1e3 * statistics.mean(probe_times)))
    print("  fail_frac    %.4f     (%d of %d failed)" % (failed / len(ops), failed, len(ops)))
    print("  peak_rss_mb  %.1f MB" % rss_mb)
    print("  control: %s" % note)
    report_failures(wl, ops)
    # a mean, not a median: cone_lp's median jumps between its clusters of
    # cheap and dear queries from seed to seed
    metrics = {"op_rel": {"value": rel, "unit": "ratio"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    correct = not any(op.wrong for op in ops) and rejected is not False
    return correct, len(ops), failed, metrics


def traced(wl, args, insts):
    import spans  # patches pmpkit; only traced runs load it

    n_ops = len(insts)
    tracer = spans.Tracer()
    tracer.patch()
    try:
        ops_a = [do_op(wl, inst, tracer) for inst in insts]
        snap_a = tracer.snapshot()
        ops_b = [do_op(wl, inst, tracer) for inst in insts]
        snap_b = tracer.snapshot()
    finally:
        tracer.unpatch()
    plain = [do_op(wl, inst) for inst in insts]
    rejected, note = control(wl, plain)
    keys = set(snap_a["counts"]) | set(snap_b["counts"])
    mismatched = sorted(key for key in keys
                        if snap_a["counts"].get(key) != snap_b["counts"].get(key))
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    span_path = os.path.join(STATE, "traces", "%s-seed%d.json" % (wl.name, args.seed))
    spans.write_spans(span_path, [("A", snap_a), ("B", snap_b)])

    # the same ops traced and untraced: the difference is the tracing cost
    traced_s = sum(op.seconds for op in ops_a)
    plain_s = sum(op.seconds for op in plain)
    metrics = spans.layer_metrics(snap_a, n_ops)
    metrics["trace.op_ms"] = 1e3 * traced_s / n_ops
    metrics["trace.untraced_op_ms"] = 1e3 * plain_s / n_ops
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.count_mismatches"] = len(mismatched)
    all_ops = ops_a + ops_b + plain
    failed = sum(1 for op in all_ops if op.errors)
    print("%s seed %d traced: %d ops, two traced passes and one untraced"
          % (wl.name, args.seed, n_ops))
    for name in sorted(metrics):
        print("  %-44s %.6g" % (name, metrics[name]))
    print("  counts repeat across the two traced passes: %s"
          % ("yes" if not mismatched else "NO: " + ", ".join(mismatched)))
    print("  spans written to %s" % os.path.relpath(span_path, ROOT))
    print("  control: %s" % note)
    report_failures(wl, all_ops)
    out = {n: {"value": v, "unit": spans.UNITS[n]} for n, v in metrics.items()}
    correct = (not any(op.wrong for op in all_ops) and rejected is not False
               and not mismatched)
    return correct, len(all_ops), failed, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmpkit", "__init__.py")):
        print("perfbench: no pmpkit sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(STATE, "work-%d" % os.getpid())
    if args.trace:
        count = max(1, round(wl.trace_ops * args.seconds / TRACE_SECONDS))
    else:
        count = run_ops(wl, args.seconds)
    try:
        setup_s, insts = timed_setups(wl, args.seed, work, count)
        if args.trace:
            correct, attempted, failed, metrics = traced(wl, args, insts)
        else:
            correct, attempted, failed, metrics = untraced(wl, args, insts, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
