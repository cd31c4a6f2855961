"""No output moved: the benchmark's op outputs against a committed manifest.

For seeds 1 and 7919 the test makes each workload's instances with
`perfbench/workloads.py`, as a benchmark run of BENCHMARK.json's length
makes them (`run.run_ops`), writes their files in a temporary directory and
runs each op.  `golden/ops.json` holds one sha256 per op directory of
`bang_shoot`, `lqr_shoot` and `flow_sample` (every file under it, and the
op's exit codes), and for `cone_lp` one sha256 over every verdict,
hyperplane, witness and margin of the seed's queries.  perfbench's modules
are loaded from their files under private names and are not modified.

Like the goldens, the manifest holds the bits of this host's BLAS kernels.
To rewrite it after an intended output change, run this file as a script:
`PYTHONPATH=src python tests/test_op_outputs.py`, and say which ops moved.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MANIFEST = os.path.join(ROOT, "tests", "golden", "ops.json")
SEEDS = (1, 7919)
WORKLOADS = ("bang_shoot", "lqr_shoot", "flow_sample", "cone_lp")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench():
    """(workloads, run) of perfbench.  workloads imports perfbench's
    `oracles`, which is bound for that import only, as the tests have an
    `oracles` of their own; no bytecode is written under perfbench/."""
    saved = sys.modules.get("oracles"), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        sys.modules["oracles"] = _load("oracles")
        return _load("workloads"), _load("run")
    finally:
        sys.dont_write_bytecode = saved[1]
        if saved[0] is None:
            del sys.modules["oracles"]
        else:
            sys.modules["oracles"] = saved[0]


def _canonical(v):
    """v as text that tells every float bit pattern but NaN's apart."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_canonical(w) for w in v) + "]"
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    return repr(v)


def _directory_hash(path, rcs):
    h = hashlib.sha256(repr(rcs).encode())
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def outputs(name, seed, work):
    """The manifest entry of a workload and seed: {op: sha256} of its op
    directories, made under work, or the sha256 of its cone answers."""
    workloads, run = _perfbench()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    wl = workloads.WORKLOADS[name]
    rng = np.random.default_rng(seed)
    insts = [wl.make(rng, i) for i in range(run.run_ops(wl, seconds))]
    if name == "cone_lp":
        h = hashlib.sha256()
        for inst in insts:
            data = wl.read(inst, wl.run(inst))
            h.update((_canonical(sorted(data.items())) + "\n").encode())
        return h.hexdigest()
    hashes = {}
    for inst in insts:
        op = "op%04d" % inst.index
        inst.dir = os.path.join(work, op)
        wl.write(inst)
        hashes[op] = _directory_hash(inst.dir, wl.run(inst))
    return hashes


def _manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_op_outputs_match_the_manifest(name, seed, tmp_path):
    want = _manifest()[name][str(seed)]
    got = outputs(name, seed, str(tmp_path))
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        moved = [op for op in sorted(want) if got[op] != want[op]]
        assert not moved, f"{name} seed {seed}: ops {moved} moved"
    else:
        assert got == want, f"{name} seed {seed}: the cone answers moved"


if __name__ == "__main__":
    manifest = {}
    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOADS:
            manifest[name] = {str(seed): outputs(name, seed, os.path.join(work, f"{name}{seed}"))
                              for seed in SEEDS}
            print(f"hashed {name}", file=sys.stderr)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
