"""Output ledger: perfbench first-round digests and bench CSV hashes.

A change that claims to leave every output unchanged is held to the entries
in ``tests/digests.json``, recorded on a named host.  A child process loads
``perfbench/run.py`` and ``perfbench/workloads.py`` by path (neither is
changed), with the BLAS thread variables set to 1 by ``run._pin_blas``
before NumPy loads, and runs round 0 of each workload at seeds 1 and 2 through
``run.Ledger`` and ``run.run_rounds``, the way ``run.py`` makes the digest it
prints.  It then writes the CSVs of one small ``bench`` config per
subcommand: one per optimizer algorithm for ``optimize``, and p = 3 with
noise for ``lpreg``.

Entries are keyed by the host that ``run.py`` prints (its Python, NumPy,
SciPy and BLAS lines) plus ``platform.machine()``; a perfbench entry also
holds the sha256 of ``perfbench/run.py`` and ``perfbench/workloads.py``.
With no entry for this key the test skips and names the key; a digest that
differs fails and names the workload or file.  There is no tolerance: a
change that moves an output on purpose records the new entries, in a change
of its own that names what moved.  To print this host's entries:

    python tests/test_digest_ledger.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LEDGER = os.path.join(ROOT, "tests", "digests.json")
WORKLOADS = ("opt-race", "opt-budget", "lpreg-sweep", "vmv-stream")
SEEDS = (1, 2)

# a nonconvex loss and no grad_tol stop: runs end at max_outer or a failed
# line search, and trust region rejects most of its steps
_OPTIMIZE = {
    "dataset": "synth:n=400,d=8,heavy_rows=8,heavy_scale=50",
    "schemes": "full,uniform,ls,rn-mx,ls-det@0.5",
    "sample_size": "60",
    "seeds": "2",
    "loss": "tukey_biweight",
    "lambda_policy": "manual",
    "ridge_lambda": "1e-3",
    "max_outer": "40",
    "grad_tol": "0",
    "workers": "1",
}
#: (name, subcommand, options, master seed) of each hashed bench config
BENCH_CONFIGS = tuple(
    (f"optimize-{algorithm}", "optimize",
     dict(_OPTIMIZE, algorithm=algorithm), 4)
    for algorithm in ("newton_cg", "newton_mr", "trust_region")
) + (
    ("lpreg-p3-noisy", "lpreg",
     {"n": "40", "d": "6", "p": "3", "t_values": "2,8", "seeds": "2",
      "zero_residual": "false", "workers": "1"}, 9),
    ("vmv", "vmv",
     {"rows": "30", "cols": "4", "reps": "3", "k_values": "8,64",
      "seeds": "3", "workers": "1"}, 5),
    ("scores", "scores",
     {"dataset": "synth:n=60,d=5,heavy_rows=4,heavy_scale=20",
      "loss": "tukey_biweight", "lambda_policy": "convex_auto"}, 3),
)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(name: str):
    """A perfbench module, loaded by path under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_ledger_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _host(run) -> dict:
    args = types.SimpleNamespace(workload=None, seed=None, seconds=None,
                                 trace=None)
    record = run._run_record(args)
    host = {key: record[key] for key in ("python", "numpy", "scipy", "blas")}
    host["machine"] = platform.machine()
    return host


def _perfbench_digests(run, workloads) -> dict:
    digests = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            cells = workloads.WORKLOADS[name](seed, 0)
            ledger = run.Ledger(sorted({c for cell in cells
                                        for c in cell.checks}))
            run.run_rounds(workloads.WORKLOADS[name], seed, ledger,
                           seconds=0.0, min_rounds=1, first_cells=cells)
            if ledger.failed:
                raise RuntimeError(f"{name} seed {seed}: a cell failed")
            digests[f"{name} seed {seed}"] = ledger.digest.hexdigest()
    return digests


def _bench_hashes() -> dict:
    from sketchopt.bench import (ExperimentConfig, run_lpreg, run_optimize,
                                 run_scores, run_vmv)

    runners = {"optimize": run_optimize, "lpreg": run_lpreg,
               "vmv": run_vmv, "scores": run_scores}
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, subcommand, options, seed in BENCH_CONFIGS:
            out = os.path.join(tmp, name)
            paths = runners[subcommand](
                ExperimentConfig(subcommand, dict(options)), seed, out)
            for path in sorted(paths):
                hashes[f"{name}/{os.path.basename(path)}"] = \
                    _sha256_file(path)
    return hashes


def compute_entries() -> dict:
    """This host's ledger entries, in the layout of ``digests.json``."""
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    run = _load("run")
    run._pin_blas()  # before workloads.py imports NumPy
    workloads = _load("workloads")
    host = _host(run)
    sources = {f"perfbench/{name}.py":
               _sha256_file(os.path.join(PERFBENCH, f"{name}.py"))
               for name in ("run", "workloads")}
    return {
        "perfbench": [{"host": host, "sources": sources,
                       "digests": _perfbench_digests(run, workloads)}],
        "bench": [{"host": host, "csv": _bench_hashes()}],
    }


@pytest.fixture(scope="module")
def computed():
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def recorded():
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)


def _match(entries, key):
    for entry in entries:
        if all(entry[k] == v for k, v in key.items()):
            return entry
    pytest.skip(f"no ledger entry for {json.dumps(key, sort_keys=True)}")


def _compare(expected: dict, got: dict, what: str) -> None:
    moved = sorted(name for name in expected.keys() | got.keys()
                   if expected.get(name) != got.get(name))
    assert not moved, f"{what} differ from the ledger: {', '.join(moved)}"


def test_perfbench_first_round_digests_match_ledger(computed, recorded):
    mine = computed["perfbench"][0]
    entry = _match(recorded["perfbench"],
                   {"host": mine["host"], "sources": mine["sources"]})
    _compare(entry["digests"], mine["digests"], "perfbench digests")


def test_bench_csv_hashes_match_ledger(computed, recorded):
    mine = computed["bench"][0]
    entry = _match(recorded["bench"], {"host": mine["host"]})
    _compare(entry["csv"], mine["csv"], "bench CSVs")


if __name__ == "__main__":
    print(json.dumps(compute_entries(), indent=1, sort_keys=True))
