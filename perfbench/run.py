"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload opt-race --seed 1 --seconds 28 --trace 0

Run from the root of a checkout of the repository: the library is imported
from ``src/``.  The workload runs whole rounds of cells until ``--seconds``
is reached, checks every cell, and prints a run record followed, on the
last line, by one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, with times
scaled for the host's speed (see ``HostSpeed``); ``--trace 1`` hooks the
library's layers and reports the per-layer metrics instead.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: BLAS threads for every run; one thread keeps timings steady on shared hosts
BLAS_THREADS = 1
#: Full-speed time of the host-speed kernel on the host the reference was
#: taken on (2-vCPU x86-64 VM, Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 on
#: one thread).  Reported times are scaled to that host's full speed.
KERNEL_REF_S = 0.002
#: kernel timings per host-speed sample; their median is the sample
KERNEL_REPEATS = 3
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: child processes started to time set-up; ``setup_s`` is their median
SETUP_REPEATS = 5
#: rounds whose outputs enter the digest (always completed, whatever the speed)
DIGEST_ROUNDS = 1
#: rounds replayed, untraced and traced, in a ``--trace 1`` run
TRACE_ROUNDS = 1
#: a cell's tail percentile leaves at least this many cells beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "passed_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the wall time when ready, and exit")
    return ap.parse_args(argv)


def _pin_blas() -> None:
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _warm_up(workloads, name: str) -> None:
    """One small solve per code path, so lazy imports and caches are ready."""
    import numpy as np

    import sketchopt as so

    rng = np.random.Generator(np.random.Philox(0))
    if name in ("opt-race", "opt-budget"):
        A, labels = workloads.planted_design(rng, n=400, d=5, heavy_rows=4)
        for loss in ("tukey_biweight", "nlls_classification"):
            problem = so.FiniteSumProblem(A=A, labels=labels,
                                          loss=so.make_loss(loss),
                                          ridge_lambda=1e-3)
            for scheme in workloads.OPT_SCHEMES + ("ls-det",):
                config = so.OptConfig(scheme=scheme, sample_size=40,
                                      max_outer=2)
                for algorithm in (so.newton_cg, so.newton_mr,
                                  so.trust_region):
                    algorithm(problem, config)
    elif name == "lpreg-sweep":
        A = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        b = A @ np.ones(4)
        for p, kw in ((1, {"t": 2}), (np.inf, {"s": 2})):
            so.complex_lp_solve(A, b + 0.1, p)
            so.sketch_and_solve(A, b + 0.1, p, **kw)
    else:
        A = rng.standard_normal((20, 4)) + 0j
        so.estimate(A, A, np.ones(4), np.ones(4), k=64, reps=3)


def _setup(workloads, name: str, seed: int):
    """Everything before the first timed cell: inputs and warm-up."""
    cells = workloads.WORKLOADS[name](seed, 0)
    _warm_up(workloads, name)
    return cells


def _child_setup_seconds(args, host) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to its set-up being done,
    as measured and scaled to the reference host."""
    raw, scaled = [], []
    speed = host.sample()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed:\n" + proc.stderr)
        took = float(proc.stdout.strip().splitlines()[-1]) - t0
        before, speed = speed, host.sample()
        raw.append(took)
        scaled.append(took * KERNEL_REF_S / ((before + speed) / 2))
    return raw, scaled


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class HostSpeed:
    """Times a fixed kernel to tell how fast the host runs right now.

    Shared hosts can switch between full speed and a mode about 1.7x
    slower, and CPU time slows with wall time.  The kernel mixes what the
    cells do (seed spawning, a BLAS product, an FFT, interpreted
    arithmetic); a cell time ``t`` measured while the kernel took ``k``
    seconds becomes ``t * KERNEL_REF_S / k``, the time the same work takes
    on the reference host at full speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.Generator(np.random.Philox(7))
        self._a = rng.standard_normal((1000, 40))
        self._z = rng.standard_normal(1024) + 0j

    def _kernel(self) -> float:
        np = self._np
        start = time.perf_counter()
        np.random.SeedSequence(1).spawn(300)
        self._a.T @ self._a
        np.fft.ifft(np.fft.fft(self._z))
        acc = 0
        for i in range(4000):
            acc += i * i
        return time.perf_counter() - start

    def sample(self) -> float:
        """Median kernel time over ``KERNEL_REPEATS`` runs."""
        return statistics.median(self._kernel() for _ in range(KERNEL_REPEATS))


class Ledger:
    """Timings, outcomes, check results and digest input of run cells.

    Each cell's ``time`` is its wall time scaled to the reference host (see
    ``HostSpeed``) with the host speed sampled right before and right after
    the cell; ``seconds`` is the wall time as measured.  Untimed cells
    (``cell.timed`` false) are run and checked but have no ``time``.
    """

    def __init__(self, check_names):
        self.host = HostSpeed()
        self._speed = None  # last host-speed sample
        self.cells: list[dict] = []
        self.checks = {name: [0, 0] for name in check_names}  # passed, run
        self.failed = 0
        self.digest = hashlib.sha256()

    def times(self, scaled=True) -> list[float]:
        """Times of the timed cells, scaled or as measured."""
        key = "time" if scaled else "seconds"
        return [c[key] for c in self.cells if c["time"] is not None]

    def run_cell(self, cell, digest: bool) -> None:
        before = self._speed if self._speed is not None else self.host.sample()
        start = time.perf_counter()
        try:
            output = cell.run()
        except Exception as exc:  # a failing cell is counted, not fatal
            self._record(cell, time.perf_counter() - start, before, {},
                         [f"raised {type(exc).__name__}: {exc}"])
            return
        elapsed = time.perf_counter() - start
        outcome, failed = cell.check(output)
        for name in cell.checks:
            self.checks[name][1] += 1
            self.checks[name][0] += name not in failed
        if digest:
            line = cell.kind + " " + " ".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in cell.digest_values(output))
            self.digest.update(line.encode() + b"\n")
        self._record(cell, elapsed, before, outcome, failed)

    def _record(self, cell, elapsed, before, outcome, failed):
        self._speed = self.host.sample()
        self.failed += bool(failed)
        algorithm = cell.kind.split("/")[0]
        self.cells.append({
            "kind": cell.kind, "seconds": elapsed,
            "time": elapsed * KERNEL_REF_S / ((before + self._speed) / 2)
            if cell.timed else None,
            "outcome": outcome, "failed": failed,
            "algorithm": algorithm if algorithm in (
                "newton_cg", "newton_mr", "trust_region") else None,
            "lp": algorithm in ("complex_lp_solve", "sketch_and_solve",
                                "recovery"),
            "vmv": algorithm == "estimate"})


def run_rounds(round_fn, seed, ledger, *, seconds, min_rounds, first_cells):
    """Run whole rounds until the time is spent; returns the rounds run.

    Another round starts only while the time spent plus half a mean round
    stays within ``seconds``, so a run ends close to ``seconds`` on average
    and every round runs all of its cells.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        if rounds >= min_rounds:
            spent = time.perf_counter() - start
            if spent + 0.5 * spent / rounds > seconds:
                break
        cells = first_cells if rounds == 0 and first_cells is not None \
            else round_fn(seed, rounds)
        for cell in cells:
            ledger.run_cell(cell, digest=rounds < DIGEST_ROUNDS)
        rounds += 1
    return rounds


def cells_per_s(times) -> float:
    """Reciprocal of the geometric mean cell time.

    Every round runs each cell kind once, so each kind weighs the same; a
    plain count over total time would follow the slowest kind alone.
    """
    return math.exp(-statistics.fmean(math.log(t) for t in times))


def tail(times):
    """(value, percentile, cells beyond): the highest percentile that leaves
    at least ``TAIL_BEYOND`` cells beyond it; the maximum when there are too
    few cells for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _run_record(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def main(argv=None) -> int:
    wall0 = time.time()
    args = _parse(argv)
    _pin_blas()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import sketchopt  # noqa: F401  (fails without the library sources)
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    round_fn = workloads.WORKLOADS[args.workload]

    first_cells = _setup(workloads, args.workload, args.seed)
    if args.setup_only:
        print(repr(time.time()))
        return 0
    own_setup_s = time.time() - wall0
    check_names = sorted({name for cell in first_cells for name in cell.checks})
    ledger = Ledger(check_names)
    setup_raw, setup_runs = _child_setup_seconds(args, ledger.host)
    record = _run_record(args)
    record["own_setup_s"] = own_setup_s
    record["setup_runs_s"] = setup_runs

    if args.workload == "vmv-stream":
        gap = workloads.ts_pair_identity(args.seed)
        ok = gap <= workloads.TS_PAIR_TOL
        ledger.checks["ts_pair_identity"] = [int(ok), 1]
        record["ts_pair_gap"] = gap

    budget = args.seconds / 2.0 if args.trace else args.seconds
    rounds = run_rounds(round_fn, args.seed, ledger, seconds=budget,
                        min_rounds=DIGEST_ROUNDS,
                        first_cells=first_cells)
    record["rounds"] = rounds
    record["digest"] = ledger.digest.hexdigest()
    record["digest_rounds"] = DIGEST_ROUNDS

    if args.trace:
        # Replay the first rounds cell by cell, each cell once untraced and
        # once traced, so the host's speed swings hit both sides alike and
        # wall times compare directly; the order alternates because a cell's
        # second run finds its data cached.
        plain, traced = Ledger(check_names), Ledger(check_names)
        tracer = tracing.Tracer()
        for round_idx in range(TRACE_ROUNDS):
            for i, cell in enumerate(round_fn(args.seed, round_idx)):
                if i % 2 == 0:
                    plain.run_cell(cell, digest=False)
                with tracing.installed_hooks(tracer) as hooks:
                    tracer.cell = len(traced.cells)
                    traced.run_cell(cell, digest=False)
                if i % 2 == 1:
                    plain.run_cell(cell, digest=False)
        overhead = sum(traced.times(scaled=False)) \
            / sum(plain.times(scaled=False)) - 1.0
        metrics = tracing.layer_metrics(tracer.spans, traced.cells,
                                        hooks.absent, overhead)
        units = tracing.per_layer_names()
        record["hooks_absent"] = hooks.absent
        record["spans"] = _out_path(
            f"spans-{args.workload}-seed{args.seed}.tsv")
        tracing.write_spans(record["spans"], tracer.spans)
        for replay in (plain, traced):
            for name, (passed, run) in replay.checks.items():
                ledger.checks[name][0] += passed
                ledger.checks[name][1] += run
            ledger.failed += replay.failed
        every = ledger.cells + plain.cells + traced.cells
        attempted = len(every)
        failures = [c for c in every if c["failed"]]
    else:
        times = ledger.times()
        value, pct, beyond = tail(times)
        record["cell_s_tail"] = {"value": value, "percentile": pct,
                                 "cells_beyond": beyond, "cells": len(times)}
        record["cells_per_solve_s"] = len(times) / sum(times)
        raw = ledger.times(scaled=False)
        record["unscaled"] = {
            "setup_s": statistics.median(setup_raw),
            "cells_per_s": cells_per_s(raw),
            "cell_s_p50": statistics.median(raw),
            "cell_s_tail": tail(raw)[0],
            "host_slowdown_p50": statistics.median(
                r / t for r, t in zip(raw, times)),
        }
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "cells_per_s": cells_per_s(times),
            "cell_s_p50": statistics.median(times),
            "passed_frac": 1.0 - ledger.failed / len(ledger.cells),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        attempted = len(ledger.cells)
        failures = [c for c in ledger.cells if c["failed"]]

    record["checks"] = {name: f"{passed}/{run}"
                        for name, (passed, run) in ledger.checks.items()}
    record["failures"] = [f"{c['kind']}: {c['failed']}" for c in failures]
    correct = ledger.failed == 0 and all(
        passed == run for passed, run in ledger.checks.values())

    for key, value in record.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    with open(_out_path(f"run-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics,
                   "cells": [[c["kind"], c["seconds"], c["time"]]
                             for c in ledger.cells]},
                  fh, indent=1)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(ledger.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
