"""Tests of the benchmark itself: inputs, span arithmetic, hooks, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import sketchopt  # noqa: E402
import sketchopt.optimizers  # noqa: E402

_GENERATORS = {
    "opt": lambda seed, r: workloads.opt_inputs(seed, r, 0),
    "lpreg": workloads.lpreg_inputs,
    "vmv": lambda seed, r: [a for inst in
                            workloads.vmv_instances(seed, r).values()
                            for a in inst],
}


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_inputs_are_deterministic_per_seed_and_change_with_it(name):
    gen = _GENERATORS[name]
    first, again = gen(7, 0), gen(7, 0)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    others = [gen(8, 0), gen(7, 1)]
    if name == "opt":
        others.append(workloads.opt_inputs(7, 0, 1))
    for other in others:
        assert not any(np.array_equal(a, b) for a, b in zip(first, other))
    assert workloads.solver_seed(7, 0) == workloads.solver_seed(7, 0)
    assert workloads.solver_seed(7, 0) != workloads.solver_seed(8, 0)


def _span(sid, parent, start, end, name="x"):
    return tracing.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # overlaps its sibling on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),   # grandchild: only its parent loses it
        _span(4, 0, 8.0, 12.0),  # runs past its parent: clipped at 10
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)


def test_tracer_records_parents_and_cells():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.cell = 3
    assert outer() == 2
    names = [(s.name, s.parent, s.cell) for s in tracer.spans]
    assert names == [("outer", -1, 3), ("inner", 0, 3), ("inner", 0, 3)]


def test_missing_hook_is_reported_absent_and_others_are_restored():
    original = sketchopt.optimizers.hessp_sketched
    hooks = [
        ("a", "sketchopt", "no_such_function", None),
        ("b", "sketchopt.no_such_module", "f", None),
        ("c", "sketchopt.lp_regression", "NoSuchClass.apply", None),
        ("d", "sketchopt.optimizers", "hessp_sketched", None),
    ]
    tracer = tracing.Tracer()
    with tracing.installed_hooks(tracer, hooks) as installed:
        assert sketchopt.optimizers.hessp_sketched is not original
    assert installed.absent == ["sketchopt:no_such_function",
                                "sketchopt.no_such_module:f",
                                "sketchopt.lp_regression:NoSuchClass.apply"]
    assert sketchopt.optimizers.hessp_sketched is original


def test_every_hook_target_exists():
    with tracing.installed_hooks(tracing.Tracer()) as installed:
        pass
    assert installed.absent == []


def test_tail_leaves_ten_cells_beyond():
    times = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(times)
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload_passes(workload):
    result = _bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload](3, 0))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reports_every_layer():
    result = _bench("vmv-stream", 1)
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.per_layer_names())
    assert metrics["vmv_sketch.ingest.calls"] == \
        workloads.VMV_ROWS * workloads.VMV_REPS
    assert metrics["optimizers.outer.calls"] == 0
    assert metrics["lp_regression.sketch_and_solve.calls"] == 0
    assert metrics["trace.hooks_absent"] == 0
