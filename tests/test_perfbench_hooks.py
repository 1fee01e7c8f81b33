"""The benchmark's hook table still matches the library's call paths.

``perfbench/tracing.py`` wraps the module attributes that callers look
functions up by.  A hook whose target moved is skipped, and a function a
caller imports by name escapes its hook; either way the benchmark's
per-layer counts silently read low.  This test loads the tracing module
without changing it and checks both.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sketchopt
from sketchopt.hessian_oracle import FiniteSumProblem, make_loss
from sketchopt.optimizers import OptConfig

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_every_hook_target_resolves(tracing):
    with tracing.installed_hooks(tracing.Tracer()) as hooks:
        assert hooks.absent == []


@pytest.mark.parametrize("scheme, extra", [
    ("ls", set()),
    ("ls-det", {"hybrid_sampling.ls_det_fraction_plan"}),
])
def test_newton_cg_oracle_calls_pass_through_their_hooks(tracing, scheme,
                                                         extra):
    rng = np.random.default_rng(95)
    A = rng.standard_normal((200, 4))
    labels = (A @ rng.standard_normal(4) >= 0).astype(float)
    problem = FiniteSumProblem(A=A, labels=labels,
                               loss=make_loss("nlls_classification"),
                               ridge_lambda=0.01)
    config = OptConfig(scheme=scheme, sample_size=40, max_outer=3, seed=2)
    tracer = tracing.Tracer()
    with tracing.installed_hooks(tracer) as hooks:
        assert hooks.absent == []
        trace = sketchopt.newton_cg(problem, config)
    assert len(trace.iteration) > 1
    names = {span.name for span in tracer.spans}
    assert {"optimizers.outer", "hessian_oracle.d_diag",
            "hessian_oracle.hessp_sketched"} | extra <= names


@pytest.mark.parametrize("solve, spans", [
    (lambda A, b: sketchopt.sketch_and_solve(A, b, 1.0, t=2),
     {"lp_regression.sketch_and_solve", "lp_regression.build_sketch"}),
    (lambda A, b: sketchopt.sketch_and_solve(A, b, np.inf, s=2),
     {"lp_regression.sketch_and_solve", "lp_regression.build_sketch"}),
    (lambda A, b: sketchopt.complex_lp_solve(A, b, np.inf),
     {"lp_regression.complex_lp_solve"}),
], ids=["sketch-p1", "sketch-pinf", "complex"])
def test_lp_solves_pass_through_their_hooks(tracing, solve, spans):
    rng = np.random.default_rng(96)
    A = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    tracer = tracing.Tracer()
    with tracing.installed_hooks(tracer) as hooks:
        assert hooks.absent == []
        solve(A, b)
    names = {span.name for span in tracer.spans}
    assert spans | {"core_complex.lift"} <= names


def test_library_import_leaves_bench_unloaded():
    # perfbench imports the library only; keeping ``sketchopt.bench`` out of
    # that import keeps the bench CLI out of its setup time and cell timings.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sketchopt; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "sketchopt.vmv_sketch" in loaded
    assert [m for m in loaded if m.startswith("sketchopt.bench")] == []
