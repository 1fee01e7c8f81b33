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


_SKETCHED = {"hessian_oracle.d_diag", "hessian_oracle.hessp_sketched"}


@pytest.mark.parametrize("scheme, extra", [
    ("ls", _SKETCHED),
    ("ls-det", _SKETCHED | {"hybrid_sampling.ls_det_fraction_plan",
                            "sketch_sampling.exact_leverage_scores",
                            "sketch_sampling.build_sampling_sketch"}),
    ("full", {"hessian_oracle.hessp_full"}),
])
def test_newton_cg_oracle_calls_pass_through_their_hooks(tracing, scheme,
                                                         extra):
    # the run's operator reaches the hooked oracles of every scheme
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
    assert {"optimizers.outer", "hessian_oracle.value",
            "hessian_oracle.grad"} | extra <= names


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


def _fresh_interpreter(code):
    """Standard output of ``code`` run in a new interpreter on ``src``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_library_import_leaves_bench_unloaded():
    # perfbench imports the library only; keeping ``sketchopt.bench`` out of
    # that import keeps the bench CLI out of its setup time and cell timings.
    loaded = _fresh_interpreter(
        "import sys, sketchopt; print('\\n'.join(sys.modules))").split()
    assert "sketchopt.vmv_sketch" in loaded
    assert [m for m in loaded if m.startswith("sketchopt.bench")] == []


_NO_SCIPY_RUN = """
import os, sys, tempfile
import numpy as np
import sketchopt as so
from sketchopt.bench.cli import main
from sketchopt.sketch_sampling import SAMPLING_SCHEMES

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

rng = np.random.default_rng(97)
A = rng.standard_normal((120, 4))
labels = (A @ rng.standard_normal(4) >= 0).astype(float)
problem = so.FiniteSumProblem(A=A, labels=labels,
                              loss=so.make_loss("nlls_classification"),
                              ridge_lambda=0.01)
for scheme in ("full", "ls-det") + SAMPLING_SCHEMES:
    config = so.OptConfig(scheme=scheme, sample_size=30, max_outer=2, seed=3)
    for algorithm in (so.newton_cg, so.newton_mr, so.trust_region):
        algorithm(problem, config)
so.exact_leverage_scores(A)
so.approx_leverage_scores(A, seed=4)
so.ls_det_fraction_plan(A, 20, 0.5, seed=5)
C = A + 1j * rng.standard_normal(A.shape)
so.estimate(C, C, np.ones(4), np.ones(4), k=16, reps=3, seed=6)
configs = {
    "optimize": "dataset = synth:n=60,d=3\\nschemes = full, ls, ls-det@0.5\\n"
                "sample_size = 20\\nmax_outer = 2\\nloss = quadratic\\n",
    "vmv": "rows = 10\\ncols = 2\\nk_values = 4\\nseeds = 1\\n",
}
with tempfile.TemporaryDirectory() as tmp:
    for sub, text in configs.items():
        cfg = os.path.join(tmp, sub + ".cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        assert main([sub, "--config", cfg, "--out",
                     os.path.join(tmp, sub)]) == 0, sub
print("before:", *scipy_modules())
so.sketch_and_solve(C, C @ np.ones(4) + 0.1, 1.0, t=2, seed=7)
print("after:", *scipy_modules())
"""


def test_only_lp_solves_load_scipy():
    # The optimizers, sampling, hybrid plans, tensor sketches and the
    # ``bench optimize``/``vmv`` runs are NumPy only, so their processes
    # skip SciPy's import time and its second OpenBLAS; an lp solve loads
    # ``scipy.linalg`` for its Cholesky factorization.
    before, after = _fresh_interpreter(_NO_SCIPY_RUN).splitlines()[-2:]
    assert before == "before:"
    assert "scipy.linalg" in after.split()
