"""The package's public surfaces: each public name is declared once, in its
module's ``__all__``; ``sketchopt.__all__`` and ``sketchopt.bench.__all__``
are built from those lists, and every name they hold resolves."""

import sketchopt
import sketchopt.bench
from sketchopt import (core_complex, hessian_oracle, hybrid_sampling,
                       lp_regression, optimizers, sketch_sampling, vmv_sketch)
from sketchopt.bench import config, datasets, runners, svg
from sketchopt.lp_regression import build_sketch_finite_p, build_sketch_inf

# in the package's import order
MODULES = (core_complex, sketch_sampling, hybrid_sampling, hessian_oracle,
           optimizers, lp_regression, vmv_sketch)
BENCH_MODULES = (config, datasets, runners, svg)

# the package's public names, written out so that a name a module drops
# from its ``__all__`` shows here
PUBLIC_NAMES = {
    "__version__",
    "svd", "qr", "lift_scalar", "phi", "unphi", "lift_matrix", "mixed_norm",
    "spectral_norm", "min_eig_hermitian",
    "SamplingSketch", "SchemeResult", "exact_leverage_scores",
    "approx_leverage_scores", "build_sampling_sketch", "apply_sketch",
    "scheme_probabilities", "gamma_factor", "embedding_distortion",
    "HybridPlan", "ls_det_sample", "ls_det_fraction_plan", "hybrid_gram",
    "FiniteSumProblem", "LossFamily", "OracleMeter", "make_loss", "value",
    "grad", "d_diag", "hessp_full", "sketched_hessian", "hessp_sketched",
    "convex_ridge_lambda", "curvature_bound",
    "OptConfig", "OptTrace", "cg_solve", "minnorm_lsq", "cg_steihaug",
    "newton_cg", "newton_mr", "trust_region",
    "LiftedRegression", "BlockSketch", "LpSolution", "SketchSolveResult",
    "lift_instance", "lp_leverage_scores", "classify_pairs",
    "build_sketch_finite_p", "build_sketch_inf", "sketch_and_solve",
    "small_lp_solve", "complex_lp_solve", "gaussian_moment_scale",
    "TensorSketchState", "ts_new", "ts_pair", "ingest", "query_vec",
    "estimate_vmv", "estimate",
}
BENCH_NAMES = {
    "BenchError", "ExperimentConfig", "parse_config", "load_dataset",
    "materialize_dataset", "parse_dataset_spec", "synth_planted",
    "run_optimize", "run_lpreg", "run_vmv", "run_scores", "polyline_svg",
    "main",
}

# names the lp module no longer has: solves read only the sketch's factors
REMOVED_LP_NAMES = ("grouped_lp_solve", "sign_enumeration_matrix",
                    "MAX_ENUMERATION_BITS")


def test_every_module_declares_its_public_names():
    for module in MODULES + BENCH_MODULES:
        assert isinstance(module.__all__, list), module.__name__
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_all_has_no_duplicates_and_every_name_resolves():
    names = sketchopt.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(sketchopt, name)]
    assert missing == []


def test_package_all_is_the_version_plus_the_module_lists():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert sketchopt.__all__ == expected
    assert set(sketchopt.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 63


def test_bench_all_is_the_module_lists_plus_main():
    expected = []
    for module in BENCH_MODULES:
        expected += module.__all__
    assert sketchopt.bench.__all__ == expected + ["main"]
    assert set(sketchopt.bench.__all__) == BENCH_NAMES
    assert len(BENCH_NAMES) == 13
    for name in sketchopt.bench.__all__:
        assert hasattr(sketchopt.bench, name)


def test_package_all_holds_every_module_all_it_reexports():
    for module in MODULES:
        assert set(module.__all__) <= set(sketchopt.__all__)
        for name in module.__all__:
            assert getattr(sketchopt, name) is getattr(module, name)
    for module in BENCH_MODULES:
        for name in module.__all__:
            assert getattr(sketchopt.bench, name) is getattr(module, name)


def test_removed_lp_names_are_gone():
    for name in REMOVED_LP_NAMES:
        assert name not in sketchopt.__all__
        assert name not in lp_regression.__all__
        assert not hasattr(sketchopt, name)
        assert not hasattr(lp_regression, name)


def test_block_sketch_is_its_factors_p_and_apply():
    for sketch in (build_sketch_finite_p(2, [0], 3, 1.5),
                   build_sketch_inf(2, 3)):
        public = {name for name in dir(sketch) if not name.startswith("_")}
        assert public == {"factors", "p", "apply"}
