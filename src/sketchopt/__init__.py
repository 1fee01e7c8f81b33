"""sketchopt: randomized sketching for non-PSD and complex matrices.

Dense complex linear algebra and complex->real lifting, leverage-score and
hybrid row sampling, sketched-Hessian Newton-type optimizers, sketch-and-solve
lp regression over the complex field, and TensorSketch estimation of
vector-matrix-vector products, plus a reproducible benchmark CLI (``bench``).
"""

from .core_complex import (
    lift_matrix,
    lift_scalar,
    min_eig_hermitian,
    mixed_norm,
    phi,
    qr,
    spectral_norm,
    svd,
    unphi,
)
from .sketch_sampling import (
    SamplingSketch,
    SchemeResult,
    apply_sketch,
    approx_leverage_scores,
    build_sampling_sketch,
    embedding_distortion,
    exact_leverage_scores,
    gamma_factor,
    scheme_probabilities,
)
from .hybrid_sampling import (
    HybridPlan,
    hybrid_gram,
    ls_det_fraction_plan,
    ls_det_sample,
)
from .hessian_oracle import (
    FiniteSumProblem,
    LossFamily,
    OracleMeter,
    convex_ridge_lambda,
    curvature_bound,
    d_diag,
    grad,
    hessp_full,
    hessp_sketched,
    make_loss,
    sketched_hessian,
    value,
)
from .optimizers import (
    OptConfig,
    OptTrace,
    cg_solve,
    cg_steihaug,
    minnorm_lsq,
    newton_cg,
    newton_mr,
    trust_region,
)
from .lp_regression import (
    BlockSketch,
    LiftedRegression,
    LpSolution,
    SketchSolveResult,
    build_sketch_finite_p,
    build_sketch_inf,
    classify_pairs,
    complex_lp_solve,
    gaussian_moment_scale,
    lift_instance,
    lp_leverage_scores,
    sketch_and_solve,
    small_lp_solve,
)
from .vmv_sketch import (
    TensorSketchState,
    estimate,
    estimate_vmv,
    ingest,
    query_vec,
    ts_new,
    ts_pair,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core_complex
    "svd", "qr", "lift_scalar", "phi", "unphi", "lift_matrix", "mixed_norm",
    "spectral_norm", "min_eig_hermitian",
    # sketch_sampling
    "SamplingSketch", "SchemeResult", "exact_leverage_scores",
    "approx_leverage_scores", "build_sampling_sketch", "apply_sketch",
    "scheme_probabilities", "gamma_factor", "embedding_distortion",
    # hybrid_sampling
    "HybridPlan", "ls_det_sample", "ls_det_fraction_plan", "hybrid_gram",
    # hessian_oracle
    "FiniteSumProblem", "LossFamily", "OracleMeter", "make_loss", "value",
    "grad", "d_diag", "hessp_full", "sketched_hessian", "hessp_sketched",
    "convex_ridge_lambda", "curvature_bound",
    # optimizers
    "OptConfig", "OptTrace", "cg_solve", "minnorm_lsq", "cg_steihaug",
    "newton_cg", "newton_mr", "trust_region",
    # lp_regression
    "LiftedRegression", "BlockSketch", "LpSolution", "SketchSolveResult",
    "lift_instance", "lp_leverage_scores", "classify_pairs",
    "build_sketch_finite_p", "build_sketch_inf", "sketch_and_solve",
    "small_lp_solve", "complex_lp_solve", "gaussian_moment_scale",
    # vmv_sketch
    "TensorSketchState", "ts_new", "ts_pair", "ingest", "query_vec",
    "estimate_vmv", "estimate",
]
