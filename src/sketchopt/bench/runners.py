"""Experiment runners behind the ``bench`` subcommands.

Each runner takes an :class:`~sketchopt.bench.config.ExperimentConfig`, a
master seed, and an output directory, runs its grid of cells, and writes
CSV files (plus optional SVG plots drawn from the values written to those
CSVs).  All determinism flows from ``(config, master seed)``: ``_run_cells``
derives every cell's seed from the master seed and the cell's position in the
grid, so reruns reproduce the output files byte for byte and thread
scheduling cannot change results.  A runner reads every config key it uses
before any cell runs; a key it never read, such as a misspelling or a key
of another subcommand, is then a CONFIG_INVALID error.

CSV conventions: a header line is always present, floats are written with 17
significant digits (``%.17g``), the decimal separator is ``.``, and lines end
with ``\\n``.  ``%.17g`` round-trips every double, so an SVG drawn from the
rows equals one drawn from the CSV read back.  A failed cell in a batch run
is recorded (header-only trace, error status in the summary) rather than
aborting the remaining cells.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from ..core_complex import lp_of_norms, seeded_generator
from ..hessian_oracle import (FiniteSumProblem, convex_ridge_lambda, d_diag,
                              make_loss)
from ..lp_regression import complex_lp_solve, sketch_and_solve
from ..optimizers import OptConfig, newton_cg, newton_mr, trust_region
from ..sketch_sampling import (SAMPLING_SCHEMES, approx_leverage_scores,
                               canonical_scheme, exact_leverage_scores,
                               scheme_probabilities)
from ..vmv_sketch import estimate
from .config import BenchError
from .datasets import materialize_dataset
from .svg import polyline_svg

__all__ = ["run_optimize", "run_lpreg", "run_vmv", "run_scores"]

ALGORITHMS = {"newton_cg": newton_cg, "newton_mr": newton_mr,
              "trust_region": trust_region}

# Named sub-streams of the master seed, so instances, solver cells, and
# reference computations never share randomness.
_STREAM_INSTANCE = 1
_STREAM_CELL = 2


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _derived_seed(master_seed, stream, index=0):
    ss = np.random.SeedSequence([int(master_seed), int(stream), int(index)])
    return int(ss.generate_state(1)[0])


def _fmt_field(value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_field(v) for v in row) + "\n")
    return path


def _write_svg(out_dir, name, series, title, x_label, y_label, log_y):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(polyline_svg(series, title, x_label, y_label, log_y=log_y))
    return path


def _run_cells(worker, cells, n_workers, master_seed):
    """Evaluate ``worker(cell, seed)`` over all cells, preserving cell order.

    Cell ``i`` gets the seed ``_derived_seed(master_seed, _STREAM_CELL, i)``.
    """
    jobs = [(cell, _derived_seed(master_seed, _STREAM_CELL, index))
            for index, cell in enumerate(cells)]
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        return list(pool.map(lambda job: worker(*job), jobs))


def _parse_p(config):
    if config.get_str("p", "2").lower() in ("inf", "infinity"):
        return math.inf
    p = config.get_float("p", 2.0)
    if p < 1:
        raise BenchError("CONFIG_INVALID", "key 'p': must be >= 1")
    return p


def _sweep_medians(rows, sweep):
    """Median of column 2 over the rows whose column 0 is each sweep value."""
    return [float(np.median([row[2] for row in rows if row[0] == value]))
            for value in sweep]


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _parse_scheme_token(token):
    """Split ``ls-det@0.25`` style tokens into (scheme, fraction).

    The scheme name and the fraction are checked by ``OptConfig``.
    """
    base, at, frac_s = token.partition("@")
    if not at:
        return base, None
    if canonical_scheme(base) != "ls-det":
        raise BenchError("CONFIG_INVALID",
                         f"scheme {token!r}: only ls-det takes @fraction")
    try:
        fraction = float(frac_s)
    except ValueError:
        raise BenchError("CONFIG_INVALID",
                         f"scheme {token!r}: bad fraction {frac_s!r}")
    return base, fraction


def _sanitize(token):
    return token.replace("@", "-").replace("/", "-")


def _resolve_ridge(config, A, labels, loss):
    policy = config.lambda_policy
    if policy == "manual":
        lam = config.get_float("ridge_lambda", 0.0)
        if lam < 0:
            raise BenchError("CONFIG_INVALID",
                             "key 'ridge_lambda': must be >= 0")
        return lam
    trial = FiniteSumProblem(A, labels, loss, ridge_lambda=0.0)
    scale = config.get_float("lambda_scale", 1.0)
    return convex_ridge_lambda(trial) * scale


def _seed_independent(oc):
    """Whether a cell's trace ignores its seed: exact Hessian products draw
    nothing."""
    return oc.scheme == "full"


def run_optimize(config, master_seed, out_dir, svg=False):
    """Run optimizer traces over a scheme grid; write per-cell CSVs + summary.

    Config keys: ``dataset``, ``algorithm`` (newton_cg | newton_mr |
    trust_region), ``schemes`` (comma list; ``ls-det@F`` pins the
    deterministic fraction; ``_`` and ``-`` are interchangeable),
    ``sample_size`` or a swept ``sample_sizes`` list, ``seeds``, ``loss``,
    ``lambda_policy`` (+ ``ridge_lambda`` / ``lambda_scale``), and optimizer
    knobs ``max_outer``, ``max_oracle_calls``, ``grad_tol``, ``inner_cap``,
    ``inner_tol``, ``tr_delta0``, ``tr_eta``, ``tr_gamma``.  Every cell's
    ``OptConfig`` is built before any cell runs, so a bad scheme, size or
    knob is a ``CONFIG_INVALID`` error rather than a column of error cells;
    so is a scheme or size that repeats a cell (``ls,LS`` or ``40,40``).
    A ``full`` cell runs once; its trace is written for every seed.
    """
    algorithm = config.get_str("algorithm", "newton_mr")
    if algorithm not in ALGORITHMS:
        raise BenchError(
            "CONFIG_INVALID",
            f"key 'algorithm': expected one of {', '.join(ALGORITHMS)}, "
            f"got {algorithm!r}")
    runner = ALGORITHMS[algorithm]

    A, labels = materialize_dataset(config, master_seed)
    loss = make_loss(config.loss)
    ridge_lambda = _resolve_ridge(config, A, labels, loss)
    problem = FiniteSumProblem(A, labels, loss, ridge_lambda=ridge_lambda)

    multi_size = "sample_sizes" in config.options
    sizes = (config.get_int_list("sample_sizes", minimum=1) if multi_size
             else [config.get_int("sample_size", minimum=1)])
    # only the knobs the config sets: OptConfig owns the defaults
    knobs = [(key, config.get_int(key))
             for key in ("max_outer", "max_oracle_calls", "inner_cap")]
    knobs += [(key, config.get_float(key)) for key in
              ("grad_tol", "inner_tol", "tr_delta0", "tr_eta", "tr_gamma")]
    opt_keys = {key: value for key, value in knobs if value is not None}
    cells, built = [], set()
    for token in config.schemes:
        scheme, fraction = _parse_scheme_token(token)
        keys = dict(opt_keys, scheme=scheme)
        if fraction is not None:
            keys["ls_det_fraction"] = fraction
        for size in sizes:
            try:
                oc = OptConfig(sample_size=size, **keys)
            except ValueError as exc:
                raise BenchError("CONFIG_INVALID", str(exc))
            if oc in built:
                raise BenchError(
                    "CONFIG_INVALID",
                    f"scheme {token!r} at sample size {size} repeats a cell")
            built.add(oc)
            cells += [(token, oc, size, seed_idx)
                      for seed_idx in range(config.seeds)]
    workers = config.workers
    config.check_all_read()

    def worker(cell, seed):
        _, oc, _, seed_idx = cell
        if seed_idx > 0 and _seed_independent(oc):
            return None  # seed 0's result, copied below
        try:
            trace = runner(problem, replace(oc, seed=seed))
            rows = trace.rows()
            if not all(np.isfinite(row).all() for row in rows):
                return ("error_NONFINITE", [])
            return (trace.status, rows)
        except (BenchError, ValueError, np.linalg.LinAlgError) as exc:
            return (f"error_{type(exc).__name__}", [])

    results = _run_cells(worker, cells, workers, master_seed)
    for i, result in enumerate(results):
        if result is None:  # a cell's seeds are consecutive, seed 0 first
            results[i] = results[i - 1]

    written = []
    trace_header = ["iter", "oracle_calls", "objective", "grad_norm",
                    "step_or_radius", "accepted"]
    summary_rows, series = [], []
    for (token, _, size, seed_idx), (status, rows) in zip(cells, results):
        size_tag = f"_m{size}" if multi_size else ""
        written.append(_write_csv(
            out_dir, f"trace_{_sanitize(token)}{size_tag}_seed{seed_idx}.csv",
            trace_header, rows))
        if rows:
            last = rows[-1]
            summary_rows.append([token, algorithm, seed_idx, status,
                                 last[1], last[2], last[3]])
            label = f"{token}" + (f" m={size}" if multi_size else "") + \
                f" seed{seed_idx}"
            series.append((label,
                           [r[1] for r in rows],   # oracle calls
                           [r[2] for r in rows]))  # objective
        else:
            summary_rows.append([token, algorithm, seed_idx, status,
                                 0, "", ""])
    written.append(_write_csv(
        out_dir, "summary.csv",
        ["scheme", "algorithm", "seed", "status", "oracle_calls",
         "final_objective", "final_grad_norm"],
        summary_rows))

    if svg:
        written.append(_write_svg(
            out_dir, "optimize.svg", series,
            f"{algorithm}: objective vs cost", "oracle calls", "objective",
            log_y=False))
    return written


# ---------------------------------------------------------------------------
# lpreg
# ---------------------------------------------------------------------------


def run_lpreg(config, master_seed, out_dir, svg=False):
    """Sweep sketch size for complex p-norm regression; write error curves.

    Config keys: ``n``, ``d``, ``p`` (number or ``inf``), ``t_values``
    (finite p) or ``s_values`` (p = inf), ``seeds``, ``zero_residual``
    (default true), ``noise_scale``, ``all_heavy``; ``n`` must exceed
    ``d``.  Errors are measured against the planted solution when the
    residual is zero, otherwise against an unsketched reference solve.
    """
    n = config.get_int("n", 100, minimum=1)
    d = config.get_int("d", 50, minimum=1)
    if n <= d:
        # every sketch then fits the instance exactly: a flat error curve
        raise BenchError("CONFIG_INVALID",
                         f"key 'n': must exceed d (got n={n}, d={d})")
    p = _parse_p(config)
    sweep = config.get_int_list("s_values" if math.isinf(p) else "t_values",
                                required=True, minimum=1)
    n_seeds = config.seeds
    zero_residual = config.get_bool("zero_residual", True)
    noise_scale = config.get_float("noise_scale", 0.1)
    all_heavy = config.get_bool("all_heavy", True)
    workers = config.workers
    config.check_all_read()

    instances = []
    for seed_idx in range(n_seeds):
        rng = seeded_generator(_derived_seed(master_seed, _STREAM_INSTANCE,
                                             seed_idx))
        A = _complex_gaussian(rng, (n, d))
        x_planted = _complex_gaussian(rng, d)
        b = A @ x_planted
        if not zero_residual:
            b = b + noise_scale * _complex_gaussian(rng, n)
            reference = complex_lp_solve(A, b, p)
            x_star = reference.x
        else:
            x_star = x_planted
        instances.append(
            (A, b, x_star, lp_of_norms(np.abs(A @ x_star - b), p)))

    cells = [(value, seed_idx)
             for value in sweep for seed_idx in range(n_seeds)]

    def worker(cell, seed):
        value, seed_idx = cell
        A, b, x_star, obj_star = instances[seed_idx]
        kwargs = {"s": value} if math.isinf(p) else {"t": value}
        result = sketch_and_solve(A, b, p, seed=seed,
                                  all_heavy=all_heavy, **kwargs)
        err_x = float(np.linalg.norm(result.xhat - x_star))
        err_obj = lp_of_norms(np.abs(A @ result.xhat - b), p) - obj_star
        return (value, seed_idx, err_x, err_obj)

    rows = _run_cells(worker, cells, workers, master_seed)
    written = [_write_csv(out_dir, "lpreg.csv",
                          ["t_or_s", "seed", "err_x", "err_obj"], rows)]
    if svg:
        written.append(_write_svg(
            out_dir, "lpreg.svg",
            [("median err_x", list(map(float, sweep)),
              _sweep_medians(rows, sweep))],
            "sketched regression error vs sketch size",
            "s" if math.isinf(p) else "t per pair",
            "median solution error", log_y=True))
    return written


# ---------------------------------------------------------------------------
# vmv
# ---------------------------------------------------------------------------


def _vmv_instance(config, master_seed):
    rows = config.get_int("rows", 50, minimum=1)
    cols = config.get_int("cols", 5, minimum=1)
    kind = config.get_str("instance", "gaussian")
    rng = seeded_generator(_derived_seed(master_seed, _STREAM_INSTANCE))
    if kind == "gaussian":
        A = _complex_gaussian(rng, (rows, cols))
        B = _complex_gaussian(rng, (rows, cols))
    elif kind == "cancellation":
        if rows % 2:
            raise BenchError("CONFIG_INVALID",
                             f"key 'rows': the cancellation instance pairs "
                             f"its rows, so rows must be even (got {rows})")
        half = rows // 2
        scale = config.get_float("cancel_scale", 1e3)
        base_a = _complex_gaussian(rng, (half, cols)) * scale
        base_b = _complex_gaussian(rng, (half, cols)) * scale
        A = np.vstack([base_a, base_a])
        B = np.vstack([base_b, -base_b])
    else:
        raise BenchError("CONFIG_INVALID",
                         f"key 'instance': expected gaussian or "
                         f"cancellation, got {kind!r}")
    u = _complex_gaussian(rng, A.shape[1])
    v = _complex_gaussian(rng, B.shape[1])
    return A, B, u, v


def run_vmv(config, master_seed, out_dir, svg=False):
    """Sweep sketch width for bilinear product estimation on one instance.

    Config keys: ``rows``, ``cols``, ``instance`` (gaussian |
    cancellation, the latter with ``cancel_scale`` and an even ``rows``),
    ``k_values``, ``reps``, ``seeds``.  The instance is fixed across all
    cells so error statistics at different widths are directly comparable.
    """
    k_values = config.get_int_list("k_values", required=True, minimum=1)
    reps = config.get_int("reps", 1, minimum=1)
    n_seeds = config.seeds

    A, B, u, v = _vmv_instance(config, master_seed)
    workers = config.workers
    config.check_all_read()
    exact = complex(u @ (A.T @ B) @ v)

    cells = [(k, seed_idx) for k in k_values for seed_idx in range(n_seeds)]

    def worker(cell, seed):
        k, seed_idx = cell
        est = estimate(A, B, u, v, k, reps=reps, seed=seed)
        return (k, seed_idx, abs(est - exact))

    rows = _run_cells(worker, cells, workers, master_seed)
    written = [_write_csv(out_dir, "vmv.csv", ["k", "seed", "abs_err"], rows)]
    if svg:
        written.append(_write_svg(
            out_dir, "vmv.svg",
            [("median abs err", list(map(float, k_values)),
              _sweep_medians(rows, k_values))],
            "bilinear estimate error vs sketch width",
            "sketch width k", "median absolute error", log_y=True))
    return written


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def run_scores(config, master_seed, out_dir, svg=False):
    """Tabulate exact vs approximate row scores and scheme probabilities.

    Config keys: ``dataset``, ``loss``, ``lambda_policy`` knobs,
    ``embed_rows`` (at least the dataset's column count) / ``jl_cols`` for
    the approximation.  Scores are taken at the zero iterate on the
    curvature-weighted rows; each sampling scheme's normalized probabilities
    are reported per row.
    """
    A, labels = materialize_dataset(config, master_seed)
    loss = make_loss(config.loss)
    ridge_lambda = _resolve_ridge(config, A, labels, loss)
    problem = FiniteSumProblem(A, labels, loss, ridge_lambda=ridge_lambda)
    embed_rows = config.get_int("embed_rows", minimum=1)
    if embed_rows is not None and embed_rows < problem.d:
        raise BenchError(
            "CONFIG_INVALID",
            f"key 'embed_rows': must be >= {problem.d}, the dataset's "
            f"column count")
    jl_cols = config.get_int("jl_cols", minimum=1)
    config.check_all_read()
    x0 = np.zeros(problem.d)

    dvec = d_diag(problem, x0)
    weighted = np.sqrt(np.abs(dvec))[:, None] * problem.A
    exact = exact_leverage_scores(weighted)
    try:
        approx = approx_leverage_scores(
            weighted, embed_rows=embed_rows, jl_cols=jl_cols,
            seed=_derived_seed(master_seed, _STREAM_CELL))
    except ValueError as exc:
        raise BenchError("RUN_FAILED", f"approximate scores failed: {exc}")

    both_zero = (exact < 1e-15) & (approx < 1e-15)
    ratio = np.where(both_zero, 1.0,
                     approx / np.maximum(exact, 1e-300))

    probs = {scheme: scheme_probabilities(problem, x0, scheme).probs
             for scheme in SAMPLING_SCHEMES}

    rows = [[i, exact[i], approx[i], ratio[i]]
            + [probs[scheme][i] for scheme in SAMPLING_SCHEMES]
            for i in range(problem.n)]

    written = [_write_csv(
        out_dir, "scores.csv",
        ["row", "exact", "approx", "ratio"]
        + ["p_" + scheme.replace("-", "_") for scheme in SAMPLING_SCHEMES],
        rows)]
    if svg:
        order = np.argsort([-r[1] for r in rows])
        xs = list(range(1, len(rows) + 1))
        written.append(_write_svg(
            out_dir, "scores.svg",
            [("exact", xs, [rows[j][1] for j in order]),
             ("approx", xs, [rows[j][2] for j in order])],
            "row scores, sorted by exact value",
            "row rank", "score", log_y=False))
    return written
