"""Hybrid deterministic/randomized row selection for Gram estimation.

Rows whose leverage score clears a threshold are pulled out deterministically
(over one or more rounds, with per-round score recomputation), and the
remaining rows are covered by a weighted random sample.  The resulting Gram
estimate adds the selected rows' exact contribution to the sampled part's
unbiased one, which strips the dominant variance term whenever a few rows
carry most of the spectral mass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core_complex import check_int, check_real, seeded_generator
from .sketch_sampling import (
    CHOLESKY_QR_MAX_COND,
    SamplingSketch,
    _cholesky_inverse,
    _row_energies,
    _whitened_scores,
    apply_sketch,
    build_sampling_sketch,
    exact_leverage_scores,
)

REMAINDER_MODES = ("uniform", "leverage")


@dataclass
class HybridPlan:
    """Deterministic row set plus a sampling sketch over the other rows.

    ``deterministic_rows`` (ascending, weight 1) and ``sampled`` both number
    rows of the source matrix, whose row count is ``sampled.source_rows``:
    the picks lie in the remainder, the rows not kept deterministically.  A
    plan with no picks (every row went deterministic, or the budget left
    nothing for sampling) has an empty ``sampled``.
    """

    deterministic_rows: np.ndarray
    sampled: SamplingSketch


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest scores, ties going to the lowest
    index: ``np.sort(np.argsort(-scores, kind="stable")[:k])`` for 1 <= k <= n,
    by a partition threshold in place of the full sort."""
    tau = np.partition(scores, scores.size - k)[scores.size - k]
    top = scores > tau
    ties = np.flatnonzero(scores == tau)
    top[ties[:k - np.count_nonzero(top)]] = True
    return np.flatnonzero(top)


def _hybrid_plan(n: int, deterministic: np.ndarray, sample_count: int,
                 remainder_scores, rng) -> HybridPlan:
    """The plan over n rows keeping the ascending rows ``deterministic`` at
    weight 1 and drawing ``sample_count`` picks from the rest: uniformly
    when ``remainder_scores`` is None, else by the scores it returns for the
    ascending remainder rows (uniformly when those are all zero).  The picks
    are drawn over the remainder and returned as rows of the source."""
    keep = np.ones(n, dtype=bool)
    keep[deterministic] = False
    remainder = np.flatnonzero(keep)
    m = remainder.size
    rows, weights = np.zeros(0, dtype=np.int64), np.zeros(0)
    if sample_count > 0 and m > 0:
        probs = np.full(m, 1.0 / m)
        if remainder_scores is not None:
            scores = remainder_scores(remainder)
            total = scores.sum()
            if total > 0.0:
                probs = scores / total
        local = build_sampling_sketch(probs, sample_count, seed=rng)
        rows, weights = remainder[local.rows], local.weights
    return HybridPlan(deterministic, SamplingSketch(n, rows, weights))


def ls_det_sample(B, rounds: int = 1, threshold: float = 0.5, *,
                  sample_count: int, remainder_mode: str = "uniform",
                  seed=0, cap: int | None = None) -> HybridPlan:
    """Select heavy-leverage rows deterministically, then sample the rest.

    Per round, leverage scores of the still-unselected rows are recomputed
    and every row scoring >= ``threshold`` moves to the deterministic set,
    capped at ``cap`` rows per round (default 2*cols), largest scores first
    (ties to the lowest row).  After ``rounds`` rounds, ``sample_count``
    rows are drawn i.i.d. from the remainder — uniformly (weights
    sqrt(n_remaining/sample_count)) or by remainder leverage scores.
    Deterministic rows always carry weight 1.  Both row sets of the plan are
    rows of B.

    A ``threshold`` above 1, ``inf`` included, selects nothing (no leverage
    score exceeds 1) and the plan degenerates to pure sampling; a NaN, bool
    or non-number ``threshold`` raises like a non-positive one.  An empty
    remainder yields a plan with no picks, whose Gram estimate is exact.
    """
    rng = seeded_generator(seed, "ls_det_sample: seed")
    B = np.asarray(B)
    n, d = B.shape
    check_int(rounds, "ls_det_sample: rounds", 1)
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) \
            or not threshold > 0.0:
        raise ValueError("ls_det_sample: threshold must be positive, "
                         f"got {threshold!r}")
    check_int(sample_count, "ls_det_sample: sample_count", 1)
    cap = 2 * d if cap is None else check_int(cap, "ls_det_sample: cap", 1)
    if remainder_mode not in REMAINDER_MODES:
        raise ValueError(
            f"ls_det_sample: remainder_mode must be one of {REMAINDER_MODES}")

    taken = np.zeros(n, dtype=bool)
    for _ in range(rounds):
        remaining = np.flatnonzero(~taken)
        if remaining.size == 0:
            break
        scores = exact_leverage_scores(B[remaining])
        eligible = np.flatnonzero(scores >= threshold)
        if eligible.size == 0:
            break
        top = _top_k_rows(scores[eligible], min(cap, eligible.size))
        taken[remaining[eligible[top]]] = True

    def scores(remainder):
        return exact_leverage_scores(B[remainder])
    return _hybrid_plan(n, np.flatnonzero(taken), sample_count,
                        scores if remainder_mode == "leverage" else None, rng)


def ls_det_fraction_plan(B, budget: int, fraction: float, *,
                         remainder_mode: str = "uniform", seed=0) -> HybridPlan:
    """Split a fixed row budget between top-leverage rows and random picks.

    ``round(fraction * budget)`` rows with the largest exact leverage scores
    go deterministic (weight 1); the rest of the budget samples the remaining
    rows per ``remainder_mode``.  ``fraction=0`` is pure sampling;
    ``fraction=1`` keeps only the top-``budget`` rows and drops the remainder
    entirely (a deliberately biased estimate, useful as a baseline).

    B is whitened once, as by ``exact_leverage_scores``: with L the Cholesky
    factor of B^T B, the top rows have the largest row energies
    ||b_i L^{-T}||^2.  The remainder's Gram is L M M^T L^T, where
    M = chol(I - U^T U) for the k x d block U = B_top L^{-T}, so the
    remainder's leverage scores are the row energies of B under
    L^{-T} M^{-T}: no second Gram and no copy of the remainder rows.  Those
    scores err by about (cond(L) cond(M))^2 * eps, and the downdate is taken
    only while cond(L) cond(M) <= ``CHOLESKY_QR_MAX_COND``.  When that test
    or the factorization of I - U^T U fails, or B is not whitened (see
    ``exact_leverage_scores``), the remainder's scores are
    ``exact_leverage_scores`` of its rows.  At ``fraction=0`` the remainder
    is B, scored by ``exact_leverage_scores(B)``.
    """
    rng = seeded_generator(seed, "ls_det_fraction_plan: seed")
    B = np.asarray(B)
    n, _ = B.shape
    check_int(budget, "ls_det_fraction_plan: budget", 1)
    check_real(fraction, "ls_det_fraction_plan: fraction", 0, 1)
    if remainder_mode not in REMAINDER_MODES:
        raise ValueError("ls_det_fraction_plan: remainder_mode must be one of "
                         f"{REMAINDER_MODES}")
    k = min(int(round(fraction * budget)), n)
    deterministic, scores = _top_leverage_rows(B, k)
    return _hybrid_plan(n, deterministic, budget - k,
                        scores if remainder_mode == "leverage" else None, rng)


def _top_leverage_rows(B, k: int):
    """The k rows of B with the largest leverage scores, as ``_top_k_rows``
    picks them, and a function from the other rows, ascending, to their own
    leverage scores, by the downdate of ``ls_det_fraction_plan``."""
    if k == 0:  # the remainder is B
        return (np.zeros(0, dtype=np.int64),
                lambda remainder: exact_leverage_scores(B))
    scores, whitening = _whitened_scores(B)
    top = _top_k_rows(scores, k)
    if whitening is None:
        return top, lambda remainder: exact_leverage_scores(B[remainder])
    Li, cond = whitening

    def remainder_scores(remainder):
        U = B[top] @ Li.T
        downdate = _cholesky_inverse(np.eye(B.shape[1]) - U.T @ U,
                                     CHOLESKY_QR_MAX_COND / cond)
        if downdate is None:
            return exact_leverage_scores(B[remainder])
        return _row_energies(B, (downdate[0] @ Li).T)[remainder]
    return top, remainder_scores


def hybrid_gram(plan: HybridPlan, B) -> np.ndarray:
    """Gram estimate: exact part over the deterministic rows + sampled part.

    Returns sum_{i in deterministic} B_i^T B_i + C^T C with
    C = apply_sketch(plan.sampled, B), which rejects a B whose row count is
    not the plan's.  Transposes are plain (non-conjugated), matching the
    unbiasedness target E[C^T C] = B^T B.
    """
    B = np.asarray(B)
    C = apply_sketch(plan.sampled, B)
    d = B.shape[1]
    out = np.zeros((d, d), dtype=B.dtype)
    if plan.deterministic_rows.size:
        BE = B[plan.deterministic_rows]
        out = out + BE.T @ BE
    if C.shape[0]:
        out = out + C.T @ C
    return out
