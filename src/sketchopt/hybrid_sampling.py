"""Hybrid deterministic/randomized row selection for Gram estimation.

Rows whose leverage score clears a threshold are pulled out deterministically
(over one or more rounds, with per-round score recomputation), and the
remaining rows are covered by a weighted random sample.  The resulting Gram
estimate adds the selected rows' exact contribution to the sampled part's
unbiased one, which strips the dominant variance term whenever a few rows
carry most of the spectral mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_complex import check_int
from .sketch_sampling import (
    SamplingSketch,
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


def _hybrid_plan(B, deterministic: np.ndarray, sample_count: int,
                 remainder_mode: str, seed) -> HybridPlan:
    """The plan keeping the ascending rows ``deterministic`` at weight 1 and
    drawing ``sample_count`` picks from the rest, uniformly or by their
    leverage scores (uniformly when those are all zero).  The picks are
    drawn over the remainder and returned as rows of B."""
    n = B.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[deterministic] = False
    remainder = np.flatnonzero(keep)
    m = remainder.size
    rows, weights = np.zeros(0, dtype=np.int64), np.zeros(0)
    if sample_count > 0 and m > 0:
        probs = np.full(m, 1.0 / m)
        if remainder_mode == "leverage":
            scores = exact_leverage_scores(B[remainder])
            total = scores.sum()
            if total > 0.0:
                probs = scores / total
        local = build_sampling_sketch(probs, sample_count, seed=seed)
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
    score exceeds 1) and the plan degenerates to pure sampling; a NaN
    ``threshold`` raises like a non-positive one.  An empty remainder yields a
    plan with no picks, whose Gram estimate is exact.
    """
    B = np.asarray(B)
    n, d = B.shape
    check_int(rounds, "ls_det_sample: rounds", 1)
    if not threshold > 0.0:
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
    return _hybrid_plan(B, np.flatnonzero(taken), sample_count, remainder_mode,
                        seed)


def ls_det_fraction_plan(B, budget: int, fraction: float, *,
                         remainder_mode: str = "uniform", seed=0) -> HybridPlan:
    """Split a fixed row budget between top-leverage rows and random picks.

    ``round(fraction * budget)`` rows with the largest exact leverage scores
    go deterministic (weight 1); the rest of the budget samples the remaining
    rows per ``remainder_mode``.  ``fraction=0`` is pure sampling;
    ``fraction=1`` keeps only the top-``budget`` rows and drops the remainder
    entirely (a deliberately biased estimate, useful as a baseline).
    """
    B = np.asarray(B)
    n, _ = B.shape
    check_int(budget, "ls_det_fraction_plan: budget", 1)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("ls_det_fraction_plan: fraction must be in [0, 1]")
    if remainder_mode not in REMAINDER_MODES:
        raise ValueError("ls_det_fraction_plan: remainder_mode must be one of "
                         f"{REMAINDER_MODES}")
    k = min(int(round(fraction * budget)), n)
    if k > 0:
        deterministic = _top_k_rows(exact_leverage_scores(B), k)
    else:
        deterministic = np.zeros(0, dtype=np.int64)
    return _hybrid_plan(B, deterministic, budget - k, remainder_mode, seed)


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
