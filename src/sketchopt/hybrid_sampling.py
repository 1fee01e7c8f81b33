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
    """Deterministic row set plus a sampling sketch over the remainder.

    ``deterministic_rows`` and ``remainder`` partition a subset of
    ``range(source_rows)``; ``sampled.rows`` index into ``remainder`` (so the
    original indices of the picks are ``remainder[sampled.rows]``).
    ``saturated`` means the plan has no random picks at all — either every row
    went deterministic, or the budget left nothing for sampling.
    """

    source_rows: int
    deterministic_rows: np.ndarray
    remainder: np.ndarray
    sampled: SamplingSketch
    rounds: int
    threshold: float
    remainder_mode: str
    saturated: bool


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
                 remainder_mode: str, seed, caller: str, rounds: int = 1,
                 threshold: float = float("nan")) -> HybridPlan:
    """The plan keeping the ascending rows ``deterministic`` at weight 1 and
    drawing ``sample_count`` picks from the rest, uniformly or by their
    leverage scores (uniformly when those are all zero).  With no picks to
    draw or no rows left to draw from, the plan is saturated."""
    if remainder_mode not in REMAINDER_MODES:
        raise ValueError(
            f"{caller}: remainder_mode must be one of {REMAINDER_MODES}"
        )
    n = B.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[deterministic] = False
    remainder = np.flatnonzero(keep)
    m = remainder.size
    if sample_count > 0 and m > 0:
        probs = np.full(m, 1.0 / m)
        if remainder_mode == "leverage":
            scores = exact_leverage_scores(B[remainder])
            total = scores.sum()
            if total > 0.0:
                probs = scores / total
        sampled = build_sampling_sketch(probs, sample_count, seed=seed)
    else:
        sampled = SamplingSketch(m, np.zeros(0, dtype=np.int64), np.zeros(0))
    return HybridPlan(
        source_rows=n,
        deterministic_rows=deterministic,
        remainder=remainder,
        sampled=sampled,
        rounds=rounds,
        threshold=float(threshold),
        remainder_mode=remainder_mode,
        saturated=len(sampled) == 0,
    )


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
    Deterministic rows always carry weight 1.

    A ``threshold`` above 1 selects nothing (no leverage score exceeds 1) and
    the plan degenerates to pure sampling.  An empty remainder yields a
    saturated plan whose Gram estimate is exact.
    """
    B = np.asarray(B)
    n, d = B.shape
    if check_int(rounds, "ls_det_sample: rounds") < 1:
        raise ValueError("ls_det_sample: rounds must be >= 1")
    if threshold <= 0.0:
        raise ValueError("ls_det_sample: threshold must be positive")
    if check_int(sample_count, "ls_det_sample: sample_count") < 1:
        raise ValueError("ls_det_sample: sample_count must be >= 1")
    cap = 2 * d if cap is None else check_int(cap, "ls_det_sample: cap")
    if cap < 1:
        raise ValueError("ls_det_sample: cap must be >= 1")

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
                        seed, "ls_det_sample", rounds, threshold)


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
    if check_int(budget, "ls_det_fraction_plan: budget") < 1:
        raise ValueError("ls_det_fraction_plan: budget must be >= 1")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("ls_det_fraction_plan: fraction must be in [0, 1]")
    k = min(int(round(fraction * budget)), n)
    if k > 0:
        deterministic = _top_k_rows(exact_leverage_scores(B), k)
    else:
        deterministic = np.zeros(0, dtype=np.int64)
    return _hybrid_plan(B, deterministic, budget - k, remainder_mode, seed,
                        "ls_det_fraction_plan")


def hybrid_gram(plan: HybridPlan, B) -> np.ndarray:
    """Gram estimate: exact part over the deterministic rows + sampled part.

    Returns sum_{i in deterministic} B_i^T B_i + C^T C with
    C = apply_sketch(plan.sampled, B[plan.remainder]).  Transposes are plain
    (non-conjugated), matching the unbiasedness target E[C^T C] = B^T B.
    """
    B = np.asarray(B)
    if B.shape[0] != plan.source_rows:
        raise ValueError("hybrid_gram: plan built over a different row count")
    d = B.shape[1]
    out = np.zeros((d, d), dtype=B.dtype)
    if plan.deterministic_rows.size:
        BE = B[plan.deterministic_rows]
        out = out + BE.T @ BE
    C = apply_sketch(plan.sampled, B[plan.remainder])
    if C.shape[0]:
        out = out + C.T @ C
    return out
