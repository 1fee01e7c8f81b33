"""Tests for deterministic-plus-sampled row selection and its Gram estimate."""

import dataclasses

import numpy as np
import pytest

from sketchopt.hybrid_sampling import (
    HybridPlan,
    _top_k_rows,
    hybrid_gram,
    ls_det_fraction_plan,
    ls_det_sample,
)
from sketchopt.sketch_sampling import (
    apply_sketch,
    build_sampling_sketch,
    exact_leverage_scores,
)


def complex_matrix(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def test_identity_rows_all_go_deterministic():
    d = 6
    B = np.eye(d)
    plan = ls_det_sample(B, rounds=1, threshold=0.5, sample_count=3, seed=0)
    assert sorted(plan.deterministic_rows.tolist()) == list(range(d))
    assert len(plan.sampled) == 0
    assert plan.sampled.source_rows == d


def test_huge_row_lands_deterministic():
    rng = np.random.default_rng(40)
    B = rng.standard_normal((100, 4))
    B[37] = 1e6 * rng.standard_normal(4)
    plan = ls_det_sample(B, rounds=1, threshold=0.9, sample_count=10, seed=1)
    assert 37 in plan.deterministic_rows.tolist()


def test_threshold_above_one_degenerates_to_pure_sampling():
    rng = np.random.default_rng(41)
    B = rng.standard_normal((50, 3))
    plan = ls_det_sample(
        B, rounds=1, threshold=1.0 + 1e-6, sample_count=12,
        remainder_mode="leverage", seed=7,
    )
    assert plan.deterministic_rows.size == 0
    scores = exact_leverage_scores(B)
    ref = build_sampling_sketch(scores / scores.sum(), 12, seed=7)
    assert plan.sampled.rows.tolist() == ref.rows.tolist()
    np.testing.assert_allclose(plan.sampled.weights, ref.weights, rtol=1e-12)
    assert plan.sampled.source_rows == 50


def test_uniform_remainder_weights():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((40, 3))
    B[5] *= 50.0
    plan = ls_det_sample(
        B, rounds=1, threshold=0.5, sample_count=8, remainder_mode="uniform",
        seed=3,
    )
    n_rem = 40 - plan.deterministic_rows.size
    np.testing.assert_allclose(plan.sampled.weights, np.sqrt(n_rem / 8.0))


def test_rounds_recompute_scores_with_per_round_cap():
    # rows 4e1, 3e2, 2e3, e1, e2, e3: round one scores are
    # (16/17, 9/10, 4/5, 1/17, 1/10, 1/5); cap=2 takes rows {0,1}.  With those
    # gone, rows 3 and 4 become isolated directions (score 1.0) and round two
    # takes them, demonstrating per-round score recomputation.
    B = np.vstack([np.diag([4.0, 3.0, 2.0]), np.eye(3)])
    plan = ls_det_sample(
        B, rounds=2, threshold=0.5, sample_count=1, cap=2, seed=0
    )
    assert sorted(plan.deterministic_rows.tolist()) == [0, 1, 3, 4]
    assert set(plan.sampled.rows.tolist()) <= {2, 5}


def test_deterministic_part_identical_across_seeds():
    rng = np.random.default_rng(43)
    B = rng.standard_normal((60, 4))
    B[[3, 11]] *= 20.0
    sets = [
        ls_det_sample(B, rounds=1, threshold=0.5, sample_count=5, seed=s)
        .deterministic_rows.tolist()
        for s in range(5)
    ]
    assert all(s == sets[0] for s in sets)


def test_picks_disjoint_from_deterministic_rows():
    rng = np.random.default_rng(44)
    B = rng.standard_normal((80, 4))
    B[[2, 9, 30]] *= 30.0
    plan = ls_det_sample(B, rounds=1, threshold=0.5, sample_count=20, seed=5)
    picked_source = set(plan.sampled.rows.tolist())
    assert picked_source.isdisjoint(set(plan.deterministic_rows.tolist()))


@pytest.mark.parametrize("remainder_mode", ["uniform", "leverage"])
def test_picks_are_numbered_by_source_row(remainder_mode):
    # the picks are the rows of a draw over the remainder alone, mapped back
    # to rows of B, with that draw's weights
    rng = np.random.default_rng(53)
    B = rng.standard_normal((70, 4))
    B[[6, 40, 41]] *= 25.0
    plans = [
        ls_det_sample(B, rounds=2, threshold=0.5, sample_count=15,
                      remainder_mode=remainder_mode, seed=8),
        ls_det_fraction_plan(B, budget=25, fraction=0.4,
                             remainder_mode=remainder_mode, seed=8),
    ]
    for plan in plans:
        assert plan.deterministic_rows.size > 0
        remainder = np.setdiff1d(np.arange(70), plan.deterministic_rows)
        if remainder_mode == "uniform":
            probs = np.full(remainder.size, 1.0 / remainder.size)
        else:
            scores = exact_leverage_scores(B[remainder])
            probs = scores / scores.sum()
        local = build_sampling_sketch(probs, len(plan.sampled), seed=8)
        assert np.array_equal(plan.sampled.rows, remainder[local.rows])
        assert np.array_equal(plan.sampled.weights, local.weights)
        assert plan.sampled.source_rows == 70


def test_nan_threshold_raises_and_inf_selects_nothing():
    B = np.random.default_rng(42).standard_normal((50, 3))
    B[0] *= 1e3
    assert 0 in ls_det_sample(B, threshold=0.5, sample_count=4,
                              seed=1).deterministic_rows.tolist()
    with pytest.raises(ValueError, match="threshold must be positive"):
        ls_det_sample(B, threshold=float("nan"), sample_count=4, seed=1)
    plan = ls_det_sample(B, threshold=float("inf"), sample_count=4, seed=1)
    assert plan.deterministic_rows.size == 0
    assert len(plan.sampled) == 4


def test_parameter_validation():
    B = np.eye(3)
    with pytest.raises(ValueError):
        ls_det_sample(B, rounds=0, threshold=0.5, sample_count=2)
    with pytest.raises(ValueError):
        ls_det_sample(B, rounds=1, threshold=0.0, sample_count=2)
    with pytest.raises(ValueError):
        ls_det_sample(B, rounds=1, threshold=0.5, sample_count=0)
    with pytest.raises(ValueError):
        ls_det_sample(B, rounds=1, threshold=0.5, sample_count=2,
                      remainder_mode="bogus")


@pytest.mark.parametrize("caller, plan", [
    ("ls_det_sample",
     lambda B: ls_det_sample(B, rounds=3, threshold=0.01, sample_count=4,
                             remainder_mode="bogus")),
    ("ls_det_fraction_plan",
     lambda B: ls_det_fraction_plan(B, 10, 0.5, remainder_mode="bogus")),
], ids=["ls_det_sample", "ls_det_fraction_plan"])
def test_bad_remainder_mode_raises_before_leverage_work(caller, plan,
                                                        monkeypatch):
    from sketchopt import hybrid_sampling

    calls = []
    original = hybrid_sampling.exact_leverage_scores
    monkeypatch.setattr(hybrid_sampling, "exact_leverage_scores",
                        lambda B: calls.append(1) or original(B))
    B = np.random.default_rng(30).standard_normal((40, 3))
    with pytest.raises(ValueError, match=f"^{caller}: remainder_mode must be "
                                         r"one of \('uniform', 'leverage'\)$"):
        plan(B)
    assert calls == []


# ---------------------------------------------------------------------------
# hybrid_gram
# ---------------------------------------------------------------------------


def test_exactness_limit_all_rows_deterministic_complex():
    rng = np.random.default_rng(45)
    B = complex_matrix(rng, 12, 3)
    plan = ls_det_sample(B, rounds=1, threshold=1e-9, sample_count=1,
                         cap=12, seed=0)
    assert plan.deterministic_rows.size == 12 and len(plan.sampled) == 0
    G = hybrid_gram(plan, B)
    # plain (non-conjugated) transpose Gram, matching the unbiased target
    np.testing.assert_allclose(G, B.T @ B, atol=1e-10)


def test_empty_deterministic_equals_plain_sketched_gram():
    rng = np.random.default_rng(46)
    B = rng.standard_normal((50, 3))
    plan = ls_det_sample(
        B, rounds=1, threshold=1.0 + 1e-6, sample_count=15,
        remainder_mode="leverage", seed=11,
    )
    C = apply_sketch(plan.sampled, B)
    np.testing.assert_allclose(hybrid_gram(plan, B), C.T @ C, atol=1e-12)


def test_gram_splits_between_exact_and_sampled_parts():
    rng = np.random.default_rng(47)
    B = complex_matrix(rng, 30, 3)
    B[4] *= 40.0
    plan = ls_det_sample(B, rounds=1, threshold=0.5, sample_count=10, seed=9)
    E = plan.deterministic_rows
    C = apply_sketch(plan.sampled, B)
    expected = B[E].T @ B[E] + C.T @ C
    np.testing.assert_allclose(hybrid_gram(plan, B), expected, atol=1e-12)


def test_hybrid_gram_rejects_a_matrix_of_another_row_count():
    rng = np.random.default_rng(54)
    B = rng.standard_normal((30, 3))
    B[4] *= 40.0
    for fraction in (0.0, 0.5, 1.0):
        plan = ls_det_fraction_plan(B, budget=10, fraction=fraction, seed=2)
        for rows in (29, 31):
            with pytest.raises(ValueError, match="row count"):
                hybrid_gram(plan, rng.standard_normal((rows, 3)))


def test_hybrid_gram_is_unbiased_over_remainder():
    rng = np.random.default_rng(48)
    B = rng.standard_normal((40, 3))
    B[7] *= 25.0
    target = B.T @ B
    plan0 = ls_det_sample(B, rounds=1, threshold=0.5, sample_count=6, seed=0)
    E = plan0.deterministic_rows
    det_part = B[E].T @ B[E]
    rem_target = target - det_part
    acc = np.zeros((3, 3))
    reps = 4000
    for s in range(reps):
        plan = ls_det_sample(B, rounds=1, threshold=0.5, sample_count=6,
                             seed=s)
        acc += hybrid_gram(plan, B)
    mean = acc / reps
    assert np.linalg.norm(mean - target, 2) / np.linalg.norm(target, 2) <= 0.02
    # the stochastic part alone is also unbiased for the remainder Gram
    rem_err = np.linalg.norm((mean - det_part) - rem_target, 2)
    assert rem_err / np.linalg.norm(rem_target, 2) <= 0.05


def test_hybrid_beats_pure_sampling_on_heavy_rows():
    # planted heavy rows + flat Gaussian bulk: representing the heavy rows
    # exactly removes the dominant variance term at equal total budget
    wins = 0
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        B = rng.standard_normal((300, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        B[:3] = 30.0 * Q.T  # orthonormal heavy directions, norm 30 each
        target = B.T @ B
        budget = 50
        plan = ls_det_sample(B, rounds=1, threshold=0.5,
                             sample_count=budget - 3, seed=2000 + s)
        assert plan.deterministic_rows.size == 3
        hyb_err = np.linalg.norm(hybrid_gram(plan, B) - target, 2)
        scores = exact_leverage_scores(B)
        S = build_sampling_sketch(scores / scores.sum(), budget, seed=3000 + s)
        C = apply_sketch(S, B)
        pure_err = np.linalg.norm(C.T @ C - target, 2)
        wins += int(hyb_err <= pure_err)
    assert wins >= 70


# ---------------------------------------------------------------------------
# fraction-knob plans
# ---------------------------------------------------------------------------


def test_fraction_zero_is_pure_sampling():
    rng = np.random.default_rng(49)
    B = rng.standard_normal((60, 4))
    plan = ls_det_fraction_plan(B, budget=20, fraction=0.0, seed=4)
    assert plan.deterministic_rows.size == 0
    assert len(plan.sampled) == 20
    assert plan.sampled.source_rows == 60


def test_fraction_one_is_top_leverage_rows():
    rng = np.random.default_rng(50)
    B = rng.standard_normal((60, 4))
    B[[10, 20, 30]] *= 15.0
    plan = ls_det_fraction_plan(B, budget=5, fraction=1.0, seed=4)
    assert plan.deterministic_rows.size == 5
    assert len(plan.sampled) == 0
    scores = exact_leverage_scores(B)
    top5 = set(np.argsort(-scores)[:5].tolist())
    assert set(plan.deterministic_rows.tolist()) == top5
    assert {10, 20, 30} <= top5


def test_top_k_rows_matches_stable_argsort():
    # the partition threshold must pick exactly the rows of a stable sort,
    # ties included: lowest index first among equal scores
    rng = np.random.default_rng(52)
    for case in range(200):
        n = int(rng.integers(1, 80))
        k = int(rng.integers(1, n + 1))
        if case % 2:
            scores = rng.integers(0, 3, size=n) / 3.0  # many tied scores
        else:
            scores = rng.random(n)
        expect = np.sort(np.argsort(-scores, kind="stable")[:k])
        assert np.array_equal(_top_k_rows(scores, k), expect), (scores, k)


def test_fraction_splits_budget():
    rng = np.random.default_rng(51)
    B = rng.standard_normal((100, 4))
    plan = ls_det_fraction_plan(B, budget=20, fraction=0.5, seed=4)
    assert plan.deterministic_rows.size == 10
    assert len(plan.sampled) == 10
    assert plan.sampled.source_rows == 100
    with pytest.raises(ValueError):
        ls_det_fraction_plan(B, budget=0, fraction=0.5)
    with pytest.raises(ValueError):
        ls_det_fraction_plan(B, budget=10, fraction=1.2)


def test_plan_type_fields():
    rng = np.random.default_rng(52)
    B = rng.standard_normal((30, 3))
    plan = ls_det_sample(B, rounds=2, threshold=0.5, sample_count=4,
                         remainder_mode="uniform", seed=0)
    assert isinstance(plan, HybridPlan)
    assert [f.name for f in dataclasses.fields(plan)] == [
        "deterministic_rows", "sampled"]
    assert plan.sampled.source_rows == 30
