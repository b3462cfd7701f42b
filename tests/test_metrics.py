"""Overlap scores against brute-force oracles; cosine surrogates."""

import numpy as np
import pytest

from clustersum.metrics import (
    best_rouge,
    cosine_center,
    cosine_similarity,
    cosine_top_k,
    rouge_l,
    rouge_n,
)

from oracles import brute_force_lcs, reference_lcs


class TestRougeN:
    def test_identical_texts_perfect(self):
        tokens = "the cat sat on the mat".split()
        for n in (1, 2, 3):
            score = rouge_n(tokens, tokens, n)
            assert score.precision == score.recall == score.f1 == 1.0

    def test_disjoint_vocab_zero(self):
        score = rouge_n("a b c".split(), "x y z".split(), 1)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_hand_counted_unigrams(self):
        score = rouge_n("a b c".split(), "a b d".split(), 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_clipping(self):
        """Repeated candidate tokens only count up to the reference count."""
        score = rouge_n("a a a".split(), "a b".split(), 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)

    def test_candidate_shorter_than_n(self):
        score = rouge_n(["a"], "a b c".split(), 2)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_swap_swaps_precision_recall(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = [str(t) for t in rng.integers(0, 6, size=rng.integers(1, 12))]
            b = [str(t) for t in rng.integers(0, 6, size=rng.integers(1, 12))]
            fwd = rouge_n(a, b, 1)
            rev = rouge_n(b, a, 1)
            assert fwd.precision == pytest.approx(rev.recall)
            assert fwd.recall == pytest.approx(rev.precision)
            assert fwd.f1 == pytest.approx(rev.f1)

    def test_counting_matches_counter_oracle(self):
        from collections import Counter

        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = [str(t) for t in rng.integers(0, 5, size=rng.integers(n, 15))]
            b = [str(t) for t in rng.integers(0, 5, size=rng.integers(n, 15))]
            a_grams = Counter(tuple(a[i:i + n]) for i in range(len(a) - n + 1))
            b_grams = Counter(tuple(b[i:i + n]) for i in range(len(b) - n + 1))
            overlap = sum((a_grams & b_grams).values())
            score = rouge_n(a, b, n)
            assert score.precision == pytest.approx(overlap / sum(a_grams.values()))
            assert score.recall == pytest.approx(overlap / sum(b_grams.values()))


class TestRougeL:
    def test_hand_worked_case(self):
        score = rouge_l("a b c d".split(), "a c b d".split())
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)

    def test_reference_prefix_of_candidate(self):
        score = rouge_l("a b c d e".split(), "a b c".split())
        assert score.recall == 1.0
        assert score.precision == pytest.approx(3 / 5)

    def test_empty_side_zero(self):
        assert rouge_l([], "a b".split()).f1 == 0.0
        assert rouge_l("a b".split(), []).f1 == 0.0

    def test_matches_brute_force_on_tiny_strings(self):
        """Exhaustive subsequence enumeration agrees with the DP."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = [str(t) for t in rng.integers(0, 4, size=rng.integers(1, 9))]
            b = [str(t) for t in rng.integers(0, 4, size=rng.integers(1, 9))]
            lcs = brute_force_lcs(a, b)
            score = rouge_l(a, b)
            assert score.precision == pytest.approx(lcs / len(a))
            assert score.recall == pytest.approx(lcs / len(b))

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = [str(t) for t in rng.integers(0, 8, size=rng.integers(1, 30))]
            b = [str(t) for t in rng.integers(0, 8, size=rng.integers(1, 30))]
            lcs = reference_lcs(a, b)
            score = rouge_l(a, b)
            assert score.precision == pytest.approx(lcs / len(a), abs=1e-9)
            assert score.recall == pytest.approx(lcs / len(b), abs=1e-9)


class TestBestRouge:
    def test_picks_best_f1_reference(self):
        cand = "a b c".split()
        refs = ["x y z".split(), "a b c".split(), "a q r".split()]
        assert best_rouge(cand, refs, "n", 1).f1 == 1.0
        assert best_rouge(cand, refs, "l").f1 == 1.0

    def test_needs_references(self):
        with pytest.raises(ValueError):
            best_rouge(["a"], [], "n", 1)


class TestCosineSurrogates:
    def test_cosine_extremes(self):
        assert cosine_similarity([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_center_mean_over_clusters(self):
        summaries = np.array([[1.0, 0.0], [1.0, 1.0]])
        centers = np.array([[2.0, 0.0], [0.0, 3.0]])
        expected = (1.0 + np.cos(np.pi / 4)) / 2
        assert cosine_center(summaries, centers) == pytest.approx(expected)

    def test_center_identical_embedding_scores_one(self):
        v = np.array([[0.3, -0.7, 0.1]])
        assert cosine_center(v, 4.0 * v) == pytest.approx(1.0)

    def test_top_k_saturates_to_all_members(self):
        rng = np.random.default_rng(4)
        docs = rng.normal(size=(10, 4))
        summaries = rng.normal(size=(1, 4))
        centers = docs.mean(axis=0, keepdims=True)
        ids = [f"d{i}" for i in range(10)]
        assignment = np.zeros(10, dtype=int)
        a = cosine_top_k(summaries, docs, ids, assignment, centers, k=10)
        b = cosine_top_k(summaries, docs, ids, assignment, centers, k=500)
        assert a == pytest.approx(b)
        expected = np.mean([cosine_similarity(summaries[0], d) for d in docs])
        assert a == pytest.approx(expected)

    def test_top_one_uses_nearest_document(self):
        docs = np.array([[1.0, 0.0], [0.0, 1.0]])
        centers = np.array([[0.9, 0.1]])
        summaries = np.array([[1.0, 0.0]])
        out = cosine_top_k(summaries, docs, ["a", "b"], np.zeros(2, dtype=int),
                           centers, k=1)
        assert out == pytest.approx(1.0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            cosine_top_k(np.ones((2, 2)), np.ones((3, 2)), ["a", "b", "c"],
                         np.zeros(3, dtype=int), np.ones((2, 2)), k=1)
