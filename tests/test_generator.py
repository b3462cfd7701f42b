"""Sampling filter, seeded generation, and candidate ranking."""

import numpy as np
import pytest

from clustersum.decoder import init_from_encoder
from clustersum.encoder import EncoderModel, ModelConfig
from clustersum.generator import (
    SamplerConfig,
    filter_top_k_top_p,
    sample_candidates,
    sample_token,
    summarize_cluster,
)

from corpora import build_docs, pair_texts
from oracles import reference_candidate_ids, reference_filter


class TestFilter:
    def test_top_two_renormalized(self):
        out = filter_top_k_top_p(np.array([0.5, 0.3, 0.1, 0.1]), k=2, p=1.0)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0])

    def test_minimal_prefix_reaches_mass(self):
        out = filter_top_k_top_p(np.array([0.5, 0.3, 0.1, 0.1]), k=4, p=0.75)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0])

    def test_k_one_is_greedy(self):
        for p in (0.01, 0.5, 1.0):
            out = filter_top_k_top_p(np.array([0.2, 0.5, 0.3]), k=1, p=p)
            np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_identity_when_unrestricted(self):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        out = filter_top_k_top_p(probs, k=4, p=1.0)
        np.testing.assert_array_equal(out, probs)

    def test_support_at_most_k(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(20))
            k = int(rng.integers(1, 21))
            p = float(rng.uniform(0.05, 1.0))
            out = filter_top_k_top_p(probs, k=k, p=p)
            assert (out > 0).sum() <= k
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_retained_mass_reaches_p_or_topk_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(12))
            k = int(rng.integers(1, 13))
            p = float(rng.uniform(0.05, 1.0))
            out = filter_top_k_top_p(probs, k=k, p=p)
            kept_mass = probs[out > 0].sum()
            order = np.argsort(-probs, kind="stable")
            topk_mass = probs[order[:k]].sum()
            assert kept_mass >= min(p, topk_mass) - 1e-12

    def test_ties_break_to_lower_token_id(self):
        out = filter_top_k_top_p(np.array([0.25, 0.25, 0.25, 0.25]), k=2, p=1.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0])

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 15))))
            k = int(rng.integers(1, probs.size + 1))
            p = float(rng.uniform(0.05, 1.0))
            np.testing.assert_allclose(
                filter_top_k_top_p(probs, k=k, p=p),
                reference_filter(probs, k, p),
                atol=1e-9,
            )

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            filter_top_k_top_p(np.zeros(4), k=2, p=0.9)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            filter_top_k_top_p(np.array([1.0, 0.0]), k=3, p=0.9)


class TestSampling:
    def test_frequencies_match_distribution(self):
        """Empirical frequencies over many draws track the filtered
        distribution within +/- 0.01 per token."""
        rng = np.random.default_rng(3)
        filtered = np.array([0.55, 0.3, 0.15, 0.0])
        draws = 100_000
        counts = np.zeros(4)
        for _ in range(draws):
            counts[sample_token(filtered, rng)] += 1
        np.testing.assert_allclose(counts / draws, filtered, atol=0.01)

    def test_never_samples_outside_support(self):
        rng = np.random.default_rng(4)
        filtered = np.array([0.0, 0.7, 0.0, 0.3, 0.0])
        for _ in range(2000):
            assert filtered[sample_token(filtered, rng)] > 0


@pytest.fixture(scope="module")
def generation_setup():
    rng = np.random.default_rng(5)
    texts = pair_texts(rng, num_docs=20, num_pairs=6, doc_len=8)
    vocab, docs = build_docs(texts, max_len=16)
    config = ModelConfig.desk_scale(vocab.size, max_len=16)
    encoder = EncoderModel(config, np.random.default_rng(6))
    decoder = init_from_encoder(encoder)
    center = encoder.embed_documents(docs[:1])[0]
    return vocab, encoder, decoder, center


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def long_setup(request):
    """A decoder whose candidates run up to 40 tokens and stop at varied steps."""
    rng = np.random.default_rng(5)
    texts = pair_texts(rng, num_docs=20, num_pairs=6, doc_len=8)
    vocab, docs = build_docs(texts, max_len=48)
    config = ModelConfig.desk_scale(vocab.size, max_len=48)
    encoder = EncoderModel(config, np.random.default_rng(6), dtype=request.param)
    decoder = init_from_encoder(encoder)
    return vocab, decoder, encoder.embed_documents(docs[:1])[0]


class TestSampleCandidates:
    def test_seeded_determinism(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=4,
                                max_summary_len=10, seed=0)
        a = sample_candidates(decoder, center, vocab, sampler, cluster=1)
        b = sample_candidates(decoder, center, vocab, sampler, cluster=1)
        assert [c.token_ids for c in a] == [c.token_ids for c in b]
        assert [c.text for c in a] == [c.text for c in b]
        assert all(c.cluster == 1 for c in a)

    def test_emitted_ids_lie_in_filtered_support(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=5, top_p=0.8, num_candidates=3,
                                max_summary_len=12, seed=1)
        trace = []
        candidates = sample_candidates(decoder, center, vocab, sampler, trace=trace)
        assert len(trace) == sum(len(c.token_ids) for c in candidates)
        for s, candidate in enumerate(candidates):
            steps = [(support, chosen) for who, support, chosen in trace if who == s]
            assert [chosen for _, chosen in steps] == candidate.token_ids
            for support, chosen in steps:
                assert chosen in support
                assert len(support) <= 5

    def test_stops_at_sep_or_length_cap(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=6,
                                max_summary_len=7, seed=2)
        for candidate in sample_candidates(decoder, center, vocab, sampler):
            ids = candidate.token_ids
            assert 1 <= len(ids) <= 7
            assert vocab.sep_id not in ids[:-1]
            assert ids[-1] == vocab.sep_id or len(ids) == 7

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tokens_match_full_prefix_reference(self, long_setup, seed):
        vocab, decoder, center = long_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=6,
                                max_summary_len=40, seed=seed)
        candidates = sample_candidates(decoder, center, vocab, sampler, cluster=seed % 3)
        for s, candidate in enumerate(candidates):
            assert candidate.token_ids == reference_candidate_ids(
                decoder, center, vocab, sampler, seed % 3, s)

    def test_candidate_independent_of_batch(self, long_setup):
        """Candidate s is the same whether 3 or 6 are decoded, while its
        neighbours leave the batch at different steps."""
        vocab, decoder, center = long_setup
        three = SamplerConfig(top_k=min(50, vocab.size), num_candidates=3,
                              max_summary_len=40, seed=7)
        six = SamplerConfig(top_k=min(50, vocab.size), num_candidates=6,
                            max_summary_len=40, seed=7)
        small = sample_candidates(decoder, center, vocab, three, cluster=2)
        large = sample_candidates(decoder, center, vocab, six, cluster=2)
        assert [c.token_ids for c in small] == [c.token_ids for c in large[:3]]
        for batch in (small, large):
            lengths = [len(c.token_ids) for c in batch]
            assert len(set(lengths)) > 1, "every candidate stopped at the same step"

    def test_runs_to_max_len(self, generation_setup):
        """A candidate may use every decoder position: max_summary_len ==
        max_len decodes its last token at position max_len - 1."""
        vocab, encoder, _, center = generation_setup
        decoder = init_from_encoder(encoder)
        decoder.lm_head.proj.bias.data[vocab.sep_id] = -1e4  # [SEP] never drawn
        max_len = decoder.config.max_len
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=3,
                                max_summary_len=max_len, seed=8)
        candidates = sample_candidates(decoder, center, vocab, sampler)
        assert [len(c.token_ids) for c in candidates] == [max_len] * 3
        too_long = SamplerConfig(top_k=min(50, vocab.size), num_candidates=3,
                                 max_summary_len=max_len + 1, seed=8)
        with pytest.raises(ValueError, match="max_len"):
            sample_candidates(decoder, center, vocab, too_long)


class TestSummarizeCluster:
    def test_ranked_list_contract(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=6,
                                max_summary_len=8, seed=3)
        ranked = summarize_cluster(decoder, encoder, vocab, center, 0, sampler)
        assert len(ranked) == 6
        assert [c.rank for c in ranked] == [1, 2, 3, 4, 5, 6]
        scores = [c.score for c in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(-1.0 <= s <= 1.0 for s in scores)

    def test_rank_one_dominates(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=4,
                                max_summary_len=8, seed=4)
        ranked = summarize_cluster(decoder, encoder, vocab, center, 1, sampler)
        assert all(ranked[0].score >= c.score for c in ranked[1:])

    def test_single_candidate_degenerate(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=1,
                                max_summary_len=8, seed=5)
        ranked = summarize_cluster(decoder, encoder, vocab, center, 0, sampler)
        assert len(ranked) == 1 and ranked[0].rank == 1

    def test_candidates_reproducible_per_stream(self, generation_setup):
        """Candidate s of cluster c draws from the (seed, c, s) stream, so a
        rerun reproduces every candidate."""
        vocab, encoder, decoder, center = generation_setup
        sampler = SamplerConfig(top_k=min(50, vocab.size), num_candidates=5,
                                max_summary_len=8, seed=6)
        a = summarize_cluster(decoder, encoder, vocab, center, 2, sampler)
        b = summarize_cluster(decoder, encoder, vocab, center, 2, sampler)
        assert [c.token_ids for c in a] == [c.token_ids for c in b]
        assert [c.score for c in a] == [c.score for c in b]


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(top_k=0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(num_candidates=0)
        with pytest.raises(ValueError):
            SamplerConfig(filter_order="sideways")
