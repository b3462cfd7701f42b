"""Sampling filter, seeded generation, and candidate ranking."""

import numpy as np
import pytest

from clustersum import generator
from clustersum.config import PipelineConfig
from clustersum.decoder import DecoderModel, init_from_encoder
from clustersum.encoder import EncoderModel, ModelConfig
from clustersum.generator import (
    filter_top_k_top_p,
    sample_candidates,
    sample_tokens,
    summarize_cluster,
)
from clustersum.tokenizer import SEP_ID

from corpora import build_docs, pair_texts
from oracles import (
    per_cluster_candidate_ids,
    reference_candidate_ids,
    reference_draw,
    reference_filter,
)


def _filter_one(probs, k, p):
    return filter_top_k_top_p(np.asarray(probs)[None], k=k, p=p)[0]


def _one_cluster(decoder, center, vocab, config, cluster=0):
    """The candidates of cluster ``cluster``, sampled with ``center`` as the
    center of clusters 0 to ``cluster``."""
    return sample_candidates(decoder, np.tile(center, (cluster + 1, 1)), vocab, config)[cluster]


def _summarize(decoder, encoder, vocab, center, cluster, config):
    candidates = _one_cluster(decoder, center, vocab, config, cluster)
    return summarize_cluster(encoder, vocab, center, candidates)


def _random_rows(rng, n, vocab):
    """Distributions with exact ties, zero entries and one dominant token."""
    kind = rng.integers(3)
    if kind == 0:
        rows = rng.dirichlet(np.ones(vocab), size=n)
    elif kind == 1:
        rows = rng.integers(0, 4, size=(n, vocab)).astype(np.float64)
        rows[:, 0] += 1.0
    else:
        rows = rng.dirichlet(np.full(vocab, 0.2), size=n)
        rows[:, rng.integers(vocab)] += 5.0
    return rows / rows.sum(axis=-1, keepdims=True)


class TestFilter:
    def test_top_two_renormalized(self):
        out = _filter_one([0.5, 0.3, 0.1, 0.1], k=2, p=1.0)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0])

    def test_minimal_prefix_reaches_mass(self):
        out = _filter_one([0.5, 0.3, 0.1, 0.1], k=4, p=0.75)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0])
        # a prefix whose mass equals p exactly is enough
        out = _filter_one([0.5, 0.25, 0.25], k=3, p=0.75)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3, 0.0])

    def test_k_one_is_greedy(self):
        for p in (0.01, 0.5, 1.0):
            out = _filter_one([0.2, 0.5, 0.3], k=1, p=p)
            np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_identity_when_unrestricted(self):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        out = _filter_one(probs, k=4, p=1.0)
        np.testing.assert_array_equal(out, probs)

    def test_support_at_most_k(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(20), size=4)
            k = int(rng.integers(1, 21))
            p = float(rng.uniform(0.05, 1.0))
            out = filter_top_k_top_p(probs, k=k, p=p)
            assert np.all((out > 0).sum(axis=-1) <= k)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_retained_mass_reaches_p_or_topk_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(12))
            k = int(rng.integers(1, 13))
            p = float(rng.uniform(0.05, 1.0))
            out = _filter_one(probs, k=k, p=p)
            kept_mass = probs[out > 0].sum()
            order = np.argsort(-probs, kind="stable")
            topk_mass = probs[order[:k]].sum()
            assert kept_mass >= min(p, topk_mass) - 1e-12

    def test_ties_break_to_lower_token_id(self):
        out = _filter_one([0.25, 0.25, 0.25, 0.25], k=2, p=1.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0])

    def test_matches_reference_oracle(self):
        """Every row of the batched filter equals the enumerating oracle byte
        for byte, across ties, p = 1, k = 1 and k = vocab."""
        rng = np.random.default_rng(2)
        for trial in range(300):
            vocab = int(rng.integers(1, 15))
            probs = _random_rows(rng, int(rng.integers(1, 8)), vocab)
            k = (1, vocab, int(rng.integers(1, vocab + 1)))[trial % 3]
            p = 1.0 if trial % 4 == 0 else float(rng.uniform(0.05, 1.0))
            out = filter_top_k_top_p(probs, k=k, p=p)
            for row, expected in zip(out, probs):
                assert row.tobytes() == reference_filter(expected, k, p).tobytes()
        # rows of a few repeated values, cut at k and at p inside a run of ties
        for _ in range(60):
            vocab = int(rng.integers(4, 15))
            probs = rng.integers(1, 4, size=(2, vocab)).astype(np.float64)
            probs /= probs.sum(axis=-1, keepdims=True)
            for row in probs:
                ranked = -np.sort(-row)
                mass = np.cumsum(ranked)
                tied = np.flatnonzero(ranked[1:] == ranked[:-1])  # rank i ties rank i + 1
                assert tied.size
                ks = {1, 2, vocab, *(tied + 1).tolist()}
                ps = {0.5, 0.9, 0.95, 1.0, *mass[tied].tolist(),
                      *((mass[tied] + mass[tied + 1]) / 2).tolist()}
                for k in ks:
                    for p in ps:
                        if p <= 1.0:
                            out = filter_top_k_top_p(row[None], k=k, p=p)[0]
                            assert out.tobytes() == reference_filter(row, k, p).tobytes()

    def test_order_of_the_cuts_does_not_matter(self):
        """The nucleus of the whole ranking cut to k tokens is the nucleus
        of the top k: both are one prefix of the same ranking."""
        rng = np.random.default_rng(9)
        for _ in range(300):
            vocab = int(rng.integers(1, 15))
            probs = _random_rows(rng, 1, vocab)[0]
            k = int(rng.integers(1, vocab + 1))
            p = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
            in_nucleus = reference_filter(probs, vocab, p) > 0
            top = np.argsort(-np.where(in_nucleus, probs, 0.0), kind="stable")[:k]
            cut = np.zeros_like(probs)
            cut[top] = np.where(in_nucleus[top], probs[top], 0.0)
            assert (cut / cut.sum()).tobytes() == _filter_one(probs, k, p).tobytes()

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            filter_top_k_top_p(np.zeros((1, 4)), k=2, p=0.9)
        with pytest.raises(ValueError, match="zero"):
            filter_top_k_top_p(np.array([[0.5, 0.5], [0.0, 0.0]]), k=1, p=0.9)
        with pytest.raises(ValueError, match="non-negative"):
            filter_top_k_top_p(np.array([[1.5, -0.5]]), k=1, p=0.9)
        with pytest.raises(ValueError, match="vocab"):
            filter_top_k_top_p(np.array([0.5, 0.5]), k=1, p=0.9)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            filter_top_k_top_p(np.array([[1.0, 0.0]]), k=3, p=0.9)
        with pytest.raises(ValueError):
            filter_top_k_top_p(np.array([[1.0, 0.0]]), k=0, p=0.9)


class TestSampling:
    def test_frequencies_match_distribution(self):
        """Empirical frequencies over many draws track the filtered
        distribution within +/- 0.01 per token."""
        rng = np.random.default_rng(3)
        filtered = np.array([0.55, 0.3, 0.15, 0.0])
        draws = 100_000
        tokens = sample_tokens(np.tile(filtered, (draws, 1)), rng.random(draws))
        np.testing.assert_allclose(np.bincount(tokens, minlength=4) / draws, filtered, atol=0.01)

    def test_never_samples_outside_support(self):
        rng = np.random.default_rng(4)
        filtered = np.array([0.0, 0.7, 0.0, 0.3, 0.0])
        tokens = sample_tokens(np.tile(filtered, (2000, 1)), rng.random(2000))
        assert np.all(filtered[tokens] > 0)

    def test_matches_reference_draw(self):
        """Each row draws what the support-only inversion draws at the same
        uniform, including u = 0 and u = 1 (the clamp to the last nonzero
        id), with zero-probability ids before, between and after the support."""
        rng = np.random.default_rng(10)
        for _ in range(300):
            vocab = int(rng.integers(1, 15))
            probs = _random_rows(rng, 6, vocab)
            probs[:, : int(rng.integers(0, vocab))] = 0.0
            probs[probs.sum(axis=-1) == 0.0, -1] = 1.0
            filtered = filter_top_k_top_p(probs, k=int(rng.integers(1, vocab + 1)),
                                          p=float(rng.uniform(0.05, 1.0)))
            uniforms = rng.random(6)
            uniforms[:2] = [0.0, 1.0]
            for row, u, token in zip(filtered, uniforms, sample_tokens(filtered, uniforms)):
                assert token == reference_draw(row, u)


@pytest.fixture(scope="module")
def generation_setup():
    rng = np.random.default_rng(5)
    texts = pair_texts(rng, num_docs=20, num_pairs=6, doc_len=8)
    vocab, docs = build_docs(texts, max_len=16)
    config = ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.1)
    encoder = EncoderModel(config, np.random.default_rng(6))
    decoder = init_from_encoder(encoder)
    center = encoder.embed_documents(docs[:1])[0]
    return vocab, encoder, decoder, center


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def long_setup(request):
    """A decoder whose candidates run up to 40 tokens and stop at varied steps.

    The untrained decoder spreads its probability about evenly over the 17
    tokens, so [SEP] alone stops a candidate with a few percent a step: over
    sampling seeds 0-19, 23 of 120 candidates ran to the 40-token cap, and
    whether all six of one seed stop would depend on the initial weights.
    The raised [SEP] bias stops one at about 20% a step (over the same 120,
    mean length 4.9 and longest 26), so the candidates still stop at varied
    steps but almost never reach the cap."""
    rng = np.random.default_rng(5)
    texts = pair_texts(rng, num_docs=20, num_pairs=6, doc_len=8)
    vocab, docs = build_docs(texts, max_len=48)
    config = ModelConfig.desk_scale(vocab.size, max_len=48, dropout=0.1)
    encoder = EncoderModel(config, np.random.default_rng(6)).astype(request.param)
    decoder = init_from_encoder(encoder)
    decoder.lm_head.proj.bias.data = decoder.lm_head.proj.bias.data.copy()
    decoder.lm_head.proj.bias.data[SEP_ID] += 1.5
    return vocab, decoder, encoder.embed_documents(docs[:1])[0]


class TestSampleCandidates:
    def test_seeded_determinism(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=4, max_summary_len=10, seed=0)
        a = _one_cluster(decoder, center, vocab, config, 1)
        b = _one_cluster(decoder, center, vocab, config, 1)
        assert [c.token_ids for c in a] == [c.token_ids for c in b]
        assert [c.text for c in a] == [c.text for c in b]
        assert all(c.cluster == 1 for c in a)

    @staticmethod
    def _record_steps(monkeypatch):
        """Wrap the filter and the draw; each call appends its output."""
        steps = {"filter": [], "draw": []}

        def recording(name, function):
            def wrapped(*args, **kwargs):
                out = function(*args, **kwargs)
                steps[name].append(out)
                return out
            return wrapped

        monkeypatch.setattr(generator, "filter_top_k_top_p",
                            recording("filter", generator.filter_top_k_top_p))
        monkeypatch.setattr(generator, "sample_tokens", recording("draw", generator.sample_tokens))
        return steps

    def test_emitted_ids_lie_in_filtered_support(self, generation_setup, monkeypatch):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(top_k=5, top_p=0.8, num_candidates=3, max_summary_len=12, seed=1)
        steps = self._record_steps(monkeypatch)
        candidates = _one_cluster(decoder, center, vocab, config)
        for t, (filtered, drawn) in enumerate(zip(steps["filter"], steps["draw"])):
            # every candidate keeps its row; one that has stopped draws on
            assert [c.token_ids[t] for c in candidates if len(c.token_ids) > t] == [
                token for c, token in zip(candidates, drawn) if len(c.token_ids) > t]
            assert np.all(filtered[np.arange(3), drawn] > 0)
            assert np.all((filtered > 0).sum(axis=-1) <= 5)

    def test_one_filter_and_one_draw_per_step(self, long_setup, monkeypatch):
        """Each step filters every row and draws one uniform per row, until
        the step where the last candidate emits [SEP]."""
        vocab, decoder, center = long_setup
        config = PipelineConfig(num_candidates=6, max_summary_len=40, seed=4)
        steps = self._record_steps(monkeypatch)
        uniforms = []
        draw = generator.sample_tokens

        def recording_uniforms(filtered, u):
            uniforms.append(u)
            return draw(filtered, u)

        monkeypatch.setattr(generator, "sample_tokens", recording_uniforms)
        candidates = _one_cluster(decoder, center, vocab, config)
        decoding_steps = max(len(c.token_ids) for c in candidates)
        assert decoding_steps < config.max_summary_len
        assert all(c.token_ids[-1] == SEP_ID for c in candidates)
        assert len(steps["filter"]) == len(steps["draw"]) == len(uniforms) == decoding_steps
        assert all(len(f) == len(d) == len(u) == 6
                   for f, d, u in zip(steps["filter"], steps["draw"], uniforms))

    def test_stops_at_sep_or_length_cap(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=6, max_summary_len=7, seed=2)
        for candidate in _one_cluster(decoder, center, vocab, config):
            ids = candidate.token_ids
            assert 1 <= len(ids) <= 7
            assert SEP_ID not in ids[:-1]
            assert ids[-1] == SEP_ID or len(ids) == 7

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tokens_match_full_prefix_reference(self, long_setup, seed):
        vocab, decoder, center = long_setup
        config = PipelineConfig(num_candidates=6, max_summary_len=40, seed=seed)
        candidates = _one_cluster(decoder, center, vocab, config, seed % 3)
        for s, candidate in enumerate(candidates):
            assert candidate.token_ids == reference_candidate_ids(
                decoder, center, vocab, config, seed % 3, s)

    def test_candidate_independent_of_batch(self, long_setup):
        """Candidate s is the same whether 3 or 6 are decoded, while its
        neighbours stop at different steps."""
        vocab, decoder, center = long_setup
        three = PipelineConfig(num_candidates=3, max_summary_len=40, seed=7)
        six = PipelineConfig(num_candidates=6, max_summary_len=40, seed=7)
        small = _one_cluster(decoder, center, vocab, three, 2)
        large = _one_cluster(decoder, center, vocab, six, 2)
        assert [c.token_ids for c in small] == [c.token_ids for c in large[:3]]
        for batch in (small, large):
            lengths = [len(c.token_ids) for c in batch]
            assert len(set(lengths)) > 1, "every candidate stopped at the same step"

    def test_runs_to_max_len(self, generation_setup):
        """A candidate may use every decoder position: max_summary_len ==
        max_len decodes its last token at position max_len - 1."""
        vocab, encoder, _, center = generation_setup
        decoder = init_from_encoder(encoder)
        decoder.lm_head.proj.bias.data[SEP_ID] = -1e4  # [SEP] never drawn
        max_len = decoder.config.max_len
        config = PipelineConfig(num_candidates=3, max_summary_len=max_len, seed=8)
        candidates = _one_cluster(decoder, center, vocab, config)
        assert [len(c.token_ids) for c in candidates] == [max_len] * 3
        too_long = PipelineConfig(num_candidates=3, max_summary_len=max_len + 1, seed=8)
        with pytest.raises(ValueError, match="max_len"):
            _one_cluster(decoder, center, vocab, too_long)


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def clusters_setup(request):
    """The decoder of ``long_setup``, without its raised [SEP] bias, with
    five distinct cluster centers (the untrained encoder embeds every
    document in nearly one direction)."""
    rng = np.random.default_rng(5)
    texts = pair_texts(rng, num_docs=20, num_pairs=6, doc_len=8)
    vocab, _ = build_docs(texts, max_len=48)
    config = ModelConfig.desk_scale(vocab.size, max_len=48, dropout=0.1)
    encoder = EncoderModel(config, np.random.default_rng(6)).astype(request.param)
    centers = np.random.default_rng(7).normal(size=(5, config.hidden_size))
    return vocab, init_from_encoder(encoder), centers.astype(request.param)


class TestBatchedDecode:
    """Many clusters' candidates decode as one batch, or as several under
    the key/value-cache budget, and each cluster gets what it gets alone."""

    @staticmethod
    def _config(vocab, seed):
        return PipelineConfig(num_candidates=3, max_summary_len=40, seed=seed)

    @staticmethod
    def _record_batches(monkeypatch):
        """Wrap ``start_cache``; each call appends (centers, rows per center)."""
        batches = []
        original = DecoderModel.start_cache

        def recording(self, centers, rows_per_center):
            batches.append((np.array(centers), rows_per_center))
            return original(self, centers, rows_per_center)

        monkeypatch.setattr(DecoderModel, "start_cache", recording)
        return batches

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_cluster_equals_per_cluster_decode(self, clusters_setup, monkeypatch, seed):
        vocab, decoder, centers = clusters_setup
        config = self._config(vocab, seed)
        batches = self._record_batches(monkeypatch)
        sampled = sample_candidates(decoder, centers, vocab, config)
        assert len(batches) == 1 and len(batches[0][0]) == len(centers)
        assert len(sampled) == len(centers)
        for c, candidates in enumerate(sampled):
            assert [cand.cluster for cand in candidates] == [c] * 3
            assert [cand.token_ids for cand in candidates] == per_cluster_candidate_ids(
                decoder, centers[c], vocab, config, c)
        # the clusters stop at different steps: some stop entirely before the last
        last_steps = [max(len(cand.token_ids) for cand in candidates) for candidates in sampled]
        assert len(set(last_steps)) > 1
        assert min(last_steps) < config.max_summary_len

    @pytest.mark.parametrize("clusters_fit, sizes",
                             [(0, [1, 1, 1, 1, 1]), (1, [1, 1, 1, 1, 1]), (2, [2, 2, 1])])
    def test_budget_splits_batches_between_clusters(self, clusters_setup, monkeypatch,
                                                    clusters_fit, sizes):
        """With a budget that holds ``clusters_fit`` clusters' caches, the
        batches hold whole clusters, in order, within the budget unless a
        batch is a single cluster, and the tokens equal the one-batch run."""
        vocab, decoder, centers = clusters_setup
        config = self._config(vocab, 2)
        one_batch = sample_candidates(decoder, centers, vocab, config)
        shape = decoder.config
        row_bytes = (shape.num_blocks * 2 * shape.hidden_size * config.max_summary_len
                     * np.dtype(decoder.dtype).itemsize)
        cluster_bytes = config.num_candidates * row_bytes
        budget = clusters_fit * cluster_bytes + cluster_bytes // 2
        monkeypatch.setattr(generator, "KV_CACHE_BUDGET", budget)
        batches = self._record_batches(monkeypatch)
        split = sample_candidates(decoder, centers, vocab, config)
        assert [[c.token_ids for c in cands] for cands in split] == [
            [c.token_ids for c in cands] for cands in one_batch]
        assert [len(batch) for batch, _ in batches] == sizes
        for batch, rows_per_center in batches:
            assert rows_per_center == config.num_candidates
            assert len(batch) * cluster_bytes <= budget or len(batch) == 1
        np.testing.assert_array_equal(np.concatenate([batch for batch, _ in batches]), centers)


class TestSummarizeCluster:
    def test_ranked_list_contract(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=6, max_summary_len=8, seed=3)
        ranked = _summarize(decoder, encoder, vocab, center, 0, config)
        assert len(ranked) == 6
        assert [c.rank for c in ranked] == [1, 2, 3, 4, 5, 6]
        scores = [c.score for c in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(-1.0 <= s <= 1.0 for s in scores)

    def test_rank_one_dominates(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=4, max_summary_len=8, seed=4)
        ranked = _summarize(decoder, encoder, vocab, center, 1, config)
        assert all(ranked[0].score >= c.score for c in ranked[1:])

    def test_single_candidate_degenerate(self, generation_setup):
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=1, max_summary_len=8, seed=5)
        ranked = _summarize(decoder, encoder, vocab, center, 0, config)
        assert len(ranked) == 1 and ranked[0].rank == 1

    def test_candidates_reproducible_per_stream(self, generation_setup):
        """Candidate s of cluster c draws from the (seed, c, s) stream, so a
        rerun reproduces every candidate."""
        vocab, encoder, decoder, center = generation_setup
        config = PipelineConfig(num_candidates=5, max_summary_len=8, seed=6)
        a = _summarize(decoder, encoder, vocab, center, 2, config)
        b = _summarize(decoder, encoder, vocab, center, 2, config)
        assert [c.token_ids for c in a] == [c.token_ids for c in b]
        assert [c.score for c in a] == [c.score for c in b]

