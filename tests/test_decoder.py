"""Decoder initialization, cross-attention geometry, causality, loss."""

from dataclasses import replace

import numpy as np
import pytest

from clustersum.decoder import (
    DecoderModel,
    build_training_examples,
    encoder_source_name,
    init_from_encoder,
    train_decoder,
    weighted_ce_loss,
)
from clustersum.encoder import EncoderModel, ModelConfig
from clustersum.tensor import Tensor, no_grad

from corpora import build_docs, pair_texts
from oracles import full_cross_attention, init_name_mapping


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    texts = pair_texts(rng, num_docs=24, num_pairs=8, doc_len=8)
    vocab, docs = build_docs(texts, max_len=16)
    config = ModelConfig.desk_scale(vocab.size, max_len=16)
    encoder = EncoderModel(config, np.random.default_rng(1))
    return vocab, docs, config, encoder


def _examples(vocab, docs, encoder, weights=None):
    embeddings = encoder.embed_documents(docs)
    examples = build_training_examples(docs, embeddings, None, vocab.cls_id)
    if weights is not None:
        for e, w in zip(examples, weights):
            e.weight = w
    return examples


def _cross_projections(encoder_block, cross):
    """Full-attention projections of a decoder cross module: its own value
    and output projections, with the query and key projections of the
    encoder block that the decoder block is initialized from."""
    attn = encoder_block.attn
    return {
        "wq": (attn.wq.weight.data, attn.wq.bias.data),
        "wk": (attn.wk.weight.data, attn.wk.bias.data),
        "wv": (cross.wv.weight.data, cross.wv.bias.data),
        "wo": (cross.wo.weight.data, cross.wo.bias.data),
    }


class TestInitFromEncoder:
    def test_every_copied_parameter_equals_its_source(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        enc = encoder.named_parameters()
        dec = decoder.named_parameters()
        mapping = init_name_mapping(config.num_blocks)
        assert set(mapping) == set(dec)
        for dec_name, enc_name in mapping.items():
            np.testing.assert_array_equal(dec[dec_name].data, enc[enc_name].data)

    def test_copies_are_independent(self, setup):
        vocab, docs, config, encoder = setup
        before = encoder.parameter_hash()
        decoder = init_from_encoder(encoder)
        decoder.word_embedding.data[:] += 1.0
        assert encoder.parameter_hash() == before

    def test_encoder_frozen_during_decoder_training(self, setup):
        vocab, docs, config, encoder = setup
        before = encoder.parameter_hash()
        decoder = init_from_encoder(encoder)
        examples = _examples(vocab, docs, encoder)
        train_decoder(decoder, examples, epochs=1, rng=np.random.default_rng(2),
                      lr=1e-3, warmup_steps=5, batch_size=8)
        assert encoder.parameter_hash() == before

    def test_random_init_ablation_shares_nothing(self, setup):
        vocab, docs, config, encoder = setup
        decoder = DecoderModel(config, np.random.default_rng(33))
        enc = encoder.named_parameters()
        dec = decoder.named_parameters()
        for dec_name, enc_name in init_name_mapping(config.num_blocks).items():
            if dec[dec_name].data.std() == 0.0:
                continue  # zero-initialized biases and norm constants
            assert not np.array_equal(dec[dec_name].data, enc[enc_name].data)

    @pytest.mark.parametrize("num_blocks", [1, 2, 6])
    def test_rename_rule_equals_the_hand_written_table(self, setup, num_blocks):
        vocab, docs, config, encoder = setup
        config = replace(config, num_blocks=num_blocks)
        mapping = init_name_mapping(num_blocks)
        encoder = EncoderModel(config, np.random.default_rng(1))
        encoder.add_classifier(2, np.random.default_rng(2))
        decoder = DecoderModel(config, np.random.default_rng(3))
        assert set(decoder.named_parameters()) == set(mapping)
        assert set(encoder.named_parameters()) == set(mapping.values()) | {"classifier.weight"}
        assert {name: encoder_source_name(name) for name in mapping} == mapping


class TestCrossAttention:
    def test_singleton_memory_rows_identical(self, setup):
        """One memory row means softmax over one key: every output row is
        the same vector regardless of the query content, and it is the
        cross module's one row."""
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        rng = np.random.default_rng(3)
        block = decoder.blocks[0]
        queries = rng.normal(size=(7, config.hidden_size)).astype(np.float32)
        memory = rng.normal(size=(1, config.hidden_size)).astype(np.float32)
        out = full_cross_attention(queries, memory, _cross_projections(encoder.blocks[0], block.cross_attn),
                                   config.num_heads)
        spread = np.abs(out - out[0]).max()
        assert spread <= 1e-6
        with no_grad():
            row = block.cross_attn(Tensor(memory)).data
        np.testing.assert_allclose(np.broadcast_to(row, out.shape), out, atol=1e-6)

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_equals_full_attention_over_one_memory_row(self, setup, dtype, atol):
        """Softmax over one key is exactly 1.0: full multi-head attention,
        with any query and key projections, gives every query row the cross
        module's one output row."""
        vocab, docs, config, encoder = setup
        h = config.hidden_size
        rng = np.random.default_rng(3)
        decoder = DecoderModel(config, np.random.default_rng(4), dtype=dtype)
        for block in decoder.blocks:
            cross = block.cross_attn
            for linear in (cross.wv, cross.wo):
                linear.bias.data = rng.normal(size=h).astype(dtype)
            projections = {
                "wq": (rng.normal(size=(h, h)).astype(dtype), rng.normal(size=h).astype(dtype)),
                "wk": (rng.normal(size=(h, h)).astype(dtype), rng.normal(size=h).astype(dtype)),
                "wv": (cross.wv.weight.data, cross.wv.bias.data),
                "wo": (cross.wo.weight.data, cross.wo.bias.data),
            }
            queries = rng.normal(size=(7, h)).astype(dtype)
            memory = rng.normal(size=(1, h)).astype(dtype)
            expected = full_cross_attention(queries, memory, projections, config.num_heads)
            with no_grad():
                out = cross(Tensor(memory)).data
            assert out.shape == (1, h)
            np.testing.assert_allclose(np.broadcast_to(out, expected.shape), expected,
                                       rtol=0, atol=atol)

    def test_scaling_memory_changes_output(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        rng = np.random.default_rng(5)
        block = decoder.blocks[0]
        memory = rng.normal(size=(1, config.hidden_size)).astype(np.float32)
        with no_grad():
            a = block.cross_attn(Tensor(memory)).data
            b = block.cross_attn(Tensor(2.0 * memory)).data
        assert np.abs(a - b).max() > 1e-4


class TestDecoderForward:
    def test_logits_shape(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        with no_grad():
            logits = decoder.forward([docs[0].ids], center)
        assert logits.shape == (len(docs[0].ids), vocab.size)

    def test_causal_mask_perturbation(self, setup):
        """Changing the token at position j leaves logits before j bit-identical."""
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        ids = list(docs[0].ids)
        j = 5
        changed = list(ids)
        changed[j] = (changed[j] + 1) % vocab.size
        with no_grad():
            a = decoder.forward([ids], center).data
            b = decoder.forward([changed], center).data
        np.testing.assert_array_equal(a[:j], b[:j])
        assert not np.array_equal(a[j:], b[j:])

    def test_conditioning_reaches_every_position(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        with no_grad():
            a = decoder.forward([docs[0].ids], center).data
            b = decoder.forward([docs[0].ids], center + 0.5).data
        assert np.all(np.abs(a - b).max(axis=1) > 0)

    def test_length_overflow_rejected(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        with pytest.raises(ValueError, match="max_len"):
            decoder.forward([np.zeros(config.max_len + 1, dtype=np.intp)], center)


class TestCachedDecoding:
    """One position per step against the key/value cache reproduces the last
    row of a full-prefix forward; tolerances fixed per storage dtype."""

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_logits_match_full_prefix(self, setup, dtype, atol):
        vocab = setup[0]
        steps = 44
        config = ModelConfig.desk_scale(vocab.size, max_len=steps)
        encoder = EncoderModel(config, np.random.default_rng(8), dtype=dtype)
        decoder = init_from_encoder(encoder)
        rng = np.random.default_rng(9)
        center = rng.normal(size=config.hidden_size).astype(dtype)
        ids = rng.integers(0, vocab.size, size=(5, steps))
        rows = list(range(5))
        cache = decoder.start_cache(center)
        worst = 0.0
        with no_grad():
            for t in range(steps):
                if t in (15, 30):
                    # drop a middle row, as a finished candidate leaves the batch
                    keep = [i for i in range(len(rows)) if i != 1]
                    cache.keep(keep)
                    rows = [rows[i] for i in keep]
                step = decoder.forward(ids[rows, t], cache=cache).data
                assert step.shape == (len(rows), vocab.size)
                for i, r in enumerate(rows):
                    full = decoder.forward([ids[r, :t + 1]], center).data[-1]
                    worst = max(worst, float(np.abs(step[i] - full).max()))
        assert len(rows) == 3 and cache.length == steps
        assert worst <= atol

    def test_cross_output_equals_cross_attention(self, setup):
        """The cross rows the cache holds are what full attention over the
        conditioning row gives every query position."""
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        rng = np.random.default_rng(10)
        memory = rng.normal(size=config.hidden_size).astype(np.float32)
        queries = rng.normal(size=(6, config.hidden_size)).astype(np.float32)
        cache = decoder.start_cache(memory)
        assert len(cache.cross) == len(decoder.blocks)
        for enc_block, block, short in zip(encoder.blocks, decoder.blocks, cache.cross):
            full = full_cross_attention(queries, memory[None], _cross_projections(enc_block, block.cross_attn),
                                        config.num_heads)
            assert short.shape == (1, config.hidden_size)
            np.testing.assert_allclose(full, np.broadcast_to(short.data, full.shape), atol=1e-6)

    def test_position_past_max_len_rejected(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        cache = decoder.start_cache(encoder.embed_documents(docs[:1])[0])
        with no_grad():
            for _ in range(config.max_len):
                decoder.forward([vocab.cls_id], cache=cache)
            with pytest.raises(ValueError, match="max_len"):
                decoder.forward([vocab.cls_id], cache=cache)

    def test_training_or_conditioning_with_cache_rejected(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        cache = decoder.start_cache(center)
        with pytest.raises(ValueError, match="no_grad"):
            decoder.forward([vocab.cls_id], cache=cache)
        with no_grad(), pytest.raises(ValueError, match="conditioning"):
            decoder.forward([vocab.cls_id], center, cache=cache)
        assert cache.length == 0


class TestWeightedLoss:
    def test_weights_scale_document_contributions(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        a, b = _examples(vocab, docs[:2], encoder)
        with no_grad():
            loss_a = weighted_ce_loss(decoder, [a], normalize="raw").item()
            loss_b = weighted_ce_loss(decoder, [b], normalize="raw").item()
            b.weight = 0.5
            combined = weighted_ce_loss(decoder, [a, b], normalize="raw").item()
        assert combined == pytest.approx(loss_a + 0.5 * loss_b, rel=1e-5)

    def test_batch_linearity_in_raw_mode(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        examples = _examples(vocab, docs[:6], encoder)
        with no_grad():
            whole = weighted_ce_loss(decoder, examples, normalize="raw").item()
            parts = (weighted_ce_loss(decoder, examples[:3], normalize="raw").item()
                     + weighted_ce_loss(decoder, examples[3:], normalize="raw").item())
        assert whole == pytest.approx(parts, rel=1e-5)

    def test_unit_weights_equal_unweighted(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        embeddings = encoder.embed_documents(docs[:4])
        weighted = build_training_examples(docs[:4], embeddings, None, vocab.cls_id)
        unweighted = build_training_examples(docs[:4], embeddings, None, vocab.cls_id,
                                             unweighted=True)
        with no_grad():
            a = weighted_ce_loss(decoder, weighted, normalize="raw").item()
            b = weighted_ce_loss(decoder, unweighted, normalize="raw").item()
        assert a == pytest.approx(b, rel=1e-7)

    def test_zero_weight_contributes_no_gradient(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        a, b = _examples(vocab, docs[:2], encoder)
        b.weight = 0.0
        loss = weighted_ce_loss(decoder, [a, b], normalize="raw", train=False)
        loss.backward()
        grads_with_zero = {n: p.grad.copy() for n, p in decoder.named_parameters().items()}
        for p in decoder.parameters():
            p.zero_grad()
        loss_solo = weighted_ce_loss(decoder, [a], normalize="raw", train=False)
        loss_solo.backward()
        for n, p in decoder.named_parameters().items():
            np.testing.assert_allclose(grads_with_zero[n], p.grad, atol=1e-6)

    def test_teacher_forcing_layout(self, setup):
        """Input is [start] + target[:-1]; target is the body plus [SEP]."""
        vocab, docs, config, encoder = setup
        example = _examples(vocab, docs[:1], encoder)[0]
        doc = docs[0]
        np.testing.assert_array_equal(example.target_ids, doc.ids[1:])
        assert example.input_ids[0] == vocab.cls_id
        np.testing.assert_array_equal(example.input_ids[1:], example.target_ids[:-1])
        assert example.target_ids[-1] == vocab.sep_id

    def test_config_mismatch_rejected(self, setup):
        vocab, docs, config, encoder = setup
        example = _examples(vocab, docs[:1], encoder)[0]
        decoder = init_from_encoder(encoder)
        with pytest.raises(ValueError, match="conditioning"):
            with no_grad():
                decoder.forward([example.input_ids], np.zeros(3, dtype=np.float32))


class TestTraining:
    def test_loss_finite_and_decreasing_early(self, setup):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        examples = _examples(vocab, docs, encoder)
        decoder, history = train_decoder(decoder, examples, epochs=5,
                                         rng=np.random.default_rng(7),
                                         lr=1e-3, warmup_steps=10, batch_size=8)
        losses = [h.loss for h in history]
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]

    def test_checkpoint_round_trip(self, setup, tmp_path):
        vocab, docs, config, encoder = setup
        decoder = init_from_encoder(encoder)
        center = encoder.embed_documents(docs[:1])[0]
        path = tmp_path / "decoder.ckpt"
        decoder.save(path)
        loaded = DecoderModel.load(path)
        with no_grad():
            a = decoder.forward([docs[0].ids], center).data
            b = loaded.forward([docs[0].ids], center).data
        np.testing.assert_array_equal(a, b)

    def test_encoder_checkpoint_rejected(self, setup, tmp_path):
        vocab, docs, config, encoder = setup
        path = tmp_path / "enc.ckpt"
        encoder.save(path)
        with pytest.raises(ValueError, match="encoder"):
            DecoderModel.load(path)
