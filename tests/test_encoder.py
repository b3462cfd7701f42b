"""Encoder forward contracts, masked-token training, classifier head."""

import math
from dataclasses import replace

import numpy as np
import pytest

import clustersum.layers
from clustersum.config import PipelineConfig
from clustersum.decoder import init_from_encoder
from clustersum.encoder import (
    EncoderModel,
    ModelConfig,
    classifier_batch_loss,
    evaluate_mlm,
    fine_tune_classifier,
    pretrain_mlm,
)
from clustersum.tensor import Tensor, cross_entropy, no_grad
from clustersum.tokenizer import CLS_ID, MASK_ID, SEP_ID, EncodedDocument, mask_for_mlm

from corpora import build_docs, graded_topic_texts, pair_texts
from oracles import full_forward_cls, parameter_hash, softmax


@pytest.fixture(scope="module")
def small_setup():
    rng = np.random.default_rng(0)
    texts = pair_texts(rng, num_docs=30, num_pairs=10, doc_len=10)
    vocab, docs = build_docs(texts, max_len=16)
    config = ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.1)
    model = EncoderModel(config, np.random.default_rng(1))
    return vocab, docs, config, model


class TestForward:
    def test_output_shapes(self, small_setup):
        vocab, docs, config, model = small_setup
        hidden = model.forward([docs[0].ids])
        cls_embedding = model.forward([docs[0].ids], cls_only=True)
        assert hidden.shape == (len(docs[0].ids), config.hidden_size)
        assert cls_embedding.shape == (1, config.hidden_size)

    def test_sequence_too_long_rejected(self, small_setup):
        vocab, docs, config, model = small_setup
        with pytest.raises(ValueError, match="max_len"):
            model.forward([np.zeros(config.max_len + 1, dtype=np.intp)])

    def test_config_needs_a_block(self):
        """``cls_only`` shortens the last block, so there must be one."""
        with pytest.raises(ValueError, match="block"):
            ModelConfig(64, 0, 4, 256, 64, 10, 0.1)

    def test_config_needs_a_head(self):
        """A checkpoint's config can say 0 heads: that is a ``ValueError``,
        not a division by zero."""
        with pytest.raises(ValueError, match="num_heads 0"):
            ModelConfig(64, 2, 0, 256, 64, 10, 0.1)

    def test_position_embeddings_active(self, small_setup):
        """Swapping two body tokens changes the document embedding."""
        from clustersum.metrics import cosine_similarity

        vocab, docs, config, model = small_setup
        ids = list(docs[0].ids)
        assert ids[1] != ids[2]
        swapped = list(ids)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        a, b = model.embed_documents([EncodedDocument("a", ids), EncodedDocument("b", swapped)])
        assert not np.array_equal(a, b)
        assert cosine_similarity(a, b) < 1.0

    def test_eval_forward_deterministic(self, small_setup):
        vocab, docs, config, model = small_setup
        a = model.embed_documents(docs[:1])
        b = model.embed_documents(docs[:1])
        np.testing.assert_array_equal(a, b)

    def test_train_mode_with_fixed_seed_reproducible(self, small_setup):
        vocab, docs, config, model = small_setup
        with no_grad():
            h1 = model.forward([docs[0].ids], rng=np.random.default_rng(42))
            h2 = model.forward([docs[0].ids], rng=np.random.default_rng(42))
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_bidirectional_attention(self, small_setup):
        """Changing a later token moves hidden states at earlier positions."""
        vocab, docs, config, model = small_setup
        ids = list(docs[0].ids)
        changed = list(ids)
        changed[-2] = MASK_ID
        with no_grad():
            h1 = model.forward([ids])
            h2 = model.forward([changed])
        assert not np.allclose(h1.data[1], h2.data[1])


@pytest.mark.parametrize("component", ["encoder", "decoder"])
def test_dropout_is_drawn_exactly_when_a_generator_is_given(small_setup, component):
    """A forward given a generator at dropout 0 draws nothing from it and
    returns the bytes of the forward without one; at dropout 0.1 it drops
    out, and the forward without a generator still does not."""
    vocab, docs, config, _ = small_setup
    ids = [d.ids for d in docs[:3]]

    def forward(rate, rng):
        encoder = EncoderModel(replace(config, dropout=rate), np.random.default_rng(1))
        if component == "encoder":
            return encoder.forward(ids, rng=rng).data
        conditioning = encoder.embed_documents(docs[:3])
        return init_from_encoder(encoder).forward(ids, conditioning, rng=rng).data

    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert forward(0.0, rng).tobytes() == forward(0.0, None).tobytes()
    assert rng.bit_generator.state == state
    assert forward(0.1, None).tobytes() == forward(0.0, None).tobytes()
    assert forward(0.1, np.random.default_rng(5)).tobytes() != forward(0.1, None).tobytes()


class TestMlmTraining:
    def test_initial_loss_near_log_vocab(self, small_setup):
        vocab, docs, config, model = small_setup
        fresh = EncoderModel(config, np.random.default_rng(7))
        loss, _ = evaluate_mlm(fresh, docs, np.random.default_rng(2), PipelineConfig())
        expected = math.log(vocab.size)
        assert abs(loss - expected) < 0.2 * expected

    def test_loss_only_at_masked_positions(self, small_setup):
        """Junk target values at unmasked positions cannot reach the loss."""
        vocab, docs, config, model = small_setup
        doc = docs[0]
        masked, positions, originals = mask_for_mlm(doc, 0.15, np.random.default_rng(3))
        with no_grad():
            hidden = model.forward([masked])
            mean = np.full(len(positions), 1.0 / len(positions))
            restricted = cross_entropy(model.mlm_logits(hidden, positions), originals,
                                       weights=mean)
            full_targets = np.array(doc.ids)
            full_targets_junk = full_targets.copy()
            for i in range(len(full_targets_junk)):
                if i not in positions:
                    full_targets_junk[i] = (full_targets_junk[i] + 1) % vocab.size
            all_logits = model.mlm_logits(hidden, np.arange(len(doc.ids)))
            from clustersum.tensor import gather_rows

            at_masked = gather_rows(all_logits, positions)
            a = cross_entropy(at_masked, full_targets[positions], weights=mean).item()
            b = cross_entropy(at_masked, full_targets_junk[positions], weights=mean).item()
        assert restricted.item() == pytest.approx(a, rel=1e-6)
        assert a == b

    def test_short_training_reduces_loss(self, small_setup):
        vocab, docs, config, _ = small_setup
        settings = PipelineConfig(mlm_epochs=6, mlm_lr=1e-3, mlm_warmup_steps=20, mlm_batch_size=8)
        model, history = pretrain_mlm(docs, config, settings, np.random.default_rng(11))
        assert history[-1].loss < history[0].loss
        assert all(np.isfinite(h.loss) for h in history)

    def test_empty_corpus_rejected(self, small_setup):
        vocab, docs, config, model = small_setup
        with pytest.raises(ValueError, match="empty"):
            pretrain_mlm([], config, PipelineConfig(mlm_epochs=1), np.random.default_rng(0))


@pytest.fixture(scope="module")
def labeled():
    rng = np.random.default_rng(5)
    texts, labels = graded_topic_texts(rng, docs_per_topic=25, words_per_topic=15,
                                       doc_len=8)
    vocab, docs = build_docs(texts, max_len=16, labels=labels)
    config = ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.1)
    return vocab, docs, config


class TestClassifier:
    def test_distribution_sums_to_one(self, labeled):
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1))
        model.add_classifier(3, np.random.default_rng(2))
        probs = model.label_probs(model.embed_documents(docs[:5]))
        assert probs.shape == (5, 3)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_single_label_degenerate(self, labeled):
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1))
        model.add_classifier(1, np.random.default_rng(2))
        np.testing.assert_allclose(model.label_probs(model.embed_documents(docs[:1])), [[1.0]])

    def test_head_added_after_a_cast_takes_the_model_dtype(self, labeled):
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1)).astype(np.float64)
        model.add_classifier(3, np.random.default_rng(2))
        assert model.classifier.weight.dtype == np.float64
        loss, _ = classifier_batch_loss(model, docs[:4], 4)
        assert loss.dtype == np.float64

    def test_missing_head_is_contract_error(self, labeled):
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1))
        with pytest.raises(ValueError, match="classifier"):
            model.label_probs(model.embed_documents(docs[:1]))

    def test_label_probs_equal_one_forward_per_document(self, labeled):
        """The batched head over stored embeddings gives each document's
        distribution as a full per-document forward does.

        The stored embeddings, from batches that run the last block at
        [CLS] only, are exactly the [CLS] rows of full per-document
        forwards, and ``label_probs`` is exactly the head applied to them,
        so no second forward is hidden in it. Only the head's [1, h] and
        [n, h] products may round differently in float32 BLAS (3e-8
        measured): numpy hands a one-row product to gemv, not gemm."""
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1))
        model.add_classifier(3, np.random.default_rng(2))
        with no_grad():
            cls_rows, expected = [], []
            for doc in docs:
                emb = full_forward_cls(model, doc.ids)
                cls_rows.append(emb.data[0])
                expected.append(softmax(model.classifier(emb), axis=-1).data[0])
            stored = model.embed_documents(docs)
            np.testing.assert_array_equal(stored, np.stack(cls_rows))
            probs = model.label_probs(stored)
            np.testing.assert_array_equal(
                probs, softmax(model.classifier(Tensor(stored)), axis=-1).data)
        np.testing.assert_allclose(probs, np.stack(expected), rtol=0, atol=1e-6)

    def test_unlabeled_document_rejected(self, labeled):
        vocab, docs, config = labeled
        model = EncoderModel(config, np.random.default_rng(1))
        stripped = [type(d)(doc_id=d.doc_id, ids=d.ids, label=None) for d in docs]
        with pytest.raises(ValueError, match="label"):
            fine_tune_classifier(model, stripped, 2, PipelineConfig(finetune_epochs=1),
                                 np.random.default_rng(3))

    def test_disjoint_vocab_linearly_separable(self, labeled):
        """Every fifth document of a topic holds as many foreign words as its
        own (4 and 4), so no label is right for it; without those, every
        held-out document is classified right at each fine-tune seed."""
        vocab, docs, config = labeled
        untied = [d for i, d in enumerate(docs) if i % 25 % 5 != 4]
        for seed in range(5):
            model = EncoderModel(config, np.random.default_rng(1))
            settings = PipelineConfig(finetune_epochs=8, finetune_lr=3e-3,
                                      finetune_warmup_steps=10)
            model, history = fine_tune_classifier(model, untied, 2, settings,
                                                  np.random.default_rng(seed))
            assert history[-1].val_accuracy == 1.0, seed


def _mixed_length_ids(vocab_size: int) -> list[np.ndarray]:
    """Five [CLS] … [SEP] documents of 3 to 16 tokens, so the batch pads."""
    rng = np.random.default_rng(12)
    return [np.array([CLS_ID, *rng.integers(5, vocab_size, size=n), SEP_ID])
            for n in (14, 1, 6, 9, 3)]


class TestClsOnly:
    """``forward(..., cls_only=True)`` runs the last block at the [CLS] rows
    only; without dropout they are the full forward's [CLS] rows up to
    float rounding."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("widths", ["desk", "paper"])
    def test_equals_full_forward_cls_rows(self, dtype, tol, widths):
        """Desk scale, and the paper's widths (hidden 768, 12 heads, FFN
        3072) over two blocks."""
        vocab_size = 40
        if widths == "desk":
            config = ModelConfig.desk_scale(vocab_size, max_len=16, dropout=0.1)
        else:
            config = ModelConfig(768, 2, 12, 3072, 16, vocab_size, 0.1)
        model = EncoderModel(config, np.random.default_rng(13)).astype(dtype)
        ids = _mixed_length_ids(vocab_size)
        t = max(len(i) for i in ids)
        with no_grad():
            short = model.forward(ids, cls_only=True).data
            full = model.forward(ids).data
        assert short.shape == (len(ids), config.hidden_size) and short.dtype == dtype
        np.testing.assert_allclose(short, full[::t], rtol=tol, atol=tol)

    def test_last_block_runs_on_one_row_per_document(self, small_setup, monkeypatch):
        vocab, docs, config, model = small_setup
        seen = []
        ffn_call = clustersum.layers.FeedForward.__call__

        def probe(self, x):
            seen.append(x.shape)
            return ffn_call(self, x)

        monkeypatch.setattr(clustersum.layers.FeedForward, "__call__", probe)
        ids = _mixed_length_ids(config.vocab_size)
        with no_grad():
            model.forward(ids, cls_only=True)
        b, t, h = len(ids), max(len(i) for i in ids), config.hidden_size
        assert seen == [(b * t, h)] * (config.num_blocks - 1) + [(b, h)]

class TestPersistence:
    def test_checkpoint_round_trip(self, small_setup, tmp_path):
        vocab, docs, config, model = small_setup
        path = tmp_path / "encoder.ckpt"
        model.save(path)
        loaded = EncoderModel.load(path)
        np.testing.assert_array_equal(model.embed_documents(docs[:1]), loaded.embed_documents(docs[:1]))
        assert parameter_hash(loaded) == parameter_hash(model)

    def test_classifier_head_round_trips(self, small_setup, tmp_path):
        vocab, docs, config, _ = small_setup
        model = EncoderModel(config, np.random.default_rng(9))
        model.add_classifier(4, np.random.default_rng(10))
        path = tmp_path / "encoder.ckpt"
        model.save(path)
        loaded = EncoderModel.load(path)
        assert loaded.classifier.weight.shape[1] == 4
        embeddings = model.embed_documents(docs[:3])
        np.testing.assert_array_equal(loaded.label_probs(embeddings), model.label_probs(embeddings))
