"""Padded batches against one-document forwards.

With dropout off, every batched loss, gradient and embedding must equal the
per-document references in ``oracles``: on a full batch of mixed lengths and
on a partial last batch, within a tolerance fixed per storage dtype. The
evaluators and ``embed_documents`` must also hold across chunk boundaries.
One training batch must reach every parameter of both models.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustersum.decoder import (
    build_training_examples,
    evaluate_decoder,
    init_from_encoder,
    weighted_ce_loss,
)
from clustersum.encoder import (
    EVAL_BATCH_SIZE,
    EncoderModel,
    ModelConfig,
    classifier_batch_loss,
    evaluate_classifier,
    mlm_batch_loss,
)
from clustersum.tensor import no_grad
from clustersum.tokenizer import CLS_ID, SEP_ID, EncodedDocument

from corpora import build_docs
from oracles import (
    per_document_classifier_loss,
    per_document_embeddings,
    per_document_mlm_loss,
    per_document_weighted_loss,
)

DTYPES = [(np.float32, 1e-6), (np.float64, 1e-12)]
# (documents, batch_size): a full batch of mixed lengths, and a partial last
# batch whose documents keep the 1/batch_size scale.
BATCHES = [(slice(0, 8), 8), (slice(5, 8), 5)]
BODY_LENGTHS = [3, 9, 5, 14, 1, 7, 12, 4]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(40)
    words = [f"w{i:02d}" for i in range(20)]
    texts = [" ".join(rng.choice(words, size=n)) for n in BODY_LENGTHS]
    return build_docs(texts, max_len=16, labels=[i % 3 for i in range(len(texts))])


def _encoder(vocab, dtype) -> EncoderModel:
    config = ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.0)
    return EncoderModel(config, np.random.default_rng(41), dtype=dtype)


def _take_grads(model) -> dict[str, np.ndarray]:
    grads = {n: p.grad for n, p in model.named_parameters().items() if p.grad is not None}
    for p in model.parameters():
        p.zero_grad()
    return grads


def _assert_equal(loss, grads, expected_loss, expected_grads, atol):
    assert abs(loss - expected_loss) <= atol
    assert grads.keys() == expected_grads.keys()
    for name, grad in expected_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=atol, err_msg=name)


@pytest.mark.parametrize("dtype, atol", DTYPES)
@pytest.mark.parametrize("docs, batch_size", BATCHES)
def test_mlm_loss_and_gradients(corpus, dtype, atol, docs, batch_size):
    vocab, all_docs = corpus
    model = _encoder(vocab, dtype)
    batch = all_docs[docs]
    loss, _, _ = mlm_batch_loss(model, batch, 0.3, np.random.default_rng(3), batch_size,
                                train=True)
    loss.backward()
    grads = _take_grads(model)
    expected = per_document_mlm_loss(model, batch, 0.3, np.random.default_rng(3), batch_size)
    _assert_equal(loss.item(), grads, expected, _take_grads(model), atol)


@pytest.mark.parametrize("dtype, atol", DTYPES)
@pytest.mark.parametrize("docs, batch_size", BATCHES)
def test_classifier_loss_and_gradients(corpus, dtype, atol, docs, batch_size):
    vocab, all_docs = corpus
    model = _encoder(vocab, dtype)
    model.add_classifier(3, np.random.default_rng(42))
    batch = all_docs[docs]
    loss, _ = classifier_batch_loss(model, batch, batch_size, train=True)
    loss.backward()
    grads = _take_grads(model)
    expected = per_document_classifier_loss(model, batch, batch_size)
    _assert_equal(loss.item(), grads, expected, _take_grads(model), atol)


@pytest.mark.parametrize("dtype, atol", DTYPES)
@pytest.mark.parametrize("docs", [slice(0, 8), slice(5, 8)])
def test_weighted_decoder_loss_and_gradients(corpus, dtype, atol, docs):
    vocab, all_docs = corpus
    encoder = _encoder(vocab, dtype)
    decoder = init_from_encoder(encoder)
    embeddings = encoder.embed_documents(all_docs)
    examples = build_training_examples(all_docs, embeddings, None, vocab.cls_id)
    for example, weight in zip(examples, [1.0, 0.5, 0.0, 0.8, 0.3, 1.0, 0.25, 0.9]):
        example.weight = weight
    batch = examples[docs]
    loss = weighted_ce_loss(decoder, batch, normalize="tokens", train=True)
    loss.backward()
    grads = _take_grads(decoder)
    expected = per_document_weighted_loss(decoder, batch, "tokens")
    expected.backward()
    _assert_equal(loss.item(), grads, expected.item(), _take_grads(decoder), atol)


# An attention key bias adds the same amount to every score of a query row,
# which softmax cancels, so its true gradient is zero: on this batch it read
# at most 2.2e-12 in float32 and 2.6e-21 in float64, while every other
# parameter read at least 7e-6.
DEAD_GRAD = 1e-9


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_parameter_is_dead(corpus, dtype):
    """A weight the loss cannot reach would still be decayed by AdamW and
    stored in every checkpoint."""
    vocab, docs = corpus
    encoder = _encoder(vocab, dtype)
    loss, _, _ = mlm_batch_loss(encoder, docs, 0.3, np.random.default_rng(3), len(docs),
                                train=True)
    loss.backward()
    decoder = init_from_encoder(encoder)
    examples = build_training_examples(docs, encoder.embed_documents(docs), None, vocab.cls_id)
    weighted_ce_loss(decoder, examples, normalize="tokens", train=True).backward()
    for model in (encoder, decoder):
        for name, p in model.named_parameters().items():
            if not name.endswith(".wk.bias"):
                assert p.grad is not None and np.abs(p.grad).max() > DEAD_GRAD, name


@pytest.mark.parametrize("dtype, atol", DTYPES)
def test_padded_embeddings_equal_per_document(corpus, dtype, atol):
    vocab, docs = corpus
    model = _encoder(vocab, dtype)
    np.testing.assert_allclose(model.embed_documents(docs), per_document_embeddings(model, docs),
                               rtol=0, atol=atol)


def test_evaluators_equal_per_document_across_chunks(corpus):
    """Evaluation runs in EVAL_BATCH_SIZE chunks; 40 documents take two."""
    vocab, docs = corpus
    docs = docs * 5
    assert EVAL_BATCH_SIZE < len(docs) < 2 * EVAL_BATCH_SIZE
    model = _encoder(vocab, np.float64)
    model.add_classifier(3, np.random.default_rng(44))
    examples = build_training_examples(docs, model.embed_documents(docs), None, vocab.cls_id)
    for i, example in enumerate(examples):
        example.weight = 1.0 / (1 + i % 4)
    decoder = init_from_encoder(model)
    with no_grad():
        expected_classifier = per_document_classifier_loss(model, docs, batch_size=len(docs))
        expected_decoder = per_document_weighted_loss(decoder, examples, "tokens").item()
    assert evaluate_classifier(model, docs)[0] == pytest.approx(expected_classifier, abs=1e-12)
    assert evaluate_decoder(decoder, examples) == pytest.approx(expected_decoder, abs=1e-12)


@pytest.fixture(scope="module")
def property_model():
    config = ModelConfig.desk_scale(24, max_len=16, dropout=0.0)
    return EncoderModel(config, np.random.default_rng(43))


bodies = st.lists(st.lists(st.integers(5, 23), min_size=1, max_size=14), min_size=1, max_size=40)


@settings(max_examples=25, deadline=None)
@given(bodies=bodies)
@example(bodies=[[7, 8, 9]])
@example(bodies=[[5 + i % 19] * n for i, n in enumerate(range(1, 15))])
def test_embed_documents_equals_one_document_batches(property_model, bodies):
    """Any mix of lengths and any number of documents, including more than
    one embedding chunk holds, embeds as each document does alone."""
    docs = [EncodedDocument(f"d{i}", [CLS_ID, *body, SEP_ID]) for i, body in enumerate(bodies)]
    np.testing.assert_allclose(property_model.embed_documents(docs),
                               per_document_embeddings(property_model, docs), rtol=0, atol=1e-6)
