"""float32 compute against a float64 shadow, and dtype preservation.

Every tensor op computes in its operands' storage dtype, with float64 used
only to accumulate a few row reductions. A desk-scale encoder trained for a
few masked-token steps in float32 must follow the loss curve of its float64
shadow started from the same weights, and a float32 training step through
the encoder or the decoder must keep every activation and every gradient
float32: a silent float64 promotion anywhere in the graph fails here.
"""

import numpy as np
import pytest

from clustersum.decoder import build_training_examples, init_from_encoder, weighted_ce_loss
from clustersum.encoder import EncoderModel, ModelConfig, mlm_batch_loss
from clustersum.optim import AdamW

from corpora import build_docs, graded_topic_texts

MLM_STEPS = 24
BATCH_SIZE = 8
# The largest |float32 - float64| per-step loss gap, over the 24 steps and
# initial weights from seeds 1-5 and 61, was 2.6e-7 nats on losses near 4.1:
# about one float32 ulp (4.8e-7). The bound is 10 such ulps, far below the
# 0.1 nats the curve itself moves over the steps.
LOSS_CURVE_ATOL = 5e-6


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(60)
    texts, _ = graded_topic_texts(rng, docs_per_topic=16, words_per_topic=30, doc_len=12)
    return build_docs(texts, max_len=16)


def _encoder(vocab, rng) -> EncoderModel:
    return EncoderModel(ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.1), rng)


def _mlm_curve(model: EncoderModel, docs) -> np.ndarray:
    """Per-step training losses of ``MLM_STEPS`` AdamW steps; step s masks
    and drops out with ``default_rng([5, s])``, the same draws in any dtype."""
    optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01, warmup_steps=4)
    losses = []
    for step in range(MLM_STEPS):
        batch = [docs[(step * BATCH_SIZE + i) % len(docs)] for i in range(BATCH_SIZE)]
        loss, _, _ = mlm_batch_loss(model, batch, 0.15, np.random.default_rng([5, step]),
                                    BATCH_SIZE)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return np.array(losses)


def test_float32_mlm_loss_curve_follows_float64_shadow(corpus):
    vocab, docs = corpus
    model = _encoder(vocab, np.random.default_rng(61))
    shadow = model.astype(np.float64)
    curve32, curve64 = _mlm_curve(model, docs), _mlm_curve(shadow, docs)
    assert curve64[-8:].mean() < curve64[:4].mean() - 0.05
    np.testing.assert_allclose(curve32, curve64, rtol=0, atol=LOSS_CURVE_ATOL)


def _graph(root):
    """Every tensor the root was computed from, the root included."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _assert_float32_step(model, loss) -> None:
    """Backward through ``loss``, checking the dtype of every activation,
    every gradient handed to a node and every parameter gradient."""
    nodes = _graph(loss)
    assert {n.dtype for n in nodes} == {np.dtype(np.float32)}
    seen_grads = []
    for node in nodes:
        if node._backward_fn is not None:
            def watched(grad, fn=node._backward_fn):
                seen_grads.append(grad.dtype)
                fn(grad)
            node._backward_fn = watched
    loss.backward()
    assert seen_grads and set(seen_grads) == {np.dtype(np.float32)}
    grads = {name: p.grad for name, p in model.named_parameters().items()}
    assert all(g is not None for g in grads.values())
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


def test_encoder_step_stays_float32(corpus):
    vocab, docs = corpus
    model = _encoder(vocab, np.random.default_rng(62))
    loss, _, _ = mlm_batch_loss(model, docs[:BATCH_SIZE], 0.3, np.random.default_rng(63),
                                BATCH_SIZE)
    _assert_float32_step(model, loss)


def test_decoder_step_stays_float32(corpus):
    vocab, docs = corpus
    encoder = _encoder(vocab, np.random.default_rng(64))
    examples = build_training_examples(docs[:BATCH_SIZE], encoder.embed_documents(docs[:BATCH_SIZE]),
                                       None)
    decoder = init_from_encoder(encoder)
    loss = weighted_ce_loss(decoder, examples, sum(len(e.target_ids) for e in examples),
                            np.random.default_rng(65))
    _assert_float32_step(decoder, loss)
