"""The fused ops (linear, attention, add_layer_norm) against the composed
graphs they replace: the same bytes forward and backward, finite-difference
gradients, shape checks, and the node count of one encoder block."""

import numpy as np
import pytest

import clustersum.layers
from clustersum.decoder import build_training_examples, init_from_encoder, weighted_ce_loss
from clustersum.encoder import EncoderModel, ModelConfig, classifier_batch_loss, mlm_batch_loss
from clustersum.layers import EncoderBlock, causal_mask, dropout_from, padding_mask
from clustersum.tensor import Tensor, add_layer_norm, attention, linear
from clustersum.tokenizer import EncodedDocument

from corpora import build_docs, graded_topic_texts
from oracles import (
    add,
    assert_gradients_match,
    composed_add_layer_norm,
    composed_attention,
    composed_linear,
    graph_nodes,
    mul,
    reduce_sum,
)

DTYPES = [np.float32, np.float64]


def _outputs(op, arrays, probe, dtype):
    """Forward ``op`` on fresh leaves, backward a probe-weighted sum;
    returns the output and every leaf's gradient."""
    leaves = [Tensor(np.array(a, dtype=dtype), requires_grad=True) for a in arrays]
    out = op(*leaves)
    reduce_sum(mul(out, probe)).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


def assert_same_bytes(fused, composed, arrays, probe, dtype):
    got = _outputs(fused, arrays, probe, dtype)
    want = _outputs(composed, arrays, probe, dtype)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), f"{'output' if i == 0 else f'gradient {i - 1}'} differs"


def _masks(dtype):
    padded = padding_mask([4, 2], 4, dtype)
    return {"none": None, "padded": padded, "causal": causal_mask(4, dtype),
            "padded_causal": padded + causal_mask(4, dtype)}


@pytest.mark.parametrize("dtype", DTYPES)
class TestMatchesComposedGraph:
    @pytest.mark.parametrize("bias", [False, True])
    def test_linear(self, dtype, bias):
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=(6, 5)), rng.normal(size=(5, 7)), rng.normal(size=7)][:2 + bias]
        assert_same_bytes(linear, composed_linear, arrays, rng.normal(size=(6, 7)), dtype)

    @pytest.mark.parametrize("mask", ["none", "padded", "causal", "padded_causal"])
    def test_attention(self, dtype, mask):
        """Two sequences of 4 positions in one [2·4, 12] batch, 4 heads. A
        head width of 3 makes the 1/sqrt(3) scale inexact, so where the
        backward applies it shows in the bytes."""
        rng = np.random.default_rng(41)
        arrays = [rng.normal(size=(8, 12), scale=2.0) for _ in range(3)]
        m = _masks(dtype)[mask]
        assert_same_bytes(lambda q, k, v: attention(q, k, v, 2, 4, m),
                          lambda q, k, v: composed_attention(q, k, v, 2, 4, m),
                          arrays, rng.normal(size=(8, 12)), dtype)

    @pytest.mark.parametrize("mask", ["none", "padded"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_attention_fewer_query_rows(self, dtype, mask, r):
        """r query rows per sequence against the 4 key and value positions
        of each of two sequences, 4 heads of width 3."""
        rng = np.random.default_rng(47)
        arrays = [rng.normal(size=(2 * r, 12), scale=2.0),
                  rng.normal(size=(8, 12), scale=2.0), rng.normal(size=(8, 12), scale=2.0)]
        m = _masks(dtype)[mask]
        assert_same_bytes(lambda q, k, v: attention(q, k, v, 2, 4, m),
                          lambda q, k, v: composed_attention(q, k, v, 2, 4, m),
                          arrays, rng.normal(size=(2 * r, 12)), dtype)

    @pytest.mark.parametrize("x_feeds_more", [False, True])
    def test_add_layer_norm(self, dtype, x_feeds_more):
        """With ``x_feeds_more``, ``x`` also feeds a product whose backward
        runs after the fused node's, so a gradient array ``x`` shared with
        ``a`` would change ``a``'s gradient."""
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=(6, 16), loc=1.0), rng.normal(size=(6, 16)),
                  rng.normal(size=16, scale=0.5) + 1.0, rng.normal(size=16, scale=0.2)]

        def with_x(op):
            if x_feeds_more:
                return lambda x, a, g, b: add(op(x, a, g, b, 1e-5), mul(x, 0.5))
            return lambda x, a, g, b: op(x, a, g, b, 1e-5)

        assert_same_bytes(with_x(add_layer_norm), with_x(composed_add_layer_norm),
                          arrays, rng.normal(size=(6, 16)), dtype)


def _with_composed_layers(monkeypatch):
    monkeypatch.setattr(clustersum.layers, "linear", composed_linear)
    monkeypatch.setattr(clustersum.layers, "attention", composed_attention)
    monkeypatch.setattr(clustersum.layers, "add_layer_norm", composed_add_layer_norm)


def _gradients(model, loss_fn):
    loss = loss_fn()
    loss.backward()
    return loss.data.tobytes(), {n: p.grad.tobytes() for n, p in model.named_parameters().items()
                                 if p.grad is not None}


class TestTrainingStepMatchesComposedGraph:
    """A whole training batch, dropout on: every parameter gradient has the
    bytes of the composed graph, whose nodes sum a tensor's gradients in
    their own topological order."""

    def _setup(self):
        texts, _ = graded_topic_texts(np.random.default_rng(5), docs_per_topic=4, doc_len=9)
        vocab, docs = build_docs(texts)
        config = ModelConfig.desk_scale(vocab.size, max_len=64, dropout=0.1)
        return docs, vocab, EncoderModel(config, np.random.default_rng(6))

    def _compare(self, monkeypatch, model, loss_fn):
        fused = _gradients(model, loss_fn)
        for p in model.parameters():
            p.grad = None
        _with_composed_layers(monkeypatch)
        assert _gradients(model, loss_fn) == fused

    def test_mlm(self, monkeypatch):
        docs, vocab, encoder = self._setup()
        self._compare(monkeypatch, encoder, lambda: mlm_batch_loss(
            encoder, docs[:6], 0.3, np.random.default_rng(7), 6)[0])

    def test_classifier(self, monkeypatch):
        """The last block at the [CLS] rows only."""
        docs, vocab, encoder = self._setup()
        encoder.add_classifier(2, np.random.default_rng(9))
        labeled = [EncodedDocument(d.doc_id, d.ids, label=i % 2) for i, d in enumerate(docs[:6])]
        self._compare(monkeypatch, encoder, lambda: classifier_batch_loss(
            encoder, labeled, 6, rng=np.random.default_rng(10))[0])

    def test_decoder(self, monkeypatch):
        docs, vocab, encoder = self._setup()
        decoder = init_from_encoder(encoder)
        examples = build_training_examples(docs[:6], encoder.embed_documents(docs[:6]), None)
        self._compare(monkeypatch, decoder, lambda: weighted_ce_loss(
            decoder, examples, sum(len(e.target_ids) for e in examples), np.random.default_rng(8)))


@pytest.mark.parametrize("dtype", DTYPES)
class TestGradientChecks:
    @pytest.mark.parametrize("bias", [False, True])
    def test_linear(self, dtype, bias):
        rng = np.random.default_rng(43)
        probe = rng.normal(size=(5, 4)) / 10.0
        arrays = [rng.normal(size=(5, 6)), rng.normal(size=(6, 4)), rng.normal(size=4)][:2 + bias]
        assert_gradients_match(
            lambda ts: reduce_sum(mul(linear(*ts), probe)),
            arrays, rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention(self, dtype, causal):
        """Separate query, key and value leaves; two padded sequences."""
        rng = np.random.default_rng(44)
        mask = _masks(dtype)["padded_causal" if causal else "padded"]
        probe = rng.normal(size=(8, 6)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(attention(*ts, 2, 2, mask), probe)),
            [rng.normal(size=(8, 6), scale=2.0) for _ in range(3)], rng=rng, dtype=dtype,
            num_coords=90,
        )

    def test_attention_fewer_query_rows(self, dtype):
        """The query leaf holds 2·2 rows, the key and value leaves 2·4; two
        padded sequences."""
        rng = np.random.default_rng(48)
        mask = _masks(dtype)["padded"]
        probe = rng.normal(size=(4, 6)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(attention(*ts, 2, 2, mask), probe)),
            [rng.normal(size=(4, 6), scale=2.0), rng.normal(size=(8, 6), scale=2.0),
             rng.normal(size=(8, 6), scale=2.0)], rng=rng, dtype=dtype, num_coords=72,
        )

    @pytest.mark.parametrize("x_feeds_first", [False, True])
    def test_add_layer_norm_with_shared_operand(self, dtype, x_feeds_first):
        """``x`` also feeds a second op, before or after the fused node in
        backward order, so a gradient array shared with ``a`` would show."""
        rng = np.random.default_rng(45)
        probe = rng.normal(size=(5, 8)) / 10.0
        other = rng.normal(size=(5, 8)) / 10.0

        def make_loss(ts):
            x, a, g, b = ts
            normed = reduce_sum(mul(add_layer_norm(x, a, g, b, 1e-5), probe))
            direct = reduce_sum(mul(x, other))
            return add(direct, normed) if x_feeds_first else add(normed, direct)

        arrays = [rng.normal(size=(5, 8), loc=1.0), rng.normal(size=(5, 8)),
                  rng.normal(size=8, scale=0.5) + 1.0, rng.normal(size=8, scale=0.2)]
        assert_gradients_match(make_loss, arrays, rng=rng, dtype=dtype)
        leaves = [Tensor(np.array(v, dtype=dtype), requires_grad=True) for v in arrays]
        make_loss(leaves).backward()
        assert not np.shares_memory(leaves[0].grad, leaves[1].grad)


class TestShapeChecks:
    def test_add_layer_norm_refuses_different_shapes(self):
        x = Tensor(np.zeros((4, 3)))
        gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(ValueError, match=r"\(4, 3\).*\(1, 3\)"):
            add_layer_norm(x, Tensor(np.zeros((1, 3))), gain, bias)

    def test_add_layer_norm_refuses_mixed_dtypes(self):
        gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="mixed"):
            add_layer_norm(Tensor(np.zeros((2, 3)), dtype=np.float32), Tensor(np.zeros((2, 3))),
                           gain, bias)

    def test_linear_refuses_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_attention_refuses_unequal_operands(self):
        q = Tensor(np.zeros((4, 6)))
        with pytest.raises(ValueError, match="equal"):
            attention(q, q, Tensor(np.zeros((4, 3))), 2, 2)
        with pytest.raises(ValueError, match="hidden size"):
            attention(Tensor(np.zeros((2, 4))), q, q, 2, 2)

    @pytest.mark.parametrize("q_rows, kv_rows", [(3, 4), (2, 5)])
    def test_attention_refuses_rows_batch_does_not_divide(self, q_rows, kv_rows):
        kv = Tensor(np.zeros((kv_rows, 6)))
        with pytest.raises(ValueError, match="2 sequences"):
            attention(Tensor(np.zeros((q_rows, 6))), kv, kv, 2, 2)


def test_encoder_block_builds_at_most_12_nodes():
    """Dropout on: three projections, attention, output
    projection, dropout, residual norm, two FFN linears around GELU,
    dropout, residual norm. The composed graph built 36."""
    rng = np.random.default_rng(46)
    block = EncoderBlock(rng, 8, 2, 16)
    x = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)
    out = block(x, 2, padding_mask([3, 2], 3, np.float32), dropout_from(rng, 0.1))
    assert graph_nodes(out, [x]) <= 12


def test_encoder_block_at_rows_adds_only_the_gather():
    """Asking at one row per sequence adds the query-row gather node."""
    rng = np.random.default_rng(46)
    block = EncoderBlock(rng, 8, 2, 16)
    x = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)
    out = block(x, 2, padding_mask([3, 2], 3, np.float32), dropout_from(rng, 0.1),
                rows=np.array([0, 3]))
    assert out.shape == (2, 8)
    assert graph_nodes(out, [x]) <= 13
