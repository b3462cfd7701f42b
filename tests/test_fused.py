"""The fused ops (linear, attention, add_layer_norm) against the composed
graphs they replace: the same bytes forward and backward, finite-difference
gradients, shape checks, and the node count of one encoder block. At paper
width, ``linear``'s products shared with the worker thread give the bytes of
the whole products, also when the worker is busy or its part fails, and an
error of the caller's part is raised only once the worker's part has ended.
Weights read in place from a mapped checkpoint give the bytes of the same
weights in fresh arrays, in ``linear`` and in cached decoding."""

import threading

import numpy as np
import pytest

import clustersum.layers
from clustersum import tensor
from clustersum.checkpoint import load_checkpoint, save_checkpoint
from clustersum.decoder import (
    DecoderModel,
    build_training_examples,
    init_from_encoder,
    weighted_ce_loss,
)
from clustersum.encoder import EncoderModel, ModelConfig, classifier_batch_loss, mlm_batch_loss
from clustersum.layers import EncoderBlock, causal_mask, dropout_from, padding_mask
from clustersum.tensor import Tensor, add_layer_norm, attention, linear
from clustersum.tokenizer import CLS_ID, EncodedDocument

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
    block = EncoderBlock(8, 2, 16)
    block.draw(rng)
    x = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)
    out = block(x, 2, padding_mask([3, 2], 3, np.float32), dropout_from(rng, 0.1))
    assert graph_nodes(out, [x]) <= 12


def test_encoder_block_at_rows_adds_only_the_gather():
    """Asking at one row per sequence adds the query-row gather node."""
    rng = np.random.default_rng(46)
    block = EncoderBlock(8, 2, 16)
    block.draw(rng)
    x = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)
    out = block(x, 2, padding_mask([3, 2], 3, np.float32), dropout_from(rng, 0.1),
                rows=np.array([0, 3]))
    assert out.shape == (2, 8)
    assert graph_nodes(out, [x]) <= 13


# -- linear's products shared with the worker thread -------------------------

PAPER_WEIGHTS = [(768, 768), (768, 3072), (3072, 768)]
ROWS = list(range(1, 41)) + [64, 128, 384]


def _record_shared(monkeypatch) -> list:
    """Patch ``tensor._beside`` to count the products shared with the
    worker: the returned list grows by one entry per shared product."""
    shared, beside = [], tensor._beside

    def logged(mine, theirs):
        shared.append(None)
        return beside(mine, theirs)

    monkeypatch.setattr(tensor, "_beside", logged)
    return shared


def _split_expected(n, k, m) -> bool:
    return k * m >= tensor.BLOCK and n * k * (m // 2) > tensor._SPLIT_MACS


@pytest.mark.parametrize("dtype", DTYPES)
class TestSharedProducts:
    """At paper width, ``linear`` shares large products with the worker
    thread and gives the bytes of the whole products."""

    @pytest.mark.parametrize("k, m", PAPER_WEIGHTS)
    def test_forward_equals_the_whole_product(self, monkeypatch, dtype, k, m):
        rng = np.random.default_rng(k + m)
        w = Tensor(rng.normal(size=(k, m)).astype(dtype))
        xs = rng.normal(size=(max(ROWS), k)).astype(dtype)
        shared = _record_shared(monkeypatch)
        split = []
        for n in ROWS:
            x = Tensor(xs[:n])
            before = len(shared)
            got = linear(x, w).data
            assert got.dtype == x.dtype and got.flags.c_contiguous
            assert got.tobytes() == (x.data @ w.data).tobytes(), n
            if len(shared) > before:
                split.append(n)
        assert split == [n for n in ROWS if _split_expected(n, k, m)]
        assert split[0] == (4 if (k, m) == (768, 768) else 1)

    @pytest.mark.parametrize("n, k, m", [(2, 768, 768), (3, 768, 768), (384, 768, 45)])
    def test_small_halves_and_the_head_run_whole(self, monkeypatch, dtype, n, k, m):
        """A column half of a (2|3, 768) @ (768, 768) product is 10^6
        multiply-adds or fewer, where OpenBLAS rounds it differently from
        the whole; the 768 x 45 head is under ``BLOCK`` elements, so its
        backward is not shared either."""
        rng = np.random.default_rng(n)
        shared = _record_shared(monkeypatch)
        x = Tensor(rng.normal(size=(n, k)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(k, m)).astype(dtype), requires_grad=True)
        out = linear(x, w)
        assert shared == []
        assert out.data.tobytes() == (x.data @ w.data).tobytes()
        reduce_sum(out).backward()
        assert len(shared) == (w.size >= tensor.BLOCK)

    def test_gradients_equal_the_unshared_ones(self, monkeypatch, dtype):
        """A paper-width encoder block and a decoder from it, dropout on:
        every gradient's bytes match those with sharing disabled."""
        texts, _ = graded_topic_texts(np.random.default_rng(5), docs_per_topic=3, doc_len=20)
        vocab, docs = build_docs(texts, max_len=24)
        config = ModelConfig(768, 1, 12, 3072, 24, vocab.size, 0.1)
        encoder = EncoderModel(config, np.random.default_rng(6))
        decoder = init_from_encoder(encoder).astype(dtype)
        encoder = encoder.astype(dtype)
        examples = build_training_examples(docs[:4], encoder.embed_documents(docs[:4]), None)
        losses = [
            (encoder, lambda: mlm_batch_loss(encoder, docs, 0.3, np.random.default_rng(7),
                                             len(docs))[0]),
            (decoder, lambda: weighted_ce_loss(
                decoder, examples, sum(len(e.target_ids) for e in examples),
                np.random.default_rng(8))),
        ]
        shared = _record_shared(monkeypatch)
        for model, loss_fn in losses:
            shared.clear()
            with_worker = _gradients(model, loss_fn)
            assert shared, "no product was shared"
            for p in model.parameters():
                p.grad = None
            with monkeypatch.context() as m:
                m.setattr(tensor, "_SPLIT_MACS", float("inf"))
                assert _gradients(model, loss_fn) == with_worker

    def test_a_busy_worker_leaves_every_part_to_the_caller(self, dtype):
        """With the worker held by a task that waits on an event, a shared
        forward and backward still finish, on the caller, with the bytes of
        the whole products."""
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=(64, 768)), rng.normal(size=(768, 3072)),
                  rng.normal(size=3072)]
        probe = rng.normal(size=(64, 3072))
        release = threading.Event()
        busy = tensor._start_worker().submit(release.wait, 30)
        try:
            got = _outputs(linear, arrays, probe, dtype)
            assert not busy.done()
        finally:
            release.set()
        assert busy.result() is True
        want = _outputs(composed_linear, arrays, probe, dtype)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_an_error_in_a_worker_product_reaches_the_caller(self, monkeypatch, dtype):
        """The worker's column half raises once it has started; ``linear``
        raises that error, and the worker then computes the next product's
        half."""
        rng = np.random.default_rng(51)
        x = Tensor(rng.normal(size=(16, 768)).astype(dtype))
        w = Tensor(rng.normal(size=(768, 3072)).astype(dtype))
        with monkeypatch.context() as m:
            m.setattr(tensor, "np", _WorkerFirst(RuntimeError("worker product failed")))
            with pytest.raises(RuntimeError, match="worker product failed"):
                linear(x, w)
        recording = _WorkerFirst()
        monkeypatch.setattr(tensor, "np", recording)
        assert linear(x, w).data.tobytes() == (x.data @ w.data).tobytes()
        assert len(recording.threads) == 2
        assert recording.threads[0] != threading.main_thread().ident


# -- weights read in place from a mapped checkpoint ---------------------------

# the gemv (1 row), the small-matrix path (2-3 rows), the first shared
# 768 x 768 forward (4 rows), and taller shared products
MAPPED_ROWS = [1, 2, 3, 4, 64, 384]


@pytest.fixture(scope="module")
def mapped_weights(tmp_path_factory):
    """Paper-shaped weights and biases in memory, and the same tensors
    loaded from a checkpoint, where each is a read-only view of the file."""
    rng = np.random.default_rng(60)
    arrays = {}
    for k, m in PAPER_WEIGHTS + [(768, 45)]:
        arrays[f"w{k}x{m}"] = rng.normal(size=(k, m)).astype(np.float32)
        arrays[f"b{k}x{m}"] = rng.normal(size=m).astype(np.float32)
    path = tmp_path_factory.mktemp("mapped") / "w.ckpt"
    save_checkpoint(path, component="encoder", config={}, tensors=arrays)
    mapped = load_checkpoint(path).tensors
    assert not any(a.flags.writeable for a in mapped.values())
    return arrays, mapped


@pytest.mark.parametrize("k, m", PAPER_WEIGHTS + [(768, 45)])
def test_a_mapped_weight_gives_the_bytes_of_one_in_memory(mapped_weights, k, m):
    """``linear`` forward and backward, with the weight and bias read from
    the mapping, give the bytes of the same product with fresh arrays."""
    arrays, mapped = mapped_weights
    rng = np.random.default_rng(k * m)
    for n in MAPPED_ROWS:
        x = rng.normal(size=(n, k)).astype(np.float32)
        probe = rng.normal(size=(n, m)).astype(np.float32)
        results = []
        for source in (arrays, mapped):
            leaves = [Tensor(x.copy(), requires_grad=True),
                      Tensor(source[f"w{k}x{m}"], requires_grad=True),
                      Tensor(source[f"b{k}x{m}"], requires_grad=True)]
            out = linear(*leaves)
            reduce_sum(mul(out, probe)).backward()
            results.append([out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves])
        assert results[0] == results[1], n


def test_a_loaded_decoder_decodes_the_bytes_of_the_one_saved(tmp_path):
    """A paper-width decoder loaded from its checkpoint, every weight read in
    place, starts and steps a two-center cache with the bytes of the
    in-memory decoder it was saved from."""
    config = ModelConfig(768, 2, 12, 3072, 8, 45, 0.1)
    decoder = DecoderModel(config, np.random.default_rng(61))
    decoder.save(tmp_path / "d.ckpt")
    loaded = DecoderModel.load(tmp_path / "d.ckpt")
    assert not any(p.data.flags.writeable for p in loaded.parameters())
    centers = np.random.default_rng(62).normal(size=(2, 768)).astype(np.float32)
    caches = [model.start_cache(centers, 2) for model in (decoder, loaded)]
    cross = [[c.data.tobytes() for c in cache.cross] for cache in caches]
    assert cross[0] == cross[1]
    ids = np.full(4, CLS_ID)
    for _ in range(config.max_len):
        got, want = (model.step(ids, cache).data for model, cache in zip((loaded, decoder), caches))
        assert got.tobytes() == want.tobytes()
        ids = want.argmax(axis=1)


def test_an_error_of_the_caller_waits_for_the_worker_part():
    """The worker's part is held by an event until after the caller's
    part has raised; ``_beside`` raises only once the worker's part has
    ended, since that part may write what the caller reads next."""
    started, release, ended = threading.Event(), threading.Event(), []
    timer = threading.Timer(0.05, release.set)

    def theirs():
        started.set()
        release.wait(30)
        ended.append(True)

    def mine():
        assert started.wait(30)
        timer.start()
        raise RuntimeError("caller part failed")

    try:
        with pytest.raises(RuntimeError, match="caller part failed"):
            tensor._beside(mine, theirs)
        assert ended == [True]
    finally:
        release.set()
        timer.cancel()


class _WorkerFirst:
    """Stands in for numpy in ``tensor``: ``matmul`` on the main thread
    waits until one has started on another thread, which raises ``error``
    if given. Each call logs its thread, the other thread's first."""

    def __init__(self, error: Exception | None = None):
        self.error = error
        self.threads: list[int] = []
        self._started = threading.Event()

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        main = threading.current_thread() is threading.main_thread()
        if main:
            assert self._started.wait(30)
        self.threads.append(threading.get_ident())
        if not main:
            self._started.set()
            if self.error is not None:
                raise self.error
        return np.matmul(*args, **kwargs)
