"""Tensor math and reverse-mode gradients against independent oracles."""

import math

import numpy as np
import pytest

from clustersum.tensor import (
    Tensor,
    _row_mean,
    cross_entropy,
    draw_normal,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    no_grad,
    stable_softmax,
)

from clustersum import tensor
from clustersum.decoder import DecoderModel
from clustersum.encoder import EncoderModel, ModelConfig
from clustersum.layers import MultiHeadAttention, causal_mask, padding_mask

from oracles import (
    add,
    assert_gradients_match,
    dense_gather_rows_grad,
    matmul,
    mul,
    naive_matmul,
    naive_nll,
    normal_parameter,
    parameter_hash,
    reduce_sum,
    reshape,
    softmax,
    transpose,
)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[2.0, 3.0], [4.0, 5.0]]))
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [4.0, 5.0]])

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-6)

    def test_identity_associativity(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
        eye = Tensor(np.eye(3, dtype=np.float32))
        np.testing.assert_array_equal(matmul(a, eye).data, matmul(eye, a).data)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 5, 2))
        out = matmul(Tensor(a), Tensor(b))
        for i in range(4):
            np.testing.assert_allclose(out.data[i], naive_matmul(a[i], b[i]), atol=1e-5)


class TestSoftmax:
    """The numpy core that attention and label probabilities use."""

    def test_symmetry(self):
        np.testing.assert_allclose(stable_softmax(np.array([0.0, 0.0]), -1), [0.5, 0.5])

    def test_closed_form(self):
        out = stable_softmax(np.array([math.log(2.0), 0.0]), -1)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-6)

    def test_singleton(self):
        for x in (-50.0, 0.0, 3.25, 80.0):
            np.testing.assert_array_equal(stable_softmax(np.array([x]), -1), [1.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = stable_softmax(rng.normal(size=(50, 9), scale=4), -1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        np.testing.assert_allclose(stable_softmax(x, -1), stable_softmax(x + 13.5, -1), atol=1e-6)


class TestLayerNorm:
    def test_already_normalized(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_constant_row_returns_bias(self):
        bias = Tensor([0.5, -0.25, 0.75])
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), bias, eps=1e-12)
        np.testing.assert_allclose(out.data, [bias.data], atol=1e-5)

    def test_random_row_statistics(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(20, 32), loc=3.0, scale=2.5))
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-12)
        mean = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.abs(mean).max() < 1e-5
        assert np.all(var > 1 - 1e-3) and np.all(var < 1 + 1e-3)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    SHAPES = [(1, 64), (24, 64), (3, 7, 33), (512, 768), (5, 1)]

    @staticmethod
    def _scaled_rows(rng, shape, dtype):
        rows = rng.normal(size=shape, loc=rng.uniform(-5, 5)) * rng.uniform(0.1, 100)
        return rows.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_mean_has_the_bytes_of_ndarray_mean(self, dtype):
        rng = np.random.default_rng(21)
        for shape in self.SHAPES:
            x = self._scaled_rows(rng, shape, dtype)
            expected = x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
            got = _row_mean(x)
            assert got.dtype == dtype
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_has_the_bytes_of_ndarray_mean(self, dtype):
        """The mean and the variance, each a float64 sum over the count,
        give the bytes of the same formula written with ``ndarray.mean``."""
        rng = np.random.default_rng(22)
        for shape in self.SHAPES:
            x = self._scaled_rows(rng, shape, dtype)
            gain = rng.normal(size=shape[-1]).astype(dtype)
            bias = rng.normal(size=shape[-1]).astype(dtype)
            centered = x - x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
            var = (centered * centered).mean(axis=-1, keepdims=True, dtype=np.float64)
            inv = (1.0 / np.sqrt(var + 1e-12)).astype(dtype)
            expected = centered * inv * gain + bias
            out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-12)
            assert out.data.tobytes() == expected.tobytes()


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).item() == 0.0

    def test_positive_asymptote(self):
        assert abs(gelu(Tensor([10.0])).item() - 10.0) < 1e-3

    def test_negative_asymptote(self):
        assert abs(gelu(Tensor([-10.0])).item()) < 1e-3


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        logits = np.full((1, 4), -100.0)
        logits[0, 2] = 100.0
        assert cross_entropy(Tensor(logits), [2]).item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_log_vocab(self):
        out = cross_entropy(Tensor(np.zeros((3, 11))), [0, 5, 10], weights=np.full(3, 1 / 3))
        assert out.item() == pytest.approx(math.log(11), abs=1e-6)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 7), scale=2)
        targets = rng.integers(0, 7, size=4)
        out = cross_entropy(Tensor(logits), targets)
        assert out.item() == pytest.approx(naive_nll(logits, targets), abs=1e-6)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((2, 5))), [1, 5])

    def test_row_weights_scale_each_row(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(5, 6), scale=2)
        targets = rng.integers(0, 6, size=5)
        weights = np.array([1.0, 0.0, 0.5, 2.0, 0.25])
        expected = sum(w * naive_nll(logits[i:i + 1], targets[i:i + 1])
                       for i, w in enumerate(weights))
        out = cross_entropy(Tensor(logits, dtype=np.float64), targets, weights=weights)
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_row_weights_shape_checked(self):
        with pytest.raises(ValueError, match="weights"):
            cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2], weights=[1.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestGatherRowsBackward:
    """The scatter straight into ``x.grad`` against the dense-buffer route."""

    IDX = [3, 1, 3, 3, 0, 8, 1]

    def _case(self, dtype, seed):
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(9, 6)), requires_grad=True, dtype=dtype)
        probe = rng.normal(size=(len(self.IDX), 6)).astype(dtype)
        other = rng.normal(size=(9, 6)).astype(dtype)
        return table, probe, other

    def test_duplicate_indices_match_dense_buffer(self, dtype):
        table, probe, _ = self._case(dtype, 40)
        reduce_sum(mul(gather_rows(table, self.IDX), Tensor(probe))).backward()
        expected = dense_gather_rows_grad(None, table.shape, dtype, self.IDX, probe)
        assert table.grad.dtype == dtype
        np.testing.assert_array_equal(table.grad, expected)

    @pytest.mark.parametrize("gather_first", [False, True])
    def test_adds_to_gradient_from_another_op(self, dtype, gather_first):
        """The table's gradient from a second use (here an elementwise
        product) is kept and the gathered rows' gradient added to it,
        whichever of the two reaches the table first."""
        table, probe, other = self._case(dtype, 41)
        gathered = reduce_sum(mul(gather_rows(table, self.IDX), Tensor(probe)))
        product = reduce_sum(mul(table, Tensor(other)))
        (add(gathered, product) if gather_first else add(product, gathered)).backward()
        expected = dense_gather_rows_grad(other, table.shape, dtype, self.IDX, probe)
        assert table.grad.dtype == dtype
        # duplicate rows are summed in a different order: rounding only
        np.testing.assert_allclose(table.grad, expected, rtol=0,
                                   atol=8 * np.finfo(dtype).eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_backward_adds_in_add_at_order(dtype):
    """Into a gradient another op already left, the rows' gradient adds up
    exactly as ``np.add.at`` would: same additions, same order, so the same
    rounding. Magnitudes spread over six decades make the order matter.
    Repeated, unique (a single pass), one and no indices."""
    rng = np.random.default_rng(42)
    repeated = rng.integers(0, 12, size=300)
    repeated[:40] = 5
    for idx in (repeated, rng.permutation(12)[:7], np.array([11]), np.zeros(0, dtype=np.intp)):
        table = Tensor(rng.normal(size=(12, 4)), requires_grad=True, dtype=dtype)
        existing = rng.normal(size=(12, 4)).astype(dtype)
        probe = (rng.normal(size=(idx.size, 4))
                 * 10.0 ** rng.uniform(-3, 3, size=(idx.size, 1))).astype(dtype)
        table.grad = existing.copy()
        reduce_sum(mul(gather_rows(table, idx), Tensor(probe))).backward()
        expected = existing.copy()
        np.add.at(expected, idx, probe)
        assert table.grad.tobytes() == expected.tobytes(), idx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestSharedOperand:
    """An op whose two operands are one tensor hands it both gradients: the
    first is adopted or copied, the second is added to it."""

    def _check(self, op, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        probe = rng.normal(size=shape)
        assert_gradients_match(lambda ts: reduce_sum(mul(op(ts[0], ts[0]), probe)),
                               [rng.normal(size=shape)], rng=rng, dtype=dtype)

    def test_add(self, dtype):
        self._check(add, (3, 4), dtype, 50)

    def test_mul(self, dtype):
        self._check(mul, (3, 4), dtype, 51)

    def test_matmul(self, dtype):
        self._check(matmul, (4, 4), dtype, 52)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = normal_parameter(np.random.default_rng(8), (3, 4))
        reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_square_gradient_is_2x(self):
        x = normal_parameter(np.random.default_rng(9), (5,))
        reduce_sum(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)

    def test_backward_requires_scalar(self):
        x = normal_parameter(np.random.default_rng(10), (2, 2))
        with pytest.raises(ValueError, match="scalar"):
            mul(x, x).backward()

    def test_repeated_backward_accumulates(self):
        x = normal_parameter(np.random.default_rng(11), (4,))
        loss = reduce_sum(x)
        loss.backward()
        first = x.grad.copy()
        loss2 = reduce_sum(x)
        loss2.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_backward_releases_interior_gradients(self):
        """Leaves keep their gradients; interior nodes drop theirs once
        passed on, so a batch's interior gradients are not all held."""
        x = normal_parameter(np.random.default_rng(13), (3,))
        y = mul(x, x)
        loss = reduce_sum(y)
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)
        assert y.grad is None and loss.grad is None

    @pytest.mark.parametrize("mul_first", [False, True])
    def test_shared_gradient_is_not_aliased(self, mul_first):
        """``add`` hands one array to both operands; each leaf's first
        gradient must be its own copy, whichever order they arrive in."""
        a = normal_parameter(np.random.default_rng(16), (3,))
        b = normal_parameter(np.random.default_rng(17), (3,))
        tail = reduce_sum(mul(a, Tensor(np.full(3, 3.0, dtype=np.float32))))
        head = reduce_sum(mul(add(a, b), Tensor(np.full(3, 2.0, dtype=np.float32))))
        (add(tail, head) if mul_first else add(head, tail)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, np.full(3, 5.0, dtype=np.float32))
        np.testing.assert_array_equal(b.grad, np.full(3, 2.0, dtype=np.float32))

    def test_first_gradient_is_c_ordered(self):
        x = normal_parameter(np.random.default_rng(18), (3, 4))
        w = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        reduce_sum(mul(transpose(x, (1, 0)), w)).backward()
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, w.data.T)

    def test_no_grad_blocks_recording(self):
        x = normal_parameter(np.random.default_rng(12), (3,))
        with no_grad():
            out = reduce_sum(mul(x, x))
        assert out._backward_fn is None and not out.requires_grad


class TestBackwardHook:
    """``backward(hook)``: the hook gets every reachable leaf first, and
    each leaf is reported once, right after the last node that reads it."""

    @staticmethod
    def _params():
        rng = np.random.default_rng(20)
        return [Tensor(rng.normal(0.0, 0.5, size=s).astype(np.float32), requires_grad=True)
                for s in [(4, 6), (6,), (6,), (6, 3)]]

    @staticmethod
    def _loss(params):
        """``w`` feeds two ``linear`` nodes and ``gain`` two layer norms."""
        w, gain, bias, head = params
        rng = np.random.default_rng(21)
        x, x2 = (Tensor(rng.normal(size=(5, 4)).astype(np.float32)) for _ in range(2))
        h = layer_norm(add(linear(x, w), linear(x2, w)), gain, bias)
        h = layer_norm(gelu(h), gain, bias)
        return cross_entropy(linear(h, head), [0, 1, 2, 0, 1])

    def test_each_leaf_once_with_its_final_gradient(self):
        plain = self._params()
        self._loss(plain).backward()
        params = self._params()
        seen, reported = [], []

        def hook(leaves):
            seen.extend(leaves)
            assert all(p.grad is None for p in params)
            return lambda leaf: reported.append((leaf, leaf.grad.copy()))

        self._loss(params).backward(hook)
        assert sorted(map(id, seen)) == sorted(map(id, params))
        assert sorted(id(leaf) for leaf, _ in reported) == sorted(map(id, params))
        for leaf, grad in reported:
            assert grad.tobytes() == plain[[id(p) for p in params].index(id(leaf))].grad.tobytes()

    def test_a_shared_leaf_is_reported_after_its_last_reader(self):
        """The first ``linear`` of ``w`` to run its backward has given only
        half of ``w``'s gradient; the report waits for the second."""
        params = self._params()
        w = params[0]
        loss = self._loss(params)
        events = []
        stack, nodes = [loss], []
        while stack:
            node = stack.pop()
            if all(node is not n for n in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        for node in nodes:
            if any(p is w for p in node._parents):
                node._backward_fn = self._logged(node._backward_fn, events)
        loss.backward(lambda leaves: lambda leaf: events.append(leaf))
        readers = [i for i, e in enumerate(events) if isinstance(e, str)]
        assert len(readers) == 2
        assert [i for i, e in enumerate(events) if e is w] == [readers[1] + 1]

    @staticmethod
    def _logged(fn, events):
        def run(grad):
            fn(grad)
            events.append("reader")
        return run

    def test_a_leaf_loss_is_reported(self):
        x = normal_parameter(np.random.default_rng(22), (1,))
        calls = []
        x.backward(lambda leaves: calls.append(list(leaves)) or calls.append)
        assert calls[0] == [x] and calls[1] is x
        np.testing.assert_array_equal(x.grad, np.ones(1, dtype=np.float32))

    def test_without_hook_backward_keeps_accumulating(self):
        """A hook that keeps the gradients leaves them as a plain backward
        does, and later plain backwards add onto them."""
        params = self._params()
        self._loss(params).backward(lambda leaves: lambda leaf: None)
        once = [p.grad.copy() for p in params]
        self._loss(params).backward()
        self._loss(params).backward()
        for p, g in zip(params, once):
            np.testing.assert_allclose(p.grad, 3 * g, rtol=1e-5)


def test_a_model_built_without_a_generator_holds_zero_shells():
    model = EncoderModel(ModelConfig.desk_scale(vocab_size=20, max_len=8, dropout=0.1), None)
    for name, p in model.named_parameters().items():
        assert p.dtype == np.float32 and p.requires_grad, name
        assert not p.data.any() or (name.endswith(".gain") and (p.data == 1).all()), name


def _paper_width_config() -> ModelConfig:
    """Paper widths with two blocks: every block matrix is large."""
    return ModelConfig(768, 2, 12, 3072, max_len=8, vocab_size=40, dropout=0.1)


class TestDrawNormal:
    """Each weight matrix is drawn from a stream of its own, so neither the
    thread that draws it nor the order of the draws moves its bytes."""

    @staticmethod
    def _draw_on_caller(monkeypatch, reverse: bool) -> None:
        """Run both parts of every ``_beside`` on the caller, in order or
        the worker's part first."""
        def serial(mine, theirs):
            if reverse:
                second = theirs()
                return mine(), second
            return mine(), theirs()
        monkeypatch.setattr(tensor, "_beside", serial)

    @pytest.mark.parametrize("config,block", [
        pytest.param(_paper_width_config(), tensor.BLOCK, id="paper-width"),
        pytest.param(ModelConfig.desk_scale(vocab_size=40, max_len=8, dropout=0.1), 1024,
                     id="desk-small-block"),
    ])
    def test_split_and_serial_draws_give_the_same_bytes(self, monkeypatch, config, block):
        monkeypatch.setattr(tensor, "BLOCK", block)
        shared = []
        real = tensor._beside

        def counted(mine, theirs):
            shared.append(1)
            return real(mine, theirs)

        monkeypatch.setattr(tensor, "_beside", counted)
        split = parameter_hash(EncoderModel(config, np.random.default_rng(3)))
        assert shared == [1], "the large matrices were not drawn on both threads"
        for reverse in (False, True):
            self._draw_on_caller(monkeypatch, reverse)
            assert parameter_hash(EncoderModel(config, np.random.default_rng(3))) == split

    def test_matrix_i_is_child_i_of_the_spawn(self):
        config = ModelConfig.desk_scale(vocab_size=40, max_len=8, dropout=0.1)
        model = EncoderModel(config, np.random.default_rng(4))
        matrices = [p for p in model.parameters() if p.ndim == 2]
        children = np.random.default_rng(4).spawn(len(matrices))
        for child, p in zip(children, matrices):
            expected = child.standard_normal(p.shape, dtype=np.float32)
            expected *= np.float32(0.02)
            assert p.data.tobytes() == expected.tobytes()

    def test_a_desk_model_draws_on_the_caller_only(self, monkeypatch):
        monkeypatch.setattr(tensor, "_beside", lambda *parts: pytest.fail("worker used"))
        EncoderModel(ModelConfig.desk_scale(vocab_size=40, max_len=8, dropout=0.1),
                     np.random.default_rng(5))

    def test_a_large_matrix_has_the_initializer_moments(self):
        w = Tensor(np.zeros((768, 3072), dtype=np.float32), requires_grad=True)
        draw_normal(np.random.default_rng(6), [w])
        assert w.dtype == np.float32
        # standard errors: 1.3e-5 for the mean, 9e-6 for the std
        assert abs(float(w.data.mean(dtype=np.float64))) < 1e-4
        assert abs(float(w.data.std(dtype=np.float64)) - 0.02) < 1e-4

    def test_building_models_leaves_the_generator_where_it_was(self):
        """``spawn`` does not advance the generator, so the draws that follow
        a build (split, masks, dropout) start where they would without it;
        vectors keep their constant init."""
        config = ModelConfig.desk_scale(vocab_size=40, max_len=8, dropout=0.1)
        rng = np.random.default_rng(7)
        encoder = EncoderModel(config, rng)
        encoder.add_classifier(3, rng)
        decoder = DecoderModel(config, rng)
        assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state
        for model in (encoder, decoder):
            for name, p in model.named_parameters().items():
                if p.ndim == 1:
                    assert (p.data == (1 if name.endswith(".gain") else 0)).all(), name
                else:
                    assert p.data.all(), name


class TestFiniteness:
    def test_forward_outputs_finite(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(8, 16), scale=5).astype(np.float32))
        g = Tensor(np.ones(16, dtype=np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        for out in (softmax(x), layer_norm(x, g, b), gelu(x)):
            assert np.all(np.isfinite(out.data))

    def test_backward_outputs_finite(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(0.0, 3.0, size=(6, 10)).astype(np.float32), requires_grad=True)
        probe = Tensor(rng.normal(size=(6, 10)).astype(np.float32))
        reduce_sum(mul(softmax(x), probe)).backward()
        assert np.all(np.isfinite(x.grad))


class TestDeterminism:
    def test_identical_inputs_bit_identical_outputs(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(12, 12)).astype(np.float32)
        w = rng.normal(size=(12, 12)).astype(np.float32)
        a = matmul(softmax(Tensor(x)), gelu(Tensor(w))).data
        b = matmul(softmax(Tensor(x)), gelu(Tensor(w))).data
        np.testing.assert_array_equal(a, b)


class TestGradientChecks:
    """Central-difference checks, float32 then a tighter float64 shadow."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul(self, dtype):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 4))
        probe = rng.normal(size=(5, 4)) / 20.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(matmul(ts[0], ts[1]), probe)),
            [a, b], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax(self, dtype):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 12), scale=2)
        probe = rng.normal(size=(10, 12))
        assert_gradients_match(
            lambda ts: reduce_sum(mul(softmax(ts[0], axis=-1), probe)),
            [x], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, 16), loc=1.0)
        gain = rng.normal(size=16, scale=0.5) + 1.0
        bias = rng.normal(size=16, scale=0.2)
        probe = rng.normal(size=(6, 16)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(layer_norm(ts[0], ts[1], ts[2], eps=1e-5), probe)),
            [x, gain, bias], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(9, 13), scale=2)
        probe = rng.normal(size=(9, 13)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(gelu(ts[0]), probe)),
            [x], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(12, 11), scale=2)
        targets = rng.integers(0, 11, size=12)
        assert_gradients_match(
            lambda ts: cross_entropy(ts[0], targets, weights=np.full(12, 1 / 12)),
            [logits], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_weighted_cross_entropy(self, dtype, reduction):
        """The mean is the sum with every weight divided by the row count."""
        rng = np.random.default_rng(30)
        logits = rng.normal(size=(12, 11), scale=2)
        targets = rng.integers(0, 11, size=12)
        weights = rng.uniform(0.0, 1.0, size=12) / 4
        weights[3] = 0.0
        if reduction == "mean":
            weights /= 12
        assert_gradients_match(
            lambda ts: cross_entropy(ts[0], targets, weights=weights),
            [logits], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True])
    def test_masked_attention(self, dtype, causal):
        """Two padded sequences (lengths 5 and 3) in one [b·t, h] batch."""
        rng = np.random.default_rng(31)
        attn = MultiHeadAttention(8, 2)
        attn.draw(rng)
        for p in attn.named_parameters().values():
            p.data = (p.data * 20.0).astype(dtype)
        mask = padding_mask([5, 3], 5, dtype)
        if causal:
            mask = mask + causal_mask(5, dtype)
        x = rng.normal(size=(10, 8))
        probe = rng.normal(size=(10, 8)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(attn(ts[0], 2, mask=mask), probe)),
            [x], rng=rng, dtype=dtype, num_coords=80,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_mul_broadcast(self, dtype):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(6, 8))
        bias = rng.normal(size=8)
        scale = rng.normal(size=(6, 8)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(add(ts[0], ts[1]), scale)),
            [x, bias], rng=rng, dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows(self, dtype):
        rng = np.random.default_rng(26)
        table = rng.normal(size=(9, 6))
        idx = rng.integers(0, 9, size=14)
        probe = rng.normal(size=(14, 6)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(gather_rows(ts[0], idx), probe)),
            [table], rng=rng, dtype=dtype, num_coords=54,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reshape_transpose(self, dtype):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(4, 6))
        probe = rng.normal(size=(3, 2, 4)) / 10.0
        assert_gradients_match(
            lambda ts: reduce_sum(mul(transpose(reshape(ts[0], (4, 3, 2)), (1, 2, 0)), probe)),
            [x], rng=rng, dtype=dtype, num_coords=24,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout(self, dtype):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(8, 8))
        probe = rng.normal(size=(8, 8)) / 10.0

        def make_loss(ts):
            local = np.random.default_rng(99)
            return reduce_sum(mul(dropout(ts[0], 0.3, local), probe))

        assert_gradients_match(make_loss, [x], rng=rng, dtype=dtype, num_coords=64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_composite_graph(self, dtype):
        """Any composite graph: attention-like chain of the ops above."""
        rng = np.random.default_rng(29)
        x = rng.normal(size=(5, 8))
        wq = rng.normal(size=(8, 8), scale=0.5)
        wv = rng.normal(size=(8, 8), scale=0.5)
        gain = np.ones(8)
        bias = np.zeros(8)

        def make_loss(ts):
            x_t, wq_t, wv_t, g_t, b_t = ts
            q = matmul(x_t, wq_t)
            v = matmul(x_t, wv_t)
            attn = matmul(softmax(mul(matmul(q, transpose(q)), 0.2), axis=-1), v)
            return cross_entropy(layer_norm(gelu(attn), g_t, b_t, eps=1e-5),
                                 [1, 3, 0, 7, 2], weights=np.full(5, 0.2))

        assert_gradients_match(make_loss, [x, wq, wv, gain, bias], rng=rng, dtype=dtype,
                               num_coords=140)


def test_mixed_dtype_rejected():
    with pytest.raises(ValueError, match="mixed"):
        linear(Tensor(np.zeros((2, 2)), dtype=np.float32),
               Tensor(np.zeros((2, 2)), dtype=np.float64))


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        dropout(Tensor(np.zeros(3)), 1.0, np.random.default_rng(0))
