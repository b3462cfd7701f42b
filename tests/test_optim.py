"""AdamW update rule, warmup scaling, and contract errors; the ``fit``
epoch loop on a toy objective."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import clustersum
from clustersum import optim, tensor
from clustersum.cli import main
from clustersum.encoder import EncoderModel, ModelConfig, mlm_batch_loss
from clustersum.optim import BETAS, BLOCK, EPS, AdamW, fit
from clustersum.tensor import Tensor, cross_entropy, gelu, layer_norm, linear

from corpora import build_docs, graded_topic_texts, pair_texts
from oracles import add, mul, normal_parameter, reduce_sum, reference_adamw_update


def _param(values):
    p = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    return p


class TestFirstStep:
    def test_unit_gradient_moves_by_lr(self):
        """Hand-rolled moment recurrences for step 1: m̂/√v̂ is exactly 1."""
        p = _param([1.0, -2.0, 0.5])
        p.grad = np.ones(3, dtype=np.float32)
        before = p.data.copy()
        AdamW([p], lr=0.1, weight_decay=0.0, warmup_steps=0).step()
        np.testing.assert_allclose(p.data, before - 0.1, atol=1e-6)

    def test_zero_gradient_no_decay_leaves_params(self):
        p = _param([3.0, -1.0])
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        AdamW([p], lr=0.5, weight_decay=0.0, warmup_steps=0).step()
        np.testing.assert_array_equal(p.data, before)

    def test_decoupled_decay_shrinks_params(self):
        p = _param([2.0])
        p.grad = np.zeros(1, dtype=np.float32)
        AdamW([p], lr=0.1, warmup_steps=0, weight_decay=0.01).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, rel=1e-6)


class TestWarmup:
    def test_half_way_through_warmup(self):
        opt = AdamW([_param([0.0])], lr=1.0, weight_decay=0.0, warmup_steps=100)
        assert opt.effective_lr(step=50) == pytest.approx(0.5)

    def test_warmup_complete(self):
        opt = AdamW([_param([0.0])], lr=2.0, weight_decay=0.0, warmup_steps=100)
        assert opt.effective_lr(step=100) == pytest.approx(2.0)
        assert opt.effective_lr(step=500) == pytest.approx(2.0)

    def test_never_negative(self):
        opt = AdamW([_param([0.0])], lr=1.0, weight_decay=0.0, warmup_steps=10, total_steps=20)
        for step in range(0, 40):
            assert opt.effective_lr(step=step) >= 0.0

    def test_linear_decay_reaches_zero(self):
        opt = AdamW([_param([0.0])], lr=1.0, weight_decay=0.0, warmup_steps=10, total_steps=20)
        assert opt.effective_lr(step=15) == pytest.approx(0.5)
        assert opt.effective_lr(step=20) == pytest.approx(0.0)


class TestContracts:
    def test_missing_gradient_is_an_error(self):
        p = _param([1.0])
        with pytest.raises(ValueError, match="no gradient"):
            AdamW([p], lr=0.1, weight_decay=0.0, warmup_steps=0).step()

    def test_gradients_cleared_after_step(self):
        p = _param([1.0])
        p.grad = np.ones(1, dtype=np.float32)
        opt = AdamW([p], lr=0.1, weight_decay=0.0, warmup_steps=0)
        opt.step()
        assert p.grad is None

    def test_moment_shapes_match_params(self):
        p1, p2 = _param(np.zeros((3, 4))), _param(np.zeros(7))
        opt = AdamW([p1, p2], lr=0.1, weight_decay=0.0, warmup_steps=0)
        assert opt.first_moment[0].shape == (3, 4)
        assert opt.second_moment[1].shape == (7,)

    def test_rebound_parameter_makes_step_raise(self):
        p1, p2 = _param(np.zeros(3)), _param(np.zeros((2, 2)))
        opt = AdamW([p1, p2], lr=0.1, weight_decay=0.0, warmup_steps=0)
        p2.data = p2.data.copy()
        p1.grad, p2.grad = np.ones(3, dtype=np.float32), np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"parameter 1 \(2, 2\) was rebound"):
            opt.step()
        assert opt.step_count == 0
        assert not p1.data.any()

    def test_parameters_become_views_of_one_buffer(self):
        p1, p2 = _param([1.0, 2.0]), _param([[3.0], [4.0]])
        opt = AdamW([p1, p2], lr=0.1, weight_decay=0.0, warmup_steps=0)
        assert p1.data.base is opt.buffer and p2.data.base is opt.buffer
        assert opt.buffer.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_mixed_dtypes(self):
        p64 = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="mix dtypes"):
            AdamW([_param([0.0]), p64], lr=0.1, weight_decay=0.0, warmup_steps=0)

    def test_rejects_non_contiguous_parameter(self):
        p = _param(np.zeros((3, 4)))
        p.data = p.data.T
        with pytest.raises(ValueError, match=r"parameter 1 \(4, 3\) is not C-contiguous"):
            AdamW([_param([0.0]), p], lr=0.1, weight_decay=0.0, warmup_steps=0)

    def test_rejects_a_parameter_listed_twice(self):
        p = _param([0.0])
        with pytest.raises(ValueError, match="more than once"):
            AdamW([p, p], lr=0.1, weight_decay=0.0, warmup_steps=0)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.0, weight_decay=0.0, warmup_steps=0)
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.1, warmup_steps=0, weight_decay=-1.0)
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.1, weight_decay=0.0, warmup_steps=2, total_steps=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_step_matches_reference_formula_bit_for_bit(dtype, weight_decay):
    """Steps 1-2 warm up, 3-8 decay linearly; parameters and moments equal
    the whole-array formula exactly, signed zeros included. The shapes make
    blocks of every kind: several parameters gathered into one block, one
    parameter larger than a block, 0-d parameters between others, and a
    block that lies inside one parameter."""
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (7,), (), (3, BLOCK // 2 + 5)] + [(13,)] * 40 + [(), (BLOCK - 7,)]
    params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    shadow = [p.data.copy() for p in params]
    m = [np.zeros_like(d) for d in shadow]
    v = [np.zeros_like(d) for d in shadow]
    opt = AdamW(params, lr=0.01, weight_decay=weight_decay, warmup_steps=2, total_steps=8)
    for step in range(1, 9):
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        grads[0][0, :3] = 0.0
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for data, g, m_i, v_i in zip(shadow, grads, m, v):
            reference_adamw_update(data, g, m_i, v_i, step, opt.effective_lr(step),
                                   BETAS, EPS, weight_decay)
        for p, data, m_i, v_i, om, ov in zip(params, shadow, m, v,
                                              opt.first_moment, opt.second_moment):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == data.tobytes()
            assert om.tobytes() == m_i.tobytes()
            assert ov.tobytes() == v_i.tobytes()


def test_converges_on_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=8).astype(np.float32)
    p = _param(np.zeros(8))
    opt = AdamW([p], lr=0.05, weight_decay=0.0, warmup_steps=10)
    for _ in range(400):
        diff = add(p, Tensor(-target))
        reduce_sum(mul(diff, diff)).backward()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-2)


class TestFit:
    """``fit`` pulls one scalar towards the items: each batch's loss is the
    mean squared distance of its items from the parameter."""

    ITEMS = [0.5, -1.0, 2.0, 1.5, -0.5, 3.0, 0.0, 1.0, -2.0, 2.5]

    def _setup(self):
        p = _param([0.0])
        return p, AdamW([p], lr=0.3, weight_decay=0.0, warmup_steps=0)

    @staticmethod
    def _square_loss(p, batch):
        diff = add(p, Tensor(-np.asarray(batch, dtype=np.float32)))
        return mul(reduce_sum(mul(diff, diff)), 1.0 / len(batch))

    def _run(self, keep_best, val_losses):
        p, opt = self._setup()
        after_epoch = []

        def validate(epoch):
            after_epoch.append(p.data.copy())
            return val_losses[epoch - 1], None

        fit(self.ITEMS, lambda b: (self._square_loss(p, b), len(b), 0, 0), opt,
            epochs=len(val_losses), batch_size=3, rng=np.random.default_rng(4),
            validate=validate, keep_best=keep_best)
        return p, after_epoch

    def test_keep_best_ends_on_the_strictly_lowest_validation_epoch(self):
        # epoch 2 is the lowest; epoch 4 ties it and must not replace it
        p, after_epoch = self._run(True, [3.0, 1.0, 2.0, 1.0])
        assert len({a.tobytes() for a in after_epoch}) == 4
        assert p.data.tobytes() == after_epoch[1].tobytes()

    def test_without_keep_best_the_last_epoch_remains(self):
        p, after_epoch = self._run(False, [3.0, 1.0, 2.0, 1.0])
        assert p.data.tobytes() == after_epoch[-1].tobytes()

    def test_keep_best_restores_into_the_buffer(self):
        """The best epoch is copied back in place: the parameter stays a
        view of the optimizer's buffer and the next step still reaches it."""
        p = _param([0.0])
        opt = AdamW([p], lr=0.3, weight_decay=0.0, warmup_steps=0)
        after_epoch = []

        def validate(epoch):
            after_epoch.append(p.data.copy())
            return [3.0, 1.0, 2.0][epoch - 1], None

        fit(self.ITEMS, lambda b: (self._square_loss(p, b), len(b), 0, 0), opt, epochs=3,
            batch_size=3, rng=np.random.default_rng(4), validate=validate, keep_best=True)
        assert p.data.tobytes() == after_epoch[1].tobytes()
        assert p.data.base is opt.buffer
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert p.data.base is opt.buffer
        assert p.data[0] < after_epoch[1][0]

    def test_one_step_per_batch_last_batch_shorter(self):
        p, opt = self._setup()
        seen = []

        def batch_loss(batch):
            seen.append(list(batch))
            return self._square_loss(p, batch), len(batch), 0, 0

        fit(self.ITEMS, batch_loss, opt, epochs=2, batch_size=4, rng=np.random.default_rng(5))
        # ceil(10 / 4) = 3 steps per epoch, one permutation drawn per epoch
        assert [len(b) for b in seen] == [4, 4, 2] * 2
        assert opt.step_count == 6
        orders = np.random.default_rng(5)
        for epoch in range(2):
            expected = [self.ITEMS[i] for i in orders.permutation(len(self.ITEMS))]
            assert sum(seen[3 * epoch:3 * epoch + 3], []) == expected

    def test_epoch_loss_is_factor_weighted_sum_over_items(self):
        p, opt = self._setup()
        shares = []

        def batch_loss(batch):
            loss = self._square_loss(p, batch)
            factor = 2.0 * len(batch) + 1.0
            shares.append(loss.item() * factor)
            return loss, factor, 0, 0

        (stats,) = fit(self.ITEMS, batch_loss, opt, epochs=1, batch_size=4,
                       rng=np.random.default_rng(6))
        assert stats.loss == pytest.approx(sum(shares) / len(self.ITEMS), rel=1e-12)
        assert stats.val_loss is None and stats.val_accuracy is None

    def test_accuracy_is_none_when_nothing_was_counted(self):
        p, opt = self._setup()
        (uncounted,) = fit(self.ITEMS, lambda b: (self._square_loss(p, b), 1, 0, 0), opt,
                           epochs=1, batch_size=4, rng=np.random.default_rng(7))
        assert uncounted.accuracy is None
        (counted,) = fit(self.ITEMS, lambda b: (self._square_loss(p, b), 1, 1, len(b)), opt,
                         epochs=1, batch_size=4, rng=np.random.default_rng(7))
        assert counted.accuracy == pytest.approx(3 / 10)


SMALL_BLOCK = 1024


class _Desk:
    """A desk-scale encoder on the MLM objective: with ``BLOCK`` at 1024 its
    attention and FFN weights are large, its biases, gains and (on this
    small vocabulary) embeddings small, and no large weight is read twice."""

    def __init__(self, dtype, seed=1):
        texts = pair_texts(np.random.default_rng(0), num_docs=12, num_pairs=4, doc_len=10)
        vocab, self.items = build_docs(texts, max_len=12)
        self.model = EncoderModel(ModelConfig.desk_scale(vocab.size, max_len=12, dropout=0.1),
                                  np.random.default_rng(seed)).astype(dtype)
        self.params = self.model.parameters()
        self.rng = np.random.default_rng(2)

    def batch_loss(self, batch):
        loss, c, n = mlm_batch_loss(self.model, batch, 0.3, self.rng, 4)
        return loss, 4, c, n


class _Shared:
    """A graph where ``w`` feeds two ``linear`` nodes and a layer norm's gain
    and bias are each read twice; every one of them is large, as are the
    head's weight and the first bias, and the widths leave a short last
    block. The head's bias and the ``gate`` are small."""

    WIDTH = SMALL_BLOCK + 6

    def __init__(self, dtype, seed=1):
        rng = np.random.default_rng(seed)
        shapes = [(5, self.WIDTH), (self.WIDTH,), (self.WIDTH,), (self.WIDTH,),
                  (self.WIDTH, 4), (4,), (1,)]
        self.params = [Tensor(rng.normal(0.0, 0.5, size=s).astype(dtype), requires_grad=True)
                       for s in shapes]
        data = np.random.default_rng(seed + 1)
        self.x, self.x2 = (data.normal(size=(6, 5)).astype(dtype) for _ in range(2))
        self.items = list(range(6))

    def batch_loss(self, batch):
        w, b, gain, bias, head, head_bias, gate = self.params
        x, x2 = Tensor(self.x[batch]), Tensor(self.x2[batch])
        h = layer_norm(add(linear(x, w, b), linear(x2, w)), gain, bias)
        h = layer_norm(mul(gelu(h), gate), gain, bias)
        targets = [i % 4 for i in batch]
        loss = mul(cross_entropy(linear(h, head, head_bias), targets), 1.0 / len(batch))
        return loss, len(batch), 0, 0


def _fit(model, weight_decay, keep_best, epochs=1):
    opt = AdamW(model.params, lr=1e-2, weight_decay=weight_decay, warmup_steps=2)
    validate = (lambda epoch: ([2.0, 1.0, 3.0][epoch - 1], None)) if keep_best else None
    history = fit(model.items, model.batch_loss, opt, epochs=epochs, batch_size=4,
                  rng=np.random.default_rng(5), validate=validate, keep_best=keep_best)
    return opt, history


def _state(opt):
    return ([p.data.tobytes() for p in opt.params], [m.tobytes() for m in opt.first_moment],
            [v.tobytes() for v in opt.second_moment], opt.step_count)


def _plain_backward(monkeypatch):
    """Make every backward ignore its hook, so ``fit`` runs
    ``loss.backward(); optimizer.step()`` as before updates moved into
    backward."""
    plain = Tensor.backward
    monkeypatch.setattr(Tensor, "backward", lambda self, hook=None: plain(self))


def _count_updates(monkeypatch):
    """Record every large parameter updated inside backward."""
    calls = []
    update = AdamW._update_large

    def counted(self, leaf):
        if id(leaf) in self._large:
            calls.append(leaf)
        update(self, leaf)

    monkeypatch.setattr(AdamW, "_update_large", counted)
    return calls


class TestUpdateInBackward:
    """``fit`` updates each large parameter inside backward; the bytes equal
    a plain backward followed by ``step``."""

    @pytest.mark.parametrize("model_type", [_Desk, _Shared])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("keep_best", [False, True])
    def test_matches_backward_then_step(self, monkeypatch, model_type, dtype, weight_decay,
                                        keep_best):
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        epochs = 3 if keep_best else 1
        with monkeypatch.context() as m:
            _plain_backward(m)
            expected, expected_history = _fit(model_type(dtype), weight_decay, keep_best, epochs)
        calls = _count_updates(monkeypatch)
        model = model_type(dtype)
        large = [p for p in model.params if p.size >= SMALL_BLOCK]
        assert large and len(large) < len(model.params)
        opt, history = _fit(model, weight_decay, keep_best, epochs)
        assert len(calls) == len(large) * opt.step_count
        assert _state(opt) == _state(expected)
        assert history == expected_history

    def test_large_parameters_lead_the_buffer(self, monkeypatch):
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        assert self._layout(opt) == [0, 1, 2, 3, 4, 5, 6]
        opt = AdamW(model.params[5:] + model.params[:5], lr=1e-2, weight_decay=0.0, warmup_steps=0)
        assert self._layout(opt) == [2, 3, 4, 5, 6, 0, 1]

    @staticmethod
    def _layout(opt):
        """Parameter indices in buffer order."""
        return sorted(range(len(opt.params)), key=lambda i: opt.params[i].data.ctypes.data)

    def test_each_large_gradient_is_dropped_after_its_update(self, monkeypatch):
        """No large parameter but the one being updated holds a gradient,
        each drops its gradient as soon as its update, both halves of it
        (``TestWorker``), has ended, and ``step`` finds none."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Desk(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        large = [p for p in opt.params if p.size >= SMALL_BLOCK]
        update = opt._update_large
        updated = []

        def probe(leaf):
            assert all(p is leaf for p in large if p.grad is not None)
            update(leaf)
            if any(p is leaf for p in large):
                assert leaf.grad is None
                updated.append(leaf)

        step = opt.step

        def probed_step():
            assert all(p.grad is None for p in large)
            assert all(p.grad is not None for p in opt.params if p.size < SMALL_BLOCK)
            step()

        opt._update_large, opt.step = probe, probed_step
        fit(model.items, model.batch_loss, opt, epochs=1, batch_size=4,
            rng=np.random.default_rng(5))
        assert opt.step_count == 3 and len(updated) == 3 * len(large)

    @pytest.mark.parametrize("which", [0, 5])
    def test_rebound_parameter_raises_before_any_update(self, monkeypatch, which):
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        before = opt.buffer.copy()
        model.params[which].data = model.params[which].data.copy()
        with pytest.raises(ValueError, match=f"parameter {which} .* was rebound"):
            fit(model.items, model.batch_loss, opt, epochs=1, batch_size=4,
                rng=np.random.default_rng(5))
        assert opt.step_count == 0
        assert opt.buffer.tobytes() == before.tobytes()
        assert model.params[which].data.tobytes() == opt._views[which].tobytes()

    @pytest.mark.parametrize("shape", [(3,), (SMALL_BLOCK,)])
    def test_unreachable_parameter_raises_before_any_update(self, monkeypatch, shape):
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        unused = normal_parameter(np.random.default_rng(9), shape)
        opt = AdamW(model.params + [unused], lr=1e-2, weight_decay=0.0, warmup_steps=0)
        before = opt.buffer.copy()
        with pytest.raises(ValueError, match="parameter 7 has no gradient"):
            fit(model.items, model.batch_loss, opt, epochs=1, batch_size=4,
                rng=np.random.default_rng(5))
        assert opt.step_count == 0
        assert opt.buffer.tobytes() == before.tobytes()

    def test_an_unreached_parameter_with_a_gradient_is_updated_by_step(self, monkeypatch):
        """A large parameter the loss does not reach but that already holds
        a gradient is updated as a plain ``step`` would update it."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        states = []
        for hooked in (False, True):
            model = _Shared(np.float32)
            held = normal_parameter(np.random.default_rng(9), (SMALL_BLOCK,))
            opt = AdamW(model.params + [held], lr=1e-2, weight_decay=0.0, warmup_steps=0)
            held.grad = np.ones(SMALL_BLOCK, dtype=np.float32)
            model.batch_loss([0, 1, 2])[0].backward(opt.start_step if hooked else None)
            opt.step()
            states.append(_state(opt))
        assert states[0] == states[1]
        fresh = normal_parameter(np.random.default_rng(9), (SMALL_BLOCK,))
        assert held.data.tobytes() != fresh.data.tobytes()

    def test_a_plain_step_still_updates_large_parameters(self, monkeypatch):
        """Outside ``fit``, ``backward()`` then ``step()`` updates every
        parameter, large ones included."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        before = [p.data.copy() for p in model.params]
        model.batch_loss([0, 1, 2])[0].backward()
        opt.step()
        assert all(not np.array_equal(p.data, b) for p, b in zip(model.params, before))
        assert all(p.grad is None for p in model.params)


def _first_halves(opt) -> set:
    """The caller's half, ``(lo, lo + 2 blocks)``, of each large range of two
    blocks or more, with ``BLOCK`` patched to ``SMALL_BLOCK``."""
    return {(lo, lo + 2 * SMALL_BLOCK) for _, lo, hi in opt._large.values()
            if hi - lo >= 2 * SMALL_BLOCK}


class TestWorker:
    """A large parameter's update runs in two halves, one on the worker
    thread, and both end before the update returns."""

    def test_large_ranges_of_two_blocks_split_across_the_threads(self, monkeypatch):
        """In ``_Shared``, ``w`` (5 blocks and 30 elements) and the head's
        weight (4 blocks and 24) split after two blocks: the caller sweeps the
        first half and the worker the second. The first bias, the gain and
        the layer norm's bias (one block and 6) run whole on the caller, and
        so does the small run. Each caller half waits until the worker has
        started its half, so the caller never takes that half back."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        caller, worker = threading.get_ident(), "worker"
        expected = {(opt.buffer.size - opt._small_grad.size, opt.buffer.size): caller}
        for i, lo, hi in opt._large.values():
            if i in (0, 4):
                mid = lo + 2 * SMALL_BLOCK
                expected.update({(lo, mid): caller, (mid, hi): worker})
            else:
                expected[lo, hi] = caller
        first_halves = _first_halves(opt)
        assert len(first_halves) == 2
        threads, started = {}, threading.Event()
        sweep = AdamW._sweep

        def recorded(self, lo, hi, grad, t, scratch):
            on_worker = threading.get_ident() != caller
            if on_worker:
                assert scratch is self._scratch[1]
                started.set()
            elif (lo, hi) in first_halves:
                assert started.wait(30)
                started.clear()
            threads.setdefault((lo, hi), []).append(worker if on_worker else caller)
            sweep(self, lo, hi, grad, t, scratch)

        monkeypatch.setattr(AdamW, "_sweep", recorded)
        fit(model.items, model.batch_loss, opt, epochs=1, batch_size=4,
            rng=np.random.default_rng(5))
        assert opt.step_count == 2
        assert threads == {key: [thread] * 2 for key, thread in expected.items()}
        assert tensor._worker is not None

    def test_bytes_hold_when_threads_switch_often(self, monkeypatch):
        """With the interpreter switching threads every microsecond, the
        halves swept on the worker still give the bytes of a plain backward
        and step."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        with monkeypatch.context() as m:
            _plain_backward(m)
            expected, _ = _fit(_Desk(np.float32), 0.01, False, epochs=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            opt, _ = _fit(_Desk(np.float32), 0.01, False, epochs=2)
        finally:
            sys.setswitchinterval(interval)
        assert _state(opt) == _state(expected)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_in_either_half_is_raised_by_its_backward(self, monkeypatch, failing):
        """One half of the first split sweep raises; the caller's half waits
        until the worker has started its half, so neither runs both. When
        the caller's half raises, the worker's half is still running; the
        ``backward`` raises the error only once no sweep is running. No
        small parameter has moved, and after ``zero_grad`` the next ``fit``
        steps work."""
        monkeypatch.setattr(optim, "BLOCK", SMALL_BLOCK)
        model = _Shared(np.float32)
        opt = AdamW(model.params, lr=1e-2, weight_decay=0.0, warmup_steps=0)
        small = {i: opt.params[i].data.copy() for i in opt._small}
        first_halves = _first_halves(opt)
        sweep = AdamW._sweep
        lock, running, started, failed = threading.Lock(), [0], threading.Event(), []

        def fail(lo):
            failed.append(lo)
            raise RuntimeError(f"{failing} half failed")

        def failing_sweep(self, lo, hi, grad, t, scratch):
            with lock:
                running[0] += 1
            try:
                if threading.current_thread() is not threading.main_thread():
                    started.set()
                    if failing == "caller":
                        time.sleep(0.05)
                    elif not failed:
                        fail(lo)
                elif not failed and (lo, hi) in first_halves:
                    assert started.wait(30)
                    if failing == "caller":
                        fail(lo)
                sweep(self, lo, hi, grad, t, scratch)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(AdamW, "_sweep", failing_sweep)
        with pytest.raises(RuntimeError, match=f"{failing} half failed"):
            model.batch_loss([0, 1, 2])[0].backward(opt.start_step)
        assert running == [0]
        assert len(failed) == 1
        assert opt.step_count == 0
        assert all(opt.params[i].data.tobytes() == d.tobytes() for i, d in small.items())
        opt.zero_grad()
        fit(model.items, model.batch_loss, opt, epochs=1, batch_size=4,
            rng=np.random.default_rng(5))
        assert opt.step_count == 2 and len(failed) == 1
        assert all(opt.params[i].data.tobytes() != d.tobytes() for i, d in small.items())

    def test_importing_the_package_starts_no_thread(self):
        src = str(Path(clustersum.__file__).resolve().parent.parent)
        code = ("import sys, threading\n"
                "before = threading.active_count()\n"
                "import clustersum, clustersum.cli\n"
                "assert threading.active_count() == before\n"
                "assert 'concurrent.futures' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_a_desk_scale_fit_starts_no_thread(self, monkeypatch, tmp_path):
        """At the default ``BLOCK`` no desk-scale parameter is large, and no
        desk weight makes a shared product: neither a fit nor a desk
        ``run-all``, pretrain and finetune through evaluate, starts the
        worker."""
        monkeypatch.setattr(tensor, "_worker", None)
        before = threading.active_count()
        model = _Desk(np.float32)
        assert max(p.size for p in model.params) < BLOCK
        opt, _ = _fit(model, 0.01, False)
        assert opt.step_count == 3
        texts, labels = graded_topic_texts(np.random.default_rng(13), docs_per_topic=5,
                                           words_per_topic=6, doc_len=5)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"d{i}", "text": text, "label": f"topic{label}"}) + "\n"
            for i, (text, label) in enumerate(zip(texts, labels))), encoding="utf-8")
        settings = ["--preset", "desk", "--clustering", "labels", "--seed", "3"]
        for item in ("max_len=8", "mlm_epochs=1", "decoder_epochs=1", "num_candidates=2",
                     "retain_top_m=2", "max_summary_len=4"):
            settings += ["--set", item]
        out = tmp_path / "out"
        assert main(["run-all", "--corpus", str(corpus), "--out", str(out), *settings]) == 0
        assert (out / "metrics.json").exists()
        assert tensor._worker is None
        assert threading.active_count() == before

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs two CPUs and CPU affinity")
    def test_the_worker_leaves_the_starting_cpu_to_its_caller(self):
        allowed = os.sched_getaffinity(0)
        cpu = tensor._current_cpu()
        assert cpu in allowed
        seen = []

        def start():
            tensor._avoid_cpu(cpu)
            seen.append(os.sched_getaffinity(0))

        thread = threading.Thread(target=start)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [allowed - {cpu}]
        assert os.sched_getaffinity(0) == allowed
