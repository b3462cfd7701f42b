"""AdamW update rule, warmup scaling, and contract errors; the ``fit``
epoch loop on a toy objective."""

import numpy as np
import pytest

from clustersum.optim import AdamW, fit
from clustersum.tensor import Tensor

from oracles import reference_adamw_update


def _param(values):
    p = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    return p


class TestFirstStep:
    def test_unit_gradient_moves_by_lr(self):
        """Hand-rolled moment recurrences for step 1: m̂/√v̂ is exactly 1."""
        p = _param([1.0, -2.0, 0.5])
        p.grad = np.ones(3, dtype=np.float32)
        before = p.data.copy()
        AdamW([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, before - 0.1, atol=1e-6)

    def test_zero_gradient_no_decay_leaves_params(self):
        p = _param([3.0, -1.0])
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        AdamW([p], lr=0.5).step()
        np.testing.assert_array_equal(p.data, before)

    def test_decoupled_decay_shrinks_params(self):
        p = _param([2.0])
        p.grad = np.zeros(1, dtype=np.float32)
        AdamW([p], lr=0.1, weight_decay=0.01).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, rel=1e-6)


class TestWarmup:
    def test_half_way_through_warmup(self):
        opt = AdamW([_param([0.0])], lr=1.0, warmup_steps=100)
        assert opt.effective_lr(step=50) == pytest.approx(0.5)

    def test_warmup_complete(self):
        opt = AdamW([_param([0.0])], lr=2.0, warmup_steps=100)
        assert opt.effective_lr(step=100) == pytest.approx(2.0)
        assert opt.effective_lr(step=500) == pytest.approx(2.0)

    def test_never_negative(self):
        opt = AdamW([_param([0.0])], lr=1.0, warmup_steps=10,
                    schedule="linear_decay", total_steps=20)
        for step in range(0, 40):
            assert opt.effective_lr(step=step) >= 0.0

    def test_linear_decay_reaches_zero(self):
        opt = AdamW([_param([0.0])], lr=1.0, warmup_steps=10,
                    schedule="linear_decay", total_steps=20)
        assert opt.effective_lr(step=15) == pytest.approx(0.5)
        assert opt.effective_lr(step=20) == pytest.approx(0.0)


class TestContracts:
    def test_missing_gradient_is_an_error(self):
        p = _param([1.0])
        with pytest.raises(ValueError, match="no gradient"):
            AdamW([p], lr=0.1).step()

    def test_gradients_cleared_after_step(self):
        p = _param([1.0])
        p.grad = np.ones(1, dtype=np.float32)
        opt = AdamW([p], lr=0.1)
        opt.step()
        assert p.grad is None

    def test_moment_shapes_match_params(self):
        p1, p2 = _param(np.zeros((3, 4))), _param(np.zeros(7))
        opt = AdamW([p1, p2], lr=0.1)
        assert opt.first_moment[0].shape == (3, 4)
        assert opt.second_moment[1].shape == (7,)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.0)
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.1, weight_decay=-1.0)
        with pytest.raises(ValueError):
            AdamW([_param([0.0])], lr=0.1, schedule="linear_decay")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_step_matches_reference_formula_bit_for_bit(dtype, weight_decay):
    """Steps 1-2 warm up, 3-8 decay linearly; parameters and moments equal
    the whole-array formula exactly, signed zeros included."""
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (7,), ()]
    params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    shadow = [p.data.copy() for p in params]
    m = [np.zeros_like(d) for d in shadow]
    v = [np.zeros_like(d) for d in shadow]
    opt = AdamW(params, lr=0.01, weight_decay=weight_decay, warmup_steps=2,
                schedule="linear_decay", total_steps=8)
    for step in range(1, 9):
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        grads[0][0, :3] = 0.0
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for data, g, m_i, v_i in zip(shadow, grads, m, v):
            reference_adamw_update(data, g, m_i, v_i, step, opt.effective_lr(step),
                                   opt.betas, opt.eps, weight_decay)
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
    opt = AdamW([p], lr=0.05, warmup_steps=10)
    for _ in range(400):
        diff = p + Tensor(-target)
        (diff * diff).sum().backward()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-2)


class TestFit:
    """``fit`` pulls one scalar towards the items: each batch's loss is the
    mean squared distance of its items from the parameter."""

    ITEMS = [0.5, -1.0, 2.0, 1.5, -0.5, 3.0, 0.0, 1.0, -2.0, 2.5]

    def _setup(self):
        p = _param([0.0])
        return p, AdamW([p], lr=0.3)

    @staticmethod
    def _square_loss(p, batch):
        diff = p + Tensor(-np.asarray(batch, dtype=np.float32))
        return (diff * diff).sum() / len(batch)

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
