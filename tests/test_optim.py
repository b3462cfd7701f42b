"""AdamW update rule, warmup scaling, and contract errors."""

import numpy as np
import pytest

from clustersum.optim import AdamW
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
