"""Adam optimizer with decoupled weight decay and linear learning-rate warmup."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


class AdamW:
    """Adaptive-moment updates with bias correction and decoupled decay.

    The effective learning rate ramps linearly during warmup,
    ``(step / warmup_steps) * learning_rate``, and afterwards stays constant
    or decreases linearly to zero at ``total_steps`` when
    ``schedule="linear_decay"``.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        warmup_steps: int = 0,
        schedule: str = "constant",
        total_steps: int | None = None,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {warmup_steps}")
        if schedule not in ("constant", "linear_decay"):
            raise ValueError(f"unknown schedule {schedule!r}")
        if schedule == "linear_decay":
            if total_steps is None or total_steps <= warmup_steps:
                raise ValueError("linear_decay needs total_steps greater than warmup_steps")
        self.params = list(params)
        self.learning_rate = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.schedule = schedule
        self.total_steps = total_steps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def effective_lr(self, step: int | None = None) -> float:
        t = self.step_count if step is None else step
        factor = 1.0
        if self.warmup_steps > 0 and t < self.warmup_steps:
            factor = t / self.warmup_steps
        elif self.schedule == "linear_decay":
            span = self.total_steps - self.warmup_steps
            factor = max(0.0, (self.total_steps - t) / span)
        return self.learning_rate * factor

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update to every parameter, then clear gradients.

        Each parameter's update runs in place through two scratch arrays of
        its size, allocated per parameter so that only one parameter's
        scratch is alive at a time.
        """
        self.step_count += 1
        t = self.step_count
        lr_t = self.effective_lr(t)
        beta1, beta2 = self.betas
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {i} has no gradient; run backward first")
            g = p.grad
            m = self.first_moment[i]
            v = self.second_moment[i]
            scratch = np.multiply(g, 1.0 - beta1, out=np.empty_like(g))
            m *= beta1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - beta2
            v *= beta2
            v += scratch
            update = np.divide(m, 1.0 - beta1 ** t, out=np.empty_like(m))
            np.divide(v, 1.0 - beta2 ** t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update /= scratch
            if self.weight_decay > 0.0:
                np.multiply(p.data, self.weight_decay, out=scratch)
                update += scratch
            update *= lr_t
            p.data -= update
        self.zero_grad()
