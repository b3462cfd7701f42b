"""Adam optimizer with decoupled weight decay and linear learning-rate
warmup, and ``fit``, the one epoch loop every training objective runs."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

log = logging.getLogger(__name__)


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


@dataclass
class EpochStats:
    """One epoch's mean training loss and accuracy (``None`` when the
    objective counts no predictions), with the validation figures if any."""

    epoch: int
    loss: float
    accuracy: float | None = None
    val_loss: float | None = None
    val_accuracy: float | None = None


def fit(
    items: Sequence,
    batch_loss: Callable[[list], tuple[Tensor, float, int, int]],
    optimizer: AdamW,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    validate: Callable[[int], tuple[float, float | None]] | None = None,
    keep_best: bool = False,
    name: str = "train",
) -> list[EpochStats]:
    """Run ``epochs`` passes of minibatch training over ``items``.

    Each epoch draws one permutation from ``rng`` and cuts it into batches
    of ``batch_size`` (the last may be shorter). ``batch_loss(batch)``
    returns the loss, the factor that turns ``loss.item()`` into the
    batch's share of the epoch's summed loss, and (correct, counted)
    prediction counts; each loss gets one backward and one optimizer step.
    The epoch loss is that sum over ``len(items)``. After the epoch,
    ``validate(epoch)`` returns the validation loss and accuracy (or
    ``None``). With ``keep_best``, the optimizer's parameters end as they
    were after the epoch with the strictly lowest validation loss.
    """
    history: list[EpochStats] = []
    best_loss = float("inf")
    best_params: list[np.ndarray] | None = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(items))
        epoch_loss = 0.0
        correct = 0
        counted = 0
        for start in range(0, len(order), batch_size):
            loss, factor, c, n = batch_loss([items[i] for i in order[start:start + batch_size]])
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item() * factor
            correct += c
            counted += n
        stats = EpochStats(epoch, epoch_loss / len(items),
                           correct / counted if counted else None)
        if validate is not None:
            stats.val_loss, stats.val_accuracy = validate(epoch)
            if keep_best and stats.val_loss < best_loss:
                best_loss = stats.val_loss
                best_params = [p.data.copy() for p in optimizer.params]
        history.append(stats)
        shown = (("acc", stats.accuracy), ("val_loss", stats.val_loss),
                 ("val_acc", stats.val_accuracy))
        log.info("%s epoch %d: loss %.4f%s", name, epoch, stats.loss,
                 "".join(f" {label} {value:.4f}" for label, value in shown if value is not None))
    if best_params is not None:
        for p, data in zip(optimizer.params, best_params):
            p.data = data
    return history
