"""Adam optimizer with decoupled weight decay and linear learning-rate
warmup, and ``fit``, the one epoch loop every training objective runs.

Inside ``fit``'s backward, each large parameter is updated as soon as its
gradient is final, and the gradient is dropped; ``AdamW.step`` then updates
the rest. A large parameter's update runs in two halves, the caller's and
one on the package's worker thread (``tensor._beside``), and returns once
both are done, so no update is pending between ops. The thread starts on
its first job, so a run whose parameters and products are all small never
starts it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import BLOCK, Tensor, _beside

log = logging.getLogger(__name__)

# Adam's moment decay rates and the denominator's stabilizing term.
BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW:
    """Adaptive-moment updates with bias correction and decoupled decay.

    The effective learning rate ramps linearly during warmup,
    ``(step / warmup_steps) * learning_rate``, and afterwards stays constant
    or, when ``total_steps`` is given, decreases linearly to zero at
    ``total_steps``.

    The optimizer owns its parameters' storage. The constructor copies each
    parameter, one at a time, into ``buffer``, one flat array of the
    parameters' common dtype, and rebinds ``p.data`` to a view of its slice;
    the moments live in two more flat arrays, and
    ``first_moment[i]``/``second_moment[i]`` are views of parameter i's
    slice. The large parameters (``BLOCK`` elements or more) come first in
    ``buffer``, then the small ones as one contiguous run, each group in list
    order. Parameters must share one dtype and be C-contiguous. Write new
    values into a parameter (``p.data[...] = values``) rather than rebinding
    ``p.data``: ``step`` refuses a parameter whose data is no longer its
    view, since the update would not reach it.

    A step is ``loss.backward()`` then ``step()``, or, as ``fit`` runs it,
    ``loss.backward(opt.start_step)`` then ``step()``. The second updates
    each large parameter as soon as its gradient is final, and ``step``
    updates the rest: both give the same bytes. A large parameter's range of
    two blocks or more is swept in two halves split at a block boundary, the
    second on the worker thread beside the first (``tensor._beside``).
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float,
        weight_decay: float,
        warmup_steps: int,
        total_steps: int | None = None,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {warmup_steps}")
        if total_steps is not None and total_steps <= warmup_steps:
            raise ValueError("linear decay needs total_steps greater than warmup_steps")
        self.params = list(params)
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed more than once")
        for i, p in enumerate(self.params):
            if not p.data.flags.c_contiguous:
                raise ValueError(f"parameter {i} {p.shape} is not C-contiguous")
        self.learning_rate = lr
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.step_count = 0

        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        large = [i for i, p in enumerate(self.params) if p.size >= BLOCK]
        self._small = [i for i, p in enumerate(self.params) if p.size < BLOCK]
        layout = large + self._small
        bounds = np.cumsum([0] + [self.params[i].size for i in layout]).tolist()
        total = bounds[-1]
        self.buffer = np.empty(total, dtype)
        first, second = np.zeros(total, dtype), np.zeros(total, dtype)
        self._moments = (first, second)
        self._views: list[np.ndarray] = []
        self.first_moment: list[np.ndarray] = []
        self.second_moment: list[np.ndarray] = []
        starts = dict(zip(layout, bounds))
        for i, p in enumerate(self.params):
            lo, hi = starts[i], starts[i] + p.size
            view = self.buffer[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view  # frees the old array: peak memory is one parameter over
            self._views.append(view)
            self.first_moment.append(first[lo:hi].reshape(p.shape))
            self.second_moment.append(second[lo:hi].reshape(p.shape))
        # a pair of scratch arrays for each half of a large parameter's sweep
        self._scratch = [(np.empty(min(BLOCK, total), dtype), np.empty(min(BLOCK, total), dtype))
                         for _ in range(2)]
        # each large parameter's flat range, and one array that gathers the
        # small parameters' gradients, which lie after them, once per step
        self._large = {id(self.params[i]): (i, starts[i], starts[i] + self.params[i].size)
                       for i in large}
        self._small_grad = np.empty(total - bounds[len(large)], dtype)
        self._in_backward = False

    def effective_lr(self, step: int | None = None) -> float:
        t = self.step_count if step is None else step
        factor = 1.0
        if self.warmup_steps > 0 and t < self.warmup_steps:
            factor = t / self.warmup_steps
        elif self.total_steps is not None:
            span = self.total_steps - self.warmup_steps
            factor = max(0.0, (self.total_steps - t) / span)
        return self.learning_rate * factor

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def start_step(self, leaves: list[Tensor]) -> Callable[[Tensor], None]:
        """The ``Tensor.backward`` hook. Before any backward function runs,
        it checks every parameter as ``step`` does, counting one among the
        reachable ``leaves`` as having a gradient, so a failed check leaves
        every parameter as it was. It returns the function that, as soon as a
        large parameter's gradient is final, checks the parameter again,
        applies its ``step`` update and drops the gradient; ``step`` does the
        rest.
        """
        self._check(range(len(self.params)), {id(leaf) for leaf in leaves})
        self._in_backward = True
        return self._update_large

    def _update_large(self, leaf: Tensor) -> None:
        entry = self._large.get(id(leaf))
        if entry is None:
            return
        i, lo, hi = entry
        self._check([i])
        self._sweep_large(lo, hi, leaf.grad.reshape(-1), self.step_count + 1)
        leaf.grad = None

    def _sweep_large(self, lo: int, hi: int, grad: np.ndarray, t: int) -> None:
        """``_sweep`` a large parameter's range ``lo:hi``: in two halves split
        at a ``BLOCK`` boundary, the second on the worker beside the first,
        or whole on the caller when the range is shorter than two blocks."""
        mid = lo + (hi - lo) // (2 * BLOCK) * BLOCK
        if mid == lo:
            self._sweep(lo, hi, grad, t, self._scratch[0])
            return
        _beside(lambda: self._sweep(lo, mid, grad[:mid - lo], t, self._scratch[0]),
                lambda: self._sweep(mid, hi, grad[mid - lo:], t, self._scratch[1]))

    def _check(self, indices, reached: set[int] | None = None) -> None:
        for i in indices:
            p = self.params[i]
            if p.data is not self._views[i]:
                raise ValueError(
                    f"parameter {i} {p.shape} was rebound after the optimizer was built; "
                    "assign into p.data[...] instead"
                )
            if p.grad is None and (reached is None or id(p) not in reached):
                raise ValueError(f"parameter {i} has no gradient; the loss does not reach it "
                                 "or backward has not run")
            if p.grad is not None and p.grad.shape != p.shape:
                raise ValueError(f"parameter {i} {p.shape} has a gradient of shape {p.grad.shape}")

    def step(self) -> None:
        """Apply one update to every parameter, then clear gradients. After
        a backward with ``start_step``, only the small parameters are left.

        The update sweeps the flat buffers in blocks of ``BLOCK`` elements,
        so that each block's parameters, moments, gradient and two scratch
        arrays stay in cache through all of its elementwise operations. A
        large parameter's gradient is read in place; the small parameters'
        gradients are first gathered into one array. Every element sees the
        same operations in the same order as a whole-array update, so the
        result does not depend on the blocking, nor on the split of a large
        parameter's range into halves.
        """
        self._check(self._small if self._in_backward else range(len(self.params)))
        self.step_count += 1
        for i, lo, hi in self._large.values():
            grad = self.params[i].grad
            if grad is not None:  # not updated inside backward
                self._sweep_large(lo, hi, grad.reshape(-1), self.step_count)
        if self._small:
            np.concatenate([self.params[i].grad.reshape(-1) for i in self._small],
                           out=self._small_grad)
            self._sweep(self.buffer.size - self._small_grad.size, self.buffer.size,
                        self._small_grad, self.step_count, self._scratch[0])
        self._in_backward = False
        self.zero_grad()

    def _sweep(self, lo: int, hi: int, grad: np.ndarray, t: int,
               scratch: tuple[np.ndarray, np.ndarray]) -> None:
        """Update the flat range ``lo:hi`` of the buffer and moments from
        ``grad``, its gradient, one ``BLOCK`` slice at a time, with the
        ``scratch`` pair of ``BLOCK``-sized arrays."""
        lr_t = self.effective_lr(t)
        beta1, beta2 = BETAS
        keep1, keep2 = 1.0 - beta1, 1.0 - beta2
        correct1, correct2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        first, second = self._moments
        for start in range(lo, hi, BLOCK):
            end = min(start + BLOCK, hi)
            n = end - start
            a, b = scratch[0][:n], scratch[1][:n]
            g = grad[start - lo:end - lo]
            data, m, v = self.buffer[start:end], first[start:end], second[start:end]
            np.multiply(g, keep1, out=b)
            m *= beta1
            m += b
            np.multiply(g, g, out=b)
            b *= keep2
            v *= beta2
            v += b
            update = np.divide(m, correct1, out=a)
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            update /= b
            if self.weight_decay > 0.0:
                np.multiply(data, self.weight_decay, out=b)
                update += b
            update *= lr_t
            data -= update


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
    The backward runs ``optimizer.start_step``, so each parameter of
    ``BLOCK`` elements or more is updated, half of it on the worker thread,
    as soon as its gradient is final, and the gradient is dropped once the
    update is done; ``optimizer.step`` then updates the rest.
    The epoch loss is that sum over ``len(items)``. After the epoch,
    ``validate(epoch)`` returns the validation loss and accuracy (or
    ``None``). With ``keep_best``, the optimizer's parameters end as they
    were after the epoch with the strictly lowest validation loss.
    """
    history: list[EpochStats] = []
    best_loss = float("inf")
    best_params: np.ndarray | None = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(items))
        epoch_loss = 0.0
        correct = 0
        counted = 0
        for start in range(0, len(order), batch_size):
            loss, factor, c, n = batch_loss([items[i] for i in order[start:start + batch_size]])
            loss.backward(optimizer.start_step)
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
                best_params = optimizer.buffer.copy()
        history.append(stats)
        shown = (("acc", stats.accuracy), ("val_loss", stats.val_loss),
                 ("val_acc", stats.val_accuracy))
        log.info("%s epoch %d: loss %.4f%s", name, epoch, stats.loss,
                 "".join(f" {label} {value:.4f}" for label, value in shown if value is not None))
    if best_params is not None:
        optimizer.buffer[...] = best_params
    return history
