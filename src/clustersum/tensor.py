"""Dense float tensors with reverse-mode automatic differentiation.

Every model in this package runs on this module: a numpy-backed ``Tensor``
plus a small set of differentiable operations. Each operation records itself
on a graph; ``Tensor.backward`` replays the graph in reverse topological
order and accumulates gradients on every participating node.

Storage is float32 by default, and every model is built in float32. float64
is supported end to end so gradient checks can run a high-precision shadow,
which ``Model.astype`` casts from a float32 model. Every operation computes
in its operands' storage dtype, forward and backward: matrix products go to
BLAS in that dtype, and no operation makes a full-size float64 copy. float64 is only
the accumulator of a few reductions, whose small results are cast back to the
storage dtype: the softmax denominator and its backward inner sum, the
layer_norm mean and variance and their backward means, and the
``cross_entropy`` exponential sums and loss total.

Three fused ops are one node each, ``linear`` (``x @ w + b``), ``attention``
(multi-head, around the numpy core ``attend``; keys and values are
``[b·t, hidden]`` rows and queries ``[b·r, hidden]`` rows, where r may be
fewer than t positions per sequence) and ``add_layer_norm``
(``layer_norm(x + a)``); their backwards replay the composed graphs'
expressions in the same order, so the bytes are the same. ``stable_softmax``
is the numpy softmax that ``attend`` uses and that label probabilities are
read with.

A node's first gradient becomes its ``grad`` without a copy when the op
that produced it allocated it for that one operand: linear, attention,
dropout, layer_norm, gelu and cross_entropy pass ``owned=True`` to
``_accumulate``, and so does ``add_layer_norm`` for its second operand; its
first operand gets a copy of the same array. Later gradients add into the
first.

The package has one worker thread, started here on first use, and one way
onto it: ``_beside(mine, theirs)`` runs ``theirs`` there while the caller
runs ``mine``, and returns, or raises, only once both are done. A part the
worker has not started by the time the caller is done with its own, the
caller takes back and runs itself. So every job handed to the worker is
joined before the op that handed it over returns, and the worker holds no
job between ops. ``linear`` hands it part of each product with a weight of
``BLOCK`` elements or more: forward, one column half of ``x @ w``, written
into the output whose other half the caller fills; backward, the weight
gradient, while the caller computes the input gradient. ``AdamW`` hands it
one half of each large parameter's update, which writes that half of the
parameter and its moments. ``draw_normal`` hands it about half of a new
model's large weight matrices to draw, each from a stream of its own. The
two parts of a job write disjoint slices or fresh arrays, and neither
writes what the other reads.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Callable

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True

# tanh-approximation GELU constants; differs from the exact-erf form by
# less than 1e-3 absolute over the real line.
_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

# Elements that make a parameter large. ``linear`` shares its products with
# such a weight with the worker thread, ``draw_normal`` draws such matrices
# on both threads, and ``AdamW`` updates such a parameter inside backward, in
# two halves on the two threads. It sweeps its
# flat buffers in blocks of this size: at float32, a block's parameters,
# moments, gradient and scratch (6 x 256 KiB) stay in a core's L2 cache.
BLOCK = 1 << 16

# Multiply-adds each part of a shared product must exceed. A column half of
# x @ w computes every output element with the whole product's K-ordered
# accumulation, and gave its bytes at every paper shape and row count tried
# except (2|3, 768) @ (768, 768): there each half is 10^6 multiply-adds or
# fewer, and OpenBLAS 0.3.31's small-matrix path rounds it differently (by
# about 2e-6 at unit inputs and N(0, 0.02) weights). Backward's two products
# are each computed whole, so there the rule only keeps the hand-off's cost
# off small products.
_SPLIT_MACS = 10 ** 6

_worker = None


def _start_worker():
    """The package's one worker thread, started on first use and kept off
    the CPU of the thread that starts it."""
    global _worker
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(max_workers=1, initializer=_avoid_cpu,
                                     initargs=(_current_cpu(),))
    return _worker


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where Linux reports it."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _avoid_cpu(cpu: int | None) -> None:
    """Let the calling thread run on every allowed CPU but ``cpu``. The two
    threads hand the GIL to each other between numpy calls, and on a 2-CPU
    Linux VM the scheduler kept waking the worker on the caller's CPU: the
    other CPU sat idle and the overlap gained nothing (a column-split product
    took 11.24 ms unpinned against 11.18 ms inline)."""
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError):
        pass


def _beside(mine: Callable, theirs: Callable) -> tuple:
    """``(mine(), theirs())``, with ``theirs`` on the worker while the caller
    runs ``mine``. If the worker has not started ``theirs`` by then (it is
    still busy with earlier work), the caller cancels it and runs it itself,
    so the caller never waits behind the worker's queue. Otherwise it waits
    for ``theirs`` to end, also when ``mine`` raised, since ``theirs`` may
    write what the caller reads next. An error of ``theirs`` is raised here;
    one of ``mine`` comes first."""
    future = _start_worker().submit(theirs)
    try:
        first = mine()
    finally:
        cancelled = future.cancel()
        if not cancelled:
            future.exception()  # waits for theirs without raising its error
    return first, theirs() if cancelled else future.result()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, generation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Row-major float array with an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=None,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else np.float32
        if arr.ndim == 0:
            # ascontiguousarray would promote 0-d scalars to 1-d
            self.data = np.asarray(arr, dtype=dtype)
        else:
            self.data = np.ascontiguousarray(arr, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- autodiff -----------------------------------------------------------

    def backward(self, hook: Callable[[list["Tensor"]], Callable] | None = None) -> None:
        """Accumulate gradients on every leaf (a tensor without parents, such
        as a parameter) reachable from this scalar.

        Repeated calls keep accumulating until ``grad`` is set back to
        ``None``. An interior
        node (one with parents) drops its gradient once it has handed it to
        its parents, so a batch's interior gradients are never all held at
        once.

        With ``hook``, the topological pass also counts the nodes that read
        each leaf. ``hook(leaves)`` is called with every reachable leaf
        before the first backward function runs, and the function it returns
        is called with each leaf as soon as the last node that reads it has
        run its backward, when the leaf's gradient is final. The optimizer
        uses this to update a parameter and drop its gradient mid-pass.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        readers: dict[int, int] = {}
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    if hook is not None and not parent._parents:
                        readers[id(parent)] = readers.get(id(parent), 0) + 1
                    if id(parent) not in seen:
                        stack.append((parent, False))
        final = None if hook is None else hook([n for n in order if not n._parents])
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += np.ones_like(self.data)
        if final is not None and not self._parents:
            final(self)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                if node._parents:
                    node.grad = None
            if final is not None:
                for parent in node._parents:
                    left = readers.get(id(parent))
                    if left is not None:
                        readers[id(parent)] = left - 1
                        if left == 1:
                            final(parent)


def draw_normal(rng: np.random.Generator, tensors: list[Tensor]) -> None:
    """Fill every float32 tensor of ``tensors`` with N(0, 0.02) entries
    (BERT's initializer range): tensor i is drawn in float32 from child i of
    ``rng.spawn(len(tensors))``. Spawning leaves ``rng``'s own stream where
    it was.

    Each tensor has a stream of its own, so its bytes do not depend on the
    thread that draws it. With two tensors of ``BLOCK`` elements or more,
    those are cut into two runs of about equal element count, and the
    caller draws the first run, with every smaller tensor, while the worker
    draws the second (``_beside``); otherwise the caller draws them all.
    """
    streams = list(zip(rng.spawn(len(tensors)), tensors))
    large = [s for s in streams if s[1].size >= BLOCK]
    if len(large) < 2:
        _fill_normal(streams)
        return
    small = [s for s in streams if s[1].size < BLOCK]
    ends = np.cumsum([t.size for _, t in large])
    cut = 1 + int(np.argmin(np.abs(2 * ends[:-1] - ends[-1])))
    _beside(lambda: _fill_normal(small + large[:cut]), lambda: _fill_normal(large[cut:]))


def _fill_normal(streams: list[tuple[np.random.Generator, Tensor]]) -> None:
    for stream, t in streams:
        stream.standard_normal(out=t.data, dtype=np.float32)
        t.data *= 0.02


def _common_dtype(a: Tensor, b: Tensor):
    if a.dtype != b.dtype:
        raise ValueError(f"mixed tensor dtypes: {a.dtype} vs {b.dtype}")
    return a.dtype


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data)


def _accumulate(t: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add ``grad`` into ``t.grad``; the first gradient is adopted as is when
    ``owned`` (the caller built it and hands it to no other operand) and its
    dtype, shape and C order already match, and copied otherwise."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if (owned and grad.dtype == t.data.dtype and grad.shape == t.shape
                and grad.flags.c_contiguous):
            t.grad = grad
        else:
            t.grad = np.array(grad, dtype=t.data.dtype, order="C")
    else:
        t.grad += grad.astype(t.data.dtype, copy=False)


# -- row selection and dropout ----------------------------------------------


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"row index out of range for axis of size {x.shape[0]}")
    out = x.data[idx]

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # scatter straight into the gradient: no table-sized buffer per call
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        _scatter_add_rows(x.grad, idx, grad)

    return _record(out, (x,), backward_fn)


def _scatter_add_rows(target: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(target, idx, rows)`` with the same additions in the same
    order: the k-th occurrence of every index is added in one vectorized
    pass k, and within a pass no index repeats. Without repeats that is a
    single pass."""
    if idx.size == 0:
        return
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts_group = np.empty(idx.size, dtype=bool)
    starts_group[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=starts_group[1:])
    if starts_group.all():
        target[idx] += rows
        return
    # rank of each sorted occurrence within its index's run of repeats
    position = np.arange(idx.size)
    rank = position - np.maximum.accumulate(np.where(starts_group, position, 0))
    # occurrences grouped by rank, in index order within a rank
    by_rank = order[np.argsort(rank, kind="stable")]
    counts = np.bincount(rank)
    ends = np.cumsum(counts)
    for lo, hi in zip(ends - counts, ends):
        sel = by_rank[lo:hi]
        target[idx[sel]] += rows[sel]


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scales kept activations by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    out = x.data * mask

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad * mask, owned=True)

    return _record(out, (x,), backward_fn)


# -- core math ops ----------------------------------------------------------


def _shared(w: Tensor, macs: int) -> bool:
    """Whether a product with weight ``w`` and ``macs`` multiply-adds in
    each part is shared with the worker."""
    return w.size >= BLOCK and macs > _SPLIT_MACS


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Rows ``x`` [n, in] times ``w`` [in, out], plus the bias row ``b`` if given.

    With a weight of ``BLOCK`` elements or more and more than
    ``_SPLIT_MACS`` multiply-adds in each part, the worker thread shares
    the products. Forward, the caller writes the first ``out // 2`` columns
    of the output and the worker the rest. Backward, the worker computes the
    weight gradient while the caller computes the input gradient; both are
    accumulated before the backward returns, so the weight's gradient is
    final when its last reader is done. Either way, the caller computes a
    part itself if the worker has not started it by then (``_beside``), and
    the bytes are those of the whole products.
    """
    _common_dtype(x, w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.shape} x {w.shape}")
    (n, k), half = x.shape, w.shape[1] // 2
    if _shared(w, n * k * half):
        xd, wd = x.data, w.data
        out = np.empty((n, wd.shape[1]), xd.dtype)
        _beside(lambda: np.matmul(xd, wd[:, :half], out=out[:, :half]),
                lambda: np.matmul(xd, wd[:, half:], out=out[:, half:]))
    else:
        out = x.data @ w.data
    if b is not None:
        out += b.data

    def backward_fn(grad: np.ndarray) -> None:
        if b is not None and b.requires_grad:
            _accumulate(b, grad.sum(axis=(0,)), owned=True)
        if x.requires_grad and w.requires_grad and _shared(w, grad.size * k):
            dx, dw = _beside(lambda: grad @ w.data.T, lambda: x.data.T @ grad)
            _accumulate(x, dx, owned=True)
            _accumulate(w, dw, owned=True)
            return
        if x.requires_grad:
            _accumulate(x, grad @ w.data.T, owned=True)
        if w.requires_grad:
            _accumulate(w, x.data.T @ grad, owned=True)

    return _record(out, (x, w) if b is None else (x, w, b), backward_fn)


def _row_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` (kept) with a float64 accumulator, cast back."""
    return x.sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype, copy=False)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis (kept) with a float64 accumulator, cast back.
    The bytes of ``ndarray.mean``, without its Python-level wrapper."""
    mean = x.sum(axis=-1, keepdims=True, dtype=np.float64) / x.shape[-1]
    return mean.astype(x.dtype, copy=False)


def stable_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of an array along ``axis``, without a graph: the maximum is
    subtracted first, so rows sum to 1 and large values do not overflow."""
    exps = np.exp(x - x.max(axis=axis, keepdims=True))
    return exps / _row_sum(exps, axis)


def _softmax_grad(out: np.ndarray, grad: np.ndarray, axis: int) -> np.ndarray:
    return out * (grad - _row_sum(out * grad, axis))


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
           mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of stacked heads ``q`` [..., t, d] over
    transposed keys ``k`` [..., d, s] and values ``v`` [..., s, d], without a
    graph; ``mask`` is added to the scores. Returns (weights, context)."""
    scores = q @ k
    scores *= np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=q.dtype)
    if mask is not None:
        scores += mask
    weights = stable_softmax(scores, -1)
    return weights, weights @ v


def attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Attention over ``heads`` heads of ``batch`` sequences, as one node.

    Keys and values are ``[batch·t, hidden]`` rows, t positions per
    sequence; queries are ``[batch·r, hidden]`` rows, r per sequence, which
    may be fewer than t (r = 1 asks at one position per sequence only).
    ``mask`` must broadcast to ``[batch, r, t]`` and serves every head.
    """
    _common_dtype(q, k)
    _common_dtype(q, v)
    if k.shape != v.shape or q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ValueError(f"attention needs 2-D operands of one hidden size and equal keys "
                         f"and values: {q.shape}, {k.shape}, {v.shape}")
    if q.shape[0] % batch or k.shape[0] % batch:
        raise ValueError(f"attention rows {q.shape[0]} and {k.shape[0]} are not "
                         f"{batch} sequences of equal length")
    hidden = q.shape[1]
    r, t, hd = q.shape[0] // batch, k.shape[0] // batch, hidden // heads
    qs = np.ascontiguousarray(q.data.reshape(batch, r, heads, hd).transpose(0, 2, 1, 3))
    ks = np.ascontiguousarray(k.data.reshape(batch, t, heads, hd).transpose(0, 2, 3, 1))
    vs = np.ascontiguousarray(v.data.reshape(batch, t, heads, hd).transpose(0, 2, 1, 3))
    if mask is not None:
        mask = np.broadcast_to(mask, (batch, r, t))[:, None]
    weights, context = attend(qs, ks, vs, mask)

    def merge(heads_grad: np.ndarray, axes) -> np.ndarray:
        return np.ascontiguousarray(heads_grad.transpose(axes)).reshape(-1, hidden)

    def backward_fn(grad: np.ndarray) -> None:
        d_context = np.ascontiguousarray(grad.reshape(batch, r, heads, hd).transpose(0, 2, 1, 3))
        d_weights = d_context @ np.swapaxes(vs, -1, -2)
        _accumulate(v, merge(np.swapaxes(weights, -1, -2) @ d_context, (0, 2, 1, 3)), owned=True)
        d_scores = _softmax_grad(weights, d_weights, -1)
        # scaled after the softmax backward, where the composed graph's
        # product node applied it: the other order rounds differently
        d_scores *= np.asarray(1.0 / math.sqrt(hd), dtype=d_scores.dtype)
        _accumulate(q, merge(d_scores @ np.swapaxes(ks, -1, -2), (0, 2, 1, 3)), owned=True)
        _accumulate(k, merge(np.swapaxes(qs, -1, -2) @ d_scores, (0, 3, 1, 2)), owned=True)

    return _record(merge(context, (0, 2, 1, 3)), (q, k, v), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    return _layer_norm(x, None, gain, bias, eps)


def add_layer_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-12) -> Tensor:
    """``layer_norm(x + a, gain, bias, eps)`` as one node; ``x`` and ``a``
    must have one shape."""
    _common_dtype(x, a)
    if x.shape != a.shape:
        raise ValueError(f"add_layer_norm operands differ in shape: {x.shape} vs {a.shape}")
    return _layer_norm(x, a, gain, bias, eps)


def _layer_norm(x: Tensor, a: Tensor | None, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise ValueError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {h}"
        )
    total = x.data if a is None else x.data + a.data
    centered = total - _row_mean(total)
    var = (centered * centered).sum(axis=-1, keepdims=True, dtype=np.float64) / h
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype, copy=False)
    normalized = centered * inv
    out = normalized * gain.data + bias.data

    def backward_fn(grad: np.ndarray) -> None:
        axes = tuple(range(grad.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, (grad * normalized).sum(axis=axes), owned=True)
        if bias.requires_grad:
            _accumulate(bias, grad.sum(axis=axes), owned=True)
        if x.requires_grad or (a is not None and a.requires_grad):
            d_norm = grad * gain.data
            term = d_norm - _row_mean(d_norm)
            term -= normalized * _row_mean(d_norm * normalized)
            d_total = inv * term
            if a is None:
                _accumulate(x, d_total, owned=True)
            else:
                # the first operand copies the array the second adopts
                _accumulate(x, d_total)
                _accumulate(a, d_total, owned=True)

    return _record(out, (x, gain, bias) if a is None else (x, a, gain, bias), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    xd = x.data
    # powers as products: numpy's float ``**`` is many times slower
    tanh_inner = np.tanh(_GELU_SCALE * (xd + _GELU_CUBIC * (xd * xd * xd)))
    out = 0.5 * xd * (1.0 + tanh_inner)

    def backward_fn(grad: np.ndarray) -> None:
        d_inner = _GELU_SCALE * (1.0 + 3.0 * _GELU_CUBIC * (xd * xd))
        sech2 = 1.0 - tanh_inner * tanh_inner
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * xd * sech2 * d_inner
        _accumulate(x, grad * local, owned=True)

    return _record(out, (x,), backward_fn)


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Negative log softmax probability of each target id.

    ``logits`` is [n, vocab], one row per predicted position (for a batch,
    the rows of every document in turn); ``targets`` is a length-n id
    sequence. With ``weights`` (length n), each row's loss is multiplied by
    its weight first, so one call can carry per-document means, membership
    weights or token normalization, and a weight of 0 silences a row. The
    per-row losses are summed; a mean is the sum with weights of 1/n.
    """
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects [n, vocab] logits, got {logits.shape}")
    ids = np.asarray(targets, dtype=np.intp)
    if ids.ndim != 1 or ids.shape[0] != logits.shape[0]:
        raise ValueError(f"targets shape {ids.shape} does not match logits {logits.shape}")
    vocab = logits.shape[1]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"target id out of range for vocab size {vocab}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != ids.shape:
            raise ValueError(f"weights shape {weights.shape} does not match targets {ids.shape}")
    rows = np.arange(ids.shape[0])
    shift = logits.data.max(axis=1, keepdims=True)
    sums = np.exp(logits.data - shift).sum(axis=1, dtype=np.float64)
    nll = shift[:, 0] + np.log(sums) - logits.data[rows, ids]
    if weights is not None:
        nll = nll * weights
    out = np.asarray(nll.sum(), dtype=logits.dtype)

    def backward_fn(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(logits.data - shift)
        probs /= sums.astype(probs.dtype)[:, None]
        probs[rows, ids] -= 1.0
        if weights is not None:
            probs *= weights.astype(probs.dtype)[:, None]
        probs *= grad.item()
        _accumulate(logits, probs, owned=True)

    return _record(out, (logits,), backward_fn)
