"""Transformer building blocks shared by the encoder and decoder.

Post-layer-norm residual arrangement throughout: sublayer output is added to
the residual stream and then normalized. Attention splits the hidden size
into equal heads and scales scores by 1/sqrt(head_dim). Self-attention can
also run incrementally, one new position per batch row, against a
``KVCache`` of the keys and values of every earlier position.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .tensor import Tensor, dropout, gelu, init_normal, layer_norm, matmul, softmax

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-12
MASK_FILL = -1e9


class Linear:
    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, dtype=np.float32):
        self.weight = init_normal(rng, (in_dim, out_dim), INIT_STD, dtype)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class LayerNorm:
    def __init__(self, dim: int, dtype=np.float32, eps: float = LAYER_NORM_EPS):
        self.gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, self.eps)

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.gain", self.gain
        yield f"{prefix}.bias", self.bias


def causal_mask(t: int, dtype) -> Tensor:
    """Additive mask hiding positions j > i; large negative, kept finite."""
    return Tensor(np.triu(np.full((t, t), MASK_FILL, dtype=dtype), k=1))


class KVCache:
    """Keys and values of every position one self-attention layer has seen,
    for a batch of sequences decoded one position per step.

    Keys are held as ``[b, heads, head_dim, T]`` and values as
    ``[b, heads, T, head_dim]``, so each step's products need no transpose.
    """

    def __init__(self):
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add one position per row; returns the keys and values so far."""
        if self.keys is None:
            self.keys, self.values = keys, values
        else:
            self.keys = np.concatenate((self.keys, keys), axis=3)
            self.values = np.concatenate((self.values, values), axis=2)
        return self.keys, self.values

    def keep(self, rows) -> None:
        """Drop every batch row not listed in ``rows``."""
        if self.keys is not None:
            self.keys = self.keys[rows]
            self.values = self.values[rows]


class MultiHeadAttention:
    """Scaled dot-product attention over ``num_heads`` parallel heads.

    With ``memory`` given, queries come from ``x`` and keys/values from the
    memory rows (cross-attention); otherwise all three come from ``x``.
    With ``cache`` given (self-attention only), ``x`` holds one new position
    per batch row (``[b, hidden]``): its keys and values are appended to the
    cache and its queries attend over every cached position. The cache holds
    only past positions, so no causal mask is needed.
    """

    def __init__(self, rng: np.random.Generator, hidden: int, num_heads: int, dtype=np.float32):
        if hidden % num_heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by {num_heads} heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.wq = Linear(rng, hidden, hidden, dtype)
        self.wk = Linear(rng, hidden, hidden, dtype)
        self.wv = Linear(rng, hidden, hidden, dtype)
        self.wo = Linear(rng, hidden, hidden, dtype)

    def __call__(self, x: Tensor, memory: Tensor | None = None, causal: bool = False,
                 cache: KVCache | None = None) -> Tensor:
        if cache is not None:
            return self._step(x, cache)
        source = x if memory is None else memory
        t = x.shape[0]
        s = source.shape[0]
        nh, hd = self.num_heads, self.head_dim
        q = self.wq(x).reshape((t, nh, hd)).transpose((1, 0, 2))
        k = self.wk(source).reshape((s, nh, hd)).transpose((1, 2, 0))
        v = self.wv(source).reshape((s, nh, hd)).transpose((1, 0, 2))
        scores = matmul(q, k) * (1.0 / math.sqrt(hd))
        if causal:
            if memory is not None:
                raise ValueError("causal masking applies to self-attention only")
            scores = scores + causal_mask(t, x.dtype)
        weights = softmax(scores, axis=-1)
        context = matmul(weights, v).transpose((1, 0, 2)).reshape((t, self.hidden))
        return self.wo(context)

    def _step(self, x: Tensor, cache: KVCache) -> Tensor:
        b = x.shape[0]
        nh, hd = self.num_heads, self.head_dim
        q = self.wq(x).reshape((b * nh, 1, hd))
        keys, values = cache.append(self.wk(x).data.reshape((b, nh, hd, 1)),
                                    self.wv(x).data.reshape((b, nh, 1, hd)))
        t = keys.shape[3]
        scores = matmul(q, Tensor(keys.reshape((b * nh, hd, t)))) * (1.0 / math.sqrt(hd))
        weights = softmax(scores, axis=-1)
        context = matmul(weights, Tensor(values.reshape((b * nh, t, hd)))).reshape((b, self.hidden))
        return self.wo(context)

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.wq.named_parameters(f"{prefix}.wq")
        yield from self.wk.named_parameters(f"{prefix}.wk")
        yield from self.wv.named_parameters(f"{prefix}.wv")
        yield from self.wo.named_parameters(f"{prefix}.wo")


class FeedForward:
    def __init__(self, rng: np.random.Generator, hidden: int, ffn_size: int, dtype=np.float32):
        self.lin1 = Linear(rng, hidden, ffn_size, dtype)
        self.lin2 = Linear(rng, ffn_size, hidden, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.lin1.named_parameters(f"{prefix}.lin1")
        yield from self.lin2.named_parameters(f"{prefix}.lin2")


def _maybe_dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None) -> Tensor:
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training forward passes need an rng for dropout")
    return dropout(x, rate, rng)


class EncoderBlock:
    """Bidirectional self-attention followed by a feed-forward sublayer."""

    def __init__(self, rng: np.random.Generator, hidden: int, num_heads: int, ffn_size: int, dtype=np.float32):
        self.attn = MultiHeadAttention(rng, hidden, num_heads, dtype)
        self.norm_attn = LayerNorm(hidden, dtype)
        self.ffn = FeedForward(rng, hidden, ffn_size, dtype)
        self.norm_ffn = LayerNorm(hidden, dtype)

    def __call__(self, x: Tensor, dropout_rate: float = 0.0, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        a = _maybe_dropout(self.attn(x), dropout_rate, train, rng)
        x = self.norm_attn(x + a)
        f = _maybe_dropout(self.ffn(x), dropout_rate, train, rng)
        return self.norm_ffn(x + f)

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.attn.named_parameters(f"{prefix}.attn")
        yield from self.norm_attn.named_parameters(f"{prefix}.norm_attn")
        yield from self.ffn.named_parameters(f"{prefix}.ffn")
        yield from self.norm_ffn.named_parameters(f"{prefix}.norm_ffn")


class DecoderBlock:
    """Causal self-attention, cross-attention on one memory row, feed-forward."""

    def __init__(self, rng: np.random.Generator, hidden: int, num_heads: int, ffn_size: int, dtype=np.float32):
        self.self_attn = MultiHeadAttention(rng, hidden, num_heads, dtype)
        self.norm_self = LayerNorm(hidden, dtype)
        self.cross_attn = MultiHeadAttention(rng, hidden, num_heads, dtype)
        self.norm_cross = LayerNorm(hidden, dtype)
        self.ffn = FeedForward(rng, hidden, ffn_size, dtype)
        self.norm_ffn = LayerNorm(hidden, dtype)

    def __call__(self, x: Tensor, memory: Tensor, dropout_rate: float = 0.0, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        a = _maybe_dropout(self.self_attn(x, causal=True), dropout_rate, train, rng)
        x = self.norm_self(x + a)
        c = _maybe_dropout(self.cross_attn(x, memory=memory), dropout_rate, train, rng)
        x = self.norm_cross(x + c)
        f = _maybe_dropout(self.ffn(x), dropout_rate, train, rng)
        return self.norm_ffn(x + f)

    def cross_output(self, memory: Tensor) -> Tensor:
        """Cross-attention output ``[1, hidden]`` for a single memory row.

        Softmax over one key is exactly 1.0, so every query position gets
        ``wo(wv(memory))`` whatever its own value; this is the exact output,
        not an approximation.
        """
        return self.cross_attn.wo(self.cross_attn.wv(memory))

    def step(self, x: Tensor, cache: KVCache, cross: Tensor) -> Tensor:
        """Inference for one new position per row of ``x`` (``[b, hidden]``),
        with ``cross`` from ``cross_output`` standing in for cross-attention."""
        x = self.norm_self(x + self.self_attn(x, cache=cache))
        x = self.norm_cross(x + cross)
        return self.norm_ffn(x + self.ffn(x))

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.self_attn.named_parameters(f"{prefix}.self_attn")
        yield from self.norm_self.named_parameters(f"{prefix}.norm_self")
        yield from self.cross_attn.named_parameters(f"{prefix}.cross_attn")
        yield from self.norm_cross.named_parameters(f"{prefix}.norm_cross")
        yield from self.ffn.named_parameters(f"{prefix}.ffn")
        yield from self.norm_ffn.named_parameters(f"{prefix}.norm_ffn")


class PredictionHead:
    """Token-prediction head: dense, GELU, layer norm, vocab projection."""

    def __init__(self, rng: np.random.Generator, hidden: int, vocab_size: int, dtype=np.float32):
        self.dense = Linear(rng, hidden, hidden, dtype)
        self.norm = LayerNorm(hidden, dtype)
        self.proj = Linear(rng, hidden, vocab_size, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.proj(self.norm(gelu(self.dense(x))))

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.dense.named_parameters(f"{prefix}.dense")
        yield from self.norm.named_parameters(f"{prefix}.norm")
        yield from self.proj.named_parameters(f"{prefix}.proj")
