"""Transformer building blocks shared by the encoder and decoder.

Post-layer-norm residual arrangement throughout: sublayer output is added to
the residual stream and then normalized. Attention splits the hidden size
into equal heads and scales scores by 1/sqrt(head_dim). Self-attention can
also run incrementally, one new position per batch row, against a
``KVCache`` of the keys and values of every earlier position.

Batch layout: a batch of b sequences, right-padded to a common length t,
travels between layers as a 2-D ``[b·t, hidden]`` tensor whose row i·t + j
is position j of sequence i, so every position-wise layer (linear, layer
norm, GELU, feed-forward, heads) treats it as plain rows. Only
self-attention needs the sequence boundaries: it takes the batch size,
works on ``[b·heads, t, head_dim]`` stacks, and takes an additive mask
(``MASK_FILL`` on every score a query must not see, such as padded keys)
that broadcasts to ``[b, t, t]``.

Every layer and model is a ``Module``, and a parameter's name is its
attribute path: a trainable ``Tensor`` attribute is named after the
attribute, a ``Module`` attribute nests its parameters under ``name.``, and
item i of the list ``blocks`` nests under ``block{i}.`` (so
``block0.attn.wq.weight``). Checkpoints store parameters under these names.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, dropout, gather_rows, gelu, init_normal, layer_norm, matmul, softmax

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-12
MASK_FILL = -1e9


class Module:
    """A layer or model whose parameters are found by walking its attributes."""

    def named_parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor under its attribute-path name, in attribute order."""
        params: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                params[name] = value
            elif isinstance(value, Module):
                params.update(value._nested(name))
            elif name == "blocks":
                for i, block in enumerate(value):
                    params.update(block._nested(f"block{i}"))
        return params

    def _nested(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": p for name, p in self.named_parameters().items()}


class Projection(Module):
    """Bias-free linear map ``x @ weight``."""

    def __init__(self, rng: np.random.Generator | None, in_dim: int, out_dim: int, dtype=np.float32):
        self.weight = init_normal(rng, (in_dim, out_dim), INIT_STD, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight)


class Linear(Projection):
    def __init__(self, rng: np.random.Generator | None, in_dim: int, out_dim: int, dtype=np.float32):
        super().__init__(rng, in_dim, out_dim, dtype)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return super().__call__(x) + self.bias


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = LAYER_NORM_EPS):
        self.gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, self.eps)


def causal_mask(t: int, dtype) -> np.ndarray:
    """Additive mask [t, t] hiding positions j > i; large negative, kept finite."""
    return np.triu(np.full((t, t), MASK_FILL, dtype=dtype), k=1)


def padding_mask(lengths, t: int, dtype) -> np.ndarray:
    """Additive key mask [b, 1, t] hiding each sequence's positions past its length."""
    padded = np.arange(t) >= np.asarray(lengths)[:, None]
    return np.where(padded, MASK_FILL, 0.0).astype(dtype)[:, None, :]


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


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over ``num_heads`` parallel heads.

    ``x`` holds ``batch`` sequences of t positions as ``[batch·t, hidden]``
    rows; queries, keys and values all come from ``x``. ``mask`` is added to
    the scores and must broadcast to ``[batch, t, t]``. With ``cache`` given,
    ``x`` holds one new position per batch row (``[b, hidden]``): its keys
    and values are appended to the cache and its queries attend over every
    cached position. The cache holds only past positions, so no mask is
    needed.
    """

    def __init__(self, rng: np.random.Generator | None, hidden: int, num_heads: int, dtype=np.float32):
        if hidden % num_heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by {num_heads} heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.wq = Linear(rng, hidden, hidden, dtype)
        self.wk = Linear(rng, hidden, hidden, dtype)
        self.wv = Linear(rng, hidden, hidden, dtype)
        self.wo = Linear(rng, hidden, hidden, dtype)

    def __call__(self, x: Tensor, batch: int = 1, mask: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        if cache is not None:
            return self._step(x, cache)
        b, nh, hd = batch, self.num_heads, self.head_dim
        t = x.shape[0] // b
        q = self.wq(x).reshape((b, t, nh, hd)).transpose((0, 2, 1, 3)).reshape((b * nh, t, hd))
        k = self.wk(x).reshape((b, t, nh, hd)).transpose((0, 2, 3, 1)).reshape((b * nh, hd, t))
        v = self.wv(x).reshape((b, t, nh, hd)).transpose((0, 2, 1, 3)).reshape((b * nh, t, hd))
        scores = matmul(q, k) * (1.0 / math.sqrt(hd))
        if mask is not None:
            # batch row i's mask serves its heads i·nh .. i·nh + nh - 1
            scores = scores + Tensor(np.repeat(np.broadcast_to(mask, (b, t, t)), nh, axis=0))
        weights = softmax(scores, axis=-1)
        context = matmul(weights, v).reshape((b, nh, t, hd)).transpose((0, 2, 1, 3))
        return self.wo(context.reshape((b * t, self.hidden)))

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


class CrossAttention(Module):
    """Attention over one memory row per sequence. Softmax over a single key
    is exactly 1.0 whatever the query, so every position of the sequence gets
    the same row, ``wo(wv(memory))``; no query or key projection can matter."""

    def __init__(self, rng: np.random.Generator | None, hidden: int, dtype=np.float32):
        self.wv = Linear(rng, hidden, hidden, dtype)
        self.wo = Linear(rng, hidden, hidden, dtype)

    def __call__(self, memory: Tensor) -> Tensor:
        return self.wo(self.wv(memory))


class FeedForward(Module):
    def __init__(self, rng: np.random.Generator | None, hidden: int, ffn_size: int, dtype=np.float32):
        self.lin1 = Linear(rng, hidden, ffn_size, dtype)
        self.lin2 = Linear(rng, ffn_size, hidden, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))


def _maybe_dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None) -> Tensor:
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training forward passes need an rng for dropout")
    return dropout(x, rate, rng)


class EncoderBlock(Module):
    """Bidirectional self-attention followed by a feed-forward sublayer."""

    def __init__(self, rng: np.random.Generator | None, hidden: int, num_heads: int, ffn_size: int, dtype=np.float32):
        self.attn = MultiHeadAttention(rng, hidden, num_heads, dtype)
        self.norm_attn = LayerNorm(hidden, dtype)
        self.ffn = FeedForward(rng, hidden, ffn_size, dtype)
        self.norm_ffn = LayerNorm(hidden, dtype)

    def __call__(self, x: Tensor, batch: int, mask: np.ndarray, dropout_rate: float = 0.0,
                 train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        a = _maybe_dropout(self.attn(x, batch, mask=mask), dropout_rate, train, rng)
        x = self.norm_attn(x + a)
        f = _maybe_dropout(self.ffn(x), dropout_rate, train, rng)
        return self.norm_ffn(x + f)


class DecoderBlock(Module):
    """Causal self-attention, cross-attention on one memory row per
    sequence, feed-forward."""

    def __init__(self, rng: np.random.Generator | None, hidden: int, num_heads: int, ffn_size: int, dtype=np.float32):
        self.self_attn = MultiHeadAttention(rng, hidden, num_heads, dtype)
        self.norm_self = LayerNorm(hidden, dtype)
        self.cross_attn = CrossAttention(rng, hidden, dtype)
        self.norm_cross = LayerNorm(hidden, dtype)
        self.ffn = FeedForward(rng, hidden, ffn_size, dtype)
        self.norm_ffn = LayerNorm(hidden, dtype)

    def __call__(self, x: Tensor, memory: Tensor, batch: int, mask: np.ndarray,
                 dropout_rate: float = 0.0, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        """``memory`` is ``[batch, hidden]``; ``mask`` is the self-attention
        mask, at least causal."""
        a = _maybe_dropout(self.self_attn(x, batch, mask=mask), dropout_rate, train, rng)
        x = self.norm_self(x + a)
        # one row per position, so dropout masks each position apart
        c = gather_rows(self.cross_attn(memory), np.repeat(np.arange(batch), x.shape[0] // batch))
        c = _maybe_dropout(c, dropout_rate, train, rng)
        x = self.norm_cross(x + c)
        f = _maybe_dropout(self.ffn(x), dropout_rate, train, rng)
        return self.norm_ffn(x + f)

    def step(self, x: Tensor, cache: KVCache, cross: Tensor) -> Tensor:
        """Inference for one new position per row of ``x`` (``[b, hidden]``),
        with ``cross`` the ``cross_attn`` output of the rows' shared memory."""
        x = self.norm_self(x + self.self_attn(x, cache=cache))
        x = self.norm_cross(x + cross)
        return self.norm_ffn(x + self.ffn(x))


class PredictionHead(Module):
    """Token-prediction head: dense, GELU, layer norm, vocab projection."""

    def __init__(self, rng: np.random.Generator | None, hidden: int, vocab_size: int, dtype=np.float32):
        self.dense = Linear(rng, hidden, hidden, dtype)
        self.norm = LayerNorm(hidden, dtype)
        self.proj = Linear(rng, hidden, vocab_size, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.proj(self.norm(gelu(self.dense(x))))
