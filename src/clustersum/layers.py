"""Transformer building blocks shared by the encoder and decoder.

Post-layer-norm residual arrangement throughout: sublayer output is added to
the residual stream and then normalized, ``LayerNorm(x, residual)``, which is
one graph node (``tensor.add_layer_norm``). Attention splits the hidden size
into equal heads and scales scores by 1/sqrt(head_dim); everything between
the query/key/value projections and the output projection is one graph node
(``tensor.attention``). Self-attention can also run incrementally, one new
position per batch row, against a ``KVCache`` of the keys and values of
every earlier position, through the same numpy core (``tensor.attend``);
that path is a method of its own, ``step``, on the attention and on the
decoder block.

A block takes the forward's dropout as a function (``dropout_from``),
which draws from the forward's generator or, without one, returns its
input. Layers are built as float32 shells, with zero weights and biases and
unit gains, and take no generator: a model draws all its weight matrices at
once, after its last layer exists (``Module.draw``). float64 is a cast
(``Model.astype``).

Batch layout: a batch of b sequences, right-padded to a common length t,
travels between layers as a 2-D ``[b·t, hidden]`` tensor whose row i·t + j
is position j of sequence i, so every position-wise layer (linear, layer
norm, GELU, feed-forward, heads) treats it as plain rows. Only
self-attention needs the sequence boundaries: it takes the batch size,
works on ``[b, heads, t, head_dim]`` stacks, and takes an additive mask
(``MASK_FILL`` on every score a query must not see, such as padded keys)
that broadcasts to ``[b, t, t]``. An encoder block can also ask at r < t
rows per sequence (the encoder's last block asks at [CLS] only): keys and
values still cover all t positions, queries are ``[b·r, hidden]`` rows, the
mask broadcasts to ``[b, r, t]``, and everything after attention runs on
the r rows.

Every layer and model is a ``Module``, and a parameter's name is its
attribute path: a trainable ``Tensor`` attribute is named after the
attribute, a ``Module`` attribute nests its parameters under ``name.``, and
item i of the list ``blocks`` nests under ``block{i}.`` (so
``block0.attn.wq.weight``). Checkpoints store parameters under these names.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import (Tensor, add_layer_norm, attend, attention, draw_normal, dropout,
                     gather_rows, gelu, layer_norm, linear)

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

    def draw(self, rng: np.random.Generator | None) -> None:
        """Draw every weight matrix (2-D parameter), in ``named_parameters``
        order, with ``draw_normal``; vectors keep their constant init. With
        no generator nothing is drawn and the matrices stay zero shells, for
        a model whose parameters are set after."""
        if rng is not None:
            draw_normal(rng, [p for p in self.named_parameters().values() if p.ndim == 2])


def parameter(*shape: int) -> Tensor:
    """A trainable float32 tensor of zeros: a bias, or a weight shell that a
    draw (``Module.draw``) or a load fills."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


class Projection(Module):
    """Bias-free linear map ``x @ weight``."""

    def __init__(self, in_dim: int, out_dim: int):
        self.weight = parameter(in_dim, out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight)


class Linear(Projection):
    def __init__(self, in_dim: int, out_dim: int):
        super().__init__(in_dim, out_dim)
        self.bias = parameter(out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = parameter(dim)

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        if residual is None:
            return layer_norm(x, self.gain, self.bias, LAYER_NORM_EPS)
        return add_layer_norm(x, residual, self.gain, self.bias, LAYER_NORM_EPS)


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


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over ``num_heads`` parallel heads.

    ``x`` holds ``batch`` sequences of t positions as ``[batch·t, hidden]``
    rows; keys and values come from ``x``, and so do the queries unless
    ``queries`` gives r rows of ``x`` per sequence (``[batch·r, hidden]``),
    in which case the output has those rows only. ``mask`` is added to the
    scores and must broadcast to ``[batch, r, t]``. ``step`` is the cached
    form.

    The key projection has no bias: it would add the same amount to every
    score of a query row, which softmax cancels, so its gradient is zero.
    """

    def __init__(self, hidden: int, num_heads: int):
        if hidden % num_heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by {num_heads} heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.wq = Linear(hidden, hidden)
        self.wk = Projection(hidden, hidden)
        self.wv = Linear(hidden, hidden)
        self.wo = Linear(hidden, hidden)

    def __call__(self, x: Tensor, batch: int = 1, mask: np.ndarray | None = None,
                 queries: Tensor | None = None) -> Tensor:
        q = self.wq(x if queries is None else queries)
        return self.wo(attention(q, self.wk(x), self.wv(x), batch, self.num_heads, mask))

    def step(self, x: Tensor, cache: KVCache) -> Tensor:
        """One new position per batch row (``x`` is ``[b, hidden]``): its
        keys and values are appended to ``cache`` and its queries attend
        over every cached position. The cache holds only past positions, so
        no mask is needed."""
        b = x.shape[0]
        nh, hd = self.num_heads, self.head_dim
        q = self.wq(x).data.reshape((b, nh, 1, hd))
        keys, values = cache.append(self.wk(x).data.reshape((b, nh, hd, 1)),
                                    self.wv(x).data.reshape((b, nh, 1, hd)))
        _, context = attend(q, keys, values)
        return self.wo(Tensor(context.reshape((b, self.hidden))))


class CrossAttention(Module):
    """Attention over one memory row per sequence. Softmax over a single key
    is exactly 1.0 whatever the query, so every position of the sequence gets
    the same row, ``wo(wv(memory))``; no query or key projection can matter."""

    def __init__(self, hidden: int):
        self.wv = Linear(hidden, hidden)
        self.wo = Linear(hidden, hidden)

    def __call__(self, memory: Tensor) -> Tensor:
        return self.wo(self.wv(memory))


class FeedForward(Module):
    def __init__(self, hidden: int, ffn_size: int):
        self.lin1 = Linear(hidden, ffn_size)
        self.lin2 = Linear(ffn_size, hidden)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))


Dropout = Callable[[Tensor], Tensor]


def dropout_from(rng: np.random.Generator | None, rate: float) -> Dropout:
    """The dropout a forward applies to its embeddings and after each
    sublayer: inverted dropout at ``rate``, drawn from ``rng`` in call
    order. With no generator it returns its input, so a forward draws
    dropout exactly when it is given one."""
    return (lambda x: x) if rng is None else (lambda x: dropout(x, rate, rng))


class EncoderBlock(Module):
    """Bidirectional self-attention followed by a feed-forward sublayer.

    With ``rows`` (indices into the ``[batch·t, hidden]`` input, the same
    count r per sequence, sequence by sequence) the block computes only
    those ``[batch·r, hidden]`` output rows: keys and values still come
    from every position, but the query projection, the output projection,
    both residual norms, the feed-forward sublayer and its dropout run on
    the chosen rows alone.
    """

    def __init__(self, hidden: int, num_heads: int, ffn_size: int):
        self.attn = MultiHeadAttention(hidden, num_heads)
        self.norm_attn = LayerNorm(hidden)
        self.ffn = FeedForward(hidden, ffn_size)
        self.norm_ffn = LayerNorm(hidden)

    def __call__(self, x: Tensor, batch: int, mask: np.ndarray, drop: Dropout,
                 rows: np.ndarray | None = None) -> Tensor:
        q = x if rows is None else gather_rows(x, rows)
        x = self.norm_attn(q, drop(self.attn(x, batch, mask=mask, queries=q)))
        return self.norm_ffn(x, drop(self.ffn(x)))


class DecoderBlock(Module):
    """Causal self-attention, cross-attention on one memory row per
    sequence, feed-forward."""

    def __init__(self, hidden: int, num_heads: int, ffn_size: int):
        self.self_attn = MultiHeadAttention(hidden, num_heads)
        self.norm_self = LayerNorm(hidden)
        self.cross_attn = CrossAttention(hidden)
        self.norm_cross = LayerNorm(hidden)
        self.ffn = FeedForward(hidden, ffn_size)
        self.norm_ffn = LayerNorm(hidden)

    def __call__(self, x: Tensor, memory: Tensor, batch: int, mask: np.ndarray,
                 drop: Dropout) -> Tensor:
        """``memory`` is ``[batch, hidden]``; ``mask`` is the self-attention
        mask, at least causal."""
        x = self.norm_self(x, drop(self.self_attn(x, batch, mask=mask)))
        # one row per position, so dropout masks each position apart
        c = gather_rows(self.cross_attn(memory), np.repeat(np.arange(batch), x.shape[0] // batch))
        x = self.norm_cross(x, drop(c))
        return self.norm_ffn(x, drop(self.ffn(x)))

    def step(self, x: Tensor, cache: KVCache, cross: Tensor) -> Tensor:
        """Inference for one new position per row of ``x`` (``[b, hidden]``),
        with ``cross`` (``[b, hidden]``) each row's ``cross_attn`` output."""
        x = self.norm_self(x, self.self_attn.step(x, cache))
        x = self.norm_cross(x, cross)
        return self.norm_ffn(x, self.ffn(x))


class PredictionHead(Module):
    """Token-prediction head: dense, GELU, layer norm, vocab projection."""

    def __init__(self, hidden: int, vocab_size: int):
        self.dense = Linear(hidden, hidden)
        self.norm = LayerNorm(hidden)
        self.proj = Linear(hidden, vocab_size)

    def __call__(self, x: Tensor) -> Tensor:
        return self.proj(self.norm(gelu(self.dense(x))))
