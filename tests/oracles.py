"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a route that does not
touch the library code under test: plain Python loops, numpy reference
formulas, and central finite differences. The general autograd ops, the
composed graphs and the per-cluster decode are the exceptions. The ops
(``add``, ``mul``, ``reshape``, ``reduce_sum``, ``matmul``, ``transpose``
and a graph ``softmax``) record nodes on the library's graph, so tests can
write losses and shared-operand cases with them; no model runs them. The
composed graphs build linear, attention and residual layer norm from those
ops, node by node, and the fused ops must match them byte for byte. The
per-cluster decode is the path that one decoding batch across clusters
replaced. ``rewrite_checkpoint_header`` edits a checkpoint file from the
format's layout alone, without the library's loader.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Sequence

import numpy as np

from clustersum.tensor import (
    Tensor,
    _accumulate,
    _common_dtype,
    _record,
    _softmax_grad,
    cross_entropy,
    gather_rows,
    layer_norm,
    no_grad,
    stable_softmax,
)
from clustersum.generator import filter_top_k_top_p, sample_tokens
from clustersum.tokenizer import CLS_ID, SEP_ID, mask_for_mlm


def normal_parameter(rng: np.random.Generator, shape) -> Tensor:
    """A trainable float32 tensor of N(0, 0.02) entries drawn in float64
    from ``rng``: a plain random parameter for the op and optimizer tests."""
    return Tensor(rng.normal(0.0, 0.02, size=shape).astype(np.float32), requires_grad=True)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def naive_softmax(row: np.ndarray) -> np.ndarray:
    exps = [math.exp(float(v) - float(max(row))) for v in row]
    total = sum(exps)
    return np.array([e / total for e in exps])


def naive_nll(logits: np.ndarray, targets) -> float:
    total = 0.0
    for row, t in zip(logits, targets):
        probs = naive_softmax(row)
        total += -math.log(probs[t])
    return total


# -- general autograd ops ----------------------------------------------------
# Tests build losses and composed graphs from these; the library's linear and
# attention are single nodes. ``add`` and ``mul`` take a Tensor and a Tensor,
# array or number; a non-Tensor becomes a constant of the first operand's
# dtype.


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    """Broadcasting sum. Both operands may get the one incoming array (or a
    view of it), so neither adopts it: ``_accumulate`` copies."""
    b = _as_tensor(b, a.dtype)
    _common_dtype(a, b)
    out = a.data + b.data

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(grad, a.shape))
        _accumulate(b, _unbroadcast(grad, b.shape))

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    """Broadcasting elementwise product."""
    b = _as_tensor(b, a.dtype)
    _common_dtype(a, b)
    out = a.data * b.data

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad * a.data, b.shape), owned=True)

    return _record(out, (a, b), backward_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, grad.reshape(x.shape))

    return _record(out, (x,), backward_fn)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum with a float64 accumulator, cast back to the storage dtype."""
    out = np.asarray(x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64), dtype=x.dtype)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _record(out, (x,), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along ``axis``; rows sum to 1."""
    out = stable_softmax(x.data, axis)

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, _softmax_grad(out, grad, axis), owned=True)

    return _record(out, (x,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, or stacked 3-D with equal batch dims."""
    _common_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs matrices, got shapes {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, grad @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ grad, owned=True)

    return _record(out, (a, b), backward_fn)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    inverse = np.argsort(axes)
    out = np.ascontiguousarray(np.transpose(x.data, axes))

    def backward_fn(grad: np.ndarray) -> None:
        _accumulate(x, np.transpose(grad, inverse))

    return _record(out, (x,), backward_fn)


# -- composed graphs the fused ops must reproduce byte for byte -------------


def composed_linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = matmul(x, w)
    return out if b is None else add(out, b)


def composed_attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int,
                       mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention of ``[batch·r, hidden]`` query rows over
    ``[batch·t, hidden]`` key and value rows as the graph of reshapes,
    transposes, matmuls, scale, mask add and softmax it once was."""
    b, nh = batch, heads
    r, t, hidden = q.shape[0] // b, k.shape[0] // b, q.shape[1]
    hd = hidden // nh
    qs = reshape(transpose(reshape(q, (b, r, nh, hd)), (0, 2, 1, 3)), (b * nh, r, hd))
    ks = reshape(transpose(reshape(k, (b, t, nh, hd)), (0, 2, 3, 1)), (b * nh, hd, t))
    vs = reshape(transpose(reshape(v, (b, t, nh, hd)), (0, 2, 1, 3)), (b * nh, t, hd))
    scores = mul(matmul(qs, ks), 1.0 / math.sqrt(hd))
    if mask is not None:
        # batch row i's mask serves its heads i·nh .. i·nh + nh - 1
        scores = add(scores, Tensor(np.repeat(np.broadcast_to(mask, (b, r, t)), nh, axis=0)))
    context = transpose(reshape(matmul(softmax(scores, axis=-1), vs), (b, nh, r, hd)),
                        (0, 2, 1, 3))
    return reshape(context, (b * r, hidden))


def composed_add_layer_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                            eps: float = 1e-12) -> Tensor:
    return layer_norm(add(x, a), gain, bias, eps)


def graph_nodes(out: Tensor, inputs: Sequence[Tensor] = ()) -> int:
    """Number of recorded op nodes between ``inputs`` and ``out``."""
    stop = {id(t) for t in inputs}
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop or node._backward_fn is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def parameter_hash(model) -> str:
    """SHA-256 over all of a model's parameter names and payloads."""
    digest = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def rewrite_checkpoint_header(path, edit) -> None:
    """Replace the JSON header of the checkpoint file at ``path`` by
    ``edit(header)``, keeping its payloads on their 64-byte boundaries."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    payloads = rest[-(len(magic) + len(header) + 2) % 64:]
    header = json.dumps(edit(json.loads(header))).encode("utf-8")
    path.write_bytes(magic + b"\n" + header + b"\n"
                     + bytes(-(len(magic) + len(header) + 2) % 64) + payloads)


def dense_gather_rows_grad(existing, shape, dtype, indices, grad: np.ndarray) -> np.ndarray:
    """Gradient of a row-gathered tensor after one ``gather_rows`` backward,
    by the dense route: scatter ``grad`` into a zero buffer of the whole
    table, then take the buffer as the gradient or add it to ``existing``."""
    buffer = np.zeros(shape, dtype=dtype)
    np.add.at(buffer, np.asarray(indices, dtype=np.intp), grad)
    return buffer if existing is None else existing + buffer


def brute_force_lcs(a, b) -> int:
    """Longest common subsequence by enumerating all subsequences of a."""
    best = 0
    n = len(a)
    for mask in range(1 << n):
        sub = [a[i] for i in range(n) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def reference_lcs(a, b) -> int:
    """Classic full-table DP, written independently of the library."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def reference_filter(probs: np.ndarray, k: int, p: float) -> np.ndarray:
    """Top-k then minimal prefix with mass >= p, by explicit enumeration."""
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    survivors = order[:k]
    kept = []
    mass = 0.0
    for i in survivors:
        kept.append(i)
        mass += probs[i]
        if mass >= p:
            break
    out = np.zeros_like(np.asarray(probs, dtype=np.float64))
    for i in kept:
        out[i] = probs[i]
    return out / out.sum()


def reference_draw(filtered: np.ndarray, u: float) -> int:
    """Invert the CDF over the nonzero entries only, at ``u`` in [0, 1];
    a scaled value at or past the total takes the last nonzero id."""
    support = np.flatnonzero(filtered)
    cumulative = np.cumsum(filtered[support])
    r = u * cumulative[-1]
    idx = int(np.searchsorted(cumulative, r, side="right"))
    return int(support[min(idx, support.size - 1)])


def finite_difference(forward, array: np.ndarray, flat_index: int, step: float) -> float:
    original = array.flat[flat_index]
    array.flat[flat_index] = original + step
    plus = forward()
    array.flat[flat_index] = original - step
    minus = forward()
    array.flat[flat_index] = original
    return (plus - minus) / (2.0 * step)


def assert_gradients_match(
    make_loss,
    arrays,
    rng: np.random.Generator,
    dtype=np.float32,
    num_coords: int = 120,
    step: float | None = None,
    rtol: float | None = None,
    atol: float | None = None,
) -> int:
    """Check analytic gradients of ``make_loss(tensors)`` against central
    differences at randomly chosen coordinates; returns how many were checked.
    """
    dtype = np.dtype(dtype)
    if step is None:
        step = 1e-3 if dtype == np.float32 else 1e-5
    if rtol is None:
        rtol = 1e-2 if dtype == np.float32 else 1e-4
    if atol is None:
        atol = 1e-3 if dtype == np.float32 else 1e-8
    arrays = [np.array(a, dtype=dtype) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in arrays]
    make_loss(tensors).backward()

    def forward() -> float:
        fresh = [Tensor(a.copy(), dtype=dtype) for a in arrays]
        return make_loss(fresh).item()

    pairs = [(i, j) for i, a in enumerate(arrays) for j in range(a.size)]
    if len(pairs) > num_coords:
        chosen = rng.choice(len(pairs), size=num_coords, replace=False)
        pairs = [pairs[int(c)] for c in chosen]
    for which, flat in pairs:
        numeric = finite_difference(forward, arrays[which], flat, step)
        analytic = float(tensors[which].grad.flat[flat])
        assert np.isclose(analytic, numeric, rtol=rtol, atol=atol), (
            f"gradient mismatch at tensor {which} coord {flat}: "
            f"analytic {analytic:.6g} vs numeric {numeric:.6g} ({dtype})"
        )
    return len(pairs)


def reference_candidate_ids(decoder, center, vocab, config, cluster: int,
                            candidate: int) -> list[int]:
    """One candidate decoded alone, re-running the full prefix every step.

    This is the straightforward loop the batched, cached config must
    reproduce token for token: the same (seed, cluster, candidate) RNG
    stream, but a 1-D filter and draw of its own, no key/value cache and no
    batch.
    """
    rng = np.random.default_rng([config.seed, cluster, candidate])
    k = min(config.top_k, vocab.size)
    prefix = [CLS_ID]
    generated: list[int] = []
    with no_grad():
        while len(generated) < config.max_summary_len:
            logits = decoder.forward([prefix], np.reshape(center, (1, -1)))
            last = (logits.data[-1] / config.temperature).astype(np.float64)
            exps = np.exp(last - last.max())
            token = reference_draw(reference_filter(exps / exps.sum(), k, config.top_p),
                                   rng.random())
            generated.append(token)
            prefix.append(token)
            if token == SEP_ID:
                break
    return generated


def per_cluster_candidate_ids(decoder, center, vocab, config, cluster: int) -> list[list[int]]:
    """Every candidate of one cluster, decoded as a batch of that cluster's
    candidates alone against a key/value cache of its own.

    This is the per-cluster decode that one batch across clusters replaced:
    the same (seed, cluster, candidate) RNG streams, row-wise filter and
    draw, and every row kept until all have stopped, but only one center in
    the cache and one cluster in the batch.
    """
    n = config.num_candidates
    k = min(config.top_k, vocab.size)
    rngs = [np.random.default_rng([config.seed, cluster, s]) for s in range(n)]
    generated: list[list[int]] = [[] for _ in rngs]
    tokens = [CLS_ID] * n
    cache = decoder.start_cache(np.reshape(center, (1, -1)), n)
    for _ in range(config.max_summary_len):
        logits = decoder.step(tokens, cache).data / config.temperature
        exps = np.exp(logits.astype(np.float64) - logits.max(axis=-1, keepdims=True))
        filtered = filter_top_k_top_p(exps / exps.sum(axis=-1, keepdims=True), k,
                                      config.top_p)
        tokens = sample_tokens(filtered, np.array([rng.random() for rng in rngs]))
        for ids, token in zip(generated, tokens.tolist()):
            if SEP_ID not in ids:
                ids.append(token)
        if all(SEP_ID in ids for ids in generated):
            break
    return generated


def full_cross_attention(queries: np.ndarray, memory: np.ndarray, projections: dict,
                         num_heads: int) -> np.ndarray:
    """Multi-head scaled dot-product attention of every query row over one
    memory row, by the textbook formula with nothing skipped: queries and
    keys are projected, scored, scaled and soft-maxed per head.
    ``projections`` maps ``wq``, ``wk``, ``wv`` and ``wo`` to (weight, bias)
    pairs, where a bias may be a scalar; the result has one row per query."""
    t, hidden = queries.shape
    hd = hidden // num_heads

    def project(x, name):
        weight, bias = projections[name]
        return x @ weight + bias

    q = project(queries, "wq").reshape(t, num_heads, hd)
    k = project(memory, "wk").reshape(1, num_heads, hd)
    v = project(memory, "wv").reshape(1, num_heads, hd)
    scores = np.einsum("thd,shd->hts", q, k) / math.sqrt(hd)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    context = np.einsum("hts,shd->thd", weights, v).reshape(t, hidden)
    return project(context, "wo")


def init_name_mapping(num_blocks: int) -> dict[str, str]:
    """Decoder parameter name -> encoder parameter it is initialized from,
    written out by hand, one entry per parameter."""
    mapping = {
        "word_embedding": "word_embedding",
        "position_embedding": "position_embedding",
        "embed_norm.gain": "embed_norm.gain",
        "embed_norm.bias": "embed_norm.bias",
    }
    for part in ("dense.weight", "dense.bias", "norm.gain", "norm.bias",
                 "proj.weight", "proj.bias"):
        mapping[f"lm_head.{part}"] = f"mlm_head.{part}"
    for i in range(num_blocks):
        for proj in ("wq", "wk", "wv", "wo"):
            for part in ("weight",) if proj == "wk" else ("weight", "bias"):
                mapping[f"block{i}.self_attn.{proj}.{part}"] = f"block{i}.attn.{proj}.{part}"
                if proj in ("wv", "wo"):
                    mapping[f"block{i}.cross_attn.{proj}.{part}"] = f"block{i}.attn.{proj}.{part}"
        for part in ("gain", "bias"):
            mapping[f"block{i}.norm_self.{part}"] = f"block{i}.norm_attn.{part}"
            mapping[f"block{i}.norm_cross.{part}"] = f"block{i}.norm_attn.{part}"
            mapping[f"block{i}.norm_ffn.{part}"] = f"block{i}.norm_ffn.{part}"
        for lin in ("lin1", "lin2"):
            for part in ("weight", "bias"):
                mapping[f"block{i}.ffn.{lin}.{part}"] = f"block{i}.ffn.{lin}.{part}"
    return mapping


# -- per-document references for the batched encoder and decoder paths ------
# Each runs one forward per document (a batch of one, so no padding) and
# accumulates per-document gradients, as training did before batching. The
# [CLS] references run the full forward, every position through the last
# block, and keep row 0.


def full_forward_cls(encoder, ids) -> Tensor:
    """[CLS] row ``[1, h]`` of one document's full forward."""
    return gather_rows(encoder.forward([ids]), [0])


def per_document_embeddings(encoder, docs) -> np.ndarray:
    with no_grad():
        return np.stack([full_forward_cls(encoder, d.ids).data[0] for d in docs])


def per_document_mlm_loss(model, docs, rate: float, rng: np.random.Generator,
                          batch_size: int) -> float:
    """Each document in turn: draw its mask, forward, masked-position mean
    loss times 1/batch_size, backward. Returns the summed loss."""
    total = 0.0
    for doc in docs:
        masked, positions, originals = mask_for_mlm(doc, rate, rng)
        hidden = model.forward([masked])
        loss = cross_entropy(model.mlm_logits(hidden, positions), originals,
                             weights=np.full(len(originals), 1.0 / len(originals)))
        mul(loss, 1.0 / batch_size).backward()
        total += loss.item() / batch_size
    return total


def per_document_classifier_loss(model, docs, batch_size: int) -> float:
    """Each document in turn: forward, label loss times 1/batch_size, backward."""
    total = 0.0
    for doc in docs:
        logits = model.classifier(full_forward_cls(model, doc.ids))
        loss = mul(cross_entropy(logits, [doc.label]), 1.0 / batch_size)
        loss.backward()
        total += loss.item()
    return total


def per_document_weighted_loss(decoder, examples) -> Tensor:
    """Membership-weighted sum of per-document token NLL sums, one forward
    per document, divided by the batch's token count."""
    total = None
    tokens = 0
    for e in examples:
        logits = decoder.forward([e.input_ids], e.embedding[None])
        doc_loss = mul(cross_entropy(logits, e.target_ids), e.weight)
        total = doc_loss if total is None else add(total, doc_loss)
        tokens += len(e.target_ids)
    return mul(total, 1.0 / tokens)


def reference_adamw_update(data: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                           t: int, lr_t: float, betas: tuple[float, float], eps: float,
                           weight_decay: float) -> None:
    """One AdamW update of ``data``, ``m`` and ``v`` in place, written as
    whole-array expressions with a fresh temporary per operation."""
    beta1, beta2 = betas
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    update = m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay > 0.0:
        update = update + weight_decay * data
    data -= (lr_t * update).astype(data.dtype, copy=False)
