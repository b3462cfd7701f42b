"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a route that does not
touch the library code under test: plain Python loops, numpy reference
formulas, and central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from clustersum.generator import filter_top_k_top_p, sample_token
from clustersum.tensor import Tensor, cross_entropy, no_grad
from clustersum.tokenizer import mask_for_mlm


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


def reference_candidate_ids(decoder, center, vocab, sampler, cluster: int, candidate: int) -> list[int]:
    """One candidate decoded alone, re-running the full prefix every step.

    This is the straightforward loop the batched, cached sampler must
    reproduce token for token: the same (seed, cluster, candidate) RNG
    stream, the same filter and draw, no key/value cache and no batch.
    """
    rng = np.random.default_rng([sampler.seed, cluster, candidate])
    k = min(sampler.top_k, vocab.size)
    prefix = [sampler.start_token_id]
    generated: list[int] = []
    with no_grad():
        while len(generated) < sampler.max_summary_len:
            logits = decoder.forward([prefix], center, train=False)
            last = (logits.data[-1] / sampler.temperature).astype(np.float64)
            exps = np.exp(last - last.max())
            filtered = filter_top_k_top_p(exps / exps.sum(), k, sampler.top_p,
                                          sampler.filter_order)
            token = sample_token(filtered, rng)
            generated.append(token)
            prefix.append(token)
            if token == vocab.sep_id:
                break
    return generated


def full_cross_attention(queries: np.ndarray, memory: np.ndarray, projections: dict,
                         num_heads: int) -> np.ndarray:
    """Multi-head scaled dot-product attention of every query row over one
    memory row, by the textbook formula with nothing skipped: queries and
    keys are projected, scored, scaled and soft-maxed per head.
    ``projections`` maps ``wq``, ``wk``, ``wv`` and ``wo`` to (weight, bias)
    pairs; the result has one row per query."""
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
            for part in ("weight", "bias"):
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
# accumulates per-document gradients, as training did before batching.


def per_document_embeddings(encoder, docs) -> np.ndarray:
    with no_grad():
        return np.stack([encoder.forward([d.ids])[1].data[0] for d in docs])


def per_document_mlm_loss(model, docs, rate: float, rng: np.random.Generator,
                          batch_size: int) -> float:
    """Each document in turn: draw its mask, forward, masked-position mean
    loss times 1/batch_size, backward. Returns the summed loss."""
    total = 0.0
    for doc in docs:
        masked, positions, originals = mask_for_mlm(doc, rate=rate, rng=rng)
        hidden, _ = model.forward([masked])
        loss = cross_entropy(model.mlm_logits(hidden, positions), originals, reduction="mean")
        (loss * (1.0 / batch_size)).backward()
        total += loss.item() / batch_size
    return total


def per_document_classifier_loss(model, docs, batch_size: int) -> float:
    """Each document in turn: forward, label loss times 1/batch_size, backward."""
    total = 0.0
    for doc in docs:
        _, embedding = model.forward([doc.ids])
        loss = cross_entropy(model.classifier(embedding), [doc.label]) * (1.0 / batch_size)
        loss.backward()
        total += loss.item()
    return total


def per_document_weighted_loss(decoder, examples, normalize: str) -> Tensor:
    """Membership-weighted sum of per-document token NLL sums, one forward
    per document, optionally divided by the batch's token count."""
    total = None
    tokens = 0
    for e in examples:
        logits = decoder.forward([e.input_ids], e.embedding)
        doc_loss = cross_entropy(logits, e.target_ids) * e.weight
        total = doc_loss if total is None else total + doc_loss
        tokens += len(e.target_ids)
    return total * (1.0 / tokens) if normalize == "tokens" else total


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
