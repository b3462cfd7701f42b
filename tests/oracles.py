"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a route that does not
touch the library code under test: plain Python loops, numpy reference
formulas, and central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from clustersum.generator import filter_top_k_top_p, sample_token
from clustersum.tensor import Tensor, no_grad


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
            logits = decoder.forward(np.asarray(prefix), center, train=False)
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
