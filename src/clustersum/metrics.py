"""Evaluation: n-gram and subsequence overlap scores against references,
and reference-free cosine surrogates.

Overlap scoring tokenizes with the pipeline tokenizer, no stemming or
stopword removal. With several references per cluster, the reported score
is the one with the best F1.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, candidate_total: int, reference_total: int) -> "RougeScore":
        p = overlap / candidate_total if candidate_total > 0 else 0.0
        r = overlap / reference_total if reference_total > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f1)

    @classmethod
    def zero(cls) -> "RougeScore":
        return cls(0.0, 0.0, 0.0)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        log.debug("rouge-%d on a side shorter than %d tokens; scoring zero", n, n)
        return RougeScore.zero()
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return RougeScore.from_counts(overlap, cand_total, ref_total)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        row = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = max(prev[j], row[j - 1])
        prev = row
    return prev[len(b)]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    if not candidate or not reference:
        log.debug("rouge-l with an empty side; scoring zero")
        return RougeScore.zero()
    lcs = _lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


def best_rouge(candidate: Sequence[str], references: Sequence[Sequence[str]],
               kind: str, n: int = 1) -> RougeScore:
    """Score against several references and keep the best-F1 one."""
    if not references:
        raise ValueError("need at least one reference")
    if kind == "l":
        scores = [rouge_l(candidate, ref) for ref in references]
    elif kind == "n":
        scores = [rouge_n(candidate, ref, n) for ref in references]
    else:
        raise ValueError(f"unknown score kind {kind!r}")
    return max(scores, key=lambda s: s.f1)


# -- cosine surrogates --------------------------------------------------------


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(u @ v / (nu * nv))


def cosine_center(summary_embeddings: np.ndarray, centers: np.ndarray) -> float:
    """Mean cosine between each cluster's summary embedding and its center."""
    summary_embeddings = np.atleast_2d(np.asarray(summary_embeddings, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if summary_embeddings.shape != centers.shape:
        raise ValueError(
            f"need one summary embedding per center: {summary_embeddings.shape} vs {centers.shape}"
        )
    values = [cosine_similarity(s, c) for s, c in zip(summary_embeddings, centers)]
    return float(np.mean(values))


def cosine_top_k(
    summary_embeddings: np.ndarray,
    doc_embeddings: np.ndarray,
    doc_ids: Sequence[str],
    assignment: np.ndarray,
    centers: np.ndarray,
    k: int,
) -> float:
    """Mean cosine between each cluster's summary embedding and the k member
    documents nearest that cluster's center (ties on distance break by
    doc_id), averaged over clusters. Clusters smaller than k use all members.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    summary_embeddings = np.atleast_2d(np.asarray(summary_embeddings, dtype=np.float64))
    doc_embeddings = np.asarray(doc_embeddings, dtype=np.float64)
    assignment = np.asarray(assignment)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    per_cluster = []
    for c in range(centers.shape[0]):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            raise ValueError(f"cluster {c} has no members")
        take = min(k, members.size)
        if take < k:
            log.debug("cluster %d has only %d members for top-%d; using all", c, members.size, k)
        dist = np.linalg.norm(doc_embeddings[members] - centers[c], axis=1)
        order = sorted(range(members.size), key=lambda i: (dist[i], doc_ids[members[i]]))
        chosen = members[[order[i] for i in range(take)]]
        sims = [cosine_similarity(summary_embeddings[c], doc_embeddings[d]) for d in chosen]
        per_cluster.append(float(np.mean(sims)))
    return float(np.mean(per_cluster))
