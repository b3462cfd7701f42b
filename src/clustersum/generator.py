"""Summary decoding from cluster centers.

Each cluster's candidates are sampled as one batch. Every step feeds only
the newest token of each live candidate through the decoder: each
self-attention layer keeps the keys and values of all earlier positions in
a key/value cache, so a step costs one position per candidate rather than
the whole prefix. A candidate leaves the batch, and its cache rows are
dropped, when it emits [SEP] or reaches ``max_summary_len`` tokens.

Cross-attention attends to exactly one memory row, the cluster center, so
its softmax weight is exactly 1.0 and its output is ``wo(wv(center))`` at
every position. That output is computed once per cluster; the shortcut is
exact, not an approximation.

Each step filters the next-token distribution with combined top-K and
nucleus sampling, then draws one token per live candidate. Candidate s of
cluster c draws once per token of its own from an RNG stream derived from
(seed, c, s), so its tokens do not depend on how many other candidates are
decoded or when they stop, and clusters and candidates are reproducible
independently. The candidates are then embedded by the encoder as one
padded batch and re-ranked by cosine similarity between each candidate's
embedding and the cluster center.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .decoder import DecoderModel
from .encoder import EncoderModel
from .metrics import cosine_similarity
from .tensor import no_grad
from .tokenizer import CLS_ID, Vocabulary, decode, encode

log = logging.getLogger(__name__)


@dataclass
class SamplerConfig:
    top_k: int = 50
    top_p: float = 0.95
    num_candidates: int = 10
    max_summary_len: int = 32
    temperature: float = 1.0
    start_token_id: int = CLS_ID
    seed: int = 0
    filter_order: str = "top_k_first"   # or "top_p_first"
    retain_top_m: int = 1

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.num_candidates < 1:
            raise ValueError(f"num_candidates must be at least 1, got {self.num_candidates}")
        if self.max_summary_len < 1:
            raise ValueError(f"max_summary_len must be at least 1, got {self.max_summary_len}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.filter_order not in ("top_k_first", "top_p_first"):
            raise ValueError(f"unknown filter_order {self.filter_order!r}")
        if self.retain_top_m < 1:
            raise ValueError(f"retain_top_m must be at least 1, got {self.retain_top_m}")


@dataclass
class SummaryCandidate:
    cluster: int
    token_ids: list[int]
    text: str
    score: float = 0.0
    rank: int = 0

    @property
    def is_empty(self) -> bool:
        return len(self.text) == 0


def filter_top_k_top_p(probs: np.ndarray, k: int, p: float,
                       order: str = "top_k_first") -> np.ndarray:
    """Restrict a distribution to the k most probable tokens and the minimal
    probability mass >= p, then renormalize.

    Ties in probability resolve toward the lower token id. With
    ``order="top_p_first"`` the nucleus is taken before the top-k cut.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("filter expects a non-empty 1-D distribution")
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    if probs.sum() <= 0.0:
        raise ValueError("degenerate all-zero distribution")
    if not 1 <= k <= probs.size:
        raise ValueError(f"top_k must lie in [1, {probs.size}], got {k}")
    ranked = np.argsort(-probs, kind="stable")

    def nucleus(candidates: np.ndarray) -> np.ndarray:
        cumulative = np.cumsum(probs[candidates])
        keep = int(np.searchsorted(cumulative, p, side="left")) + 1
        return candidates[: min(keep, candidates.size)]

    if order == "top_k_first":
        kept = nucleus(ranked[:k])
    elif order == "top_p_first":
        kept = nucleus(ranked)[:k]
    else:
        raise ValueError(f"unknown filter order {order!r}")
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    return out / out.sum()


def sample_token(filtered: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one token id; zero-probability tokens are never selected."""
    support = np.flatnonzero(filtered)
    cumulative = np.cumsum(filtered[support])
    r = rng.random() * cumulative[-1]
    idx = int(np.searchsorted(cumulative, r, side="right"))
    return int(support[min(idx, support.size - 1)])


def _np_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits.astype(np.float64) - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def sample_candidates(
    decoder: DecoderModel,
    center: np.ndarray,
    vocab: Vocabulary,
    sampler: SamplerConfig,
    cluster: int = 0,
    trace: list | None = None,
) -> list[SummaryCandidate]:
    """Sample ``num_candidates`` summaries conditioned on a cluster center,
    decoded together as one batch.

    Every candidate starts from the configured start token and stops at
    [SEP] or at ``max_summary_len`` generated tokens. When ``trace`` is
    given, each draw appends ``(candidate, support_ids, chosen_id)``.
    """
    k = min(sampler.top_k, vocab.size)
    rngs = [np.random.default_rng([sampler.seed, cluster, s])
            for s in range(sampler.num_candidates)]
    generated: list[list[int]] = [[] for _ in rngs]
    live = list(range(len(rngs)))
    tokens = [sampler.start_token_id] * len(live)
    cache = decoder.start_cache(center)
    with no_grad():
        for _ in range(sampler.max_summary_len):
            logits = decoder.forward(tokens, cache=cache).data / sampler.temperature
            tokens = []
            kept = []
            for row, s in enumerate(live):
                filtered = filter_top_k_top_p(_np_softmax(logits[row]), k, sampler.top_p,
                                              sampler.filter_order)
                token = sample_token(filtered, rngs[s])
                if trace is not None:
                    trace.append((s, np.flatnonzero(filtered > 0), token))
                generated[s].append(token)
                if token != vocab.sep_id:
                    kept.append(row)
                    tokens.append(token)
            if not kept:
                break
            if len(kept) < len(live):
                cache.keep(kept)
                live = [live[row] for row in kept]
    return [
        SummaryCandidate(cluster=cluster, token_ids=ids, text=decode(ids, vocab))
        for ids in generated
    ]


def summarize_cluster(
    decoder: DecoderModel,
    encoder: EncoderModel,
    vocab: Vocabulary,
    center: np.ndarray,
    cluster: int,
    sampler: SamplerConfig,
) -> list[SummaryCandidate]:
    """Generate the configured number of candidates and rank them by cosine
    similarity between each candidate's encoder embedding and the center.

    Returns every candidate, best first, ranks starting at 1. An empty
    generation is kept (and logged); its embedding is that of the bare
    [CLS][SEP] frame.
    """
    candidates = sample_candidates(decoder, center, vocab, sampler, cluster=cluster)
    embedded = encoder.embed_documents(
        [encode(c.text, vocab, encoder.config.max_len) for c in candidates])
    for s, candidate in enumerate(candidates):
        candidate.score = cosine_similarity(embedded[s], center)
        if candidate.is_empty:
            log.warning("cluster %d candidate %d generated an empty summary", cluster, s)
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i].score, i))
    ranked = [candidates[i] for i in order]
    for rank, candidate in enumerate(ranked, start=1):
        candidate.rank = rank
    return ranked
