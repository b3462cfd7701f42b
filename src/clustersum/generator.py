"""Summary decoding from cluster centers.

The sampler reads its settings (``top_k``, ``top_p``, ``num_candidates``,
``max_summary_len``, ``temperature`` and ``seed``) from the run's
``PipelineConfig``; ``top_k`` is clamped to the vocabulary here. Every
candidate starts from [CLS], as every training input does.

The candidates of many clusters are sampled as one batch: whole clusters
are packed into a batch while its key/value cache, at full summary length,
stays within ``KV_CACHE_BUDGET`` bytes, and every batch takes at least one
cluster. Every step feeds only the newest token of each candidate through
``DecoderModel.step``, which runs without a graph: each self-attention
layer keeps the keys and values of all earlier positions in a key/value
cache, so a step costs one position per candidate rather than the whole
prefix. The batch keeps every row until all of them have emitted [SEP] or
``max_summary_len`` tokens: a step's cost grows far slower than its row
count (at paper width, 40 rows cost about 1.6 times what 4 rows cost), and
most candidates run to the length cap anyway. A candidate's tokens end at
its first [SEP]; the draws it makes after that are discarded.

Cross-attention depends only on the cluster center (see ``decoder``), so
each block's cross output is computed once per cluster, when the cache
starts, and held repeated to each of the cluster's rows.

Each step turns the candidates' logits into one row-wise softmax,
filters every row at once with combined top-K and nucleus sampling, and
draws one token per row by inverting the row's CDF in token-id order.
Candidate s of cluster c draws once per step from an RNG stream of its own
derived from (seed, c, s), so its tokens do not depend on how many other
candidates or clusters share its batch or when they stop, and clusters and
candidates are reproducible independently. Each cluster's candidates are
then embedded by the encoder as one padded batch and re-ranked by cosine
similarity between each candidate's embedding and the cluster center.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .decoder import DecoderModel
from .encoder import EncoderModel
from .metrics import cosine_similarity
from .tokenizer import CLS_ID, SEP_ID, Vocabulary, decode, encode

log = logging.getLogger(__name__)

# Key/value-cache bytes one decoding batch may hold at full summary length,
# which a batch reaches unless all its rows emit [SEP] sooner: finished rows
# stay, since a step's cost grows far slower than its row count. At paper
# width a candidate row takes 4.5 MiB at 128 tokens, so 10 candidates per
# cluster pack 2 clusters per batch; appending a position briefly holds the
# cache twice.
KV_CACHE_BUDGET = 128 * 2**20


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


def filter_top_k_top_p(probs: np.ndarray, k: int, p: float) -> np.ndarray:
    """Restrict each row of ``probs`` [n, vocab] to its k most probable
    tokens and, among those, the shortest prefix whose mass reaches p; then
    renormalize the row.

    Ties in probability resolve toward the lower token id. Both cuts keep a
    prefix of one ranking, so their order does not matter. Only the k largest
    values are sorted: the cut keeps every id above the last kept value and
    fills the rest with the lowest ids tied at that value.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.size == 0:
        raise ValueError("filter expects a non-empty [n, vocab] array of distributions")
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    if np.any(probs.sum(axis=-1) <= 0.0):
        raise ValueError("degenerate all-zero distribution")
    if not 1 <= k <= probs.shape[1]:
        raise ValueError(f"top_k must lie in [1, {probs.shape[1]}], got {k}")
    top = -np.sort(np.partition(-probs, k - 1, axis=-1)[:, :k], axis=-1)
    below_p = (np.cumsum(top, axis=-1) < p).sum(axis=-1)
    n_keep = np.minimum(below_p + 1, k)
    last = top[np.arange(len(top)), n_keep - 1][:, None]
    above = probs > last
    tied = probs == last
    ties_kept = (n_keep - above.sum(axis=-1))[:, None]
    out = np.where(above | (tied & (np.cumsum(tied, axis=-1) <= ties_kept)), probs, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def sample_tokens(filtered: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Draw one token id per row of ``filtered`` [n, vocab] by inverting the
    row's CDF, in token-id order, at ``uniforms[row]`` in [0, 1).

    Zero-probability ids are never drawn: a uniform whose scaled value
    reaches the row's total takes the row's last nonzero id.
    """
    cumulative = np.cumsum(filtered, axis=-1)
    r = uniforms * cumulative[:, -1]
    ids = (cumulative <= r[:, None]).sum(axis=-1)
    last = filtered.shape[1] - 1 - np.argmax(filtered[:, ::-1] > 0, axis=-1)
    return np.minimum(ids, last)


def sample_candidates(
    decoder: DecoderModel,
    centers: np.ndarray,
    vocab: Vocabulary,
    config: PipelineConfig,
) -> list[list[SummaryCandidate]]:
    """Sample ``config.num_candidates`` summaries conditioned on each
    cluster center (``centers`` is ``[k, h]``, row c the center of cluster
    c); returns one candidate list per cluster.

    The candidates of as many whole clusters as keep the batch's key/value
    cache within ``KV_CACHE_BUDGET`` at full summary length, and at least
    one cluster, are decoded together as one batch. Every candidate starts
    from [CLS] and stops at [SEP] or at ``max_summary_len`` generated
    tokens.
    """
    shape = decoder.config
    row_bytes = (shape.num_blocks * 2 * shape.hidden_size * config.max_summary_len
                 * np.dtype(decoder.dtype).itemsize)
    per_batch = max(1, KV_CACHE_BUDGET // (config.num_candidates * row_bytes))
    candidates: list[list[SummaryCandidate]] = []
    for first in range(0, len(centers), per_batch):
        candidates += _decode_batch(decoder, centers[first:first + per_batch], first, vocab,
                                    config)
    return candidates


def _decode_batch(
    decoder: DecoderModel,
    centers: np.ndarray,
    first: int,
    vocab: Vocabulary,
    config: PipelineConfig,
) -> list[list[SummaryCandidate]]:
    """Decode every candidate of clusters ``first, first + 1, ...`` (one per
    row of ``centers``) as one batch, cluster by cluster."""
    n = config.num_candidates
    k = min(config.top_k, vocab.size)
    clusters = range(first, first + len(centers))
    rngs = [np.random.default_rng([config.seed, c, s]) for c in clusters for s in range(n)]
    tokens = np.full(len(rngs), CLS_ID)
    steps = []
    finished = np.zeros(len(rngs), dtype=bool)
    cache = decoder.start_cache(centers, n)
    while len(steps) < config.max_summary_len and not finished.all():
        logits = decoder.step(tokens, cache).data / config.temperature
        exps = np.exp(logits.astype(np.float64) - logits.max(axis=-1, keepdims=True))
        filtered = filter_top_k_top_p(exps / exps.sum(axis=-1, keepdims=True), k, config.top_p)
        tokens = sample_tokens(filtered, np.array([rng.random() for rng in rngs]))
        steps.append(tokens)
        finished |= tokens == SEP_ID
    generated = [row[:row.index(SEP_ID) + 1] if SEP_ID in row else row
                 for row in np.stack(steps, axis=1).tolist()]
    return [
        [SummaryCandidate(cluster=c, token_ids=ids, text=decode(ids, vocab))
         for ids in generated[i * n:(i + 1) * n]]
        for i, c in enumerate(clusters)
    ]


def summarize_cluster(
    encoder: EncoderModel,
    vocab: Vocabulary,
    center: np.ndarray,
    candidates: list[SummaryCandidate],
) -> list[SummaryCandidate]:
    """Rank one cluster's sampled candidates by cosine similarity between
    each candidate's encoder embedding and the cluster center.

    Returns every candidate, best first, ranks starting at 1. An empty
    generation is kept (and logged); its embedding is that of the bare
    [CLS][SEP] frame.
    """
    embedded = encoder.embed_documents(
        [encode(c.text, vocab, encoder.config.max_len) for c in candidates])
    for s, candidate in enumerate(candidates):
        candidate.score = cosine_similarity(embedded[s], center)
        if candidate.is_empty:
            log.warning("cluster %d candidate %d generated an empty summary",
                        candidate.cluster, s)
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i].score, i))
    ranked = [candidates[i] for i in order]
    for rank, candidate in enumerate(ranked, start=1):
        candidate.rank = rank
    return ranked
