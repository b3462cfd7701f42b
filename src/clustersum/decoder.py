"""Autoregressive transformer decoder conditioned on one frozen embedding.

Each block runs causal self-attention, then cross-attention on a single
conditioning vector (a document embedding during training, a cluster center
at summary time), which is ``wo(wv(conditioning))`` at every position in
every code path, then a feed-forward sublayer.
The decoder is trained with teacher forcing to reproduce each document from
that document's own embedding, weighting every document's token losses by
its cluster membership weight. Training and evaluation run one batch of
documents per forward, right-padded to the longest, each document
cross-attending to its own embedding row. The causal mask alone keeps
padding out of every real position's attention, since a position sees only
earlier ones and all padding follows the real positions. Training passes
its generator to ``forward``, which then drops out; evaluation passes none.
At summary time ``step`` decodes a batch of sequences, one position per
call and under ``no_grad``, against a ``DecodeCache``: the batch may hold
the candidates of several clusters, so the cache computes each block's
cross output once per cluster center and holds it repeated to every row
that decodes from that center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusterer import ClusterSet
from .config import PipelineConfig
from .encoder import EVAL_BATCH_SIZE, EncoderModel, Model, ModelConfig, batches
from .layers import DecoderBlock, KVCache, PredictionHead, causal_mask
from .optim import AdamW, EpochStats, fit
from .tensor import Tensor, cross_entropy, gather_rows, no_grad
from .tokenizer import CLS_ID, EncodedDocument


class DecodeCache:
    """Inference state of a batch of b sequences that advance one position
    per step: each block's self-attention keys and values, and each block's
    cross-attention output for every sequence (``[b, hidden]``)."""

    def __init__(self, cross: list[Tensor]):
        self.cross = cross
        self.layers = [KVCache() for _ in cross]
        self.length = 0


class DecoderModel(Model):
    """Word+position embeddings, decoder blocks, next-token head."""

    component = "decoder"
    block_type = DecoderBlock

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__(config)
        self.lm_head = PredictionHead(config.hidden_size, config.vocab_size)
        self.draw(rng)

    def _memory(self, conditioning: np.ndarray, rows: int | None) -> np.ndarray:
        """``conditioning``, ``[rows, hidden]`` (any row count when ``rows``
        is None), in this model's dtype."""
        memory = np.asarray(conditioning, dtype=self.dtype)
        rows = len(memory) if rows is None else rows
        if memory.shape != (rows, self.config.hidden_size):
            raise ValueError(f"conditioning must be {rows} row(s) of width "
                             f"{self.config.hidden_size}, got {memory.shape}")
        return memory

    def forward(
        self,
        input_ids,
        conditioning: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Next-token logits for a batch of b prefixes, each conditioned on
        its own row of ``conditioning`` (``[b, h]``). Dropout is drawn from
        ``rng`` when one is given (training) and skipped without it.

        The prefixes are padded to the longest; the logits hold only real
        positions, ``[sum of lengths, vocab]``, every prefix's rows in turn.
        """
        x, lengths, drop = self._embed(input_ids, rng)
        b = len(lengths)
        t = x.shape[0] // b
        memory = Tensor(self._memory(conditioning, b))
        mask = causal_mask(t, self.dtype)
        for block in self.blocks:
            x = block(x, memory, b, mask, drop)
        real = np.flatnonzero(np.arange(t) < lengths[:, None])
        return self.lm_head(gather_rows(x, real))

    def start_cache(self, centers: np.ndarray, rows_per_center: int) -> DecodeCache:
        """Empty decoding state for ``rows_per_center`` sequences conditioned
        on each of the k rows of ``centers`` (``[k, h]``), center by center:
        batch row i decodes from center ``i // rows_per_center``.

        Each block's cross output is computed once per center, one center at
        a time: a one-row product can round differently from the same row
        inside a taller one, and a center's cross row should not depend on
        which centers share its batch. It is stored repeated to one row per
        sequence, so a step adds it as it is.
        """
        centers = self._memory(centers, None)
        with no_grad():
            cross = [Tensor(np.repeat(np.concatenate([block.cross_attn(Tensor(row[None])).data
                                                      for row in centers]),
                                      rows_per_center, axis=0))
                     for block in self.blocks]
        return DecodeCache(cross)

    def step(self, ids, cache: DecodeCache) -> Tensor:
        """Next-token logits ``[b, vocab]`` for the newest token of each of
        the cache's b sequences, all at position ``cache.length``; the cache
        advances one position. Inference only: runs under ``no_grad``."""
        ids = np.asarray(ids, dtype=np.intp)
        position = cache.length
        if position >= self.config.max_len:
            raise ValueError(f"cannot decode position {position} with max_len {self.config.max_len}")
        rows = cache.cross[0].shape[0]
        if len(ids) != rows:
            raise ValueError(f"the cache holds {rows} sequences, got {len(ids)} ids")
        with no_grad():
            x = self.embed_norm(gather_rows(self.word_embedding, ids),
                                gather_rows(self.position_embedding, np.full(len(ids), position)))
            for block, kv, cross in zip(self.blocks, cache.layers, cache.cross):
                x = block.step(x, kv, cross)
            logits = self.lm_head(x)
        cache.length += 1
        return logits


# Decoder name fragment -> encoder name fragment it is initialized from.
_INIT_RENAMES = (
    ("lm_head.", "mlm_head."),
    (".self_attn.", ".attn."),
    (".cross_attn.", ".attn."),
    (".norm_self.", ".norm_attn."),
    (".norm_cross.", ".norm_attn."),
)


def encoder_source_name(decoder_name: str) -> str:
    """Name of the encoder parameter a decoder parameter starts from."""
    for old, new in _INIT_RENAMES:
        decoder_name = decoder_name.replace(old, new)
    return decoder_name


def init_from_encoder(encoder: EncoderModel) -> DecoderModel:
    """Build a decoder whose parameters copy the trained encoder.

    Embeddings, each block's self-attention, feed-forward and layer norms,
    and the prediction head copy their encoder counterparts directly. Each
    block's cross-attention copies the value and output projections of the
    same block's encoder self-attention; the norm that follows it copies the
    encoder's attention norm. A read-only source, such as a loaded
    checkpoint's mapped weights, is adopted as it is, since nothing can
    write through it and decoder training copies every parameter into its
    optimizer; a writable one is copied. So the copies are independent, and
    decoder training leaves the encoder untouched. The decoder is built
    without a generator, so nothing is drawn only to be overwritten; every
    one of its parameters has an encoder source, whose dtype it takes.
    """
    decoder = DecoderModel(encoder.config, None)
    enc_params = encoder.named_parameters()
    for dec_name, dst in decoder.named_parameters().items():
        enc_name = encoder_source_name(dec_name)
        src = enc_params[enc_name]
        if src.shape != dst.shape:
            raise ValueError(
                f"cannot initialize {dec_name} ({dst.shape}) from {enc_name} ({src.shape})"
            )
        dst.data = src.data.copy() if src.data.flags.writeable else src.data
    return decoder


# -- training ----------------------------------------------------------------


@dataclass
class TrainingExample:
    """One teacher-forcing pair with its frozen conditioning embedding."""

    input_ids: np.ndarray
    target_ids: np.ndarray
    embedding: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        self.input_ids = np.asarray(self.input_ids, dtype=np.intp)
        self.target_ids = np.asarray(self.target_ids, dtype=np.intp)
        if self.input_ids.shape != self.target_ids.shape:
            raise ValueError("teacher-forcing input and target lengths must match")
        # cluster weights live in (0, 1]; 0 is additionally allowed here so a
        # document can be silenced outright (it then contributes no gradient)
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")


def build_training_examples(
    docs: list[EncodedDocument],
    embeddings: np.ndarray,
    cluster_set: ClusterSet | None,
) -> list[TrainingExample]:
    """Shift each document into a next-token pair conditioned on its own
    embedding: input ``[CLS, x1..xn]``, target ``[x1..xn, SEP]``.

    Each example's weight is its document's membership weight in
    ``cluster_set``; with no cluster set, every weight is 1.
    """
    if cluster_set is not None:
        weight_by_id = dict(zip(cluster_set.doc_ids, cluster_set.weights))
    examples = []
    for i, doc in enumerate(docs):
        target = np.asarray(doc.ids[1:], dtype=np.intp)
        inputs = np.concatenate(([CLS_ID], target[:-1]))
        weight = 1.0 if cluster_set is None else float(weight_by_id[doc.doc_id])
        examples.append(TrainingExample(inputs, target, embeddings[i], weight))
    return examples


def weighted_ce_loss(
    decoder: DecoderModel,
    batch: list[TrainingExample],
    divisor: int,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Membership-weighted sum of per-document token NLL sums, divided by
    ``divisor``, from one padded forward over the batch, with dropout from
    ``rng`` when one is given.

    Each target token's row weight is its document's weight over
    ``divisor``. Training divides by the batch's token count, which keeps
    the learning-rate scale independent of document length.
    """
    if not batch:
        raise ValueError("weighted_ce_loss needs at least one example")
    logits = decoder.forward([e.input_ids for e in batch],
                             np.stack([e.embedding for e in batch]), rng)
    targets = np.concatenate([e.target_ids for e in batch])
    weights = np.repeat([e.weight for e in batch], [len(e.target_ids) for e in batch]) / divisor
    return cross_entropy(logits, targets, weights=weights)


def evaluate_decoder(decoder: DecoderModel, examples: list[TrainingExample]) -> float:
    """The weighted NLL of every example over their total token count,
    ``EVAL_BATCH_SIZE`` examples per forward. Validation passes unit-weight
    examples, so the decoder is scored by its per-token NLL."""
    with no_grad():
        total = sum(weighted_ce_loss(decoder, chunk, 1).item()
                    for chunk in batches(examples, EVAL_BATCH_SIZE))
    return total / sum(len(e.target_ids) for e in examples)


def train_decoder(
    decoder: DecoderModel,
    examples: list[TrainingExample],
    config: PipelineConfig,
    rng: np.random.Generator,
    val_examples: list[TrainingExample] | None = None,
) -> tuple[DecoderModel, list[EpochStats]]:
    """Teacher-forced next-token training against frozen embeddings, under
    the ``decoder_*`` and ``weight_decay`` settings of ``config``; each
    batch's loss is its weighted NLL over its token count."""
    if not examples:
        raise ValueError("cannot train a decoder without examples")
    optimizer = AdamW(decoder.parameters(), lr=config.decoder_lr,
                      weight_decay=config.weight_decay, warmup_steps=config.decoder_warmup_steps)

    def batch_loss(batch):
        loss = weighted_ce_loss(decoder, batch, sum(len(e.target_ids) for e in batch), rng)
        return loss, len(batch), 0, 0

    def validate(epoch):
        return evaluate_decoder(decoder, val_examples), None

    history = fit(examples, batch_loss, optimizer, config.decoder_epochs,
                  config.decoder_batch_size, rng,
                  validate=validate if val_examples else None, name="decoder")
    return decoder, history
