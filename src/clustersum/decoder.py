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
earlier ones and all padding follows the real positions. At summary time
it decodes a batch of sequences that share one conditioning row, one
position per step, against a ``DecodeCache``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusterer import ClusterSet
from .encoder import EVAL_BATCH_SIZE, EncoderModel, Model, ModelConfig, batches
from .layers import DecoderBlock, KVCache, PredictionHead, causal_mask
from .optim import AdamW, EpochStats, fit
from .tensor import Tensor, cross_entropy, gather_rows, grad_enabled, no_grad
from .tokenizer import EncodedDocument


class DecodeCache:
    """Inference state of a batch of sequences that share one conditioning
    row and advance one position per step: each block's self-attention keys
    and values, and each block's cross-attention output for that row."""

    def __init__(self, cross: list[Tensor]):
        self.cross = cross
        self.layers = [KVCache() for _ in cross]
        self.length = 0

    def keep(self, rows) -> None:
        """Drop every batch row not listed in ``rows``."""
        for layer in self.layers:
            layer.keep(rows)


class DecoderModel(Model):
    """Word+position embeddings, decoder blocks, next-token head."""

    component = "decoder"
    block_type = DecoderBlock

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None, dtype=np.float32):
        super().__init__(config, rng, dtype)
        self.lm_head = PredictionHead(rng, config.hidden_size, config.vocab_size, dtype)

    def _memory(self, conditioning: Tensor | np.ndarray, rows: int) -> Tensor:
        memory = conditioning if isinstance(conditioning, Tensor) else Tensor(
            np.asarray(conditioning, dtype=self.dtype)
        )
        if memory.ndim == 1:
            memory = memory.reshape((1, memory.shape[0]))
        if memory.shape != (rows, self.config.hidden_size):
            raise ValueError(
                f"conditioning must be {rows} row(s) of width {self.config.hidden_size}, "
                f"got {memory.shape}"
            )
        return memory

    def start_cache(self, conditioning: Tensor | np.ndarray) -> DecodeCache:
        """Empty decoding state for sequences conditioned on one row."""
        memory = self._memory(conditioning, 1)
        with no_grad():
            return DecodeCache([block.cross_attn(memory) for block in self.blocks])

    def forward(
        self,
        input_ids,
        conditioning: Tensor | np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Next-token logits for a batch of b prefixes, each conditioned on
        its own row of ``conditioning`` (``[b, h]``; a single ``[h]`` row for
        one prefix).

        The prefixes are padded to the longest; the logits hold only real
        positions, ``[sum of lengths, vocab]``, every prefix's rows in turn.

        With ``cache`` (from ``start_cache``, which took the conditioning),
        ``input_ids`` holds the newest token of each of b sequences, all at
        position ``cache.length``; the logits are [b, vocab] and the cache
        advances one position. Cached decoding is inference only.
        """
        if cache is not None:
            if conditioning is not None or train or grad_enabled():
                raise ValueError("cached decoding takes no conditioning and runs under no_grad")
            return self._step(np.asarray(input_ids, dtype=np.intp), cache)
        x, lengths = self._embed(input_ids, train, rng)
        b = len(lengths)
        t = x.shape[0] // b
        memory = self._memory(conditioning, b)
        mask = causal_mask(t, self.dtype)
        rate = self.config.dropout if train else 0.0
        for block in self.blocks:
            x = block(x, memory, b, mask, dropout_rate=rate, train=train, rng=rng)
        real = np.flatnonzero(np.arange(t) < lengths[:, None])
        return self.lm_head(gather_rows(x, real))

    def _step(self, ids: np.ndarray, cache: DecodeCache) -> Tensor:
        position = cache.length
        if position >= self.config.max_len:
            raise ValueError(f"cannot decode position {position} with max_len {self.config.max_len}")
        x = gather_rows(self.word_embedding, ids) + gather_rows(self.position_embedding, [position])
        x = self.embed_norm(x)
        for block, kv, cross in zip(self.blocks, cache.layers, cache.cross):
            x = block.step(x, kv, cross)
        cache.length += 1
        return self.lm_head(x)


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
    encoder's attention norm. All copies are independent, so decoder
    training leaves the encoder untouched. The decoder is built
    without a generator, so nothing is drawn only to be overwritten; every
    one of its parameters has an encoder source.
    """
    decoder = DecoderModel(encoder.config, None, dtype=encoder.dtype)
    enc_params = encoder.named_parameters()
    for dec_name, dst in decoder.named_parameters().items():
        enc_name = encoder_source_name(dec_name)
        src = enc_params[enc_name]
        if src.shape != dst.shape:
            raise ValueError(
                f"cannot initialize {dec_name} ({dst.shape}) from {enc_name} ({src.shape})"
            )
        dst.data = src.data.copy()
    return decoder


# -- training ----------------------------------------------------------------


@dataclass
class TrainingExample:
    """One teacher-forcing pair with its frozen conditioning embedding."""

    doc_id: str
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
    start_id: int,
    unweighted: bool = False,
) -> list[TrainingExample]:
    """Shift each document into a next-token pair conditioned on its own
    embedding: input ``[start, x1..xn]``, target ``[x1..xn, SEP]``.

    Weights come from the cluster set; ``unweighted`` forces all weights 1.
    """
    if cluster_set is not None:
        weight_by_id = dict(zip(cluster_set.doc_ids, cluster_set.weights))
    examples = []
    for i, doc in enumerate(docs):
        target = np.asarray(doc.ids[1:], dtype=np.intp)
        inputs = np.concatenate(([start_id], target[:-1]))
        weight = 1.0
        if not unweighted and cluster_set is not None:
            weight = float(weight_by_id[doc.doc_id])
        examples.append(TrainingExample(doc.doc_id, inputs, target, embeddings[i], weight))
    return examples


def weighted_ce_loss(
    decoder: DecoderModel,
    batch: list[TrainingExample],
    normalize: str = "raw",
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Membership-weighted sum of per-document token NLL sums, from one
    padded forward over the batch.

    ``normalize="tokens"`` divides by the total token count of the batch,
    which keeps the learning-rate scale independent of document length;
    ``"raw"`` is the plain weighted sum. Each target token's row weight is
    its document's weight times that normalization.
    """
    if normalize not in ("raw", "tokens"):
        raise ValueError(f"unknown normalization {normalize!r}")
    if not batch:
        raise ValueError("weighted_ce_loss needs at least one example")
    logits = decoder.forward([e.input_ids for e in batch],
                             np.stack([e.embedding for e in batch]), train=train, rng=rng)
    targets = np.concatenate([e.target_ids for e in batch])
    weights = np.repeat([e.weight for e in batch], [len(e.target_ids) for e in batch])
    if normalize == "tokens":
        weights = weights / targets.size
    return cross_entropy(logits, targets, weights=weights)


def evaluate_decoder(
    decoder: DecoderModel,
    examples: list[TrainingExample],
    normalize: str = "tokens",
) -> float:
    """``weighted_ce_loss`` over every example, ``EVAL_BATCH_SIZE`` per forward."""
    if normalize not in ("raw", "tokens"):
        raise ValueError(f"unknown normalization {normalize!r}")
    with no_grad():
        total = sum(weighted_ce_loss(decoder, chunk, normalize="raw").item()
                    for chunk in batches(examples, EVAL_BATCH_SIZE))
    if normalize == "tokens":
        total /= sum(len(e.target_ids) for e in examples)
    return total


def train_decoder(
    decoder: DecoderModel,
    examples: list[TrainingExample],
    epochs: int,
    rng: np.random.Generator,
    lr: float = 1e-3,
    weight_decay: float = 0.01,
    warmup_steps: int = 100,
    batch_size: int = 8,
    normalize: str = "tokens",
    val_examples: list[TrainingExample] | None = None,
) -> tuple[DecoderModel, list[EpochStats]]:
    """Teacher-forced next-token training against frozen embeddings."""
    if not examples:
        raise ValueError("cannot train a decoder without examples")
    optimizer = AdamW(
        decoder.parameters(), lr=lr, weight_decay=weight_decay, warmup_steps=warmup_steps
    )

    def batch_loss(batch):
        loss = weighted_ce_loss(decoder, batch, normalize=normalize, train=True, rng=rng)
        return loss, len(batch) if normalize == "tokens" else 1, 0, 0

    def validate(epoch):
        return evaluate_decoder(decoder, val_examples, normalize=normalize), None

    history = fit(examples, batch_loss, optimizer, epochs, batch_size, rng,
                  validate=validate if val_examples else None, name="decoder")
    return decoder, history
