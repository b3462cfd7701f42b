"""Autoregressive transformer decoder conditioned on one frozen embedding.

Each block runs causal self-attention, then cross-attention whose keys and
values come from a single conditioning vector (a document embedding during
training, a cluster center at summary time), then a feed-forward sublayer.
The decoder is trained with teacher forcing to reproduce each document from
that document's own embedding, weighting every document's token losses by
its cluster membership weight. At summary time it decodes a batch of
sequences one position per step against a ``DecodeCache``.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .clusterer import ClusterSet
from .encoder import EncoderModel, ModelConfig
from .layers import DecoderBlock, KVCache, LayerNorm, PredictionHead, INIT_STD
from .optim import AdamW
from .tensor import Tensor, cross_entropy, gather_rows, grad_enabled, init_normal, no_grad
from .tensor import dropout as dropout_op
from .tokenizer import EncodedDocument

log = logging.getLogger(__name__)


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


class DecoderModel:
    """Word+position embeddings, decoder blocks, next-token head."""

    component = "decoder"

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.word_embedding = init_normal(rng, (config.vocab_size, config.hidden_size), INIT_STD, dtype)
        self.position_embedding = init_normal(rng, (config.max_len, config.hidden_size), INIT_STD, dtype)
        self.embed_norm = LayerNorm(config.hidden_size, dtype)
        self.blocks = [
            DecoderBlock(rng, config.hidden_size, config.num_heads, config.ffn_size, dtype)
            for _ in range(config.num_blocks)
        ]
        self.lm_head = PredictionHead(rng, config.hidden_size, config.vocab_size, dtype)

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {
            "word_embedding": self.word_embedding,
            "position_embedding": self.position_embedding,
        }
        params.update(self.embed_norm.named_parameters("embed_norm"))
        for i, block in enumerate(self.blocks):
            params.update(block.named_parameters(f"block{i}"))
        params.update(self.lm_head.named_parameters("lm_head"))
        return params

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def save(self, path) -> None:
        save_checkpoint(
            path,
            component=self.component,
            config=asdict(self.config),
            tensors={n: p.data for n, p in self.named_parameters().items()},
        )

    @classmethod
    def load(cls, path) -> "DecoderModel":
        ckpt = load_checkpoint(path)
        if ckpt.component != cls.component:
            raise ValueError(f"{path} holds a {ckpt.component!r} checkpoint, expected {cls.component!r}")
        model = cls(ModelConfig(**ckpt.config), np.random.default_rng(0))
        params = model.named_parameters()
        if set(params) != set(ckpt.tensors):
            missing = set(params) ^ set(ckpt.tensors)
            raise ValueError(f"checkpoint tensor names do not match the model: {sorted(missing)}")
        for name, p in params.items():
            loaded = ckpt.tensors[name]
            if loaded.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {loaded.shape} vs {p.shape}")
            p.data = loaded.astype(model.dtype, copy=False)
        return model

    def _memory(self, conditioning: Tensor | np.ndarray) -> Tensor:
        memory = conditioning if isinstance(conditioning, Tensor) else Tensor(
            np.asarray(conditioning, dtype=self.dtype)
        )
        if memory.ndim == 1:
            memory = memory.reshape((1, memory.shape[0]))
        if memory.shape != (1, self.config.hidden_size):
            raise ValueError(
                f"conditioning must be a single row of width {self.config.hidden_size}, "
                f"got {memory.shape}"
            )
        return memory

    def start_cache(self, conditioning: Tensor | np.ndarray) -> DecodeCache:
        """Empty decoding state for sequences conditioned on one row."""
        memory = self._memory(conditioning)
        with no_grad():
            return DecodeCache([block.cross_output(memory) for block in self.blocks])

    def forward(
        self,
        input_ids,
        conditioning: Tensor | np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Next-token logits [t, vocab] for a prefix and one conditioning row.

        With ``cache`` (from ``start_cache``, which took the conditioning),
        ``input_ids`` holds the newest token of each of b sequences, all at
        position ``cache.length``; the logits are [b, vocab] and the cache
        advances one position. Cached decoding is inference only.
        """
        ids = np.asarray(input_ids, dtype=np.intp)
        if cache is not None:
            if conditioning is not None or train or grad_enabled():
                raise ValueError("cached decoding takes no conditioning and runs under no_grad")
            return self._step(ids, cache)
        t = ids.shape[0]
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        memory = self._memory(conditioning)
        x = gather_rows(self.word_embedding, ids) + gather_rows(self.position_embedding, np.arange(t))
        x = self.embed_norm(x)
        rate = self.config.dropout if train else 0.0
        if rate:
            x = dropout_op(x, rate, rng)
        for block in self.blocks:
            x = block(x, memory, dropout_rate=rate, train=train, rng=rng)
        return self.lm_head(x)

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


def init_from_encoder(encoder: EncoderModel) -> DecoderModel:
    """Build a decoder whose parameters copy the trained encoder.

    Embeddings, each block's self-attention, feed-forward and layer norms,
    and the prediction head copy their encoder counterparts directly. Each
    block's cross-attention copies the same block's encoder self-attention
    (query, key, value, output projections alike); the norm that follows it
    copies the encoder's attention norm. All copies are independent, so
    decoder training leaves the encoder untouched.
    """
    decoder = DecoderModel(encoder.config, np.random.default_rng(0), dtype=encoder.dtype)
    mapping = _init_name_mapping(encoder.config.num_blocks)
    enc_params = encoder.named_parameters()
    dec_params = decoder.named_parameters()
    for dec_name, enc_name in mapping.items():
        src = enc_params[enc_name]
        dst = dec_params[dec_name]
        if src.shape != dst.shape:
            raise ValueError(
                f"cannot initialize {dec_name} ({dst.shape}) from {enc_name} ({src.shape})"
            )
        dst.data = src.data.copy()
    return decoder


def _init_name_mapping(num_blocks: int) -> dict[str, str]:
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
                mapping[f"block{i}.cross_attn.{proj}.{part}"] = f"block{i}.attn.{proj}.{part}"
        for part in ("gain", "bias"):
            mapping[f"block{i}.norm_self.{part}"] = f"block{i}.norm_attn.{part}"
            mapping[f"block{i}.norm_cross.{part}"] = f"block{i}.norm_attn.{part}"
            mapping[f"block{i}.norm_ffn.{part}"] = f"block{i}.norm_ffn.{part}"
        for lin in ("lin1", "lin2"):
            for part in ("weight", "bias"):
                mapping[f"block{i}.ffn.{lin}.{part}"] = f"block{i}.ffn.{lin}.{part}"
    return mapping


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
    """Membership-weighted sum of per-document token NLL sums.

    ``normalize="tokens"`` divides by the total token count of the batch,
    which keeps the learning-rate scale independent of document length;
    ``"raw"`` is the plain weighted sum.
    """
    if normalize not in ("raw", "tokens"):
        raise ValueError(f"unknown normalization {normalize!r}")
    if not batch:
        raise ValueError("weighted_ce_loss needs at least one example")
    total: Tensor | None = None
    token_count = 0
    for example in batch:
        logits = decoder.forward(example.input_ids, example.embedding, train=train, rng=rng)
        doc_loss = cross_entropy(logits, example.target_ids, reduction="sum") * example.weight
        total = doc_loss if total is None else total + doc_loss
        token_count += len(example.target_ids)
    if normalize == "tokens":
        total = total * (1.0 / token_count)
    return total


def evaluate_decoder(
    decoder: DecoderModel,
    examples: list[TrainingExample],
    normalize: str = "tokens",
) -> float:
    with no_grad():
        return weighted_ce_loss(decoder, examples, normalize=normalize, train=False).item()


@dataclass
class DecoderEpochStats:
    epoch: int
    loss: float
    val_loss: float | None = None


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
) -> tuple[DecoderModel, list[DecoderEpochStats]]:
    """Teacher-forced next-token training against frozen embeddings."""
    if not examples:
        raise ValueError("cannot train a decoder without examples")
    optimizer = AdamW(
        decoder.parameters(), lr=lr, weight_decay=weight_decay, warmup_steps=warmup_steps
    )
    history: list[DecoderEpochStats] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[start:start + batch_size]]
            loss = weighted_ce_loss(decoder, batch, normalize=normalize, train=True, rng=rng)
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item() * (len(batch) if normalize == "tokens" else 1)
        stats = DecoderEpochStats(epoch=epoch, loss=epoch_loss / len(examples))
        if val_examples:
            stats.val_loss = evaluate_decoder(decoder, val_examples, normalize=normalize)
        history.append(stats)
        log.info(
            "decoder epoch %d: loss %.4f%s",
            epoch, stats.loss,
            f" val_loss {stats.val_loss:.4f}" if val_examples else "",
        )
    return decoder, history
