"""Bidirectional transformer encoder.

Three jobs: masked-token pretraining over a raw corpus, document embedding
(the hidden state of the leading [CLS] position after the last block), and
optional label-supervised fine-tuning through a softmax classifier head on
that embedding.

Every forward takes a batch of documents, right-padded with [PAD] to the
longest one; padded keys are masked out of attention, so each document's
hidden states are those it would have alone. Training runs one forward and
one backward per batch of ``batch_size`` documents (the last batch may be
shorter and keeps the ``1/batch_size`` scale per document); embedding and
evaluation run in batches of ``EVAL_BATCH_SIZE``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    EncoderBlock,
    LayerNorm,
    Module,
    PredictionHead,
    Projection,
    INIT_STD,
    padding_mask,
)
from .optim import AdamW, EpochStats, fit
from .tensor import Tensor, cross_entropy, gather_rows, init_normal, no_grad, softmax
from .tensor import dropout as dropout_op
from .tokenizer import EncodedDocument, mask_for_mlm, pad_batch

# Documents per forward when embedding or evaluating without gradients.
EVAL_BATCH_SIZE = 32


def batches(items: list, size: int) -> list[list]:
    """Consecutive runs of ``size`` items; the last may be shorter."""
    return [items[start:start + size] for start in range(0, len(items), size)]


@dataclass(frozen=True)
class ModelConfig:
    """Shared shape configuration for the encoder and decoder."""

    hidden_size: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    ffn_size: int = 256
    max_len: int = 64
    vocab_size: int = 0
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be set before building a model")

    @classmethod
    def desk_scale(cls, vocab_size: int, max_len: int = 64, dropout: float = 0.1) -> "ModelConfig":
        return cls(64, 2, 4, 256, max_len, vocab_size, dropout)

    @classmethod
    def paper_scale(cls, vocab_size: int, max_len: int = 512, dropout: float = 0.1) -> "ModelConfig":
        return cls(768, 6, 12, 3072, max_len, vocab_size, dropout)


class Model(Module):
    """Word and position embeddings, a stack of ``block_type`` blocks, and
    whatever head a subclass adds; saved and loaded as one checkpoint whose
    ``component`` tag names the subclass."""

    component: str
    block_type: type

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None, dtype=np.float32):
        """Draw every weight matrix from ``rng``; with ``rng=None`` they are
        zero shells, for a model whose parameters are set right after."""
        self.config = config
        self.dtype = dtype
        self.word_embedding = init_normal(rng, (config.vocab_size, config.hidden_size), INIT_STD, dtype)
        self.position_embedding = init_normal(rng, (config.max_len, config.hidden_size), INIT_STD, dtype)
        self.embed_norm = LayerNorm(config.hidden_size, dtype)
        self.blocks = [
            self.block_type(rng, config.hidden_size, config.num_heads, config.ffn_size, dtype)
            for _ in range(config.num_blocks)
        ]

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def _embed(self, sequences, train: bool, rng: np.random.Generator | None):
        """Embedding-layer output ``[b·t, h]`` of b token-id sequences padded
        to the longest (t), with each sequence's length."""
        ids, lengths = pad_batch(sequences)
        b, t = ids.shape
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        x = (gather_rows(self.word_embedding, ids.reshape(-1))
             + gather_rows(self.position_embedding, np.tile(np.arange(t), b)))
        x = self.embed_norm(x)
        if train and self.config.dropout:
            x = dropout_op(x, self.config.dropout, rng)
        return x, lengths

    def parameter_hash(self) -> str:
        """SHA-256 over all parameter names and payloads."""
        digest = hashlib.sha256()
        for name, p in sorted(self.named_parameters().items()):
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(p.data).tobytes())
        return digest.hexdigest()

    def _checkpoint_extra(self) -> dict:
        """Header metadata, beyond the config, that ``load`` needs to rebuild
        this model's parameter shapes."""
        return {}

    def _apply_checkpoint_extra(self, extra: dict) -> None:
        """Rebuild what ``_checkpoint_extra`` recorded."""

    def save(self, path) -> None:
        """Write the model as a float32 checkpoint; any other dtype is refused,
        since the checkpoint would silently round it."""
        if np.dtype(self.dtype) != np.float32:
            raise ValueError(f"checkpoints store float32; this model is {np.dtype(self.dtype)}")
        save_checkpoint(
            path,
            component=self.component,
            config=asdict(self.config),
            tensors={n: p.data for n, p in self.named_parameters().items()},
            extra=self._checkpoint_extra(),
        )

    @classmethod
    def load(cls, path) -> "Model":
        """Rebuild a saved model as float32.

        The model is built without a generator (zero shells, nothing drawn)
        and every parameter is then replaced by its checkpoint tensor. The
        checkpoint must hold exactly the model's parameter names, each at
        the model's shape, so no shell can survive the load.
        """
        ckpt = load_checkpoint(path)
        if ckpt.component != cls.component:
            raise ValueError(f"{path} holds a {ckpt.component!r} checkpoint, expected {cls.component!r}")
        model = cls(ModelConfig(**ckpt.config), None)
        model._apply_checkpoint_extra(ckpt.extra)
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


class EncoderModel(Model):
    """Word+position embeddings, encoder blocks, masked-token head."""

    component = "encoder"
    block_type = EncoderBlock

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None, dtype=np.float32):
        super().__init__(config, rng, dtype)
        self.mlm_head = PredictionHead(rng, config.hidden_size, config.vocab_size, dtype)
        self.classifier: Projection | None = None

    # -- structure ----------------------------------------------------------

    @property
    def num_labels(self) -> int:
        if self.classifier is None:
            raise ValueError("encoder has no classifier head")
        return self.classifier.weight.shape[1]

    def add_classifier(self, num_labels: int, rng: np.random.Generator | None) -> None:
        if num_labels < 1:
            raise ValueError(f"need at least one label, got {num_labels}")
        self.classifier = Projection(rng, self.config.hidden_size, num_labels, self.dtype)

    def _checkpoint_extra(self) -> dict:
        return {} if self.classifier is None else {"num_labels": self.num_labels}

    def _apply_checkpoint_extra(self, extra: dict) -> None:
        if "num_labels" in extra:
            self.add_classifier(int(extra["num_labels"]), None)

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        ids,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Final hidden states ``[b·t, h]`` and [CLS] embeddings ``[b, h]`` of
        a batch of b token-id sequences, padded to the longest (t).

        Row i·t + j of the hidden states is position j of sequence i; rows
        past a sequence's length are padding, which no real position sees.
        """
        x, lengths = self._embed(ids, train, rng)
        b = len(lengths)
        mask = padding_mask(lengths, x.shape[0] // b, self.dtype)
        rate = self.config.dropout if train else 0.0
        for block in self.blocks:
            x = block(x, b, mask, dropout_rate=rate, train=train, rng=rng)
        cls_embeddings = gather_rows(x, np.arange(b) * (x.shape[0] // b))
        return x, cls_embeddings

    def embed_documents(self, docs: list[EncodedDocument]) -> np.ndarray:
        """Deterministic document embeddings ``[n, h]`` (no graph, eval mode),
        ``EVAL_BATCH_SIZE`` documents per forward."""
        with no_grad():
            return np.concatenate([
                self.forward([d.ids for d in chunk])[1].data
                for chunk in batches(docs, EVAL_BATCH_SIZE)
            ])

    def mlm_logits(self, hidden: Tensor, rows) -> Tensor:
        """Prediction-head logits at the given rows of ``[b·t, h]`` hidden states."""
        return self.mlm_head(gather_rows(hidden, np.asarray(rows, dtype=np.intp)))

    def label_probs(self, embeddings: np.ndarray) -> np.ndarray:
        """Label distributions [n, labels] for document embeddings [n, h]."""
        if self.classifier is None:
            raise ValueError("label_probs requires a fine-tuned classifier head")
        with no_grad():
            logits = self.classifier(Tensor(np.asarray(embeddings, dtype=self.dtype)))
            return softmax(logits, axis=-1).data


# -- training ----------------------------------------------------------------


def _mlm_batch(
    model: EncoderModel,
    docs: list[EncodedDocument],
    rate: float,
    rng: np.random.Generator,
    train: bool,
    bert_corruption: bool = False,
    vocab=None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Masked-position logits and original ids of one padded batch, with
    each document's masked-position count.

    Each document's mask is drawn from ``rng`` in batch order, all of them
    before the forward, whose dropout then draws from the same ``rng``.
    """
    masked = [mask_for_mlm(doc, rate=rate, rng=rng, vocab=vocab, bert_corruption=bert_corruption)
              for doc in docs]
    ids, positions, originals = zip(*masked)
    hidden, _ = model.forward(ids, train=train, rng=rng)
    t = hidden.shape[0] // len(docs)
    rows = np.concatenate([i * t + np.asarray(p) for i, p in enumerate(positions)])
    counts = np.array([len(o) for o in originals])
    return model.mlm_logits(hidden, rows), np.concatenate(originals), counts


def mlm_batch_loss(
    model: EncoderModel,
    docs: list[EncodedDocument],
    rate: float,
    rng: np.random.Generator,
    batch_size: int,
    train: bool = False,
    bert_corruption: bool = False,
    vocab=None,
) -> tuple[Tensor, int, int]:
    """One batch's training loss, each document's masked-position mean loss
    times ``1/batch_size``, summed; plus (correct, total) prediction counts."""
    logits, originals, counts = _mlm_batch(model, docs, rate, rng, train,
                                           bert_corruption=bert_corruption, vocab=vocab)
    loss = cross_entropy(logits, originals, weights=np.repeat(1.0 / (counts * batch_size), counts))
    correct = int((logits.data.argmax(axis=1) == originals).sum())
    return loss, correct, originals.size


def evaluate_mlm(
    model: EncoderModel,
    docs: list[EncodedDocument],
    rng: np.random.Generator,
    mask_rate: float = 0.15,
) -> tuple[float, float]:
    """Masked-token loss (mean over every masked position) and accuracy
    under eval-mode forwards."""
    total_loss = 0.0
    correct = 0
    total = 0
    with no_grad():
        for chunk in batches(docs, EVAL_BATCH_SIZE):
            logits, originals, _ = _mlm_batch(model, chunk, mask_rate, rng, train=False)
            total_loss += cross_entropy(logits, originals).item()
            correct += int((logits.data.argmax(axis=1) == originals).sum())
            total += originals.size
    return total_loss / max(total, 1), correct / max(total, 1)


def pretrain_mlm(
    corpus: list[EncodedDocument],
    config: ModelConfig,
    epochs: int,
    rng: np.random.Generator,
    lr: float = 1e-3,
    weight_decay: float = 0.01,
    warmup_steps: int = 100,
    batch_size: int = 8,
    mask_rate: float = 0.15,
    bert_corruption: bool = False,
    vocab=None,
    val_docs: list[EncodedDocument] | None = None,
) -> tuple[EncoderModel, list[EpochStats]]:
    """Train an encoder to recover masked tokens; returns per-epoch stats.

    The loss is the mean negative log-probability of the original token at
    each masked position; unmasked positions contribute nothing.
    """
    if not corpus:
        raise ValueError("cannot pretrain on an empty corpus")
    model = EncoderModel(config, rng)
    optimizer = AdamW(
        model.parameters(), lr=lr, weight_decay=weight_decay, warmup_steps=warmup_steps
    )

    def batch_loss(batch):
        loss, correct, total = mlm_batch_loss(model, batch, mask_rate, rng, batch_size, train=True,
                                              bert_corruption=bert_corruption, vocab=vocab)
        return loss, batch_size, correct, total

    def validate(epoch):
        return evaluate_mlm(model, val_docs, np.random.default_rng([7, epoch]), mask_rate)

    history = fit(corpus, batch_loss, optimizer, epochs, batch_size, rng,
                  validate=validate if val_docs else None, name="mlm")
    return model, history


def classifier_batch_loss(
    model: EncoderModel,
    docs: list[EncodedDocument],
    batch_size: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, int]:
    """One batch's classification loss, each document's label loss times
    ``1/batch_size``, summed; plus the number of correct argmax labels."""
    _, embeddings = model.forward([d.ids for d in docs], train=train, rng=rng)
    logits = model.classifier(embeddings)
    labels = np.array([d.label for d in docs])
    loss = cross_entropy(logits, labels, weights=np.full(len(docs), 1.0 / batch_size))
    return loss, int((logits.data.argmax(axis=1) == labels).sum())


def evaluate_classifier(model: EncoderModel, docs: list[EncodedDocument]) -> tuple[float, float]:
    total_loss = 0.0
    correct = 0
    with no_grad():
        for chunk in batches(docs, EVAL_BATCH_SIZE):
            loss, c = classifier_batch_loss(model, chunk, batch_size=1)
            total_loss += loss.item()
            correct += c
    return total_loss / len(docs), correct / len(docs)


def train_val_split(items: list, fraction: float, rng: np.random.Generator) -> tuple[list, list]:
    """Hold out ``max(1, int(len(items) * fraction))`` items, drawn by one
    permutation from ``rng``; no split when ``fraction <= 0`` or fewer than
    two items."""
    if fraction <= 0 or len(items) < 2:
        return items, []
    count = max(1, int(len(items) * fraction))
    order = rng.permutation(len(items))
    return [items[i] for i in order[count:]], [items[i] for i in order[:count]]


def fine_tune_classifier(
    model: EncoderModel,
    docs: list[EncodedDocument],
    num_labels: int,
    epochs: int,
    rng: np.random.Generator,
    lr: float = 1e-3,
    weight_decay: float = 0.01,
    warmup_steps: int = 20,
    batch_size: int = 8,
    val_fraction: float = 0.1,
) -> tuple[EncoderModel, list[EpochStats]]:
    """Fit the label classifier on [CLS] embeddings jointly with the encoder,
    under a warmup-then-linear-decay learning rate; the best validation
    snapshot is kept."""
    for doc in docs:
        if doc.label is None:
            raise ValueError(f"document {doc.doc_id!r} has no label")
    if model.classifier is None:
        model.add_classifier(num_labels, rng)
    train_docs, val_docs = train_val_split(docs, val_fraction, rng)
    # the masked-token head is off the classification path and gets no grads
    trainable = [p for n, p in model.named_parameters().items()
                 if not n.startswith("mlm_head.")]
    steps_per_epoch = -(-len(train_docs) // batch_size)
    optimizer = AdamW(
        trainable, lr=lr, weight_decay=weight_decay, warmup_steps=warmup_steps,
        schedule="linear_decay", total_steps=max(epochs * steps_per_epoch, warmup_steps + 1),
    )

    def batch_loss(batch):
        loss, correct = classifier_batch_loss(model, batch, batch_size, train=True, rng=rng)
        return loss, batch_size, correct, len(batch)

    def validate(epoch):
        return evaluate_classifier(model, val_docs)

    history = fit(train_docs, batch_loss, optimizer, epochs, batch_size, rng,
                  validate=validate if val_docs else None, keep_best=True, name="classifier")
    return model, history
