"""Bidirectional transformer encoder.

Three jobs: masked-token pretraining over a raw corpus, document embedding
(the hidden state of the leading [CLS] position after the last block), and
optional label-supervised fine-tuning through a softmax classifier head on
that embedding.

Masked-token training reads the last block's output at every position.
Embedding, classification and fine-tuning read the [CLS] rows only, so they
run a shortened last block (``forward(..., cls_only=True)``): its keys and
values still come from every position, but its queries, output projection,
residual norms and feed-forward sublayer run on one row per document.

A forward drops out exactly when it is given a generator: training passes
its generator, while embedding, evaluation and classification pass none.

Every forward takes a batch of documents, right-padded with [PAD] to the
longest one; padded keys are masked out of attention, so each document's
hidden states are those it would have alone. Training runs one forward and
one backward per batch of ``batch_size`` documents (the last batch may be
shorter and keeps the ``1/batch_size`` scale per document); embedding and
evaluation run in batches of ``EVAL_BATCH_SIZE``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .checkpoint import INTEGER, NUMBER, check_fields, load_checkpoint, save_checkpoint
from .config import PipelineConfig
from .layers import (
    EncoderBlock,
    LayerNorm,
    Module,
    PredictionHead,
    Projection,
    dropout_from,
    padding_mask,
    parameter,
)
from .optim import AdamW, EpochStats, fit
from .tensor import Tensor, cross_entropy, gather_rows, no_grad, stable_softmax
from .tokenizer import EncodedDocument, mask_for_mlm, pad_batch

# Documents per forward when embedding or evaluating without gradients.
EVAL_BATCH_SIZE = 32


def batches(items: list, size: int) -> list[list]:
    """Consecutive runs of ``size`` items; the last may be shorter."""
    return [items[start:start + size] for start in range(0, len(items), size)]


@dataclass(frozen=True)
class ModelConfig:
    """Shared shape configuration for the encoder and decoder; the run's
    ``max_len`` and ``dropout`` come from its ``PipelineConfig``."""

    hidden_size: int
    num_blocks: int
    num_heads: int
    ffn_size: int
    max_len: int
    vocab_size: int
    dropout: float

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError(f"need at least one block, got {self.num_blocks}")
        if self.num_heads < 1 or self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be set before building a model")

    @classmethod
    def desk_scale(cls, vocab_size: int, max_len: int, dropout: float) -> "ModelConfig":
        return cls(64, 2, 4, 256, max_len, vocab_size, dropout)

    @classmethod
    def paper_scale(cls, vocab_size: int, max_len: int, dropout: float) -> "ModelConfig":
        return cls(768, 6, 12, 3072, max_len, vocab_size, dropout)


# The JSON type of each ModelConfig field, as a checkpoint's config must hold it.
_CONFIG_FIELDS = {f.name: {"int": INTEGER, "float": NUMBER}[f.type] for f in fields(ModelConfig)}


class Model(Module):
    """Word and position embeddings, a stack of ``block_type`` blocks, and
    whatever head a subclass adds; saved and loaded as one checkpoint whose
    ``component`` tag names the subclass."""

    component: str
    block_type: type

    def __init__(self, config: ModelConfig):
        """The embeddings, their norm and the blocks, as float32 shells. A
        subclass adds its head and then draws every weight matrix at once
        from its generator (``Module.draw``), so matrix i of
        ``named_parameters`` comes from child i of the generator's spawn,
        whatever thread draws it; without a generator the matrices stay
        zero shells, for a model whose parameters are set after."""
        self.config = config
        self.word_embedding = parameter(config.vocab_size, config.hidden_size)
        self.position_embedding = parameter(config.max_len, config.hidden_size)
        self.embed_norm = LayerNorm(config.hidden_size)
        self.blocks = [
            self.block_type(config.hidden_size, config.num_heads, config.ffn_size)
            for _ in range(config.num_blocks)
        ]

    @property
    def dtype(self) -> np.dtype:
        return self.word_embedding.dtype

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def _embed(self, sequences, rng: np.random.Generator | None):
        """Embedding-layer output ``[b·t, h]`` of b token-id sequences padded
        to the longest (t), after dropout; each sequence's length; and the
        forward's dropout, at ``config.dropout`` from ``rng``."""
        ids, lengths = pad_batch(sequences)
        b, t = ids.shape
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        x = self.embed_norm(gather_rows(self.word_embedding, ids.reshape(-1)),
                            gather_rows(self.position_embedding, np.tile(np.arange(t), b)))
        drop = dropout_from(rng, self.config.dropout)
        return drop(x), lengths, drop

    def save(self, path) -> None:
        """Write the model as a float32 checkpoint; any other dtype is refused,
        since the checkpoint would silently round it."""
        if self.dtype != np.float32:
            raise ValueError(f"checkpoints store float32; this model is {self.dtype}")
        save_checkpoint(
            path,
            component=self.component,
            config=asdict(self.config),
            tensors={n: p.data for n, p in self.named_parameters().items()},
        )

    @classmethod
    def load(cls, path) -> "Model":
        """Rebuild a saved model, in float32 as every checkpoint is. Its
        parameters are read-only views of the mapped file
        (``load_checkpoint``): a model that trains copies them into its
        optimizer first, and nothing writes into them in place."""
        ckpt = load_checkpoint(path)
        if ckpt.component != cls.component:
            raise ValueError(f"{path} holds a {ckpt.component!r} checkpoint, expected {cls.component!r}")
        if ckpt.config.keys() != _CONFIG_FIELDS.keys():
            raise ValueError(f"{path}: checkpoint config keys do not match the model config: "
                             f"{sorted(ckpt.config.keys() ^ _CONFIG_FIELDS.keys())}")
        check_fields(str(path), ckpt.config, _CONFIG_FIELDS, "a checkpoint config")
        return cls._filled(ModelConfig(**ckpt.config), ckpt.tensors)

    def astype(self, dtype) -> "Model":
        """A copy of this model, classifier head included, with every
        parameter cast to ``dtype``; this model is left as it is."""
        return self._filled(self.config,
                            {n: p.data.astype(dtype) for n, p in self.named_parameters().items()})

    @classmethod
    def _filled(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "Model":
        """A shell built without a generator (nothing drawn), with a
        classifier head when the model takes one and ``classifier.weight`` is
        among the arrays (its width is that tensor's second dimension), every
        parameter then replaced by its named array; names and shapes must
        match exactly, so no shell survives."""
        model = cls(config, None)
        if "classifier.weight" in arrays and hasattr(model, "add_classifier"):
            model.add_classifier(arrays["classifier.weight"].shape[1], None)
        params = model.named_parameters()
        if set(params) != set(arrays):
            raise ValueError(f"tensor names do not match the model: "
                             f"{sorted(set(params) ^ set(arrays))}")
        for name, p in params.items():
            array = arrays[name]
            if array.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {array.shape} vs {p.shape}")
            p.data = array
        return model


class EncoderModel(Model):
    """Word+position embeddings, encoder blocks, masked-token head."""

    component = "encoder"
    block_type = EncoderBlock

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__(config)
        self.mlm_head = PredictionHead(config.hidden_size, config.vocab_size)
        self.classifier: Projection | None = None
        self.draw(rng)

    # -- structure ----------------------------------------------------------

    def add_classifier(self, num_labels: int, rng: np.random.Generator | None) -> None:
        """A new classifier head in this model's dtype, drawn in float32 from
        ``rng`` (a zero shell without one)."""
        if num_labels < 1:
            raise ValueError(f"need at least one label, got {num_labels}")
        self.classifier = Projection(self.config.hidden_size, num_labels)
        self.classifier.draw(rng)
        self.classifier.weight.data = self.classifier.weight.data.astype(self.dtype, copy=False)

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        ids,
        rng: np.random.Generator | None = None,
        cls_only: bool = False,
    ) -> Tensor:
        """Final hidden states ``[b·t, h]`` of a batch of b token-id
        sequences, padded to the longest (t); with ``cls_only``, only the
        [CLS] embeddings ``[b, h]``. Dropout is drawn from ``rng`` when one
        is given (training) and skipped without it.

        Row i·t + j of the hidden states is position j of sequence i; rows
        past a sequence's length are padding, which no real position sees.
        With ``cls_only`` the last block runs at each sequence's row 0 alone
        (its keys and values still cover every position), so its rows are
        those of the full forward up to float rounding.
        """
        x, lengths, drop = self._embed(ids, rng)
        b = len(lengths)
        t = x.shape[0] // b
        mask = padding_mask(lengths, t, self.dtype)
        for block in self.blocks[:-1]:
            x = block(x, b, mask, drop)
        rows = np.arange(b) * t if cls_only else None
        return self.blocks[-1](x, b, mask, drop, rows=rows)

    def embed_documents(self, docs: list[EncodedDocument]) -> np.ndarray:
        """Deterministic document embeddings ``[n, h]`` (no graph, no dropout),
        ``EVAL_BATCH_SIZE`` documents per forward."""
        with no_grad():
            return np.concatenate([
                self.forward([d.ids for d in chunk], cls_only=True).data
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
            return stable_softmax(logits.data, -1)


# -- training ----------------------------------------------------------------


def _mlm_batch(
    model: EncoderModel,
    docs: list[EncodedDocument],
    rate: float,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator | None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Masked-position logits and original ids of one padded batch, with
    each document's masked-position count.

    Each document's mask is drawn from ``rng`` in batch order, all of them
    before the forward, whose dropout then draws from ``dropout_rng`` (in
    training, the same ``rng``; no dropout without one).
    """
    ids, positions, originals = zip(*(mask_for_mlm(doc, rate, rng) for doc in docs))
    hidden = model.forward(ids, dropout_rng)
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
) -> tuple[Tensor, int, int]:
    """One batch's training loss, each document's masked-position mean loss
    times ``1/batch_size``, summed; plus (correct, total) prediction counts.
    Masks and dropout are both drawn from ``rng``."""
    logits, originals, counts = _mlm_batch(model, docs, rate, rng, rng)
    loss = cross_entropy(logits, originals, weights=np.repeat(1.0 / (counts * batch_size), counts))
    correct = int((logits.data.argmax(axis=1) == originals).sum())
    return loss, correct, originals.size


def evaluate_mlm(
    model: EncoderModel,
    docs: list[EncodedDocument],
    rng: np.random.Generator,
    config: PipelineConfig,
) -> tuple[float, float]:
    """Masked-token loss (mean over every masked position) and accuracy
    under forwards without dropout, at ``config.mask_rate``."""
    total_loss = 0.0
    correct = 0
    total = 0
    with no_grad():
        for chunk in batches(docs, EVAL_BATCH_SIZE):
            logits, originals, _ = _mlm_batch(model, chunk, config.mask_rate, rng, None)
            total_loss += cross_entropy(logits, originals).item()
            correct += int((logits.data.argmax(axis=1) == originals).sum())
            total += originals.size
    return total_loss / max(total, 1), correct / max(total, 1)


def pretrain_mlm(
    corpus: list[EncodedDocument],
    model_config: ModelConfig,
    config: PipelineConfig,
    rng: np.random.Generator,
    val_docs: list[EncodedDocument] | None = None,
) -> tuple[EncoderModel, list[EpochStats]]:
    """Train an encoder of shape ``model_config`` to recover masked tokens
    under the ``mlm_*``, ``mask_rate`` and ``weight_decay`` settings of
    ``config``; returns per-epoch stats.

    The loss is the mean negative log-probability of the original token at
    each masked position; unmasked positions contribute nothing.
    """
    if not corpus:
        raise ValueError("cannot pretrain on an empty corpus")
    model = EncoderModel(model_config, rng)
    optimizer = AdamW(model.parameters(), lr=config.mlm_lr, weight_decay=config.weight_decay,
                      warmup_steps=config.mlm_warmup_steps)
    batch_size = config.mlm_batch_size

    def batch_loss(batch):
        loss, correct, total = mlm_batch_loss(model, batch, config.mask_rate, rng, batch_size)
        return loss, batch_size, correct, total

    def validate(epoch):
        return evaluate_mlm(model, val_docs, np.random.default_rng([7, epoch]), config)

    history = fit(corpus, batch_loss, optimizer, config.mlm_epochs, batch_size, rng,
                  validate=validate if val_docs else None, name="mlm")
    return model, history


def classifier_batch_loss(
    model: EncoderModel,
    docs: list[EncodedDocument],
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, int]:
    """One batch's classification loss, each document's label loss times
    ``1/batch_size``, summed; plus the number of correct argmax labels."""
    embeddings = model.forward([d.ids for d in docs], rng, cls_only=True)
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
    config: PipelineConfig,
    rng: np.random.Generator,
) -> tuple[EncoderModel, list[EpochStats]]:
    """Fit the label classifier on [CLS] embeddings jointly with the encoder,
    under the ``finetune_*``, ``weight_decay`` and ``val_fraction`` settings
    of ``config`` and a warmup-then-linear-decay learning rate; the best
    validation snapshot is kept."""
    for doc in docs:
        if doc.label is None:
            raise ValueError(f"document {doc.doc_id!r} has no label")
    model.add_classifier(num_labels, rng)
    train_docs, val_docs = train_val_split(docs, config.val_fraction, rng)
    # the masked-token head is off the classification path and gets no grads
    trainable = [p for n, p in model.named_parameters().items()
                 if not n.startswith("mlm_head.")]
    epochs, batch_size = config.finetune_epochs, config.finetune_batch_size
    warmup_steps = config.finetune_warmup_steps
    steps_per_epoch = -(-len(train_docs) // batch_size)
    optimizer = AdamW(
        trainable, lr=config.finetune_lr, weight_decay=config.weight_decay,
        warmup_steps=warmup_steps, total_steps=max(epochs * steps_per_epoch, warmup_steps + 1),
    )

    def batch_loss(batch):
        loss, correct = classifier_batch_loss(model, batch, batch_size, rng)
        return loss, batch_size, correct, len(batch)

    def validate(epoch):
        return evaluate_classifier(model, val_docs)

    history = fit(train_docs, batch_loss, optimizer, epochs, batch_size, rng,
                  validate=validate if val_docs else None, keep_best=True, name="classifier")
    return model, history
