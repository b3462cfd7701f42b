"""End-to-end orchestration: corpus ingestion, staged runs, artifacts.

``STAGES`` is the method's chain of steps, in order, and ``run_stage`` the
one code path that runs any of them. The runner refuses an output directory
whose ``manifest.json`` names another configuration hash, corpus hash or
seed, and requires the stage before this one among the stages that apply to
the configuration (``finetune`` applies only in labels mode). It then runs
the stage body and records the details the body returns in the manifest.

A stage body gets a ``_Context`` that loads each artifact of the output
directory on first use, writes its own artifacts and returns its manifest
details. Nothing passes from one stage to the next in memory, so
``run_all`` and one stage at a time write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .checkpoint import FORMAT_VERSION as CHECKPOINT_VERSION
from .checkpoint import atomic_write, write_jsonl
from .clusterer import (
    CLUSTER_FORMAT_VERSION,
    ClusterSet,
    cluster_with_labels,
    cluster_without_labels,
)
from .config import ConfigError, PipelineConfig
from .decoder import (
    DecoderModel,
    build_training_examples,
    init_from_encoder,
    train_decoder,
)
from .encoder import (
    EncoderModel,
    ModelConfig,
    fine_tune_classifier,
    pretrain_mlm,
    train_val_split,
)
from .generator import summarize_cluster
from .metrics import best_rouge, cosine_center, cosine_top_k
from .tokenizer import EncodedDocument, Vocabulary, build_vocab, encode, tokenize

log = logging.getLogger(__name__)

VOCAB_FILE = "vocab.txt"
LABELS_FILE = "labels.txt"
ENCODER_FILE = "encoder.ckpt"
CLUSTERS_FILE = "clusters.jsonl"
EMBEDDINGS_FILE = "embeddings.npy"
DECODER_FILE = "decoder.ckpt"
SUMMARIES_FILE = "summaries.jsonl"
METRICS_JSON = "metrics.json"
METRICS_TXT = "metrics.txt"
MANIFEST_FILE = "manifest.json"


class CorpusError(Exception):
    """Malformed or inconsistent corpus input."""


class ArtifactError(Exception):
    """Artifacts in the output directory do not match this run."""


@dataclass
class CorpusRecord:
    id: str
    text: str
    label: str | None = None


def load_corpus(path: str | Path, require_labels: bool = False) -> list[CorpusRecord]:
    """Read one JSON record per line: {"id", "text", optional "label"}.

    An id is a JSON string or integer (read as its decimal string); text
    and label are JSON strings, and a null or absent label means unlabelled.
    Blank lines are skipped; malformed lines, fields of any other JSON type,
    duplicate ids, empty texts, and (when required) missing labels are
    rejected with line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file {path} does not exist")
    records: list[CorpusRecord] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(raw, dict) or "id" not in raw or "text" not in raw:
                raise CorpusError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
            doc_id = raw["id"]
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise CorpusError(f"{path}:{lineno}: id must be a string or an integer, "
                                  f"got {json.dumps(doc_id)}")
            doc_id = str(doc_id)
            if doc_id in seen:
                raise CorpusError(
                    f"duplicate id {doc_id!r} at lines {seen[doc_id]} and {lineno}"
                )
            seen[doc_id] = lineno
            text = raw["text"]
            if not isinstance(text, str):
                raise CorpusError(f"{path}:{lineno}: text must be a string, got {json.dumps(text)}")
            if not tokenize(text):
                raise CorpusError(f"{path}:{lineno}: text is empty after normalization")
            label = raw.get("label")
            if label is not None and not isinstance(label, str):
                raise CorpusError(f"{path}:{lineno}: label must be a string, "
                                  f"got {json.dumps(label)}")
            if require_labels and label is None:
                raise CorpusError(f"{path}:{lineno}: label required in labels mode")
            records.append(CorpusRecord(doc_id, text, label))
    if not records:
        raise CorpusError(f"corpus file {path} holds no records")
    return records


def corpus_hash(records: list[CorpusRecord]) -> str:
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.id, r.text, r.label], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# -- stage inputs -------------------------------------------------------------


def _encode_corpus(records: list[CorpusRecord], vocab: Vocabulary, max_len: int,
                   label_names: list[str] | None = None) -> list[EncodedDocument]:
    label_index = {name: i for i, name in enumerate(label_names or [])}
    return [encode(r.text, vocab, max_len, doc_id=r.id, label=label_index.get(r.label))
            for r in records]


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


@dataclass
class _Context:
    """One stage's inputs: the run's settings, and the output directory's
    artifacts, each loaded on first use."""

    config: PipelineConfig
    records: list[CorpusRecord]
    out_dir: Path
    references_path: str | Path | None = None

    @cached_property
    def vocab(self) -> Vocabulary:
        return Vocabulary.load(self.out_dir / VOCAB_FILE)

    @cached_property
    def label_names(self) -> list[str]:
        return (self.out_dir / LABELS_FILE).read_text(encoding="utf-8").splitlines()

    @cached_property
    def docs(self) -> list[EncodedDocument]:
        return _encode_corpus(self.records, self.vocab, self.config.max_len)

    @cached_property
    def encoder(self) -> EncoderModel:
        return EncoderModel.load(self.out_dir / ENCODER_FILE)

    @cached_property
    def cluster_set(self) -> ClusterSet:
        return ClusterSet.load(self.out_dir / CLUSTERS_FILE)

    @cached_property
    def embeddings(self) -> np.ndarray:
        return np.load(self.out_dir / EMBEDDINGS_FILE)

    @cached_property
    def decoder(self) -> DecoderModel:
        return DecoderModel.load(self.out_dir / DECODER_FILE)


# -- stage bodies -------------------------------------------------------------


def _build_vocab(ctx: _Context) -> dict:
    config = ctx.config
    vocab = build_vocab((r.text for r in ctx.records), config.vocab_max_size,
                        config.vocab_min_count)
    vocab.save(ctx.out_dir / VOCAB_FILE)
    if config.uses_labels:
        _write_text(ctx.out_dir / LABELS_FILE,
                    "\n".join(sorted({r.label for r in ctx.records})) + "\n")
    log.info("vocabulary built: %d tokens", vocab.size)
    return {"vocab_size": vocab.size}


def _pretrain(ctx: _Context) -> dict:
    config = ctx.config
    scale = ModelConfig.paper_scale if config.preset == "paper" else ModelConfig.desk_scale
    model_config = scale(ctx.vocab.size, config.max_len, config.dropout)
    rng = np.random.default_rng([config.seed, 1])
    if config.no_pretraining:
        encoder = EncoderModel(model_config, rng)
        details = {"trained": False, "reason": "no_pretraining ablation"}
    else:
        train_docs, val_docs = train_val_split(ctx.docs, config.val_fraction, rng)
        encoder, history = pretrain_mlm(
            train_docs, model_config, epochs=config.mlm_epochs, rng=rng,
            lr=config.mlm_lr, weight_decay=config.weight_decay,
            warmup_steps=config.mlm_warmup_steps, batch_size=config.mlm_batch_size,
            mask_rate=config.mask_rate, bert_corruption=config.bert_corruption,
            vocab=ctx.vocab, val_docs=val_docs,
        )
        details = {
            "trained": True,
            "epochs": config.mlm_epochs,
            "final_loss": history[-1].loss,
            "final_accuracy": history[-1].accuracy,
        }
    encoder.save(ctx.out_dir / ENCODER_FILE)
    return details


def _finetune(ctx: _Context) -> dict:
    config, names = ctx.config, ctx.label_names
    docs = _encode_corpus(ctx.records, ctx.vocab, config.max_len, names)
    encoder, history = fine_tune_classifier(
        ctx.encoder, docs, num_labels=len(names), epochs=config.finetune_epochs,
        rng=np.random.default_rng([config.seed, 2]),
        lr=config.finetune_lr, weight_decay=config.weight_decay,
        warmup_steps=config.finetune_warmup_steps, batch_size=config.finetune_batch_size,
        val_fraction=config.val_fraction,
    )
    encoder.save(ctx.out_dir / ENCODER_FILE)
    return {"num_labels": len(names), "final_val_accuracy": history[-1].val_accuracy}


def _cluster(ctx: _Context) -> dict:
    embeddings = ctx.encoder.embed_documents(ctx.docs)
    if ctx.config.uses_labels:
        cluster_set = cluster_with_labels(ctx.encoder, ctx.docs, embeddings=embeddings)
    else:
        rng = np.random.default_rng([ctx.config.seed, 3])
        cluster_set = cluster_without_labels(ctx.encoder, ctx.docs, ctx.config.num_clusters,
                                             rng=rng, embeddings=embeddings)
    with atomic_write(ctx.out_dir / EMBEDDINGS_FILE) as fh:
        np.save(fh, embeddings)
    cluster_set.save(ctx.out_dir / CLUSTERS_FILE)
    return {
        "k": cluster_set.k,
        "sizes": [int(cluster_set.members(c).size) for c in range(cluster_set.k)],
        "embeddings": {"file": EMBEDDINGS_FILE, "shape": list(embeddings.shape)},
    }


def _train_decoder(ctx: _Context) -> dict:
    config = ctx.config
    rng = np.random.default_rng([config.seed, 4])
    if config.no_decoder_init:
        decoder = DecoderModel(ctx.encoder.config, rng)
        init_mode = "random"
    else:
        decoder = init_from_encoder(ctx.encoder)
        init_mode = "from_encoder"
    examples = build_training_examples(
        ctx.docs, ctx.embeddings, ctx.cluster_set, config.start_token_id(ctx.vocab.cls_id),
        unweighted=config.unweighted_ce,
    )
    train_examples, val_examples = train_val_split(examples, config.val_fraction, rng)
    decoder, history = train_decoder(
        decoder, train_examples, epochs=config.decoder_epochs, rng=rng,
        lr=config.decoder_lr, weight_decay=config.weight_decay,
        warmup_steps=config.decoder_warmup_steps, batch_size=config.decoder_batch_size,
        normalize=config.loss_normalization, val_examples=val_examples,
    )
    decoder.save(ctx.out_dir / DECODER_FILE)
    return {
        "init": init_mode,
        "unweighted_ce": config.unweighted_ce,
        "epochs": config.decoder_epochs,
        "final_loss": history[-1].loss,
        "final_val_loss": history[-1].val_loss,
    }


def _summarize(ctx: _Context) -> dict:
    cluster_set = ctx.cluster_set
    sampler = ctx.config.sampler_config(ctx.vocab.size, ctx.vocab.cls_id)
    rows = []
    for c in range(cluster_set.k):
        ranked = summarize_cluster(ctx.decoder, ctx.encoder, ctx.vocab,
                                   cluster_set.centers[c], c, sampler)
        for candidate in ranked[: sampler.retain_top_m]:
            rows.append({
                "cluster": c,
                "rank": candidate.rank,
                "score": candidate.score,
                "text": candidate.text,
                "token_count": len(candidate.token_ids),
                "seed": ctx.config.seed,
            })
    write_jsonl(ctx.out_dir / SUMMARIES_FILE, rows)
    return {"clusters": cluster_set.k, "retained_per_cluster": sampler.retain_top_m}


def load_references(path: str | Path) -> dict[int, list[list[str]]]:
    """Reference summaries: one JSON record {"cluster", "text"} per line."""
    references: dict[int, list[list[str]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                cluster = raw["cluster"]
                if type(cluster) is not int:
                    raise TypeError(f"cluster must be a JSON integer, got {cluster!r}")
                tokens = tokenize(str(raw["text"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed reference: {exc}") from exc
            references.setdefault(cluster, []).append(tokens)
    return references



def _evaluate(ctx: _Context) -> dict:
    config, cluster_set = ctx.config, ctx.cluster_set
    top_summaries: dict[int, str] = {}
    with open(ctx.out_dir / SUMMARIES_FILE, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["rank"] == 1:
                top_summaries[row["cluster"]] = row["text"]
    summary_embeddings = ctx.encoder.embed_documents(
        [encode(top_summaries[c], ctx.vocab, config.max_len) for c in range(cluster_set.k)])

    report: dict = {
        "clusters": cluster_set.k,
        "cosine_center": cosine_center(summary_embeddings, cluster_set.centers),
        "cosine_top_k": {},
    }
    # ClusterSet.doc_ids is in corpus order, the order of the stored embeddings
    for k in config.top_k_values():
        report["cosine_top_k"][str(k)] = cosine_top_k(
            summary_embeddings, ctx.embeddings, cluster_set.doc_ids,
            cluster_set.assignment, cluster_set.centers, k,
        )
    if ctx.references_path is not None:
        references = load_references(ctx.references_path)
        unknown = sorted(c for c in references if not 0 <= c < cluster_set.k)
        if unknown:
            raise CorpusError(f"{ctx.references_path}: reference clusters {unknown} "
                              f"outside [0, {cluster_set.k})")
        rouge_rows = {}
        for metric, kind, n in (("rouge-1", "n", 1), ("rouge-2", "n", 2), ("rouge-l", "l", 1)):
            scores = []
            for c in range(cluster_set.k):
                refs = references.get(c)
                if not refs:
                    raise CorpusError(f"no reference summaries for cluster {c}")
                scores.append(best_rouge(tokenize(top_summaries[c]), refs, kind, n))
            rouge_rows[metric] = {
                "precision": float(np.mean([s.precision for s in scores])),
                "recall": float(np.mean([s.recall for s in scores])),
                "f1": float(np.mean([s.f1 for s in scores])),
            }
        report["rouge"] = rouge_rows

    _write_text(ctx.out_dir / METRICS_JSON, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_text(ctx.out_dir / METRICS_TXT, _render_metrics_table(report))
    log.info("cosine_center %.4f", report["cosine_center"])
    return {"has_rouge": ctx.references_path is not None}


def _render_metrics_table(report: dict) -> str:
    lines = []
    if "rouge" in report:
        header = f"{'':<10}{'R-1':>8}{'R-2':>8}{'R-L':>8}"
        lines.append(header)
        for field_name in ("precision", "recall", "f1"):
            row = f"{field_name:<10}"
            for metric in ("rouge-1", "rouge-2", "rouge-l"):
                row += f"{report['rouge'][metric][field_name]:>8.4f}"
            lines.append(row)
        lines.append("")
    columns = ["cosine_center"] + [f"cosine_top-{k}" for k in report["cosine_top_k"]]
    values = [report["cosine_center"]] + list(report["cosine_top_k"].values())
    lines.append("".join(f"{c:>16}" for c in columns))
    lines.append("".join(f"{v:>16.4f}" for v in values))
    lines.append("")
    return "\n".join(lines)


# -- the stage table and its runner -------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One step of the method: ``run`` writes the step's artifacts and
    returns the details ``manifest.json`` records for it."""

    name: str
    run: Callable[[_Context], dict]
    labels_only: bool = False


STAGES = (
    Stage("build-vocab", _build_vocab),
    Stage("pretrain", _pretrain),
    Stage("finetune", _finetune, labels_only=True),
    Stage("cluster", _cluster),
    Stage("train-decoder", _train_decoder),
    Stage("summarize", _summarize),
    Stage("evaluate", _evaluate),
)


def _stages_for(config: PipelineConfig) -> list[Stage]:
    return [s for s in STAGES if config.uses_labels or not s.labels_only]


def run_stage(name: str, config: PipelineConfig, records: list[CorpusRecord],
              out_dir: str | Path, references_path: str | Path | None = None) -> dict:
    """Run stage ``name`` into ``out_dir`` and return the details it records.

    Nothing is created before the checks pass: the stage applies to the
    configuration, every record is labeled in labels mode, the manifest (if
    any) was written for this configuration, corpus and seed, and the stage
    before this one has run.
    """
    out_dir = Path(out_dir)
    stages = _stages_for(config)
    names = [s.name for s in stages]
    if name not in names:
        raise ConfigError(f"stage {name!r} is not among this configuration's stages "
                          f"{names}; finetune runs only in labels clustering mode")
    if config.uses_labels and any(r.label is None for r in records):
        raise CorpusError("labels clustering mode requires a label on every record")
    expected = {
        "config_hash": config.config_hash(),
        "corpus_hash": corpus_hash(records),
        "seed": config.seed,
    }
    manifest_path = out_dir / MANIFEST_FILE
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for key, value in expected.items():
            if manifest.get(key) != value:
                raise ArtifactError(
                    f"{out_dir} was produced under a different {key.replace('_', ' ')} "
                    f"({manifest.get(key)!r} vs {value!r}); use a fresh output directory"
                )
    else:
        manifest = {
            **expected,
            "versions": {
                "package": __version__,
                "checkpoint_format": CHECKPOINT_VERSION,
                "cluster_format": CLUSTER_FORMAT_VERSION,
            },
            "stages": {},
        }
    position = names.index(name)
    if position and names[position - 1] not in manifest["stages"]:
        raise ArtifactError(
            f"stage {names[position - 1]!r} has not run in {out_dir}; run it first")
    out_dir.mkdir(parents=True, exist_ok=True)
    details = stages[position].run(_Context(config, records, out_dir, references_path))
    manifest["stages"][name] = details
    _write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return details


def run_all(config: PipelineConfig, records: list[CorpusRecord], out_dir: str | Path,
            references_path: str | Path | None = None) -> None:
    """Every stage that applies to ``config``, in order, each from a fresh context."""
    for stage in _stages_for(config):
        run_stage(stage.name, config, records, out_dir, references_path)
