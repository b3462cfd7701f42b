"""End-to-end orchestration: corpus ingestion, staged runs, artifacts.

``STAGES`` is the method's chain of steps, in order, and ``run_stage`` the
one code path that runs any of them. The runner refuses an output directory
whose ``manifest.json`` names another configuration hash, corpus hash, seed
or set of versions (package, checkpoint and cluster formats), and requires
the stage before this one among the stages that apply to the configuration
(``finetune`` applies only in labels mode). It then runs the stage body and
records the details the body returns in the manifest.

A stage body gets a ``_Context`` that loads each artifact of the output
directory on first use, writes its own artifacts and returns its manifest
details. Nothing passes from one stage to the next in memory, so
``run_all`` and one stage at a time write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .checkpoint import FORMAT_VERSION as CHECKPOINT_VERSION
from .checkpoint import INTEGER, OBJECT, STRING, atomic_write, read_json, read_jsonl, write_jsonl
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
from .generator import sample_candidates, summarize_cluster
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

# The k of each cosine_top_k score in metrics.json.
COSINE_TOP_K = (1, 5, 10)


class CorpusError(Exception):
    """Malformed or inconsistent corpus input."""


class ArtifactError(Exception):
    """Artifacts in the output directory do not match this run."""


@dataclass
class CorpusRecord:
    id: str
    text: str
    label: str | None = None


_CORPUS_FIELDS = {"id": ("a string or an integer", lambda v: type(v) in (str, int)),
                  "text": STRING,
                  "label": ("a string or null", lambda v: v is None or type(v) is str)}


def load_corpus(path: str | Path, require_labels: bool = False) -> list[CorpusRecord]:
    """Read one JSON record per line: {"id", "text", optional "label"}.

    An id is a JSON string or integer (read as its decimal string); text
    and label are JSON strings, and a null or absent label means unlabelled.
    Blank lines are skipped. ``read_jsonl`` checks each line's JSON and
    field types; this function adds the corpus's own rules: no id twice, no
    text empty after normalization, and (when required) a label on every
    record. Each error names the line and exits as a ``CorpusError``.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file {path} does not exist")
    records: list[CorpusRecord] = []
    seen: dict[str, str] = {}
    try:
        for where, raw in read_jsonl(path, _CORPUS_FIELDS, "a corpus record"):
            doc_id = str(raw["id"])
            if doc_id in seen:
                raise CorpusError(f"{where}: duplicate id {doc_id!r}, first at {seen[doc_id]}")
            seen[doc_id] = where
            if not tokenize(raw["text"]):
                raise CorpusError(f"{where}: text is empty after normalization")
            label = raw.get("label")
            if require_labels and label is None:
                raise CorpusError(f"{where}: label required in labels mode")
            records.append(CorpusRecord(doc_id, raw["text"], label))
    except ValueError as exc:
        raise CorpusError(str(exc)) from None
    if not records:
        raise CorpusError(f"corpus file {path} holds no records")
    return records


def corpus_hash(records: list[CorpusRecord]) -> str:
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.id, r.text, r.label], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# -- stage inputs -------------------------------------------------------------


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
        """The corpus, encoded once; in labels mode each document carries
        its label's index."""
        names = self.label_names if self.config.uses_labels else []
        index = {name: i for i, name in enumerate(names)}
        return [encode(r.text, self.vocab, self.config.max_len, doc_id=r.id,
                       label=index.get(r.label)) for r in self.records]

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
        encoder, history = pretrain_mlm(train_docs, model_config, config, rng, val_docs)
        details = {
            "trained": True,
            "epochs": config.mlm_epochs,
            "final_loss": history[-1].loss,
            "final_accuracy": history[-1].accuracy,
            "final_val_loss": history[-1].val_loss,
            "final_val_accuracy": history[-1].val_accuracy,
        }
    encoder.save(ctx.out_dir / ENCODER_FILE)
    return details


def _finetune(ctx: _Context) -> dict:
    config, names = ctx.config, ctx.label_names
    if ctx.encoder.classifier is not None:
        raise ArtifactError(f"the encoder in {ctx.out_dir} is already fine-tuned; "
                            "run pretrain again before finetune")
    encoder, history = fine_tune_classifier(ctx.encoder, ctx.docs, len(names), config,
                                            np.random.default_rng([config.seed, 2]))
    encoder.save(ctx.out_dir / ENCODER_FILE)
    # the epoch that fit's keep_best restored: the first lowest validation loss
    kept = min((s for s in history if s.val_loss is not None), key=lambda s: s.val_loss,
               default=history[-1])
    return {"num_labels": len(names), "kept_epoch": kept.epoch,
            "kept_val_loss": kept.val_loss, "kept_val_accuracy": kept.val_accuracy}


def _cluster(ctx: _Context) -> dict:
    embeddings = ctx.encoder.embed_documents(ctx.docs)
    doc_ids = [d.doc_id for d in ctx.docs]
    if ctx.config.uses_labels:
        probs = ctx.encoder.label_probs(embeddings)
        cluster_set = cluster_with_labels(doc_ids, embeddings, probs)
    else:
        cluster_set = cluster_without_labels(doc_ids, embeddings, ctx.config.num_clusters,
                                             np.random.default_rng([ctx.config.seed, 3]))
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
    # a local encoder, not ``ctx.encoder``, so it is freed before training
    encoder = EncoderModel.load(ctx.out_dir / ENCODER_FILE)
    if config.no_decoder_init:
        decoder = DecoderModel(encoder.config, rng)
        init_mode = "random"
    else:
        decoder = init_from_encoder(encoder)
        init_mode = "from_encoder"
    del encoder
    examples = build_training_examples(ctx.docs, ctx.embeddings,
                                       None if config.unweighted_ce else ctx.cluster_set)
    train_examples, val_examples = train_val_split(examples, config.val_fraction, rng)
    # validation scores the per-token NLL: every validation document weighs 1
    val_examples = [replace(e, weight=1.0) for e in val_examples]
    decoder, history = train_decoder(decoder, train_examples, config, rng, val_examples)
    decoder.save(ctx.out_dir / DECODER_FILE)
    return {
        "init": init_mode,
        "unweighted_ce": config.unweighted_ce,
        "epochs": config.decoder_epochs,
        "final_loss": history[-1].loss,
        "final_val_loss": history[-1].val_loss,
    }


def _summarize(ctx: _Context) -> dict:
    config, cluster_set = ctx.config, ctx.cluster_set
    sampled = sample_candidates(ctx.decoder, cluster_set.centers, ctx.vocab, config)
    rows = []
    for c, candidates in enumerate(sampled):
        ranked = summarize_cluster(ctx.encoder, ctx.vocab, cluster_set.centers[c], candidates)
        for candidate in ranked[: config.retain_top_m]:
            rows.append({
                "cluster": c,
                "rank": candidate.rank,
                "score": candidate.score,
                "text": candidate.text,
                "token_count": len(candidate.token_ids),
                "seed": config.seed,
            })
    write_jsonl(ctx.out_dir / SUMMARIES_FILE, rows)
    return {"clusters": cluster_set.k, "retained_per_cluster": config.retain_top_m}


def load_references(path: str | Path) -> dict[int, list[list[str]]]:
    """Reference summaries, one JSON record {"cluster", "text"} per line,
    as token lists by cluster. Blank lines are skipped; a line that is not
    such a record, or whose text is empty after normalization, is a
    ``CorpusError`` naming the line."""
    references: dict[int, list[list[str]]] = {}
    try:
        for where, raw in read_jsonl(path, {"cluster": INTEGER, "text": STRING}, "a reference"):
            tokens = tokenize(raw["text"])
            if not tokens:
                raise CorpusError(f"{where}: text is empty after normalization")
            references.setdefault(raw["cluster"], []).append(tokens)
    except ValueError as exc:
        raise CorpusError(str(exc)) from None
    return references


def _evaluate(ctx: _Context) -> dict:
    config, cluster_set = ctx.config, ctx.cluster_set
    top_summaries: dict[int, str] = {}
    path = ctx.out_dir / SUMMARIES_FILE
    fields = {"cluster": INTEGER, "rank": INTEGER, "text": STRING}
    for _, row in read_jsonl(path, fields, "a summary row"):
        if row["rank"] == 1:
            top_summaries[row["cluster"]] = row["text"]
    missing = [c for c in range(cluster_set.k) if c not in top_summaries]
    if missing:
        raise ValueError(f"{path}: no rank-1 summary for cluster {missing[0]}")
    summary_embeddings = ctx.encoder.embed_documents(
        [encode(top_summaries[c], ctx.vocab, config.max_len) for c in range(cluster_set.k)])

    report: dict = {
        "clusters": cluster_set.k,
        "cosine_center": cosine_center(summary_embeddings, cluster_set.centers),
        "cosine_top_k": {},
    }
    # ClusterSet.doc_ids is in corpus order, the order of the stored embeddings
    for k in COSINE_TOP_K:
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
    configuration, every record is labeled in labels mode, k-means mode asks
    for no more clusters than there are records, the manifest (if any) was
    written for this configuration, corpus and seed and under these versions
    of the package and its file formats, and the stage before this one has
    run.
    """
    out_dir = Path(out_dir)
    stages = _stages_for(config)
    names = [s.name for s in stages]
    if name not in names:
        raise ConfigError(f"stage {name!r} is not among this configuration's stages "
                          f"{names}; finetune runs only in labels clustering mode")
    if config.uses_labels and any(r.label is None for r in records):
        raise CorpusError("labels clustering mode requires a label on every record")
    if not config.uses_labels and config.num_clusters > len(records):
        raise ConfigError(f"num_clusters {config.num_clusters} exceeds the corpus's "
                          f"{len(records)} records")
    expected = {
        "config_hash": config.config_hash(),
        "corpus_hash": corpus_hash(records),
        "seed": config.seed,
        "versions": {
            "package": __version__,
            "checkpoint_format": CHECKPOINT_VERSION,
            "cluster_format": CLUSTER_FORMAT_VERSION,
        },
    }
    manifest_path = out_dir / MANIFEST_FILE
    if manifest_path.exists():
        manifest = read_json(manifest_path, {"stages": OBJECT}, "a manifest")
        for key, value in expected.items():
            if manifest.get(key) != value:
                raise ArtifactError(
                    f"{out_dir} was produced under a different {key.replace('_', ' ')} "
                    f"({manifest.get(key)!r} vs {value!r}); use a fresh output directory"
                )
    else:
        manifest = {**expected, "stages": {}}
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
