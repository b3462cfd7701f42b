"""End-to-end orchestration: corpus ingestion, staged runs, artifacts.

Every stage writes into one output directory and records itself in
``manifest.json`` together with the configuration hash, corpus hash and
seed. A stage refuses to run on top of artifacts produced under a different
configuration or corpus.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import FORMAT_VERSION as CHECKPOINT_VERSION
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
from .encoder import EncoderModel, ModelConfig, fine_tune_classifier, pretrain_mlm
from .generator import SamplerConfig, summarize_cluster
from .metrics import best_rouge, cosine_center, cosine_top_k
from .tokenizer import EncodedDocument, Vocabulary, build_vocab, encode, tokenize

log = logging.getLogger(__name__)

VOCAB_FILE = "vocab.txt"
LABELS_FILE = "labels.txt"
ENCODER_FILE = "encoder.ckpt"
CLUSTERS_FILE = "clusters.jsonl"
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

    Blank lines are skipped; malformed lines, duplicate ids, empty texts,
    and (when required) missing labels are rejected with line numbers.
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
            doc_id = str(raw["id"])
            if doc_id in seen:
                raise CorpusError(
                    f"duplicate id {doc_id!r} at lines {seen[doc_id]} and {lineno}"
                )
            seen[doc_id] = lineno
            if not tokenize(str(raw["text"])):
                raise CorpusError(f"{path}:{lineno}: text is empty after normalization")
            label = raw.get("label")
            if require_labels and label is None:
                raise CorpusError(f"{path}:{lineno}: label required in labels mode")
            records.append(CorpusRecord(doc_id, str(raw["text"]),
                                        None if label is None else str(label)))
    if not records:
        raise CorpusError(f"corpus file {path} holds no records")
    return records


def corpus_hash(records: list[CorpusRecord]) -> str:
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.id, r.text, r.label], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# -- manifest -----------------------------------------------------------------


def _manifest_path(out_dir: Path) -> Path:
    return out_dir / MANIFEST_FILE


def _load_manifest(out_dir: Path) -> dict | None:
    path = _manifest_path(out_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _check_or_init_manifest(out_dir: Path, config: PipelineConfig,
                            records: list[CorpusRecord]) -> dict:
    manifest = _load_manifest(out_dir)
    expected = {
        "config_hash": config.config_hash(),
        "corpus_hash": corpus_hash(records),
        "seed": config.seed,
    }
    if manifest is None:
        manifest = {
            **expected,
            "versions": {
                "package": __version__,
                "checkpoint_format": CHECKPOINT_VERSION,
                "cluster_format": CLUSTER_FORMAT_VERSION,
            },
            "stages": {},
        }
        return manifest
    for key, value in expected.items():
        if manifest.get(key) != value:
            raise ArtifactError(
                f"{out_dir} was produced under a different {key.replace('_', ' ')} "
                f"({manifest.get(key)!r} vs {value!r}); use a fresh output directory"
            )
    return manifest


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    _manifest_path(out_dir).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _record_stage(out_dir: Path, manifest: dict, stage: str, details: dict) -> None:
    manifest["stages"][stage] = details
    _write_manifest(out_dir, manifest)


def _write_jsonl_atomic(path: Path, rows: list[dict]) -> None:
    """Write one JSON record per line to a temporary file beside ``path``,
    then rename it over ``path``: a failed write leaves the old file as it was."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require_stage(manifest: dict | None, stage: str, out_dir: Path) -> None:
    if manifest is None or stage not in manifest.get("stages", {}):
        raise ArtifactError(f"stage {stage!r} has not run in {out_dir}; run it first")


# -- shared helpers -----------------------------------------------------------


def _model_config(config: PipelineConfig, vocab_size: int) -> ModelConfig:
    if config.preset == "paper":
        return ModelConfig.paper_scale(vocab_size, config.max_len, config.dropout)
    return ModelConfig.desk_scale(vocab_size, config.max_len, config.dropout)


def _label_ids(records: list[CorpusRecord]) -> list[str]:
    return sorted({r.label for r in records if r.label is not None})


def _encode_corpus(records: list[CorpusRecord], vocab: Vocabulary, max_len: int,
                   label_names: list[str] | None) -> list[EncodedDocument]:
    label_index = {name: i for i, name in enumerate(label_names)} if label_names else {}
    docs = []
    for r in records:
        label = label_index.get(r.label) if r.label is not None else None
        docs.append(encode(r.text, vocab, max_len, doc_id=r.id, label=label))
    return docs


def _train_val_split(docs: list, fraction: float, rng: np.random.Generator):
    if fraction <= 0 or len(docs) < 2:
        return docs, []
    count = max(1, int(len(docs) * fraction))
    order = rng.permutation(len(docs))
    val = [docs[i] for i in order[:count]]
    train = [docs[i] for i in order[count:]]
    return train, val


def _uses_labels(config: PipelineConfig) -> bool:
    return config.clustering == "labels" and not config.no_labels


# -- stages -------------------------------------------------------------------


def stage_build_vocab(config: PipelineConfig, records: list[CorpusRecord],
                      out_dir: Path) -> Vocabulary:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _check_or_init_manifest(out_dir, config, records)
    vocab = build_vocab((r.text for r in records), config.vocab_max_size,
                        config.vocab_min_count)
    vocab.save(out_dir / VOCAB_FILE)
    if _uses_labels(config):
        names = _label_ids(records)
        if not names:
            raise ConfigError("labels clustering mode needs a labeled corpus")
        (out_dir / LABELS_FILE).write_text("\n".join(names) + "\n", encoding="utf-8")
    _record_stage(out_dir, manifest, "build-vocab", {"vocab_size": vocab.size})
    log.info("vocabulary built: %d tokens", vocab.size)
    return vocab


def stage_pretrain(config: PipelineConfig, records: list[CorpusRecord],
                   out_dir: Path) -> EncoderModel:
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "build-vocab", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    docs = _encode_corpus(records, vocab, config.max_len, None)
    model_config = _model_config(config, vocab.size)
    rng = np.random.default_rng([config.seed, 1])
    if config.no_pretraining:
        encoder = EncoderModel(model_config, rng)
        details = {"trained": False, "reason": "no_pretraining ablation"}
    else:
        train_docs, val_docs = _train_val_split(docs, config.val_fraction, rng)
        encoder, history = pretrain_mlm(
            train_docs, model_config, epochs=config.mlm_epochs, rng=rng,
            lr=config.mlm_lr, weight_decay=config.weight_decay,
            warmup_steps=config.mlm_warmup_steps, batch_size=config.mlm_batch_size,
            mask_rate=config.mask_rate, bert_corruption=config.bert_corruption,
            vocab=vocab, val_docs=val_docs,
        )
        details = {
            "trained": True,
            "epochs": config.mlm_epochs,
            "final_loss": history[-1].loss,
            "final_accuracy": history[-1].accuracy,
        }
    encoder.save(out_dir / ENCODER_FILE)
    _record_stage(out_dir, manifest, "pretrain", details)
    return encoder


def stage_finetune(config: PipelineConfig, records: list[CorpusRecord],
                   out_dir: Path) -> EncoderModel:
    if not _uses_labels(config):
        raise ConfigError("finetune only applies in labels clustering mode")
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "pretrain", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    names = (out_dir / LABELS_FILE).read_text(encoding="utf-8").splitlines()
    for r in records:
        if r.label is None:
            raise CorpusError(f"document {r.id!r} has no label; labels mode needs all labels")
    docs = _encode_corpus(records, vocab, config.max_len, names)
    encoder = EncoderModel.load(out_dir / ENCODER_FILE)
    rng = np.random.default_rng([config.seed, 2])
    encoder, history = fine_tune_classifier(
        encoder, docs, num_labels=len(names), epochs=config.finetune_epochs, rng=rng,
        lr=config.finetune_lr, weight_decay=config.weight_decay,
        warmup_steps=config.finetune_warmup_steps, batch_size=config.finetune_batch_size,
        val_fraction=config.val_fraction,
    )
    encoder.save(out_dir / ENCODER_FILE)
    _record_stage(out_dir, manifest, "finetune", {
        "num_labels": len(names),
        "final_val_accuracy": history[-1].val_accuracy,
    })
    return encoder


def stage_cluster(config: PipelineConfig, records: list[CorpusRecord],
                  out_dir: Path) -> ClusterSet:
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "pretrain", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / ENCODER_FILE)
    if _uses_labels(config):
        _require_stage(manifest, "finetune", out_dir)
        names = (out_dir / LABELS_FILE).read_text(encoding="utf-8").splitlines()
        docs = _encode_corpus(records, vocab, config.max_len, names)
        cluster_set = cluster_with_labels(encoder, docs)
    else:
        docs = _encode_corpus(records, vocab, config.max_len, None)
        rng = np.random.default_rng([config.seed, 3])
        cluster_set = cluster_without_labels(encoder, docs, config.num_clusters, rng=rng)
    cluster_set.save(out_dir / CLUSTERS_FILE)
    _record_stage(out_dir, manifest, "cluster", {
        "k": cluster_set.k,
        "sizes": [int(cluster_set.members(c).size) for c in range(cluster_set.k)],
    })
    return cluster_set


def stage_train_decoder(config: PipelineConfig, records: list[CorpusRecord],
                        out_dir: Path) -> DecoderModel:
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "cluster", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / ENCODER_FILE)
    cluster_set = ClusterSet.load(out_dir / CLUSTERS_FILE)
    docs = _encode_corpus(records, vocab, config.max_len, None)
    embeddings = encoder.embed_documents(docs)
    rng = np.random.default_rng([config.seed, 4])
    if config.no_decoder_init:
        decoder = DecoderModel(encoder.config, rng)
        init_mode = "random"
    else:
        decoder = init_from_encoder(encoder)
        init_mode = "from_encoder"
    examples = build_training_examples(
        docs, embeddings, cluster_set, config.start_token_id(vocab.cls_id),
        unweighted=config.unweighted_ce,
    )
    train_examples, val_examples = _train_val_split(examples, config.val_fraction, rng)
    decoder, history = train_decoder(
        decoder, train_examples, epochs=config.decoder_epochs, rng=rng,
        lr=config.decoder_lr, weight_decay=config.weight_decay,
        warmup_steps=config.decoder_warmup_steps, batch_size=config.decoder_batch_size,
        normalize=config.loss_normalization, val_examples=val_examples,
    )
    decoder.save(out_dir / DECODER_FILE)
    _record_stage(out_dir, manifest, "train-decoder", {
        "init": init_mode,
        "unweighted_ce": config.unweighted_ce,
        "epochs": config.decoder_epochs,
        "final_loss": history[-1].loss,
        "final_val_loss": history[-1].val_loss,
    })
    return decoder


def stage_summarize(config: PipelineConfig, records: list[CorpusRecord],
                    out_dir: Path) -> list[dict]:
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "train-decoder", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / ENCODER_FILE)
    decoder = DecoderModel.load(out_dir / DECODER_FILE)
    cluster_set = ClusterSet.load(out_dir / CLUSTERS_FILE)
    sampler = SamplerConfig(
        top_k=min(config.top_k, vocab.size),
        top_p=config.top_p,
        num_candidates=config.num_candidates,
        max_summary_len=config.max_summary_len,
        temperature=config.temperature,
        start_token_id=config.start_token_id(vocab.cls_id),
        seed=config.seed,
        filter_order=config.filter_order,
        retain_top_m=config.retain_top_m,
    )
    rows = []
    for c in range(cluster_set.k):
        ranked = summarize_cluster(decoder, encoder, vocab,
                                   cluster_set.centers[c], c, sampler)
        for candidate in ranked[: sampler.retain_top_m]:
            rows.append({
                "cluster": c,
                "rank": candidate.rank,
                "score": candidate.score,
                "text": candidate.text,
                "token_count": len(candidate.token_ids),
                "seed": config.seed,
            })
    _write_jsonl_atomic(out_dir / SUMMARIES_FILE, rows)
    _record_stage(out_dir, manifest, "summarize", {
        "clusters": cluster_set.k,
        "retained_per_cluster": sampler.retain_top_m,
    })
    return rows


def load_references(path: str | Path) -> dict[int, list[list[str]]]:
    """Reference summaries: one JSON record {"cluster", "text"} per line."""
    references: dict[int, list[list[str]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                cluster = int(raw["cluster"])
                tokens = tokenize(str(raw["text"]))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed reference: {exc}") from exc
            references.setdefault(cluster, []).append(tokens)
    return references


def stage_evaluate(config: PipelineConfig, records: list[CorpusRecord],
                   out_dir: Path, references_path: str | Path | None = None) -> dict:
    manifest = _check_or_init_manifest(out_dir, config, records)
    _require_stage(manifest, "summarize", out_dir)
    vocab = Vocabulary.load(out_dir / VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / ENCODER_FILE)
    cluster_set = ClusterSet.load(out_dir / CLUSTERS_FILE)
    docs = _encode_corpus(records, vocab, config.max_len, None)
    doc_embeddings = encoder.embed_documents(docs)

    top_summaries: dict[int, str] = {}
    with open(out_dir / SUMMARIES_FILE, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["rank"] == 1:
                top_summaries[row["cluster"]] = row["text"]
    summary_embeddings = np.stack([
        encoder.embed(encode(top_summaries[c], vocab, config.max_len).ids)
        for c in range(cluster_set.k)
    ])

    report: dict = {
        "clusters": cluster_set.k,
        "cosine_center": cosine_center(summary_embeddings, cluster_set.centers),
        "cosine_top_k": {},
    }
    for k in config.top_k_values():
        report["cosine_top_k"][str(k)] = cosine_top_k(
            summary_embeddings, doc_embeddings, [d.doc_id for d in docs],
            cluster_set.assignment, cluster_set.centers, k,
        )
    if references_path is not None:
        references = load_references(references_path)
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

    (out_dir / METRICS_JSON).write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out_dir / METRICS_TXT).write_text(_render_metrics_table(report), encoding="utf-8")
    _record_stage(out_dir, manifest, "evaluate", {"has_rouge": references_path is not None})
    return report


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


# -- phase wrappers -----------------------------------------------------------


def run_phase1(config: PipelineConfig, records: list[CorpusRecord], out_dir: str | Path):
    """Vocabulary, encoder pretraining, optional fine-tuning, clustering."""
    out_dir = Path(out_dir)
    if _uses_labels(config) and any(r.label is None for r in records):
        raise CorpusError("labels clustering mode requires a label on every record")
    stage_build_vocab(config, records, out_dir)
    encoder = stage_pretrain(config, records, out_dir)
    if _uses_labels(config):
        encoder = stage_finetune(config, records, out_dir)
    cluster_set = stage_cluster(config, records, out_dir)
    return encoder, cluster_set


def run_phase2(config: PipelineConfig, records: list[CorpusRecord], out_dir: str | Path,
               references_path: str | Path | None = None):
    """Decoder training, cluster summaries, metrics report."""
    out_dir = Path(out_dir)
    decoder = stage_train_decoder(config, records, out_dir)
    summaries = stage_summarize(config, records, out_dir)
    report = stage_evaluate(config, records, out_dir, references_path)
    return decoder, summaries, report


def run_all(config: PipelineConfig, records: list[CorpusRecord], out_dir: str | Path,
            references_path: str | Path | None = None) -> dict:
    run_phase1(config, records, out_dir)
    _, _, report = run_phase2(config, records, out_dir, references_path)
    return report
