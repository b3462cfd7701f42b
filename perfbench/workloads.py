"""Workload table and the seeded synthetic corpus each workload runs on.

Every workload drives the same ``clustersum`` CLI stages with its own
``--set`` overrides; the corpus is the only input made from the seed.
The sizes keep one untraced run of each workload within the benchmark's
run length on a 2-CPU machine with one BLAS thread.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass(frozen=True)
class CorpusSpec:
    """Topic-mixture corpus: disjoint word pools, one pool per topic.

    Document ``j`` of a topic borrows ``j % 5`` of its ``doc_len`` words from
    another topic's pool, so each cluster has members at graded distances
    from its center (the scheme of ``graded_topic_texts`` in the tests).
    """

    topics: int
    docs_per_topic: int
    words_per_topic: int
    doc_len: int
    labelled: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    settings: dict = field(default_factory=dict)
    stages: tuple[str, ...] = ("build-vocab", "pretrain", "cluster", "train-decoder",
                               "summarize", "evaluate")
    tiny_corpus: dict = field(default_factory=dict)
    tiny_settings: dict = field(default_factory=dict)

    def merged_settings(self, tiny: bool = False) -> dict:
        return {**self.settings, **(self.tiny_settings if tiny else {})}

    def set_args(self, tiny: bool = False) -> list[str]:
        args = []
        for key, value in self.merged_settings(tiny).items():
            args += ["--set", f"{key}={value}"]
        return args

    def corpus_spec(self, tiny: bool = False) -> CorpusSpec:
        return replace(self.corpus, **self.tiny_corpus) if tiny else self.corpus


LABELLED_STAGES = ("build-vocab", "pretrain", "finetune", "cluster", "train-decoder",
                   "summarize", "evaluate")

WORKLOADS = {
    w.name: w
    for w in (
        # Per-document autograd overhead in the two training loops dominates;
        # generation is a few percent of the run, so a generation change
        # should read "no change" here. Every workload trains the decoder
        # unweighted: the k-means weights hinge on the single closest
        # document, so a weighted validation loss swings by a factor of 3
        # between seeds, and the classifier weights by 20%.
        Workload(
            name="desk-train",
            why="desk preset, kmeans k=2 on two graded topics: per-document training "
                "overhead dominates and generation is a small share",
            corpus=CorpusSpec(topics=2, docs_per_topic=50, words_per_topic=40, doc_len=12),
            settings={"preset": "desk", "clustering": "kmeans", "num_clusters": 2,
                      "mlm_epochs": 10, "decoder_epochs": 6, "num_candidates": 8,
                      "retain_top_m": 8, "max_summary_len": 8, "unweighted_ce": True},
            tiny_corpus={"docs_per_topic": 6},
            tiny_settings={"mlm_epochs": 1, "decoder_epochs": 1, "num_candidates": 2,
                           "retain_top_m": 2, "max_summary_len": 4},
        ),
        # Sampling and no-grad decoder inference dominate. Labels mode keeps
        # the cluster assignment supervised (k-means on the collapsed
        # embeddings of a short pretrain can flip on float noise) and is the
        # only path through fine-tuning and classifier clustering. The
        # classifier keeps its default 10 epochs: after 6, some seeds leave a
        # label with no document, and the cluster stage rightly refuses that.
        Workload(
            name="desk-generate",
            why="labels mode, 8 topics, every candidate written: sampling and no-grad "
                "decoder inference dominate",
            corpus=CorpusSpec(topics=8, docs_per_topic=10, words_per_topic=40, doc_len=40,
                              labelled=True),
            settings={"preset": "desk", "clustering": "labels", "mlm_epochs": 3,
                      "finetune_epochs": 10, "decoder_epochs": 3, "num_candidates": 10,
                      "retain_top_m": 10, "max_summary_len": 32, "unweighted_ce": True},
            stages=LABELLED_STAGES,
            tiny_corpus={"topics": 2, "docs_per_topic": 10},
            tiny_settings={"mlm_epochs": 1, "decoder_epochs": 1,
                           "num_candidates": 2, "retain_top_m": 2, "max_summary_len": 4},
        ),
        # Paper-scale shapes (768 hidden, 6 blocks, 12 heads, 3072 FFN):
        # FLOPs, float64 up-casts, AdamW over ~60M parameters and ~1 GB of
        # checkpoint I/O dominate, not per-op Python overhead.
        Workload(
            name="paper-step",
            why="paper preset at max_len 64 on a few long documents: FLOP, memory and "
                "checkpoint I/O bound, per-op overhead is a small share",
            corpus=CorpusSpec(topics=2, docs_per_topic=3, words_per_topic=20, doc_len=62),
            settings={"preset": "paper", "clustering": "kmeans", "num_clusters": 2,
                      "unweighted_ce": True,
                      "max_len": 64, "mlm_epochs": 1, "mlm_warmup_steps": 10,
                      "decoder_epochs": 1, "decoder_batch_size": 2,
                      "decoder_warmup_steps": 10, "num_candidates": 2,
                      "retain_top_m": 2, "max_summary_len": 8},
            tiny_corpus={"docs_per_topic": 2, "doc_len": 6},
            tiny_settings={"max_len": 8, "max_summary_len": 2, "num_candidates": 1},
        ),
    )
}


def make_corpus(spec: CorpusSpec, seed: int) -> list[dict]:
    """Records ``{"id", "text", "topic"}`` in a seeded, shuffled order."""
    rng = random.Random(seed)
    pools = [[f"t{t}w{i:03d}" for i in range(spec.words_per_topic)] for t in range(spec.topics)]
    records = []
    for t in range(spec.topics):
        for j in range(spec.docs_per_topic):
            foreign = min(j % 5, spec.doc_len - 1) if spec.topics > 1 else 0
            other = rng.choice([u for u in range(spec.topics) if u != t]) if foreign else t
            words = rng.choices(pools[t], k=spec.doc_len - foreign)
            words += rng.choices(pools[other], k=foreign)
            rng.shuffle(words)
            records.append({"text": " ".join(words), "topic": t})
    rng.shuffle(records)
    for i, record in enumerate(records):
        record["id"] = f"d{i:04d}"
    return records


def write_corpus(records: list[dict], path: Path, labelled: bool) -> None:
    """The program sees ids and texts, plus topic labels only in labels mode."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            row = {"id": r["id"], "text": r["text"]}
            if labelled:
                row["label"] = f"topic{r['topic']}"
            fh.write(json.dumps(row, sort_keys=True) + "\n")
