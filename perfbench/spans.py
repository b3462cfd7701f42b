"""Span tracing around calls into ``clustersum``, installed from outside.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``value`` an optional count taken
from the call (positions fed, tokens generated, bytes written). Methods are
traced by wrapping the class attribute, functions by wrapping the name in
the module where the caller looks it up. Spans stay in memory until the run
ends; ``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

STAGE_PREFIX = "pipeline."
TRAINING_STAGES = ("pretrain", "finetune", "train_decoder")


def _ids_length(args, result):
    return len(args[1])


def _ids_key(args, result):
    return hash(np.asarray(args[1], dtype=np.int64).tobytes())


def _token_count(args, result):
    return len(result.token_ids)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (span name, module, attribute path, value taken from the call)
HOOKS = (
    ("encoder.forward", "clustersum.encoder", "EncoderModel.forward", _ids_length),
    ("encoder.embed", "clustersum.encoder", "EncoderModel.embed", _ids_key),
    ("encoder.classify", "clustersum.encoder", "EncoderModel.classify_ids", None),
    ("decoder.forward", "clustersum.decoder", "DecoderModel.forward", _ids_length),
    ("tensor.backward", "clustersum.tensor", "Tensor.backward", None),
    ("optim.step", "clustersum.optim", "AdamW.step", None),
    ("layers.attention", "clustersum.layers", "MultiHeadAttention.__call__", None),
    ("layers.ffn", "clustersum.layers", "FeedForward.__call__", None),
    ("layers.norm", "clustersum.layers", "LayerNorm.__call__", None),
    ("layers.head", "clustersum.layers", "PredictionHead.__call__", None),
    ("generator.sample", "clustersum.generator", "generate_summary", _token_count),
    ("generator.summarize_cluster", "clustersum.pipeline", "summarize_cluster", None),
    ("clusterer.kmeans", "clustersum.clusterer", "kmeans", None),
    ("clusterer.cluster", "clustersum.pipeline", "cluster_without_labels", None),
    ("clusterer.cluster", "clustersum.pipeline", "cluster_with_labels", None),
    ("tokenizer.encode", "clustersum.pipeline", "encode", None),
    ("tokenizer.encode", "clustersum.generator", "encode", None),
    ("tokenizer.mask", "clustersum.encoder", "mask_for_mlm", None),
    ("metrics.eval", "clustersum.pipeline", "cosine_center", None),
    ("metrics.eval", "clustersum.pipeline", "cosine_top_k", None),
    ("checkpoint.save", "clustersum.encoder", "save_checkpoint", _file_bytes),
    ("checkpoint.save", "clustersum.decoder", "save_checkpoint", _file_bytes),
    ("checkpoint.load", "clustersum.encoder", "load_checkpoint", _file_bytes),
    ("checkpoint.load", "clustersum.decoder", "load_checkpoint", _file_bytes),
)

# Per-layer metric names and units; the traced run reports every one.
LAYER_UNITS = {
    **{f"pipeline.{s}_s": "s" for s in ("build_vocab", "pretrain", "finetune", "cluster",
                                        "train_decoder", "summarize", "evaluate")},
    **{f"{s}.{part}": unit for s in TRAINING_STAGES
       for part, unit in (("forward_s", "s"), ("backward_s", "s"), ("optimizer_s", "s"),
                          ("steps", "count"))},
    "tensor.backward_calls": "count", "tensor.backward_s": "s",
    **{f"layers.{layer}_{part}": unit for layer in ("attention", "ffn", "norm", "head")
       for part, unit in (("calls", "count"), ("s", "s"))},
    "encoder.forward_calls": "count", "encoder.forward_positions": "count",
    "encoder.embed_calls": "count", "encoder.embed_s": "s", "encoder.classify_calls": "count",
    "encoder.embed_reuse": "ratio",
    "decoder.forward_calls": "count", "decoder.forward_positions": "count",
    "generator.candidates": "count", "generator.tokens": "count", "generator.sample_s": "s",
    "generator.rerank_s": "s", "generator.positions_per_token": "ratio",
    "generator.forward_calls_per_token": "ratio",
    "optim.step_calls": "count", "optim.step_s": "s",
    "clusterer.kmeans_s": "s", "clusterer.cluster_s": "s",
    "tokenizer.encode_calls": "count", "tokenizer.encode_s": "s", "tokenizer.mask_s": "s",
    "metrics.eval_s": "s",
    **{f"checkpoint.{op}_{part}": unit for op in ("save", "load")
       for part, unit in (("calls", "count"), ("s", "s"), ("bytes", "B"))},
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if value is not None:
                record[4] = value(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook; a hook the code no longer has is reported, not fatal."""
        for name, module_name, path, value in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, original, value))
        if self.missing:
            print(f"trace: hooks not installed: {', '.join(self.missing)}", file=sys.stderr)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(json.dumps([name, start, end, parent, value]) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold spans into every per-layer metric except ``trace.overhead_s``."""
    stage_of: list[str | None] = []
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if name.startswith(STAGE_PREFIX):
            stage_of.append(name[len(STAGE_PREFIX):])
        else:
            stage_of.append(stage_of[parent] if parent >= 0 else None)
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    values: dict[str, int] = defaultdict(int)
    per_stage: dict[tuple[str, str | None], float] = defaultdict(float)
    per_stage_calls: dict[tuple[str, str | None], int] = defaultdict(int)
    embedded = set()
    for i, (name, start, end, parent, value) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child_time[i]
        per_stage[name, stage_of[i]] += duration
        per_stage_calls[name, stage_of[i]] += 1
        if name == "encoder.embed":
            embedded.add(value)
        elif value is not None:
            values[name] += value

    m: dict[str, float] = {}
    for stage in ("build_vocab", "pretrain", "finetune", "cluster", "train_decoder",
                  "summarize", "evaluate"):
        m[f"pipeline.{stage}_s"] = total[STAGE_PREFIX + stage]
    for stage in TRAINING_STAGES:
        m[f"{stage}.forward_s"] = (per_stage["encoder.forward", stage]
                                   + per_stage["decoder.forward", stage])
        m[f"{stage}.backward_s"] = per_stage["tensor.backward", stage]
        m[f"{stage}.optimizer_s"] = per_stage["optim.step", stage]
        m[f"{stage}.steps"] = per_stage_calls["optim.step", stage]
    m["tensor.backward_calls"] = calls["tensor.backward"]
    m["tensor.backward_s"] = total["tensor.backward"]
    for layer in ("attention", "ffn", "norm", "head"):
        m[f"layers.{layer}_calls"] = calls[f"layers.{layer}"]
        m[f"layers.{layer}_s"] = self_time[f"layers.{layer}"]
    m["encoder.forward_calls"] = calls["encoder.forward"]
    m["encoder.forward_positions"] = values["encoder.forward"]
    m["encoder.embed_calls"] = calls["encoder.embed"]
    m["encoder.embed_s"] = total["encoder.embed"]
    m["encoder.classify_calls"] = calls["encoder.classify"]
    m["encoder.embed_reuse"] = len(embedded) / max(calls["encoder.embed"], 1)
    m["decoder.forward_calls"] = calls["decoder.forward"]
    m["decoder.forward_positions"] = values["decoder.forward"]
    tokens = values["generator.sample"]
    m["generator.candidates"] = calls["generator.sample"]
    m["generator.tokens"] = tokens
    m["generator.sample_s"] = total["generator.sample"]
    m["generator.rerank_s"] = total["generator.summarize_cluster"] - total["generator.sample"]
    summarize_positions = sum(
        span[4] for span, stage in zip(spans, stage_of)
        if span[0] == "decoder.forward" and stage == "summarize"
    )
    m["generator.positions_per_token"] = summarize_positions / max(tokens, 1)
    m["generator.forward_calls_per_token"] = (
        per_stage_calls["decoder.forward", "summarize"] / max(tokens, 1))
    m["optim.step_calls"] = calls["optim.step"]
    m["optim.step_s"] = total["optim.step"]
    m["clusterer.kmeans_s"] = total["clusterer.kmeans"]
    m["clusterer.cluster_s"] = total["clusterer.cluster"]
    m["tokenizer.encode_calls"] = calls["tokenizer.encode"]
    m["tokenizer.encode_s"] = total["tokenizer.encode"]
    m["tokenizer.mask_s"] = total["tokenizer.mask"]
    m["metrics.eval_s"] = total["metrics.eval"]
    for op in ("save", "load"):
        m[f"checkpoint.{op}_calls"] = calls[f"checkpoint.{op}"]
        m[f"checkpoint.{op}_s"] = total[f"checkpoint.{op}"]
        m[f"checkpoint.{op}_bytes"] = values[f"checkpoint.{op}"]
    return m
