"""Stage artifacts are replaced atomically; staged runs equal run-all."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from clustersum import checkpoint, pipeline
from clustersum.cli import main
from clustersum.config import PipelineConfig
from clustersum.pipeline import CorpusRecord

from corpora import graded_topic_texts, pair_texts


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """Every stage before summarize, at the smallest useful size."""
    texts = pair_texts(np.random.default_rng(11), num_docs=10, num_pairs=3, doc_len=6)
    records = [CorpusRecord(f"d{i}", text) for i, text in enumerate(texts)]
    config = PipelineConfig(max_len=12, mlm_epochs=1, decoder_epochs=1, num_candidates=2,
                            retain_top_m=2, max_summary_len=4, val_fraction=0.2)
    out_dir = tmp_path_factory.mktemp("run")
    pipeline.run_phase1(config, records, out_dir)
    pipeline.stage_train_decoder(config, records, out_dir)
    return config, records, out_dir


@pytest.fixture
def run_copy(trained_run, tmp_path):
    config, records, out_dir = trained_run
    copy = tmp_path / "run"
    shutil.copytree(out_dir, copy)
    return config, records, copy


def _stages(out_dir):
    return json.loads((out_dir / pipeline.MANIFEST_FILE).read_text(encoding="utf-8"))["stages"]


def test_failed_write_keeps_old_summaries_and_manifest(run_copy, monkeypatch):
    config, records, out_dir = run_copy
    summaries = out_dir / pipeline.SUMMARIES_FILE
    summaries.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.stage_summarize(config, records, out_dir)
    assert summaries.read_text(encoding="utf-8") == "previous\n"
    assert "summarize" not in _stages(out_dir)
    assert not list(out_dir.glob(".*.tmp"))


def test_successful_write_records_stage(run_copy):
    config, records, out_dir = run_copy
    rows = pipeline.stage_summarize(config, records, out_dir)
    lines = (out_dir / pipeline.SUMMARIES_FILE).read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == rows
    assert len(rows) == config.num_clusters * config.retain_top_m
    assert "summarize" in _stages(out_dir)
    assert not list(out_dir.glob(".*.tmp"))


def test_failed_checkpoint_write_keeps_old_encoder(tmp_path, monkeypatch):
    texts = pair_texts(np.random.default_rng(12), num_docs=6, num_pairs=2, doc_len=4)
    records = [CorpusRecord(f"d{i}", text) for i, text in enumerate(texts)]
    config = PipelineConfig(max_len=8, mlm_epochs=1, max_summary_len=4)
    pipeline.stage_build_vocab(config, records, tmp_path)
    encoder_file = tmp_path / pipeline.ENCODER_FILE
    encoder_file.write_bytes(b"previous")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.stage_pretrain(config, records, tmp_path)
    assert encoder_file.read_bytes() == b"previous"
    assert "pretrain" not in _stages(tmp_path)
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("clustering", ["kmeans", "labels"])
def test_stages_one_at_a_time_equal_run_all(tmp_path, clustering):
    texts, labels = graded_topic_texts(np.random.default_rng(13), docs_per_topic=5,
                                       words_per_topic=6, doc_len=5)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": text, "label": f"topic{label}"}) + "\n"
        for i, (text, label) in enumerate(zip(texts, labels))), encoding="utf-8")
    settings = ["--clustering", clustering, "--seed", "3"]
    for item in ("max_len=8", "mlm_epochs=1", "decoder_epochs=1",
                 "num_candidates=2", "retain_top_m=2", "max_summary_len=4"):
        settings += ["--set", item]
    stages = ["build-vocab", "pretrain", "cluster", "train-decoder", "summarize", "evaluate"]
    if clustering == "labels":
        stages.insert(2, "finetune")

    def run(command, out):
        assert main([command, "--corpus", str(corpus), "--out", str(out), *settings]) == 0

    run("run-all", tmp_path / "all")
    for stage in stages:
        run(stage, tmp_path / "staged")

    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    expected = digests(tmp_path / "all")
    assert {pipeline.ENCODER_FILE, pipeline.CLUSTERS_FILE, pipeline.DECODER_FILE,
            pipeline.SUMMARIES_FILE, pipeline.MANIFEST_FILE} <= set(expected)
    assert digests(tmp_path / "staged") == expected
