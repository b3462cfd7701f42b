"""Stage artifacts: summaries are replaced atomically."""

import json
import shutil

import numpy as np
import pytest

from clustersum import pipeline
from clustersum.config import PipelineConfig
from clustersum.pipeline import CorpusRecord

from corpora import pair_texts


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

    monkeypatch.setattr(pipeline.os, "replace", fail)
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
