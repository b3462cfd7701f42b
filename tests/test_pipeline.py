"""Stage artifacts are replaced atomically; staged runs equal run-all; the
CLI follows the stage table; its exit codes for out-of-order and
inapplicable stages, foreign artifacts, bad corpora and bad references."""

import argparse
import hashlib
import json
import shutil

import numpy as np
import pytest

from clustersum import checkpoint, pipeline
from clustersum.cli import _build_parser, main
from clustersum.clusterer import ClusterSet
from clustersum.config import PipelineConfig
from clustersum.encoder import EncoderModel
from clustersum.metrics import cosine_top_k
from clustersum.pipeline import CorpusRecord
from clustersum.tokenizer import Vocabulary, encode

from corpora import graded_topic_texts, pair_texts


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """Every stage before summarize, at the smallest useful size."""
    texts = pair_texts(np.random.default_rng(11), num_docs=10, num_pairs=3, doc_len=6)
    records = [CorpusRecord(f"d{i}", text) for i, text in enumerate(texts)]
    config = PipelineConfig(max_len=12, mlm_epochs=1, decoder_epochs=1, num_candidates=2,
                            retain_top_m=2, max_summary_len=4, val_fraction=0.2)
    out_dir = tmp_path_factory.mktemp("run")
    for stage in ("build-vocab", "pretrain", "cluster", "train-decoder"):
        pipeline.run_stage(stage, config, records, out_dir)
    return config, records, out_dir


@pytest.fixture
def run_copy(trained_run, tmp_path):
    config, records, out_dir = trained_run
    copy = tmp_path / "run"
    shutil.copytree(out_dir, copy)
    return config, records, copy


# the stages each clustering mode runs, in order, written out independently of STAGES
ORDER = {
    "kmeans": ["build-vocab", "pretrain", "cluster", "train-decoder", "summarize", "evaluate"],
    "labels": ["build-vocab", "pretrain", "finetune", "cluster", "train-decoder", "summarize",
               "evaluate"],
}


def _stages(out_dir):
    return json.loads((out_dir / pipeline.MANIFEST_FILE).read_text(encoding="utf-8"))["stages"]


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_failed_write_keeps_old_summaries_and_manifest(run_copy, monkeypatch):
    config, records, out_dir = run_copy
    summaries = out_dir / pipeline.SUMMARIES_FILE
    summaries.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_stage("summarize", config, records, out_dir)
    assert summaries.read_text(encoding="utf-8") == "previous\n"
    assert "summarize" not in _stages(out_dir)
    assert not list(out_dir.glob(".*.tmp"))


def test_successful_write_records_stage(run_copy):
    config, records, out_dir = run_copy
    details = pipeline.run_stage("summarize", config, records, out_dir)
    lines = (out_dir / pipeline.SUMMARIES_FILE).read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == config.num_clusters * config.retain_top_m
    assert {row["cluster"] for row in rows} == set(range(config.num_clusters))
    assert _stages(out_dir)["summarize"] == details == {
        "clusters": config.num_clusters, "retained_per_cluster": config.retain_top_m}
    assert not list(out_dir.glob(".*.tmp"))


def test_failed_checkpoint_write_keeps_old_encoder(tmp_path, monkeypatch):
    texts = pair_texts(np.random.default_rng(12), num_docs=6, num_pairs=2, doc_len=4)
    records = [CorpusRecord(f"d{i}", text) for i, text in enumerate(texts)]
    config = PipelineConfig(max_len=8, mlm_epochs=1, max_summary_len=4)
    pipeline.run_stage("build-vocab", config, records, tmp_path)
    encoder_file = tmp_path / pipeline.ENCODER_FILE
    encoder_file.write_bytes(b"previous")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_stage("pretrain", config, records, tmp_path)
    assert encoder_file.read_bytes() == b"previous"
    assert "pretrain" not in _stages(tmp_path)
    assert not list(tmp_path.glob(".*.tmp"))


def test_stored_embeddings_equal_a_fresh_embedding(trained_run):
    config, records, out_dir = trained_run
    vocab = Vocabulary.load(out_dir / pipeline.VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / pipeline.ENCODER_FILE)
    docs = [encode(r.text, vocab, config.max_len) for r in records]
    stored = np.load(out_dir / pipeline.EMBEDDINGS_FILE)
    np.testing.assert_array_equal(stored, encoder.embed_documents(docs))
    assert _stages(out_dir)["cluster"]["embeddings"] == {
        "file": pipeline.EMBEDDINGS_FILE, "shape": list(stored.shape)}


def test_evaluate_scores_equal_those_over_the_encoded_corpus(run_copy):
    config, records, out_dir = run_copy
    for stage in ("summarize", "evaluate"):
        pipeline.run_stage(stage, config, records, out_dir)
    cluster_set = ClusterSet.load(out_dir / pipeline.CLUSTERS_FILE)
    assert cluster_set.doc_ids == [r.id for r in records]
    vocab = Vocabulary.load(out_dir / pipeline.VOCAB_FILE)
    encoder = EncoderModel.load(out_dir / pipeline.ENCODER_FILE)
    rows = [json.loads(line) for line in
            (out_dir / pipeline.SUMMARIES_FILE).read_text(encoding="utf-8").splitlines()]
    top = {row["cluster"]: row["text"] for row in rows if row["rank"] == 1}
    summaries = encoder.embed_documents(
        [encode(top[c], vocab, config.max_len) for c in range(cluster_set.k)])
    docs = [encode(r.text, vocab, config.max_len, doc_id=r.id) for r in records]
    report = json.loads((out_dir / pipeline.METRICS_JSON).read_text(encoding="utf-8"))
    for k in config.top_k_values():
        assert report["cosine_top_k"][str(k)] == cosine_top_k(
            summaries, encoder.embed_documents(docs), [d.doc_id for d in docs],
            cluster_set.assignment, cluster_set.centers, k)


def test_failed_vocab_write_keeps_old_vocab(tmp_path, monkeypatch):
    records = [CorpusRecord("a", "one two three"), CorpusRecord("b", "two three four")]
    vocab_file = tmp_path / pipeline.VOCAB_FILE
    vocab_file.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_stage("build-vocab", PipelineConfig(max_len=8, max_summary_len=4),
                           records, tmp_path)
    assert vocab_file.read_text(encoding="utf-8") == "previous\n"
    assert not (tmp_path / pipeline.MANIFEST_FILE).exists()
    assert not list(tmp_path.glob(".*.tmp"))


def test_failed_metrics_write_keeps_old_report(run_copy, monkeypatch):
    config, records, out_dir = run_copy
    pipeline.run_stage("summarize", config, records, out_dir)
    metrics = out_dir / pipeline.METRICS_JSON
    metrics.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_stage("evaluate", config, records, out_dir)
    assert metrics.read_text(encoding="utf-8") == "previous\n"
    assert not (out_dir / pipeline.METRICS_TXT).exists()
    assert "evaluate" not in _stages(out_dir)
    assert not list(out_dir.glob(".*.tmp"))


def test_labels_mode_needs_every_label_before_any_stage(tmp_path):
    records = [CorpusRecord("a", "one two", "x"), CorpusRecord("b", "two three")]
    config = PipelineConfig(max_len=8, max_summary_len=4, clustering="labels")
    with pytest.raises(pipeline.CorpusError, match="label on every record"):
        pipeline.run_all(config, records, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_subcommands_follow_the_stage_table():
    assert [s.name for s in pipeline.STAGES] == ORDER["labels"]
    assert [s.name for s in pipeline.STAGES if s.labels_only] == ["finetune"]
    (subcommands,) = [a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert list(subcommands.choices) == [s.name for s in pipeline.STAGES] + ["run-all"]


def _evaluate_with_references(run_copy, line):
    """Exit code of ``evaluate`` with a reference file of one good line and
    then ``line``; nothing may be recorded when it fails."""
    config, records, out_dir = run_copy
    pipeline.run_stage("summarize", config, records, out_dir)
    corpus = out_dir.parent / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": r.id, "text": r.text}) + "\n" for r in records),
                      encoding="utf-8")
    references = out_dir.parent / "references.jsonl"
    references.write_text(json.dumps({"cluster": 0, "text": "a b"}) + "\n" + line + "\n",
                          encoding="utf-8")
    settings = []
    for key in ("max_len", "mlm_epochs", "decoder_epochs", "num_candidates", "retain_top_m",
                "max_summary_len", "val_fraction"):
        settings += ["--set", f"{key}={getattr(config, key)}"]
    code = main(["evaluate", "--corpus", str(corpus), "--out", str(out_dir),
                 "--references", str(references), *settings])
    if code != 0:
        assert not (out_dir / pipeline.METRICS_JSON).exists()
        assert "evaluate" not in _stages(out_dir)
    return code, references


@pytest.mark.parametrize("line", ["[1, 2]", '{"cluster": null, "text": "a"}',
                                  '{"cluster": 1.7, "text": "a"}',
                                  '{"cluster": true, "text": "a"}',
                                  '{"cluster": "0", "text": "a"}'])
def test_malformed_reference_line_exits_3(run_copy, capsys, line):
    code, references = _evaluate_with_references(run_copy, line)
    assert code == 3
    assert f"{references}:2: malformed reference" in capsys.readouterr().err


def test_reference_cluster_outside_the_clusters_exits_3(run_copy, capsys):
    code, references = _evaluate_with_references(run_copy, '{"cluster": 9, "text": "a"}')
    assert code == 3
    assert f"{references}: reference clusters [9] outside [0, " in capsys.readouterr().err


class TestExitCodes:
    SETTINGS = ["--set", "max_len=8", "--set", "mlm_epochs=1", "--set", "max_summary_len=4"]

    @pytest.fixture
    def corpus(self, tmp_path):
        texts = pair_texts(np.random.default_rng(14), num_docs=8, num_pairs=2, doc_len=4)
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n"
                                for i, t in enumerate(texts)), encoding="utf-8")
        return path

    @pytest.fixture
    def labeled_corpus(self, tmp_path):
        texts = pair_texts(np.random.default_rng(15), num_docs=8, num_pairs=2, doc_len=4)
        path = tmp_path / "labeled.jsonl"
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": t, "label": f"l{i % 2}"})
                                + "\n" for i, t in enumerate(texts)), encoding="utf-8")
        return path

    def _run(self, stage, corpus, out, *extra):
        return main([stage, "--corpus", str(corpus), "--out", str(out), *self.SETTINGS, *extra])

    def test_another_seed_in_the_same_out_exits_4(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out, "--seed", "1") == 0
        assert self._run("build-vocab", corpus, out, "--seed", "2") == 4
        assert "was produced under a different" in capsys.readouterr().err
        assert self._run("pretrain", corpus, out, "--seed", "2") == 4
        assert "pretrain" not in _stages(out)

    def test_malformed_corpus_line_exits_3(self, corpus, tmp_path, capsys):
        corpus.write_text(corpus.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 3
        assert ":9: malformed record" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_before_train_decoder_exits_4(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster"):
            assert self._run(stage, corpus, out) == 0
        assert self._run("summarize", corpus, out) == 4
        assert "'train-decoder' has not run" in capsys.readouterr().err
        assert not (out / pipeline.SUMMARIES_FILE).exists()
        assert "summarize" not in _stages(out)

    @pytest.mark.parametrize("clustering", ["kmeans", "labels"])
    def test_each_stage_on_an_empty_out_names_the_stage_before_it(
            self, labeled_corpus, tmp_path, capsys, clustering):
        order = ORDER[clustering]
        for previous, stage in zip(order, order[1:]):
            out = tmp_path / stage
            assert self._run(stage, labeled_corpus, out, "--clustering", clustering) == 4
            assert f"stage {previous!r} has not run" in capsys.readouterr().err
            assert not out.exists()

    def test_finetune_in_kmeans_mode_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty"
        assert self._run("finetune", corpus, empty) == 2
        assert "labels clustering mode" in capsys.readouterr().err
        assert not empty.exists()
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain"):
            assert self._run(stage, corpus, out) == 0
        before = _digests(out)
        assert self._run("finetune", corpus, out) == 2
        assert _digests(out) == before


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
