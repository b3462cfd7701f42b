"""Stage artifacts are replaced atomically; staged runs equal run-all; the
CLI follows the stage table; its exit codes for out-of-order and
inapplicable stages, foreign or malformed artifacts, bad corpora and bad references."""

import argparse
import hashlib
import json
import shutil
import weakref
from dataclasses import replace

import numpy as np
import pytest

import clustersum.encoder
from clustersum import checkpoint, pipeline
from clustersum.cli import _build_parser, main
from clustersum.clusterer import ClusterSet
from clustersum.config import PipelineConfig
from clustersum.decoder import DecoderModel, build_training_examples, evaluate_decoder
from clustersum.encoder import EncoderModel, train_val_split
from clustersum.metrics import cosine_top_k
from clustersum.pipeline import CorpusRecord
from clustersum.tokenizer import Vocabulary, encode

from corpora import graded_topic_texts, pair_texts
from oracles import rewrite_checkpoint_header


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


def _with(row, **fields):
    """The JSON line ``row`` with ``fields`` set."""
    return json.dumps({**json.loads(row), **fields}) + "\n"


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


def test_encoder_is_freed_before_the_decoder_trains(run_copy, monkeypatch):
    """The train-decoder stage drops the encoder it initialized the decoder
    from before training starts."""
    config, records, out_dir = run_copy
    encoders = []
    real_init, real_train = pipeline.init_from_encoder, pipeline.train_decoder

    def init_from_encoder(encoder):
        encoders.append(weakref.ref(encoder))
        return real_init(encoder)

    def train_decoder(*args, **kwargs):
        assert len(encoders) == 1 and encoders[0]() is None
        encoders.append("trained")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "init_from_encoder", init_from_encoder)
    monkeypatch.setattr(pipeline, "train_decoder", train_decoder)
    pipeline.run_stage("train-decoder", config, records, out_dir)
    assert encoders[1:] == ["trained"]


def test_decoder_val_loss_is_the_unit_weight_nll(tmp_path):
    """The run is weighted, yet validation gives every held-out document
    weight 1, so the manifest records the decoder's per-token NLL."""
    texts, _ = graded_topic_texts(np.random.default_rng(18), docs_per_topic=5,
                                  words_per_topic=6, doc_len=5)
    records = [CorpusRecord(f"d{i}", text) for i, text in enumerate(texts)]
    config = PipelineConfig(max_len=8, max_summary_len=4, mlm_epochs=1, decoder_epochs=1,
                            val_fraction=0.3)
    assert not config.unweighted_ce
    for stage in ("build-vocab", "pretrain", "cluster", "train-decoder"):
        pipeline.run_stage(stage, config, records, tmp_path)
    vocab = Vocabulary.load(tmp_path / pipeline.VOCAB_FILE)
    docs = [encode(r.text, vocab, config.max_len, doc_id=r.id) for r in records]
    examples = build_training_examples(docs, np.load(tmp_path / pipeline.EMBEDDINGS_FILE),
                                       ClusterSet.load(tmp_path / pipeline.CLUSTERS_FILE))
    _, val = train_val_split(examples, config.val_fraction,
                             np.random.default_rng([config.seed, 4]))
    assert min(e.weight for e in val) < 1.0, "every held-out document weighs 1 anyway"
    decoder = DecoderModel.load(tmp_path / pipeline.DECODER_FILE)
    unit = evaluate_decoder(decoder, [replace(e, weight=1.0) for e in val])
    assert _stages(tmp_path)["train-decoder"]["final_val_loss"] == pytest.approx(unit, rel=1e-12)
    assert evaluate_decoder(decoder, val) < unit


def test_pretrain_records_its_last_validation(trained_run):
    details = _stages(trained_run[2])["pretrain"]
    assert details["final_val_loss"] > 0.0
    assert 0.0 <= details["final_val_accuracy"] <= 1.0


def test_finetune_records_the_epoch_it_keeps(tmp_path, monkeypatch):
    """fit keeps the epoch of lowest validation loss, here the second of
    three, and the manifest describes that epoch, not the last."""
    scores = iter([(0.5, 0.25), (0.25, 0.75), (0.375, 0.5)])
    monkeypatch.setattr(clustersum.encoder, "evaluate_classifier",
                        lambda model, docs: next(scores))
    texts = pair_texts(np.random.default_rng(17), num_docs=8, num_pairs=2, doc_len=4)
    records = [CorpusRecord(f"d{i}", t, f"l{i % 2}") for i, t in enumerate(texts)]
    config = PipelineConfig(clustering="labels", max_len=8, max_summary_len=4, mlm_epochs=1,
                            finetune_epochs=3, val_fraction=0.25)
    for stage in ("build-vocab", "pretrain", "finetune"):
        pipeline.run_stage(stage, config, records, tmp_path)
    details = _stages(tmp_path)["finetune"]
    assert (details["kept_epoch"], details["kept_val_loss"],
            details["kept_val_accuracy"]) == (2, 0.25, 0.75)


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
    for k in pipeline.COSINE_TOP_K:
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


_MALFORMED_REFERENCES = [
    ("[1, 2]", "a reference must be a JSON object"),
    ('{"cluster": null, "text": "a"}', "a reference needs 'cluster' as an integer"),
    ('{"cluster": 1.7, "text": "a"}', "a reference needs 'cluster' as an integer"),
    ('{"cluster": true, "text": "a"}', "a reference needs 'cluster' as an integer"),
    ('{"cluster": "0", "text": "a"}', "a reference needs 'cluster' as an integer"),
    ('{"cluster": 1, "text": null}', "a reference needs 'text' as a string"),
    ('{"cluster": 1, "text": ["a"]}', "a reference needs 'text' as a string"),
    ('{"cluster": 1, "text": "!!"}', "text is empty after normalization"),
    ('{"cluster": 1', "not JSON ("),
]


@pytest.mark.parametrize("line, message", [pytest.param(line, message, id=line)
                                           for line, message in _MALFORMED_REFERENCES])
def test_malformed_reference_line_exits_3(run_copy, capsys, line, message):
    code, references = _evaluate_with_references(run_copy, line)
    assert code == 3
    assert capsys.readouterr().err.startswith(f"corpus error: {references}:2: {message}")


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

    def test_manifest_of_another_checkpoint_format_exits_4(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 0
        manifest_path = out / pipeline.MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["versions"]["checkpoint_format"] = 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        before = _digests(out)
        assert self._run("pretrain", corpus, out) == 4
        assert "different versions" in capsys.readouterr().err
        assert _digests(out) == before

    def test_finetune_again_exits_4_and_keeps_the_encoder(self, labeled_corpus, tmp_path,
                                                         capsys):
        """finetune reads and rewrites encoder.ckpt: a second run would train
        the first run's result further."""
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "finetune"):
            assert self._run(stage, labeled_corpus, out, "--clustering", "labels") == 0
        before = _digests(out)
        assert self._run("finetune", labeled_corpus, out, "--clustering", "labels") == 4
        assert "run pretrain again" in capsys.readouterr().err
        assert _digests(out) == before
        for stage in ("pretrain", "finetune"):
            assert self._run(stage, labeled_corpus, out, "--clustering", "labels") == 0

    def test_malformed_corpus_line_exits_3(self, corpus, tmp_path, capsys):
        corpus.write_text(corpus.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 3
        assert f"{corpus}:9: not JSON (" in capsys.readouterr().err
        assert not out.exists()

    def test_a_corpus_line_that_is_not_utf8_exits_3(self, corpus, tmp_path, capsys):
        corpus.write_bytes(corpus.read_bytes() + b'{"id": "z", "text": "a \xff\xfe b"}\n')
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"corpus error: {corpus}:9: not UTF-8 (")
        assert "position 23" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        '{"id": null, "text": "a b"}', '{"id": 1.0, "text": "a b"}',
        '{"id": true, "text": "a b"}', '{"id": "y", "label": ["l"], "text": "a b"}',
        '{"id": "y", "text": 5}',
    ])
    def test_field_of_another_type_exits_3(self, corpus, tmp_path, capsys, line):
        corpus.write_text(corpus.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 3
        assert ":9: " in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_before_train_decoder_exits_4(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster"):
            assert self._run(stage, corpus, out) == 0
        assert self._run("summarize", corpus, out) == 4
        assert "'train-decoder' has not run" in capsys.readouterr().err
        assert not (out / pipeline.SUMMARIES_FILE).exists()
        assert "summarize" not in _stages(out)

    def test_truncated_clusters_file_exits_1(self, corpus, tmp_path, capsys):
        """clusters.jsonl cut short after train-decoder lacks the last
        center record: summarize and evaluate exit 1 naming that cluster."""
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster", "train-decoder", "summarize"):
            assert self._run(stage, corpus, out) == 0
        path = out / pipeline.CLUSTERS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        capsys.readouterr()
        for stage in ("summarize", "evaluate"):
            assert self._run(stage, corpus, out) == 1
            assert capsys.readouterr().err.endswith("has no center record for cluster 1\n")

    @pytest.mark.parametrize("edit, message", [
        # an explicit id keeps the name a case had before its message changed
        pytest.param(lambda rec: {k: v for k, v in rec.items() if k != "vector"},
                     "{path}:{number}: a center record needs 'vector' as a list of numbers",
                     id="<lambda>-line {number}: a center record needs 'vector' as a list of "
                        "numbers"),
        pytest.param(lambda rec: 7, "{path}:{number}: a cluster record must be a JSON object",
                     id="<lambda>-line {number} is not a JSON object"),
    ])
    def test_malformed_clusters_record_exits_1(self, corpus, tmp_path, capsys, edit, message):
        """The last record of clusters.jsonl, a center, loses its vector or
        becomes the line ``7``: summarize and evaluate exit 1 naming the line."""
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster", "train-decoder", "summarize"):
            assert self._run(stage, corpus, out) == 0
        path = out / pipeline.CLUSTERS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = json.dumps(edit(json.loads(lines[-1]))) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        for stage in ("summarize", "evaluate"):
            assert self._run(stage, corpus, out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert err.endswith(message.format(path=path, number=len(lines)) + "\n")

    @pytest.mark.parametrize("edit, message", [
        # an explicit id keeps the name a case had before its message changed
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "tensors"},
                     "a checkpoint header needs 'tensors' as a list",
                     id="<lambda>-checkpoint header 'tensors' must be a list"),
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "component"},
                     "a checkpoint header needs 'component' as a string",
                     id="<lambda>-checkpoint header 'component' must be a string"),
        pytest.param(lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": ["x"]}]
                                + h["tensors"][1:]},
                     "checkpoint tensor entry 0 needs 'shape' as a list of non-negative integers",
                     id="<lambda>-checkpoint tensor entry 0 needs a string 'name' and a 'shape' "
                        "list of non-negative integers"),
        (lambda h: {**h, "config": {**h["config"], "stray": 1}},
         "checkpoint config keys do not match the model config: ['stray']"),
        (lambda h: {**h, "config": {**h["config"], "num_heads": "x"}},
         "a checkpoint config needs 'num_heads' as an integer"),
        (lambda h: {**h, "config": {**h["config"], "hidden_size": 16.0}},
         "a checkpoint config needs 'hidden_size' as an integer"),
        (lambda h: {**h, "config": {**h["config"], "dropout": "a"}},
         "a checkpoint config needs 'dropout' as a number"),
    ])
    def test_malformed_checkpoint_header_exits_1(self, corpus, tmp_path, capsys, edit, message):
        """encoder.ckpt's header, rewritten after pretrain, lacks a field,
        has a shape that is no list of sizes, a config key the model has not
        or a config value of another JSON type: cluster exits 1 naming the
        file, and records nothing."""
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain"):
            assert self._run(stage, corpus, out) == 0
        path = out / pipeline.ENCODER_FILE
        rewrite_checkpoint_header(path, edit)
        capsys.readouterr()
        assert self._run("cluster", corpus, out) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert "cluster" not in _stages(out)

    @pytest.mark.parametrize("cut, message", [
        (lambda rows: [r for r in rows if json.loads(r)["cluster"] != 1],
         "{path}: no rank-1 summary for cluster 1"),
        # an explicit id keeps the name a case had before its message changed
        pytest.param(lambda rows: rows[:-1] + [json.dumps({"cluster": 1, "text": "a"}) + "\n"],
                     "{path}:{number}: a summary row needs 'rank' as an integer",
                     id="<lambda>-{path}:{number}: a summary row needs 'cluster', 'rank' and "
                        "'text'0"),
        pytest.param(lambda rows: rows[:-1] + ["7\n"],
                     "{path}:{number}: a summary row must be a JSON object",
                     id="<lambda>-{path}:{number}: a summary row needs 'cluster', 'rank' and "
                        "'text'1"),
        (lambda rows: rows[:-1] + [_with(rows[-1], cluster=[0])],
         "{path}:{number}: a summary row needs 'cluster' as an integer"),
        (lambda rows: rows[:-1] + [_with(rows[-1], text=5)],
         "{path}:{number}: a summary row needs 'text' as a string"),
        (lambda rows: rows[:-1] + [_with(rows[-1], rank=True)],
         "{path}:{number}: a summary row needs 'rank' as an integer"),
    ])
    def test_cut_summaries_file_exits_1(self, corpus, tmp_path, capsys, cut, message):
        """summaries.jsonl without cluster 1's rows, or whose last row lacks
        a field, has one of another JSON type or is not an object: evaluate
        exits 1 naming the file and the cluster or line, and records
        nothing."""
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster", "train-decoder", "summarize"):
            assert self._run(stage, corpus, out) == 0
        path = out / pipeline.SUMMARIES_FILE
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(cut(rows)), encoding="utf-8")
        capsys.readouterr()
        assert self._run("evaluate", corpus, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith(message.format(path=path, number=len(rows)) + "\n")
        assert not (out / pipeline.METRICS_JSON).exists()
        assert "evaluate" not in _stages(out)

    def _summarized(self, corpus, tmp_path):
        out = tmp_path / "out"
        for stage in ("build-vocab", "pretrain", "cluster", "train-decoder", "summarize"):
            assert self._run(stage, corpus, out) == 0
        return out

    def test_blank_lines_in_clusters_and_summaries_are_skipped(self, corpus, tmp_path):
        """A blank line, inside or at the end, changes nothing that
        summarize and evaluate read, as in the corpus and the references."""
        out = self._summarized(corpus, tmp_path)
        assert self._run("evaluate", corpus, out) == 0
        before = _digests(out)
        for name, stage in ((pipeline.CLUSTERS_FILE, "summarize"),
                            (pipeline.SUMMARIES_FILE, "evaluate")):
            path = out / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:2] + ["\n", "  \n"] + lines[2:] + ["\n"]),
                            encoding="utf-8")
            assert self._run(stage, corpus, out) == 0
        after = _digests(out)
        assert after.pop(pipeline.CLUSTERS_FILE) != before.pop(pipeline.CLUSTERS_FILE)
        assert after.pop(pipeline.SUMMARIES_FILE) != before.pop(pipeline.SUMMARIES_FILE)
        assert after == before

    @pytest.mark.parametrize("name", [pipeline.CLUSTERS_FILE, pipeline.SUMMARIES_FILE])
    def test_a_line_that_is_not_json_names_its_line(self, corpus, tmp_path, capsys, name):
        out = self._summarized(corpus, tmp_path)
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ['{"type": "doc"\n'] + lines[3:]), encoding="utf-8")
        capsys.readouterr()
        assert self._run("evaluate", corpus, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not JSON (")
        assert "evaluate" not in _stages(out)

    @pytest.mark.parametrize("name", [pipeline.CLUSTERS_FILE, pipeline.SUMMARIES_FILE])
    def test_a_line_that_is_not_utf8_names_its_line(self, corpus, tmp_path, capsys, name):
        out = self._summarized(corpus, tmp_path)
        path = out / name
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + [b'{"text": "\xff\xfe"}\n'] + lines[3:]))
        capsys.readouterr()
        assert self._run("evaluate", corpus, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not UTF-8 (")
        assert "evaluate" not in _stages(out)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: "[]", "a manifest must be a JSON object"),
        (lambda m: json.dumps({k: v for k, v in m.items() if k != "stages"}),
         "a manifest needs 'stages' as an object"),
        (lambda m: json.dumps({**m, "stages": ["build-vocab"]}),
         "a manifest needs 'stages' as an object"),
        (lambda m: json.dumps(m)[:-1], "not JSON ("),
    ])
    def test_malformed_manifest_exits_1(self, corpus, tmp_path, capsys, edit, message):
        """manifest.json, rewritten after build-vocab, is no object, has no
        'stages' object or is not JSON: pretrain exits 1 naming the file,
        and writes nothing."""
        out = tmp_path / "out"
        assert self._run("build-vocab", corpus, out) == 0
        path = out / pipeline.MANIFEST_FILE
        path.write_text(edit(json.loads(path.read_text(encoding="utf-8"))), encoding="utf-8")
        before = _digests(out)
        capsys.readouterr()
        assert self._run("pretrain", corpus, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert _digests(out) == before

    @pytest.mark.parametrize("clustering", ["kmeans", "labels"])
    def test_each_stage_on_an_empty_out_names_the_stage_before_it(
            self, labeled_corpus, tmp_path, capsys, clustering):
        order = ORDER[clustering]
        for previous, stage in zip(order, order[1:]):
            out = tmp_path / stage
            assert self._run(stage, labeled_corpus, out, "--clustering", clustering) == 4
            assert f"stage {previous!r} has not run" in capsys.readouterr().err
            assert not out.exists()

    def test_more_clusters_than_records_exits_2_before_any_stage(
            self, corpus, labeled_corpus, tmp_path, capsys):
        """k-means cannot form 9 clusters from 8 records, so no stage runs;
        labels mode takes its clusters from the labels instead."""
        out = tmp_path / "out"
        assert self._run("run-all", corpus, out, "--set", "num_clusters=9") == 2
        assert "num_clusters 9 exceeds the corpus's 8 records" in capsys.readouterr().err
        assert not out.exists()
        assert self._run("build-vocab", labeled_corpus, out, "--clustering", "labels",
                         "--set", "num_clusters=9") == 0

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


@pytest.mark.parametrize("flag,stage,key,value", [
    ("--no-pretraining", "pretrain", "trained", False),
    ("--no-decoder-init", "train-decoder", "init", "random"),
    ("--unweighted-ce", "train-decoder", "unweighted_ce", True),
])
def test_each_ablation_runs_and_the_manifest_records_it(tmp_path, flag, stage, key, value):
    texts = pair_texts(np.random.default_rng(16), num_docs=8, num_pairs=2, doc_len=4)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n"
                              for i, t in enumerate(texts)), encoding="utf-8")
    out = tmp_path / "out"
    settings = []
    for item in ("max_len=8", "mlm_epochs=1", "decoder_epochs=1", "num_candidates=2",
                 "max_summary_len=4"):
        settings += ["--set", item]
    assert main(["run-all", "--corpus", str(corpus), "--out", str(out), flag, *settings]) == 0
    assert _stages(out)[stage][key] == value
    assert (out / pipeline.METRICS_JSON).exists()


def test_vocab_min_count_drops_words_seen_fewer_times(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "a", "text": "alpha beta beta gamma"}) + "\n"
                      + json.dumps({"id": "b", "text": "beta gamma delta"}) + "\n",
                      encoding="utf-8")
    for min_count, words in ((1, ["beta", "gamma", "alpha", "delta"]), (2, ["beta", "gamma"])):
        out = tmp_path / f"min{min_count}"
        assert main(["build-vocab", "--corpus", str(corpus), "--out", str(out),
                     "--set", f"vocab_min_count={min_count}"]) == 0
        assert Vocabulary.load(out / pipeline.VOCAB_FILE).id_to_token[5:] == words


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
