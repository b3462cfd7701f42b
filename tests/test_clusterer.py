"""Clustering: k-means behavior, membership weights, weighted centers."""

import json
import re

import numpy as np
import pytest

from clustersum.clusterer import (
    CLUSTER_FORMAT_VERSION,
    ClusterSet,
    cluster_with_labels,
    cluster_without_labels,
    kmeans,
    membership_weights,
    weighted_centers,
)
from clustersum.config import PipelineConfig
from clustersum.encoder import ModelConfig

from corpora import build_docs, graded_topic_texts


class TestKmeans:
    def test_separable_1d(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        assignment, centers = kmeans(points, 2, rng=np.random.default_rng(0))
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]
        assert assignment[0] != assignment[2]
        got = sorted(centers[:, 0])
        np.testing.assert_allclose(got, [0.05, 10.05], atol=1e-9)

    def test_k_equals_one_gives_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 5))
        assignment, centers = kmeans(points, 1, rng=rng)
        assert np.all(assignment == 0)
        np.testing.assert_allclose(centers[0], points.mean(axis=0), atol=1e-12)

    def test_k_equals_n_zero_sse(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(8, 3))
        assignment, centers = kmeans(points, 8, rng=rng)
        assert sorted(assignment.tolist()) == list(range(8))
        sse = sum(((points[i] - centers[assignment[i]]) ** 2).sum() for i in range(8))
        assert sse == pytest.approx(0.0, abs=1e-18)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="2 clusters"):
            kmeans(np.zeros((1, 4)), 2, np.random.default_rng(0))

    def test_deterministic_for_fixed_seed(self):
        rng_points = np.random.default_rng(3)
        points = rng_points.normal(size=(40, 6))
        a1, c1 = kmeans(points, 4, rng=np.random.default_rng(7))
        a2, c2 = kmeans(points, 4, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)

    def test_sse_non_increasing_over_iterations(self):
        """Lloyd's within-cluster SSE never goes up between iterations."""
        rng = np.random.default_rng(4)
        points = rng.normal(size=(60, 4))

        def sse_of(assignment, centers):
            return sum(((points[i] - centers[assignment[i]]) ** 2).sum()
                       for i in range(len(points)))

        values = []
        for iters in range(1, 8):
            assignment, centers = kmeans(points, 5, max_iters=iters,
                                         rng=np.random.default_rng(11))
            values.append(sse_of(assignment, centers))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_every_cluster_non_empty(self):
        rng = np.random.default_rng(5)
        points = np.vstack([rng.normal(size=(30, 3)), rng.normal(size=(2, 3)) + 50])
        assignment, _ = kmeans(points, 6, rng=np.random.default_rng(13))
        assert len(np.unique(assignment)) == 6


class TestMembershipWeights:
    def test_distance_ratio(self):
        """Distances {2, 4, 8} from the center give weights {1, 0.5, 0.25}."""
        center = np.zeros(2)
        members = np.array([[2.0, 0.0], [0.0, 4.0], [8.0, 0.0]])
        np.testing.assert_allclose(membership_weights(members, center), [1.0, 0.5, 0.25])

    def test_singleton_cluster(self):
        np.testing.assert_array_equal(
            membership_weights(np.array([[3.0, 4.0]]), np.zeros(2)), [1.0])

    def test_all_equidistant(self):
        members = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(membership_weights(members, np.zeros(2)), np.ones(4))

    def test_document_on_center(self):
        members = np.array([[0.0, 0.0], [3.0, 0.0]])
        weights = membership_weights(members, np.zeros(2))
        assert weights[0] == 1.0
        assert 0.0 < weights[1] <= 1.0

    def test_closest_document_has_weight_exactly_one(self):
        rng = np.random.default_rng(6)
        members = rng.normal(size=(25, 8))
        weights = membership_weights(members, rng.normal(size=8))
        assert weights.max() == 1.0
        assert np.all((weights > 0) & (weights <= 1))

    def test_scale_invariance(self):
        """Weights are a ratio of distances: uniform scaling cancels."""
        rng = np.random.default_rng(7)
        members = rng.normal(size=(10, 4))
        center = rng.normal(size=4)
        a = membership_weights(members, center)
        b = membership_weights(members * 37.0, center * 37.0)
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestWeightedCenters:
    def test_direct_ratio(self):
        embeddings = np.array([[1.0, 0.0], [3.0, 0.0]])
        centers = weighted_centers(embeddings, [0, 0], [1.0, 0.5], 1)
        np.testing.assert_allclose(centers[0], [5.0 / 3.0, 0.0])

    def test_equal_weights_give_mean(self):
        rng = np.random.default_rng(8)
        embeddings = rng.normal(size=(12, 5))
        centers = weighted_centers(embeddings, np.zeros(12, dtype=int),
                                   np.full(12, 0.7), 1)
        np.testing.assert_allclose(centers[0], embeddings.mean(axis=0), atol=1e-12)

    def test_single_document(self):
        embeddings = np.array([[2.0, -1.0, 3.0]])
        centers = weighted_centers(embeddings, [0], [0.4], 1)
        np.testing.assert_allclose(centers[0], embeddings[0])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            weighted_centers(np.ones((2, 2)), [0, 0], [1.0, 1.0], 2)

    def test_center_in_convex_hull_1d(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(15, 1))
        weights = rng.uniform(0.1, 1.0, size=15)
        centers = weighted_centers(values, np.zeros(15, dtype=int), weights, 1)
        assert values.min() <= centers[0, 0] <= values.max()


@pytest.fixture(scope="module")
def clustered_setup():
    from clustersum.encoder import pretrain_mlm

    rng = np.random.default_rng(10)
    texts, labels = graded_topic_texts(rng, docs_per_topic=20, words_per_topic=15,
                                       doc_len=8)
    vocab, docs = build_docs(texts, max_len=16, labels=labels)
    config = ModelConfig.desk_scale(vocab.size, max_len=16, dropout=0.1)
    settings = PipelineConfig(mlm_epochs=8, mlm_lr=1e-3, mlm_warmup_steps=30, mlm_batch_size=8)
    encoder, _ = pretrain_mlm(docs, config, settings, np.random.default_rng(11))
    return vocab, docs, labels, encoder


def _ids_and_embeddings(docs, encoder):
    return [d.doc_id for d in docs], encoder.embed_documents(docs)


class TestClusterWithoutLabels:
    def test_cluster_set_invariants(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        cs = cluster_without_labels(*_ids_and_embeddings(docs, encoder), 3,
                                    rng=np.random.default_rng(12))
        assert cs.k == 3
        assert len(cs.doc_ids) == len(docs)
        for c in range(3):
            members = cs.members(c)
            assert members.size > 0
            assert cs.weights[members].max() == 1.0
        assert np.all((cs.weights > 0) & (cs.weights <= 1))

    def test_k_one_weighted_mean(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        ids, embeddings = _ids_and_embeddings(docs, encoder)
        cs = cluster_without_labels(ids, embeddings, 1, rng=np.random.default_rng(13))
        w = cs.weights[:, None]
        expected = (w * embeddings).sum(axis=0) / w.sum()
        np.testing.assert_allclose(cs.centers[0], expected, rtol=1e-9)

    def test_weighted_center_in_member_hull_per_coordinate(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        ids, embeddings = _ids_and_embeddings(docs, encoder)
        cs = cluster_without_labels(ids, embeddings, 2, rng=np.random.default_rng(14))
        for c in range(2):
            members = embeddings[cs.members(c)]
            assert np.all(cs.centers[c] >= members.min(axis=0) - 1e-9)
            assert np.all(cs.centers[c] <= members.max(axis=0) + 1e-9)


class TestClusterWithLabels:
    def test_argmax_and_max_probability(self, clustered_setup):
        import copy

        from clustersum.encoder import fine_tune_classifier

        vocab, docs, labels, encoder = clustered_setup
        enc = copy.deepcopy(encoder)
        settings = PipelineConfig(finetune_epochs=8, finetune_lr=3e-3, finetune_warmup_steps=5)
        enc, history = fine_tune_classifier(enc, docs, 2, settings, np.random.default_rng(15))
        assert history[-1].val_accuracy is not None
        ids, embeddings = _ids_and_embeddings(docs, enc)
        cs = cluster_with_labels(ids, embeddings, enc.label_probs(embeddings))
        assert cs.k == 2
        assert cs.doc_ids == ids
        for i, doc in enumerate(docs):
            probs = enc.label_probs(enc.embed_documents([doc]))[0]
            assert cs.assignment[i] == probs.argmax()
            assert cs.weights[i] == pytest.approx(probs.max(), rel=1e-6)

    def test_requires_classifier(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        ids, embeddings = _ids_and_embeddings(docs, encoder)
        with pytest.raises(ValueError, match="classifier"):
            cluster_with_labels(ids, embeddings, encoder.label_probs(embeddings))

    def test_tie_breaks_to_lowest_label(self):
        probs = np.array([[0.5, 0.5], [0.2, 0.8], [0.5, 0.5]])
        cs = cluster_with_labels(["a", "b", "c"], np.eye(3), probs)
        assert cs.k == 2
        assert cs.assignment.tolist() == [0, 1, 0]
        assert cs.weights.tolist() == [0.5, 0.8, 0.5]
        np.testing.assert_array_equal(cs.centers, [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])

    def test_label_without_documents_rejected(self):
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
        with pytest.raises(ValueError, match="label 2"):
            cluster_with_labels(["a", "b"], np.eye(2), probs)


class TestPersistence:
    def test_save_load_round_trip(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        cs = cluster_without_labels(*_ids_and_embeddings(docs, encoder), 2,
                                    rng=np.random.default_rng(16))
        path = tmp_path / "clusters.jsonl"
        cs.save(path)
        loaded = ClusterSet.load(path)
        assert loaded.k == cs.k
        assert loaded.doc_ids == cs.doc_ids
        np.testing.assert_array_equal(loaded.assignment, cs.assignment)
        np.testing.assert_allclose(loaded.weights, cs.weights, rtol=1e-15)
        np.testing.assert_allclose(loaded.centers, cs.centers, rtol=1e-15)

    def test_version_1_file_is_refused(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        path = tmp_path / "clusters.jsonl"
        cluster_without_labels(*_ids_and_embeddings(docs, encoder), 2,
                               rng=np.random.default_rng(16)).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["version"] == CLUSTER_FORMAT_VERSION == 2
        header["version"] = 1
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported cluster file version 1"):
            ClusterSet.load(path)

    def test_record_without_a_type_is_refused(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        path = tmp_path / "clusters.jsonl"
        cluster_without_labels(*_ids_and_embeddings(docs, encoder), 2,
                               rng=np.random.default_rng(16)).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        del record["type"]
        path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n",
                        encoding="utf-8")
        message = f"{path}:2: a cluster record needs 'type' as one of"
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterSet.load(path)

    @staticmethod
    def _saved(tmp_path):
        """A header on line 1, documents on lines 2-4, centers on lines 5-6."""
        path = tmp_path / "clusters.jsonl"
        ClusterSet(["a", "b", "c"], np.array([0, 1, 1]), np.array([1.0, 0.5, 1.0]),
                   np.arange(6.0).reshape(2, 3)).save(path)
        return path

    @staticmethod
    def _edit(path, number, text):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[number - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("number, field, kind, value", [
        (1, "version", "an integer", None), (1, "version", "an integer", "2"),
        (1, "k", "an integer", None), (1, "k", "an integer", "2"),
        (2, "doc_id", "a string", None), (2, "doc_id", "a string", 7),
        (2, "cluster", "an integer", None), (2, "cluster", "an integer", 0.0),
        (2, "weight", "a number", None), (2, "weight", "a number", True),
        (5, "cluster", "an integer", None), (5, "cluster", "an integer", "0"),
        (5, "vector", "a list of numbers", None), (5, "vector", "a list of numbers", [0.0, "1"]),
    ])
    def test_record_with_a_bad_field_is_refused(self, tmp_path, number, field, kind, value):
        """Each field missing (``None``) or of another JSON type."""
        path = self._saved(tmp_path)
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[number - 1])
        if value is None:
            del record[field]
        else:
            record[field] = value
        self._edit(path, number, json.dumps(record))
        message = f"{path}:{number}: a {record['type']} record needs {field!r} as {kind}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterSet.load(path)

    @pytest.mark.parametrize("text, problem", [
        # an explicit id keeps the name a case had before its message changed
        pytest.param("7", "a cluster record must be a JSON object", id="7-is not a JSON object"),
        pytest.param("[1, 2]", "a cluster record must be a JSON object",
                     id="[1, 2]-is not a JSON object"),
        pytest.param('{"type": "doc"', "not JSON (", id='{"type": "doc"-is not JSON'),
        pytest.param('{"type": "centre"}', "a cluster record needs 'type' as one of",
                     id='{"type": "centre"}-has an unknown record type'),
        pytest.param('{"type": ["doc"]}', "a cluster record needs 'type' as one of",
                     id='{"type": ["doc"]}-has an unknown record type'),
    ])
    def test_line_that_is_not_a_record_is_refused(self, tmp_path, text, problem):
        path = self._saved(tmp_path)
        self._edit(path, 3, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {problem}")):
            ClusterSet.load(path)

    def test_identical_runs_identical_files(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cluster_without_labels(*_ids_and_embeddings(docs, encoder), 2,
                               rng=np.random.default_rng(17)).save(a)
        cluster_without_labels(*_ids_and_embeddings(docs, encoder), 2,
                               rng=np.random.default_rng(17)).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="weights"):
            ClusterSet(doc_ids=["a"], assignment=np.array([0]),
                       weights=np.array([0.0]), centers=np.zeros((1, 2)))
