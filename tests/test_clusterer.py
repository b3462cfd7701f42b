"""Clustering: k-means behavior, membership weights, weighted centers."""

import json

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
from clustersum.encoder import EncoderModel, ModelConfig

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
            kmeans(np.zeros((1, 4)), 2)

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
    config = ModelConfig.desk_scale(vocab.size, max_len=16)
    encoder, _ = pretrain_mlm(docs, config, epochs=8, rng=np.random.default_rng(11),
                              lr=1e-3, warmup_steps=30, batch_size=8)
    return vocab, docs, labels, encoder


class TestClusterWithoutLabels:
    def test_cluster_set_invariants(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        cs = cluster_without_labels(encoder, docs, 3, rng=np.random.default_rng(12))
        assert cs.k == 3
        assert len(cs.doc_ids) == len(docs)
        for c in range(3):
            members = cs.members(c)
            assert members.size > 0
            assert cs.weights[members].max() == 1.0
        assert np.all((cs.weights > 0) & (cs.weights <= 1))

    def test_k_one_weighted_mean(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        embeddings = encoder.embed_documents(docs)
        cs = cluster_without_labels(encoder, docs, 1, rng=np.random.default_rng(13),
                                    embeddings=embeddings)
        w = cs.weights[:, None]
        expected = (w * embeddings).sum(axis=0) / w.sum()
        np.testing.assert_allclose(cs.centers[0], expected, rtol=1e-9)

    def test_weighted_center_in_member_hull_per_coordinate(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        embeddings = encoder.embed_documents(docs)
        cs = cluster_without_labels(encoder, docs, 2, rng=np.random.default_rng(14),
                                    embeddings=embeddings)
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
        enc, history = fine_tune_classifier(enc, docs, num_labels=2, epochs=8,
                                            rng=np.random.default_rng(15),
                                            lr=3e-3, warmup_steps=5)
        assert history[-1].val_accuracy is not None
        cs = cluster_with_labels(enc, docs)
        assert cs.k == 2
        for i, doc in enumerate(docs):
            probs = enc.label_probs(enc.embed_documents([doc]))[0]
            assert cs.assignment[i] == probs.argmax()
            assert cs.weights[i] == pytest.approx(probs.max(), rel=1e-6)

    def test_requires_classifier(self, clustered_setup):
        vocab, docs, labels, encoder = clustered_setup
        with pytest.raises(ValueError, match="classifier"):
            cluster_with_labels(encoder, docs)

    def test_tie_breaks_to_lowest_label(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        assert int(probs.argmax()) == 0


class TestPersistence:
    def test_save_load_round_trip(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        cs = cluster_without_labels(encoder, docs, 2, rng=np.random.default_rng(16))
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
        cluster_without_labels(encoder, docs, 2, rng=np.random.default_rng(16)).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["version"] == CLUSTER_FORMAT_VERSION == 2
        header["version"] = 1
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported cluster file version 1"):
            ClusterSet.load(path)

    def test_identical_runs_identical_files(self, clustered_setup, tmp_path):
        vocab, docs, labels, encoder = clustered_setup
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cluster_without_labels(encoder, docs, 2, rng=np.random.default_rng(17)).save(a)
        cluster_without_labels(encoder, docs, 2, rng=np.random.default_rng(17)).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="weights"):
            ClusterSet(k=1, doc_ids=["a"], assignment=np.array([0]),
                       weights=np.array([0.0]), centers=np.zeros((1, 2)))
