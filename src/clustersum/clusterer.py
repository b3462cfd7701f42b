"""Hard document clustering with outlier-downweighted centers.

Two paths produce the same artifact. Without labels: k-means over document
embeddings, then per-document membership weights as the ratio of the
cluster's minimum center distance to the document's own center distance,
then weight-averaged centers. With labels: the classifier's argmax assigns
the cluster and its max probability is the weight; centers are computed the
same weighted way. Embeddings and centers are frozen once computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_jsonl
from .encoder import EncoderModel
from .tokenizer import EncodedDocument

DISTANCE_EPS = 1e-8
CLUSTER_FORMAT_VERSION = 2


@dataclass
class ClusterSet:
    """K hard clusters: assignments, membership weights, center embeddings."""

    k: int
    doc_ids: list[str]
    assignment: np.ndarray          # [n] cluster index per document
    weights: np.ndarray             # [n] membership weight in (0, 1]
    centers: np.ndarray             # [k, h] weighted centers

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.centers = np.asarray(self.centers, dtype=np.float64)
        n = len(self.doc_ids)
        if not (self.assignment.shape == (n,) and self.weights.shape == (n,)):
            raise ValueError("assignment/weights must have one entry per document")
        if self.centers.shape[0] != self.k:
            raise ValueError(f"expected {self.k} centers, got {self.centers.shape[0]}")
        if np.any(self.assignment < 0) or np.any(self.assignment >= self.k):
            raise ValueError("assignment indices out of range")
        if np.any(self.weights <= 0) or np.any(self.weights > 1):
            raise ValueError("membership weights must lie in (0, 1]")

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster)

    def save(self, path: str | Path) -> None:
        """Line-delimited records: a header, one row per document, one per center."""
        records = [{"type": "header", "version": CLUSTER_FORMAT_VERSION, "k": self.k}]
        for i, doc_id in enumerate(self.doc_ids):
            records.append({"type": "doc", "doc_id": doc_id, "cluster": int(self.assignment[i]),
                            "weight": float(self.weights[i])})
        for c in range(self.k):
            records.append({"type": "center", "cluster": c, "vector": self.centers[c].tolist()})
        write_jsonl(path, records)

    @classmethod
    def load(cls, path: str | Path) -> "ClusterSet":
        doc_ids: list[str] = []
        assignment: list[int] = []
        weights: list[float] = []
        centers: dict[int, list[float]] = {}
        k = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["type"] == "header":
                    if rec["version"] != CLUSTER_FORMAT_VERSION:
                        raise ValueError(f"unsupported cluster file version {rec['version']}")
                    k = rec["k"]
                elif rec["type"] == "doc":
                    doc_ids.append(rec["doc_id"])
                    assignment.append(rec["cluster"])
                    weights.append(rec["weight"])
                elif rec["type"] == "center":
                    centers[rec["cluster"]] = rec["vector"]
        if k is None:
            raise ValueError(f"{path} has no cluster header record")
        return cls(
            k=k,
            doc_ids=doc_ids,
            assignment=np.array(assignment),
            weights=np.array(weights),
            centers=np.array([centers[c] for c in range(k)]),
        )


def _pairwise_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkh,nkh->nk", diff, diff)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread initial centroids: each next pick weighted by squared distance."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(closest), r, side="right"))
        idx = min(idx, n - 1)
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(
    embeddings: np.ndarray,
    k: int,
    max_iters: int = 100,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iterations under the Euclidean metric.

    Stops when assignments stabilize or after ``max_iters``. An emptied
    cluster is repaired by stealing the point farthest from its own centroid.
    Returns ``(assignment, centroids)``.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    n = points.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    if rng is None:
        rng = np.random.default_rng(0)
    centers = _kmeans_pp_init(points, k, rng)
    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(max_iters):
        sq = _pairwise_sq_dist(points, centers)
        new_assignment = sq.argmin(axis=1)
        for c in range(k):
            if not np.any(new_assignment == c):
                own = sq[np.arange(n), new_assignment]
                donor = int(own.argmax())
                new_assignment[donor] = c
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            centers[c] = points[assignment == c].mean(axis=0)
    return assignment, centers


def membership_weights(member_embeddings: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Min-distance ratio weights: the closest document gets exactly 1.0.

    A document sitting exactly on the center also gets 1.0; in that case the
    numerator for the remaining documents is clamped to a small epsilon so
    the ratio stays defined.
    """
    members = np.asarray(member_embeddings, dtype=np.float64)
    if members.ndim != 2 or members.shape[0] == 0:
        raise ValueError("membership_weights needs a non-empty [m, h] embedding matrix")
    dist = np.sqrt(((members - np.asarray(center, dtype=np.float64)) ** 2).sum(axis=1))
    smallest = dist.min()
    numerator = max(smallest, DISTANCE_EPS)
    weights = numerator / np.maximum(dist, DISTANCE_EPS)
    weights[dist <= smallest] = 1.0
    return np.clip(weights, None, 1.0)


def weighted_centers(
    embeddings: np.ndarray,
    assignment: np.ndarray,
    weights: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-cluster weighted mean of member embeddings."""
    points = np.asarray(embeddings, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    for c in range(k):
        idx = np.flatnonzero(np.asarray(assignment) == c)
        if idx.size == 0:
            raise ValueError(f"cluster {c} is empty")
        w = weights[idx][:, None]
        centers[c] = (w * points[idx]).sum(axis=0) / w.sum()
    return centers


def cluster_without_labels(
    encoder: EncoderModel,
    docs: list[EncodedDocument],
    k: int,
    max_iters: int = 100,
    rng: np.random.Generator | None = None,
    embeddings: np.ndarray | None = None,
) -> ClusterSet:
    """k-means on [CLS] embeddings, then weights and weighted centers."""
    if k < 1:
        raise ValueError(f"need at least one cluster, got {k}")
    if embeddings is None:
        embeddings = encoder.embed_documents(docs)
    assignment, centroids = kmeans(embeddings, k, max_iters=max_iters, rng=rng)
    weights = np.empty(len(docs), dtype=np.float64)
    for c in range(k):
        idx = np.flatnonzero(assignment == c)
        weights[idx] = membership_weights(embeddings[idx], centroids[c])
    centers = weighted_centers(embeddings, assignment, weights, k)
    return ClusterSet(
        k=k,
        doc_ids=[d.doc_id for d in docs],
        assignment=assignment,
        weights=weights,
        centers=centers,
    )


def cluster_with_labels(
    encoder: EncoderModel,
    docs: list[EncodedDocument],
    embeddings: np.ndarray | None = None,
) -> ClusterSet:
    """Classifier-driven clustering: argmax label, max probability as weight.

    One cluster per label. Argmax ties resolve to the lowest label id.
    """
    k = encoder.num_labels
    if embeddings is None:
        embeddings = encoder.embed_documents(docs)
    probs = encoder.label_probs(embeddings)
    assignment = probs.argmax(axis=1)
    weights = probs.max(axis=1).astype(np.float64)
    for c in range(k):
        if not np.any(assignment == c):
            raise ValueError(f"no document was assigned label {c}; cannot form its cluster")
    centers = weighted_centers(embeddings, assignment, weights, k)
    return ClusterSet(
        k=k,
        doc_ids=[d.doc_id for d in docs],
        assignment=assignment,
        weights=weights,
        centers=centers,
    )
