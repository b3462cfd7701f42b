"""Hard document clustering with outlier-downweighted centers.

Two paths produce the same artifact. Without labels: k-means over document
embeddings, then per-document membership weights as the ratio of the
cluster's minimum center distance to the document's own center distance,
then weight-averaged centers. With labels: the classifier's argmax assigns
the cluster and its max probability is the weight; centers are computed the
same weighted way. Embeddings and centers are frozen once computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import INTEGER, NUMBER, NUMBERS, STRING, check_fields, read_jsonl, write_jsonl

DISTANCE_EPS = 1e-8
CLUSTER_FORMAT_VERSION = 2


@dataclass
class ClusterSet:
    """Hard clusters: assignments, membership weights and one center
    embedding per cluster; ``k`` is the number of centers."""

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
        if np.any(self.assignment < 0) or np.any(self.assignment >= self.k):
            raise ValueError("assignment indices out of range")
        if np.any(self.weights <= 0) or np.any(self.weights > 1):
            raise ValueError("membership weights must lie in (0, 1]")

    @property
    def k(self) -> int:
        return len(self.centers)

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
        """Read a file ``save`` wrote: ``check_fields`` checks each record
        against its type's table, then this checks the header's version and
        a center for each of its ``k`` clusters."""
        doc_ids: list[str] = []
        assignment: list[int] = []
        weights: list[float] = []
        centers: dict[int, list[float]] = {}
        k = None
        for where, rec in read_jsonl(path, {"type": _RECORD_TYPE}, "a cluster record"):
            check_fields(where, rec, _FIELDS[rec["type"]], f"a {rec['type']} record")
            if rec["type"] == "header":
                if rec["version"] != CLUSTER_FORMAT_VERSION:
                    raise ValueError(f"{where}: unsupported cluster file version "
                                     f"{rec['version']}")
                k = rec["k"]
            elif rec["type"] == "doc":
                doc_ids.append(rec["doc_id"])
                assignment.append(rec["cluster"])
                weights.append(rec["weight"])
            else:
                centers[rec["cluster"]] = rec["vector"]
        if k is None:
            raise ValueError(f"{path} has no cluster header record")
        for c in range(k):
            if c not in centers:
                raise ValueError(f"{path} has no center record for cluster {c}")
        return cls(doc_ids, np.array(assignment), np.array(weights),
                   np.array([centers[c] for c in range(k)]))


# Each record type's fields, with the JSON type each must have.
_FIELDS = {
    "header": {"version": INTEGER, "k": INTEGER},
    "doc": {"doc_id": STRING, "cluster": INTEGER, "weight": NUMBER},
    "center": {"cluster": INTEGER, "vector": NUMBERS},
}
_RECORD_TYPE = ("one of 'header', 'doc' and 'center'", lambda v: type(v) is str and v in _FIELDS)


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
    rng: np.random.Generator,
    max_iters: int = 100,
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
    doc_ids: list[str],
    embeddings: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> ClusterSet:
    """k-means on the documents' [CLS] embeddings [n, h], seeded from
    ``rng``, then weights and weighted centers."""
    if k < 1:
        raise ValueError(f"need at least one cluster, got {k}")
    assignment, centroids = kmeans(embeddings, k, rng)
    weights = np.empty(len(doc_ids), dtype=np.float64)
    for c in range(k):
        idx = np.flatnonzero(assignment == c)
        weights[idx] = membership_weights(embeddings[idx], centroids[c])
    centers = weighted_centers(embeddings, assignment, weights, k)
    return ClusterSet(list(doc_ids), assignment, weights, centers)


def cluster_with_labels(
    doc_ids: list[str],
    embeddings: np.ndarray,
    probs: np.ndarray,
) -> ClusterSet:
    """Classifier-driven clustering from label distributions ``probs``
    [n, labels]: argmax label, max probability as weight.

    One cluster per label. Argmax ties resolve to the lowest label id.
    """
    k = probs.shape[1]
    assignment = probs.argmax(axis=1)
    weights = probs.max(axis=1).astype(np.float64)
    for c in range(k):
        if not np.any(assignment == c):
            raise ValueError(f"no document was assigned label {c}; cannot form its cluster")
    centers = weighted_centers(embeddings, assignment, weights, k)
    return ClusterSet(list(doc_ids), assignment, weights, centers)
