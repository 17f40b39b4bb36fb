"""Per-model basics on the target set: prediction probabilities, their
weighted mixture, and predictive and structural semantics. The entropies
built from them are sute's indicators."""

import numpy as np

from .errors import ZooAdaptError
from .kernels import softmax_rows
from .tensorio import ModelRecord


class InferenceError(ZooAdaptError):
    pass


def forward(m: ModelRecord) -> np.ndarray:
    """Prediction probabilities, softmax(F W^T + b) row-wise."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = m.features @ m.weights.T + m.bias
    if not np.isfinite(logits).all():
        raise InferenceError(f"model {m.model_id!r}: non-finite logits")
    return softmax_rows(logits)


def mix_outputs(probs: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted sum of probability matrices, accumulated in member order."""
    out = np.zeros_like(probs[0])
    for w, p in zip(weights, probs):
        out += w * p
    return out


def predictive_semantics(p: np.ndarray) -> np.ndarray:
    """Most-probable class per row; ties go to the lowest class index."""
    return np.argmax(p, axis=1)


def structural_semantics(features: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Cluster-derived pseudo-labels from probability-weighted centroids.

    Feature rows are L2-normalized, centroids seeded by probability
    weights, then samples are assigned to the nearest centroid by cosine
    distance; the centroids are recomputed from that assignment and the
    samples assigned once more. An empty class keeps its previous centroid.
    """
    feats = np.asarray(features, dtype=np.float64)
    n, _ = feats.shape
    num_classes = p.shape[1]
    if n < num_classes:
        raise InferenceError(f"need n >= C, got n={n}, C={num_classes}")
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms == 0.0):
        raise InferenceError("all-zero feature row cannot be normalized")
    fhat = feats / norms[:, None]

    mass = p.sum(axis=0)  # softmax rows are strictly positive
    centroids = (p.T @ fhat) / mass[:, None]
    labels = _assign_cosine(fhat, centroids)
    for c in range(num_classes):
        members = labels == c
        if members.any():
            centroids[c] = fhat[members].mean(axis=0)
    return _assign_cosine(fhat, centroids)


def _assign_cosine(fhat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cnorm = np.linalg.norm(centroids, axis=1)
    cnorm = np.where(cnorm > 0.0, cnorm, 1.0)
    sims = fhat @ (centroids / cnorm[:, None]).T
    return np.argmax(sims, axis=1)  # argmax tie-breaks to lowest index
