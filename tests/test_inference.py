import math

import mpmath
import numpy as np
import pytest

from zooadapt.inference import (InferenceError, forward, predictive_semantics,
                                structural_semantics)
from zooadapt.tensorio import ModelRecord


def _record(features, weights, bias):
    return ModelRecord(model_id="t", domain_id="d", arch_tag="a",
                       features=np.asarray(features, float),
                       weights=np.asarray(weights, float),
                       bias=np.asarray(bias, float))


# --- forward ---------------------------------------------------------------

def test_forward_zero_features_zero_bias_uniform():
    m = _record(np.zeros((6, 3)), np.zeros((4, 3)), np.zeros(4))
    p = forward(m)
    np.testing.assert_allclose(p, 0.25, atol=1e-12)


def test_forward_log2_bias_closed_form():
    m = _record(np.zeros((5, 2)), np.zeros((3, 2)),
                np.array([math.log(2), 0.0, 0.0]))
    p = forward(m)
    np.testing.assert_allclose(p, np.tile([0.5, 0.25, 0.25], (5, 1)), atol=1e-12)


def mp_softmax(logits):
    """High-precision softmax oracle (50 significant digits)."""
    with mpmath.workdps(50):
        out = []
        for row in logits:
            exps = [mpmath.e ** mpmath.mpf(float(v)) for v in row]
            s = mpmath.fsum(exps)
            out.append([float(v / s) for v in exps])
    return np.array(out)


def test_forward_random_matches_high_precision_oracle():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    m = _record(feats, w, b)
    logits = feats @ w.T + b
    np.testing.assert_allclose(forward(m), mp_softmax(logits), atol=1e-6)


def test_forward_temperature_and_nonfinite_guard():
    m = _record(np.zeros((2, 2)), np.array([[1e308, 0.0], [0.0, 1e308]]),
                np.zeros(2))
    m.features[0, 0] = 1e10  # overflows the logit product
    with pytest.raises(InferenceError, match="non-finite"):
        forward(m)


def test_forward_shift_invariance_per_row():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(8, 3))
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=5)
    p1 = forward(_record(feats, w, b))
    p2 = forward(_record(feats, w, b + 7.5))  # constant added to all logits
    np.testing.assert_allclose(p1, p2, atol=1e-12)


# --- predictive semantics ----------------------------------------------------

def test_predictive_semantics_basic_and_ties():
    p = np.array([[0.1, 0.7, 0.2],
                  [0.5, 0.5, 0.0],
                  [1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_array_equal(predictive_semantics(p), [1, 0, 0])


# --- structural semantics ----------------------------------------------------

def oracle_structural(features, p):
    """Direct re-implementation of the weighted-centroid update equations."""
    feats = np.asarray(features, float)
    fhat = feats / np.linalg.norm(feats, axis=1)[:, None]
    num_classes = p.shape[1]
    cents = np.zeros((num_classes, feats.shape[1]))
    for c in range(num_classes):
        cents[c] = (p[:, c][:, None] * fhat).sum(axis=0) / p[:, c].sum()

    def assign(cents):
        labels = np.empty(len(fhat), dtype=int)
        for i, f in enumerate(fhat):
            best, best_sim = 0, -np.inf
            for c in range(num_classes):
                nc = np.linalg.norm(cents[c])
                sim = f @ cents[c] / nc if nc > 0 else 0.0
                if sim > best_sim:
                    best, best_sim = c, sim
            labels[i] = best
        return labels

    labels = assign(cents)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            cents[c] = fhat[mask].mean(axis=0)
    return assign(cents)


def test_structural_tight_clusters_match_predictive():
    rng = np.random.default_rng(0)
    centers = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, -10.0]])
    y = np.repeat(np.arange(3), 6)
    feats = centers[y] + rng.normal(size=(18, 2)) * 0.05
    p = np.full((18, 3), 0.01)
    p[np.arange(18), y] = 0.98
    labels = structural_semantics(feats, p)
    np.testing.assert_array_equal(labels, predictive_semantics(p))


def test_structural_degenerate_symmetric_collapses_to_zero():
    # uniform p makes every initial centroid the global mean; all
    # assignments tie-break to class 0 and stay there
    feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = np.full((4, 2), 0.5)
    labels = structural_semantics(feats, p)
    np.testing.assert_array_equal(labels, 0)


def test_structural_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    centers = rng.normal(size=(3, 4)) * 4
    y = np.tile(np.arange(3), 4)
    feats = centers[y] + rng.normal(size=(12, 4))
    logits = rng.normal(size=(12, 3))
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(structural_semantics(feats, p),
                                  oracle_structural(feats, p))


def test_structural_zero_row_rejected():
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    p = np.full((3, 2), 0.5)
    with pytest.raises(InferenceError, match="all-zero"):
        structural_semantics(feats, p)


def test_structural_rotation_invariance():
    rng = np.random.default_rng(21)
    centers = rng.normal(size=(3, 5)) * 3
    y = np.tile(np.arange(3), 10)
    feats = centers[y] + rng.normal(size=(30, 5))
    p = np.exp(rng.normal(size=(30, 3)))
    p /= p.sum(axis=1, keepdims=True)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    np.testing.assert_array_equal(structural_semantics(feats, p),
                                  structural_semantics(feats @ q, p))
