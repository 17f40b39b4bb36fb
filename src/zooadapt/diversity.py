"""Kernel dependence between two models' target-set predictions.

The biased empirical HSIC, trace(K H L H) / (n-1)^2 with
H = I - 11^T/n, is evaluated on the rows of the two prediction
matrices, so models with different feature dimensions stay comparable.
Each model enters through one centered factor (see centered_factor), and
every HSIC value is an inner product of two factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ZooAdaptError
from .kernels import pairwise_sq_dists


class DiversityError(ZooAdaptError):
    pass


@dataclass(frozen=True)
class KernelConfig:
    """The HSIC kernel: "rbf", whose bandwidth is the median heuristic
    taken from each model's predictions, or "linear"."""
    kind: str = "rbf"

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise DiversityError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def parse(cls, token: str) -> "KernelConfig":
        """Parse a CLI token: rbf or linear."""
        return cls(kind=token.strip())


def centered_factor(p: np.ndarray, kc: KernelConfig = KernelConfig()) -> np.ndarray:
    """One model's centered HSIC factor, built from its n x C predictions.

    linear: the centered predictions H P (n x C), since H K H = (HP)(HP)^T;
    rbf: the centered gram H K H (n x n), with the bandwidth set to the
    median distance between distinct rows (1 if that median is 0). Built
    in place, so at most one n x n temporary lives beside the gram.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    if n < 2:
        raise DiversityError("need at least 2 samples")
    if kc.kind == "linear":
        return p - p.mean(axis=0)
    g = pairwise_sq_dists(p)
    upper = np.arange(n)[:, None] < np.arange(n)
    dists = g[upper]
    np.sqrt(dists, out=dists)
    bw = float(np.median(dists, overwrite_input=True))
    if bw == 0.0:
        bw = 1.0
    np.negative(g, out=g)
    np.divide(g, 2.0 * bw * bw, out=g)
    np.exp(g, out=g)
    row = g.mean(axis=0, keepdims=True)
    col = g.mean(axis=1, keepdims=True)
    mean = g.mean()
    g -= row
    g -= col
    g += mean
    return g


def hsic(fa: np.ndarray, fb: np.ndarray, kc: KernelConfig = KernelConfig()) -> float:
    """Biased HSIC between two models, given their centered factors."""
    n = fa.shape[0]
    if fb.shape[0] != n:
        raise DiversityError("inputs must have the same sample count")
    if n < 2:
        raise DiversityError("need at least 2 samples")
    if kc.kind == "linear":
        # trace((HA)(HA)^T (HB)(HB)^T) = ||(HA)^T (HB)||_F^2, no n x n matrix
        cross = fa.T @ fb
        return float((cross * cross).sum() / (n - 1) ** 2)
    # Elementwise form of trace(KHLH); symmetric in (fa, fb) by construction.
    return float((fa * fb).sum() / (n - 1) ** 2)


def div_scores(candidates: list[np.ndarray], anchors: list[np.ndarray],
               kc: KernelConfig = KernelConfig()) -> np.ndarray:
    """Mean HSIC of each candidate's predictions against all anchors.

    The anchor factors are built once and held; the candidates stream
    past one factor at a time, so at most len(anchors) + 1 are live.
    """
    if not anchors:
        raise DiversityError("anchor set must be non-empty")
    anchor_factors = [centered_factor(a, kc) for a in anchors]
    out = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        fc = centered_factor(cand, kc)
        out[i] = np.mean([hsic(fc, fa, kc) for fa in anchor_factors])
        del fc  # freed before the next candidate's factor is built
    return out
