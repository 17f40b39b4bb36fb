"""Kernel dependence between two models' target-set predictions.

The biased empirical HSIC, trace(K H L H) / (n-1)^2 with
H = I - 11^T/n, is evaluated on the rows of the two prediction
matrices, so models with different feature dimensions stay comparable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ZooAdaptError
from .kernels import pairwise_sq_dists


class DiversityError(ZooAdaptError):
    pass


@dataclass(frozen=True)
class KernelConfig:
    kind: str = "rbf"  # "rbf" or "linear"
    bandwidth: float | None = None  # None -> median heuristic (rbf only)

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise DiversityError(f"unknown kernel kind {self.kind!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise DiversityError("fixed bandwidth must be > 0")

    @classmethod
    def parse(cls, token: str) -> "KernelConfig":
        """Parse CLI tokens: rbf, rbf:<bandwidth>, linear."""
        kind, sep, bandwidth = token.strip().partition(":")
        if sep and kind == "rbf":
            try:
                return cls(kind="rbf", bandwidth=float(bandwidth))
            except ValueError:
                pass
        elif not sep and kind in ("rbf", "linear"):
            return cls(kind=kind)
        raise DiversityError(f"cannot parse kernel {token!r}")


def _gram(x: np.ndarray, kc: KernelConfig) -> np.ndarray:
    if kc.kind == "linear":
        return x @ x.T
    d2 = pairwise_sq_dists(x)
    if kc.bandwidth is not None:
        bw = kc.bandwidth
    else:
        n = x.shape[0]
        iu = np.triu_indices(n, k=1)
        bw = float(np.median(np.sqrt(d2[iu])))
        if bw == 0.0:
            bw = 1.0
    return np.exp(-d2 / (2.0 * bw * bw))


def _center(g: np.ndarray) -> np.ndarray:
    row = g.mean(axis=0, keepdims=True)
    col = g.mean(axis=1, keepdims=True)
    return g - row - col + g.mean()


def hsic(pa: np.ndarray, pb: np.ndarray, kc: KernelConfig = KernelConfig()) -> float:
    """Biased HSIC between the row samples of two prediction matrices."""
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    n = pa.shape[0]
    if pb.shape[0] != n:
        raise DiversityError("inputs must have the same sample count")
    if n < 2:
        raise DiversityError("need at least 2 samples")
    kc_a = _center(_gram(pa, kc))
    kc_b = _center(_gram(pb, kc))
    # Elementwise form of trace(KHLH); symmetric in (pa, pb) by construction.
    return float((kc_a * kc_b).sum() / (n - 1) ** 2)


def div_scores(candidates: list[np.ndarray], anchors: list[np.ndarray],
               kc: KernelConfig = KernelConfig()) -> np.ndarray:
    """Mean HSIC of each candidate's predictions against all anchors."""
    if not anchors:
        raise DiversityError("anchor set must be non-empty")
    out = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        out[i] = np.mean([hsic(cand, a, kc) for a in anchors])
    return out
