"""Hot numeric kernels, written with numpy (pairwise distances go through
BLAS). All kernels take and return float64 arrays; accumulation is 64-bit
everywhere."""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _as_f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction, n x C in, n x C out."""
    z = _as_f64(z)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each row, with 0*log(0) taken as 0."""
    p = _as_f64(p)
    q = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(q)).sum(axis=1)


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between all row pairs (n x n, zero diagonal)."""
    x = _as_f64(x)
    g = x @ x.T
    sq = np.diag(g)
    d = sq[:, None] + sq[None, :]
    g *= 2.0  # exact, and in place: no third n x n temporary
    d -= g
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d
