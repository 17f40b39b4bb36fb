"""Score-weighted ensembling of inlier models, instance-level recycling
of confident outlier predictions, and classifier-head adaptation.

Adaptation minimizes  L_all = L_sim + gamma1 * L_pse + gamma2 * L_omr
by full-batch gradient descent with momentum on the member heads only;
feature matrices stay frozen. Gradients are analytic through each
member's softmax; pseudo-labels and recycle labels are constants within
an epoch and refreshed at every epoch boundary.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZooAdaptError
from .inference import forward, mix_outputs, predictive_semantics
from .kernels import softmax_rows
from .sute import indicator_gd, indicator_ic
from .tensorio import ModelRecord, read_tensor, write_tensor

ADAPTED_SUFFIX = ".adapted"


class AdaptError(ZooAdaptError):
    pass


def ensemble_weights(sutes) -> np.ndarray:
    """Softmax of the member scores; shift-invariant and strictly positive."""
    s = np.asarray(sutes, dtype=np.float64)
    if s.size == 0:
        raise AdaptError("no scores given")
    if not np.isfinite(s).all():
        raise AdaptError("ensemble weights need finite scores")
    e = np.exp(s - s.max())
    return e / e.sum()


@dataclass
class EnsembleModel:
    members: list[ModelRecord]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(self.members) == 0:
            raise AdaptError("ensemble needs at least one member")
        if w.shape[0] != len(self.members):
            raise AdaptError("one weight per member required")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise AdaptError("weights must be positive and sum to 1")
        self.weights = w


def build_ensemble(members: list[ModelRecord], sutes) -> EnsembleModel:
    return EnsembleModel(members=members, weights=ensemble_weights(sutes))


def ensemble_forward(e: EnsembleModel) -> np.ndarray:
    """Weighted sum of member probability matrices; rows stay distributions."""
    return mix_outputs([forward(m) for m in e.members], e.weights)


@dataclass(frozen=True)
class RecyclePair:
    sample_index: int
    label: int
    model_id: str
    confidence: float


# Outliers per argmax in mine_recycle_pairs: the scan's largest temporary
# is n x (RECYCLE_BLOCK * C), 256 KB at n=400, C=5, and never a second
# copy of all outlier probabilities.
RECYCLE_BLOCK = 16


def mine_recycle_pairs(model_ids: list[str], probs: list[np.ndarray],
                       tau: float) -> list[RecyclePair]:
    """Per sample, the single most confident outlier prediction, kept
    only when its confidence exceeds tau. probs[j] holds the n x C
    target probabilities of model_ids[j]; they must be finite (a NaN
    would win its block's argmax and hide the block's other models).

    Ties on confidence go to the lowest model_id; ties on the class go
    to the lowest index. The outliers are scanned in sorted-id blocks of
    RECYCLE_BLOCK: one argmax over a block's concatenated columns finds
    the first maximum in (id rank, class) order, and a block replaces
    the running best only when strictly more confident, so an earlier
    block wins ties.
    """
    if len(probs) != len(model_ids):
        raise AdaptError(f"{len(model_ids)} outlier ids but {len(probs)} "
                         "probability matrices")
    if not model_ids:
        return []
    shape = probs[0].shape
    if len(shape) != 2 or any(p.shape != shape for p in probs):
        raise AdaptError("outlier probabilities must be n x C matrices "
                         "of one shape")
    n, c = shape
    order = sorted(range(len(model_ids)), key=model_ids.__getitem__)
    rows = np.arange(n)
    best_conf = np.full(n, -1.0)
    best_col = np.zeros(n, dtype=np.intp)  # id rank * C + class
    buf = np.empty((n, min(len(order), RECYCLE_BLOCK) * c))
    for start in range(0, len(order), RECYCLE_BLOCK):
        members = [probs[j] for j in order[start:start + RECYCLE_BLOCK]]
        block = np.concatenate(members, axis=1,
                               out=buf[:, :len(members) * c])
        cols = block.argmax(axis=1)
        confs = block[rows, cols]
        better = confs > best_conf
        best_conf[better] = confs[better]
        best_col[better] = cols[better] + start * c
    keep = np.flatnonzero(best_conf > tau)
    rank, label = np.divmod(best_col[keep], c)
    ranked_ids = [model_ids[j] for j in order]
    return list(map(RecyclePair, keep.tolist(), label.tolist(),
                    map(ranked_ids.__getitem__, rank.tolist()),
                    best_conf[keep].tolist()))


def loss_ce(mixture: np.ndarray, idx: np.ndarray, lab: np.ndarray) -> float:
    """Mean cross-entropy of the mixture at the (row, label) pairs
    (idx, lab); no pairs give 0. L_pse takes every row at its
    pseudo-label, L_omr the recycled pairs. A zero probability gives
    inf, which the per-epoch guard of adapt reports."""
    if not len(idx):
        return 0.0
    with np.errstate(divide="ignore"):
        return float(-np.log(mixture[idx, lab]).mean())


def loss_sim(probs: list[np.ndarray], weights: np.ndarray) -> float:
    """L_sim = -sum_j theta_j * nmi_j: each member's information-
    maximization loss is its NMI baseline (certainty plus dispersity)
    negated, and the ensemble weights combine them."""
    return float(sum(w * -(indicator_ic(p) + indicator_gd(p))
                     for w, p in zip(weights, probs)))


@dataclass
class AdaptConfig:
    gamma1: float = 0.3
    gamma2: float = 0.3
    tau_recycle: float = 0.95
    epochs: int = 50
    lr: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.gamma1, self.gamma2)):
            raise AdaptError("gamma weights must be finite and >= 0")
        if not 0 < self.tau_recycle < 1:
            raise AdaptError("tau_recycle must be in (0, 1)")
        if self.epochs < 0 or not 0 <= self.lr < math.inf:
            raise AdaptError("epochs must be >= 0 and lr finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise AdaptError("momentum must be in [0, 1)")


# ---------------------------------------------------------------------------
# Analytic gradients. L_pse and L_omr yield dL/dP_bar, L_sim yields dL/dP_j;
# the member chain applies the softmax Jacobian and the frozen features:
#   dL/dZ_j = theta_j * (P_j .* D - rowsum(P_j .* D) .* P_j)
#   dL/dW_j = dL/dZ_j^T F_j,   dL/db_j = colsum(dL/dZ_j)
# ---------------------------------------------------------------------------

def _chain_to_head(d_p: np.ndarray, p: np.ndarray,
                   features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = d_p * p
    g_z = a - a.sum(axis=1, keepdims=True) * p
    return g_z.T @ features, g_z.sum(axis=0)


def _d_ce(mixture: np.ndarray, idx: np.ndarray,
          lab: np.ndarray) -> np.ndarray:
    d = np.zeros_like(mixture)
    if len(idx):
        with np.errstate(divide="ignore"):
            d[idx, lab] = -1.0 / (len(idx) * mixture[idx, lab])
    return d


def _d_im(p: np.ndarray) -> np.ndarray:
    # exact zeros in p make this unbounded; the per-epoch loss guard
    # turns the resulting non-finite state into an AdaptError
    n = p.shape[0]
    mean_row = p.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.log(mean_row)[None, :] - np.log(p)) / n


def objective(features: list[np.ndarray], probs: list[np.ndarray],
              mixture: np.ndarray, theta: np.ndarray, labels: np.ndarray,
              pairs: list[RecyclePair], cfg: AdaptConfig):
    """The adaptation loss L_all and its analytic head gradients.

    probs[j] is member j's softmax output on features[j], mixture their
    theta-weighted sum; pseudo-labels and recycled pairs are constants.
    Returns ((l_sim, l_pse, l_omr), [(gW, gb), ...]): the three loss
    terms and each member's head gradient of L_all.
    """
    rows = np.arange(mixture.shape[0])
    pair_idx = np.array([p.sample_index for p in pairs], dtype=int)
    pair_lab = np.array([p.label for p in pairs], dtype=int)
    l_sim = loss_sim(probs, theta)
    l_pse = loss_ce(mixture, rows, labels)
    l_omr = loss_ce(mixture, pair_idx, pair_lab)

    d_mix = _d_ce(mixture, rows, labels) * cfg.gamma1
    d_mix += _d_ce(mixture, pair_idx, pair_lab) * cfg.gamma2

    grads = []
    for t, f, p in zip(theta, features, probs):
        with np.errstate(invalid="ignore"):
            grads.append(_chain_to_head(t * d_mix + t * _d_im(p), p, f))
    return (l_sim, l_pse, l_omr), grads


@dataclass
class AdaptHistory:
    rows: list[dict] = field(default_factory=list)

    def append(self, epoch: int, l_sim: float, l_pse: float,
               l_omr: float, l_all: float) -> None:
        self.rows.append({"epoch": epoch, "L_sim": l_sim, "L_pse": l_pse,
                          "L_omr": l_omr, "L_all": l_all})

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["epoch", "L_sim", "L_pse", "L_omr", "L_all"])
            for r in self.rows:
                out.writerow([r["epoch"], repr(r["L_sim"]), repr(r["L_pse"]),
                              repr(r["L_omr"]), repr(r["L_all"])])


def adapt(e: EnsembleModel, outliers: list[ModelRecord],
          cfg: AdaptConfig) -> tuple[EnsembleModel, AdaptHistory]:
    """Adapt the member heads to the target set.

    Full-batch descent with classic momentum (v <- mu v + g;
    p <- p - lr v). The score-derived member weights stay frozen.
    Deterministic given the config.
    """
    heads_w = [m.weights.copy() for m in e.members]
    heads_b = [m.bias.copy() for m in e.members]
    feats = [np.asarray(m.features, dtype=np.float64) for m in e.members]
    vel_w = [np.zeros_like(w) for w in heads_w]
    vel_b = [np.zeros_like(b) for b in heads_b]
    history = AdaptHistory()
    outlier_ids = [m.model_id for m in outliers]
    outlier_probs = [forward(m) for m in outliers]  # outlier heads stay frozen

    for epoch in range(cfg.epochs):
        probs = [softmax_rows(f @ w.T + b)
                 for f, w, b in zip(feats, heads_w, heads_b)]
        mixture = mix_outputs(probs, e.weights)

        # refresh constants: pseudo-labels and recycled outlier pairs
        labels = predictive_semantics(mixture)
        pairs = mine_recycle_pairs(outlier_ids, outlier_probs, cfg.tau_recycle)
        terms, grads = objective(feats, probs, mixture, e.weights, labels,
                                 pairs, cfg)
        for name, value in zip(("L_sim", "L_pse", "L_omr"), terms):
            if not np.isfinite(value):
                raise AdaptError(f"non-finite loss term {name} at epoch {epoch}")
        l_sim, l_pse, l_omr = terms
        history.append(epoch, l_sim, l_pse, l_omr,
                       l_sim + cfg.gamma1 * l_pse + cfg.gamma2 * l_omr)

        for j, (g_w, g_b) in enumerate(grads):
            vel_w[j] = cfg.momentum * vel_w[j] + g_w
            vel_b[j] = cfg.momentum * vel_b[j] + g_b
            heads_w[j] = heads_w[j] - cfg.lr * vel_w[j]
            heads_b[j] = heads_b[j] - cfg.lr * vel_b[j]

    # The heads are stored as float32: refuse any that would not round-trip.
    f32_max = float(np.finfo(np.float32).max)
    for m, w, b in zip(e.members, heads_w, heads_b):
        if not ((np.abs(w) <= f32_max).all() and (np.abs(b) <= f32_max).all()):
            raise AdaptError(f"adapted head of {m.model_id!r} is non-finite "
                             "or outside the float32 range")
    adapted = [m.with_head(w, b)
               for m, w, b in zip(e.members, heads_w, heads_b)]
    return EnsembleModel(members=adapted, weights=e.weights), history


def write_adapted_heads(e: EnsembleModel) -> list[str]:
    """Write adapted heads beside the originals with the .adapted suffix."""
    written = []
    for m in e.members:
        wp, bp = _adapted_paths(m)
        write_tensor(m.weights.astype(np.float32), wp)
        write_tensor(m.bias.astype(np.float32), bp)
        written.extend([wp, bp])
    return written


def read_adapted_heads(members: list[ModelRecord]) -> list[ModelRecord]:
    """The members with the heads that write_adapted_heads left on disk."""
    adapted = []
    for m in members:
        wp, bp = _adapted_paths(m)
        adapted.append(m.with_head(read_tensor(wp).astype(np.float64),
                                   read_tensor(bp).astype(np.float64)))
    return adapted


def _adapted_paths(m: ModelRecord) -> tuple[str, str]:
    if m.weights_path is None or m.bias_path is None:
        raise AdaptError(f"model {m.model_id!r} has no head files")
    return (str(m.weights_path) + ADAPTED_SUFFIX,
            str(m.bias_path) + ADAPTED_SUFFIX)
