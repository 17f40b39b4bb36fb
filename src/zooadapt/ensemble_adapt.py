"""Score-weighted ensembling of inlier models, instance-level recycling
of confident outlier predictions, and classifier-head adaptation.

Adaptation minimizes  L_all = L_sim + gamma1 * L_pse + gamma2 * L_omr
by full-batch gradient descent with momentum on the member heads only;
feature matrices stay frozen. Gradients are analytic through each
member's softmax. Pseudo-labels are constants within an epoch and
refreshed at every epoch boundary. The recycled outlier pairs are mined
once per adapt: the outlier heads stay frozen and tau is fixed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZooAdaptError
from .inference import forward, mix_outputs, predictive_semantics
from .kernels import softmax_rows
from .tensorio import ModelRecord, read_tensor, write_csv, write_tensor

ADAPTED_SUFFIX = ".adapted"
MOMENTUM = 0.9


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


def mine_recycle_pairs(probs: list[np.ndarray], tau: float) -> np.ndarray:
    """Per sample, the single most confident outlier prediction, kept
    only when its confidence exceeds tau: a K x 2 intp array of (sample
    index, label) rows in sample order, (0, 2) when nothing is kept.
    probs[j] holds outlier j's n x C target probabilities; they must be
    finite (a NaN would win its row's argmax and hide its other classes).

    One running maximum per sample over probs in the given order: each
    matrix replaces a row's best only where it is strictly more
    confident, so an earlier matrix wins a tie on confidence, and the
    lowest class wins a tie within a row.
    """
    if not probs:
        return np.empty((0, 2), dtype=np.intp)
    shape = probs[0].shape
    if len(shape) != 2 or any(p.shape != shape for p in probs):
        raise AdaptError("outlier probabilities must be n x C matrices "
                         "of one shape")
    rows = np.arange(shape[0])
    best_conf = np.full(shape[0], -1.0)
    best_label = np.zeros(shape[0], dtype=np.intp)
    for p in probs:
        labels = p.argmax(axis=1)
        confs = p[rows, labels]
        better = confs > best_conf
        best_conf[better] = confs[better]
        best_label[better] = labels[better]
    keep = np.flatnonzero(best_conf > tau)
    return np.column_stack((keep, best_label[keep]))


@dataclass
class AdaptConfig:
    gamma1: float = 0.3
    gamma2: float = 0.3
    tau_recycle: float = 0.95
    epochs: int = 50
    lr: float = 0.01

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.gamma1, self.gamma2)):
            raise AdaptError("gamma weights must be finite and >= 0")
        if not 0 < self.tau_recycle < 1:
            raise AdaptError("tau_recycle must be in (0, 1)")
        if self.epochs < 0 or not 0 <= self.lr < math.inf:
            raise AdaptError("epochs must be >= 0 and lr finite and >= 0")


def objective(features: list[np.ndarray], probs: list[np.ndarray],
              mixture: np.ndarray, theta: np.ndarray, labels: np.ndarray,
              pairs: np.ndarray, cfg: AdaptConfig):
    """The adaptation loss L_all and its analytic head gradients.

    probs[j] is member j's softmax output on features[j], mixture their
    theta-weighted sum; pseudo-labels and the K x 2 recycled (sample,
    label) pairs are constants.
    Returns ((l_sim, l_pse, l_omr), [(gW, gb), ...]): the three loss
    terms and each member's head gradient of L_all.

    L_pse and L_omr are the mean cross-entropy of the mixture at every
    row's pseudo-label and at the recycled pairs (no pairs give 0); they
    give D = dL/dP_bar. L_sim = -sum_j theta_j * (ic_j + gd_j) is each
    member's NMI baseline negated; its gradient in P_j is
    theta_j * (log m_j - log P_j) / n, m_j the member's mean row. The
    loss and its gradient read one masked log of P_j and of m_j, which
    takes 0 * log 0 as 0, so a member with exact zeros stays finite.
    The member chain applies the softmax Jacobian and the frozen features:
      G_j = theta_j * (D + (log m_j - log P_j) / n)
      dL/dZ_j = P_j .* G_j - rowsum(P_j .* G_j) .* P_j
      dL/dW_j = dL/dZ_j^T F_j,   dL/db_j = colsum(dL/dZ_j)
    A zero mixture probability at a recycled label makes L_omr and D
    infinite; the per-epoch guard of adapt reports it.
    """
    rows = np.arange(mixture.shape[0])
    pair_idx, pair_lab = pairs.T
    ce_terms = []
    d_mix = np.zeros_like(mixture)
    for idx, lab, gamma in ((rows, labels, cfg.gamma1),
                            (pair_idx, pair_lab, cfg.gamma2)):
        picked = mixture[idx, lab]
        with np.errstate(divide="ignore"):
            ce_terms.append(float(-np.log(picked).mean()) if len(idx) else 0.0)
            d_mix[idx, lab] += -1.0 / (len(idx) * picked) * gamma

    l_sim = 0.0
    grads = []
    for t, f, p in zip(theta, features, probs):
        mean_row = p.mean(axis=0)
        log_p = np.log(np.where(p > 0.0, p, 1.0))
        log_m = np.log(np.where(mean_row > 0.0, mean_row, 1.0))
        ic = (p * log_p).sum(axis=1).mean()  # minus the mean row entropy
        neg_gd = (mean_row * log_m).sum()  # minus the mean row's entropy
        l_sim -= t * (ic - neg_gd)
        with np.errstate(invalid="ignore"):
            a = (t * d_mix + t * ((log_m - log_p) / p.shape[0])) * p
            g_z = a - a.sum(axis=1, keepdims=True) * p
        grads.append((g_z.T @ f, g_z.sum(axis=0)))
    return (float(l_sim), *ce_terms), grads


@dataclass
class AdaptHistory:
    rows: list[dict] = field(default_factory=list)

    def append(self, epoch: int, l_sim: float, l_pse: float,
               l_omr: float, l_all: float) -> None:
        self.rows.append({"epoch": epoch, "L_sim": l_sim, "L_pse": l_pse,
                          "L_omr": l_omr, "L_all": l_all})

    def write_csv(self, path) -> None:
        header = ["epoch", "L_sim", "L_pse", "L_omr", "L_all"]
        write_csv(path, header, ([r[k] for k in header] for r in self.rows))


def adapt(e: EnsembleModel, outliers: list[ModelRecord],
          cfg: AdaptConfig) -> tuple[EnsembleModel, AdaptHistory]:
    """Adapt the member heads to the target set.

    Full-batch descent with classic momentum (v <- MOMENTUM v + g;
    p <- p - lr v). The score-derived member weights stay frozen.
    Deterministic given the config.
    """
    heads_w = [m.weights.copy() for m in e.members]
    heads_b = [m.bias.copy() for m in e.members]
    feats = [np.asarray(m.features, dtype=np.float64) for m in e.members]
    vel_w = [np.zeros_like(w) for w in heads_w]
    vel_b = [np.zeros_like(b) for b in heads_b]
    history = AdaptHistory()
    # the outlier heads stay frozen and tau is fixed: one mining serves
    # every epoch, and no outlier probabilities outlive it; in id order,
    # ties on confidence go to the lowest model id
    pairs = mine_recycle_pairs([forward(m) for m in sorted(
        outliers, key=lambda m: m.model_id)], cfg.tau_recycle)

    for epoch in range(cfg.epochs):
        # as in inference.forward: overflowing logits give non-finite
        # probabilities, which the loss guard below reports
        with np.errstate(over="ignore", invalid="ignore"):
            probs = [softmax_rows(f @ w.T + b)
                     for f, w, b in zip(feats, heads_w, heads_b)]
        mixture = mix_outputs(probs, e.weights)

        labels = predictive_semantics(mixture)  # refreshed every epoch
        terms, grads = objective(feats, probs, mixture, e.weights, labels,
                                 pairs, cfg)
        for name, value in zip(("L_sim", "L_pse", "L_omr"), terms):
            if not np.isfinite(value):
                raise AdaptError(f"non-finite loss term {name} at epoch {epoch}")
        l_sim, l_pse, l_omr = terms
        history.append(epoch, l_sim, l_pse, l_omr,
                       l_sim + cfg.gamma1 * l_pse + cfg.gamma2 * l_omr)

        for j, (g_w, g_b) in enumerate(grads):
            vel_w[j] = MOMENTUM * vel_w[j] + g_w
            vel_b[j] = MOMENTUM * vel_b[j] + g_b
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
        wp, bp = adapted_paths(m)
        write_tensor(m.weights.astype(np.float32), wp)
        write_tensor(m.bias.astype(np.float32), bp)
        written.extend([wp, bp])
    return written


def read_adapted_heads(members: list[ModelRecord]) -> list[ModelRecord]:
    """The members with the heads that write_adapted_heads left on disk;
    each tensor must have the shape of the member's head."""
    adapted = []
    for m in members:
        head = []
        for path, want in zip(adapted_paths(m), (m.weights, m.bias)):
            t = read_tensor(path)
            if t.shape != want.shape:
                raise AdaptError(f"{path}: shape {t.shape}, but the head of "
                                 f"{m.model_id!r} is {want.shape}")
            head.append(t.astype(np.float64))
        adapted.append(m.with_head(*head))
    return adapted


def adapted_paths(m: ModelRecord) -> tuple[str, str]:
    """Where write_adapted_heads puts m's adapted weights and bias."""
    if m.weights_path is None or m.bias_path is None:
        raise AdaptError(f"model {m.model_id!r} has no head files")
    return (str(m.weights_path) + ADAPTED_SUFFIX,
            str(m.bias_path) + ADAPTED_SUFFIX)
