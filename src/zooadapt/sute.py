"""Unsupervised transferability scoring for source models on an
unlabeled target set, plus the entropy-family baselines.

The score combines three target-side indicators: per-sample certainty
(negative mean prediction entropy), consistency between cluster-derived
and predicted semantics (negative conditional entropy), and dispersity
of the mean predicted class distribution, clipped piecewise. Models
whose dispersity falls below the lower clip are rejected outright; the
rejection is carried as an explicit sentinel (None), never as a float
infinity, so downstream softmax weighting cannot misuse it.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZooAdaptError
from .inference import (conditional_entropy, entropy, forward, mean_entropy,
                        mix_outputs, predictive_semantics,
                        structural_semantics)
from .tensorio import ModelRecord

REJECTED_CSV = "-inf"


class SuteError(ZooAdaptError):
    pass


@dataclass(frozen=True)
class SuteConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    tau_h: float = 1.0
    tau_l: float = 0.1

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.lambda1, self.lambda2)):
            raise SuteError("lambda weights must be finite and >= 0")
        if not self.tau_l < self.tau_h:
            raise SuteError(f"need tau_l < tau_h, got {self.tau_l} >= {self.tau_h}")

    @classmethod
    def default(cls, num_classes: int, lambda1: float = 1.0,
                lambda2: float = 1.0) -> "SuteConfig":
        """Clips scale with ln C so the dispersity band adapts to class count."""
        ln_c = math.log(num_classes)
        return cls(lambda1=lambda1, lambda2=lambda2,
                   tau_h=0.9 * ln_c, tau_l=0.1 * ln_c)

    def check_class_count(self, num_classes: int) -> None:
        if self.tau_h > math.log(num_classes) + 1e-12:
            raise SuteError(
                f"tau_h={self.tau_h} exceeds ln C={math.log(num_classes):.6f}")


@dataclass(frozen=True)
class SuteComponents:
    ic: float
    sc: float
    gd: float
    phi_gd: float | None  # None marks rejection (gd below lower clip)
    sute: float | None

    @property
    def rejected(self) -> bool:
        return self.sute is None


@dataclass(frozen=True)
class ModelScores:
    """One model's target view: its score components and the target-side
    statistics they come from, built once by sute_score and shared by
    selection, ensemble scoring and evaluation. The arrays take no part
    in equality."""
    model_id: str
    domain_id: str
    arch_tag: str
    components: SuteComponents
    probs: np.ndarray = field(compare=False, repr=False)  # n x C
    structural: np.ndarray = field(compare=False, repr=False)  # n labels

    @property
    def ane(self) -> float:
        """The ANE baseline, which equals the certainty indicator."""
        return self.components.ic

    @property
    def nmi(self) -> float:
        """The NMI baseline: dispersity plus certainty."""
        return self.components.gd + self.components.ic


def indicator_ic(p: np.ndarray) -> float:
    """Individual certainty: negative mean per-sample prediction entropy."""
    return -mean_entropy(p)


def indicator_sc(structural: np.ndarray, predictive: np.ndarray,
                 num_classes: int) -> float:
    """Semantics consistency: negative H(structural | predictive)."""
    return -conditional_entropy(structural, predictive, num_classes)


def indicator_gd(p: np.ndarray) -> float:
    """Global dispersity: entropy of the column-mean probability vector."""
    return entropy(np.asarray(p, dtype=np.float64).mean(axis=0))


def phi(gd: float, cfg: SuteConfig) -> float | None:
    """Piecewise clip of dispersity; None signals rejection below tau_l."""
    if gd > cfg.tau_h:
        return cfg.tau_h
    if gd >= cfg.tau_l:
        return gd
    return None


def combine(ic: float, sc: float, gd: float, cfg: SuteConfig) -> SuteComponents:
    ic, sc, gd = float(ic), float(sc), float(gd)
    clipped = phi(gd, cfg)
    if clipped is None:
        return SuteComponents(ic=ic, sc=sc, gd=gd, phi_gd=None, sute=None)
    score = float(cfg.lambda1 * ic + cfg.lambda2 * sc + clipped)
    return SuteComponents(ic=ic, sc=sc, gd=gd, phi_gd=float(clipped), sute=score)


def sute_score(m: ModelRecord, cfg: SuteConfig) -> ModelScores:
    """Score one model and return its target view: forward pass, both
    semantics, then the three indicators."""
    cfg.check_class_count(m.num_classes)
    p = forward(m)
    stu = structural_semantics(m.features, p)
    comp = _components(p, stu, predictive_semantics(p), m.num_classes, cfg)
    return ModelScores(model_id=m.model_id, domain_id=m.domain_id,
                       arch_tag=m.arch_tag, components=comp,
                       probs=p, structural=stu)


def _components(p, stu, pred, num_classes, cfg) -> SuteComponents:
    return combine(indicator_ic(p), indicator_sc(stu, pred, num_classes),
                   indicator_gd(p), cfg)


def ensemble_components(members: list[ModelScores], weights,
                        cfg: SuteConfig) -> SuteComponents:
    """Score a weighted ensemble of target views as if it were a single model.

    Certainty and dispersity come from the weighted-mixture probability
    matrix; consistency pairs the mixture's predicted classes with a
    weighted majority vote over the members' structural labels.
    """
    if not members:
        raise SuteError("ensemble needs at least one member")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != len(members):
        raise SuteError("one weight per member required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise SuteError("weights must be nonnegative and sum to 1")
    num_classes = members[0].probs.shape[1]
    mixture = mix_outputs([m.probs for m in members], w)
    pred = predictive_semantics(mixture)
    stu = weighted_vote([m.structural for m in members], w, num_classes)
    return _components(mixture, stu, pred, num_classes, cfg)


def weighted_vote(label_lists: list[np.ndarray], weights: np.ndarray,
                  num_classes: int) -> np.ndarray:
    """Per-sample weighted majority vote; ties go to the lowest class index."""
    n = label_lists[0].shape[0]
    tallies = np.zeros((n, num_classes))
    for wj, labels in zip(weights, label_lists):
        tallies[np.arange(n), labels] += wj
    return np.argmax(tallies, axis=1)


@dataclass
class TransferabilityReport:
    rows: list[ModelScores]

    def ranked(self) -> list[ModelScores]:
        """Rows ordered by score descending; rejected models last.
        Ties break on model_id."""
        def key(r: ModelScores):
            s = r.components.sute
            return (0, -s, r.model_id) if s is not None else (1, 0.0, r.model_id)
        return sorted(self.rows, key=key)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["model_id", "domain", "arch", "ic", "sc", "gd",
                          "phi_gd", "sute", "ane", "nmi", "rank"])
            for rank, r in enumerate(self.ranked(), 1):
                c = r.components
                out.writerow([
                    r.model_id, r.domain_id, r.arch_tag,
                    repr(c.ic), repr(c.sc), repr(c.gd),
                    REJECTED_CSV if c.phi_gd is None else repr(c.phi_gd),
                    REJECTED_CSV if c.sute is None else repr(c.sute),
                    repr(r.ane), repr(r.nmi), rank,
                ])


def score_zoo(records: list[ModelRecord], cfg: SuteConfig) -> TransferabilityReport:
    return TransferabilityReport(rows=[sute_score(m, cfg) for m in records])
