"""Everything that reads target labels: the label file, accuracy, Spearman
rank correlation and `eval`'s two reports. Scoring, selection and
adaptation never import this module. Label errors raise SynthError."""

import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .ensemble_adapt import EnsembleModel, ensemble_forward
from .inference import mix_outputs
from .sute import TransferabilityReport
from .synthzoo import SynthError
from .tensorio import read_text, write_csv


def read_labels(path, num_classes: int) -> np.ndarray:
    """The integers of a whitespace-separated file, each in [0, C).
    A label is ASCII digits with an optional leading minus."""
    tokens = read_text(path).split()
    if not all(re.fullmatch("-?[0-9]+", tok) for tok in tokens):
        raise SynthError(f"{path}: labels must be integers")
    labels = np.array([int(tok) for tok in tokens])
    if np.any((labels < 0) | (labels >= num_classes)):
        raise SynthError(f"{path}: labels must be in [0, {num_classes})")
    return labels


def accuracy(p: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label."""
    labels = np.asarray(labels)
    if p.shape[0] != labels.shape[0]:
        raise SynthError("probability matrix and labels disagree on n")
    return float((np.argmax(p, axis=1) == labels).mean())


def write_eval_csv(path, report: TransferabilityReport,
                   accs: dict[str, float]) -> None:
    """Per-model rows in rank order, each with its accuracy."""
    write_csv(path, ["model_id", "domain", "arch", "sute", "ane", "nmi",
                     "rank", "accuracy"],
              ([r.model_id, r.domain_id, r.arch_tag, r.components.sute,
                r.ane, r.nmi, rank, accs[r.model_id]]
               for rank, r in enumerate(report.ranked(), 1)))


def summary(report: TransferabilityReport, accs: dict[str, float],
            labels: np.ndarray, selected: EnsembleModel | None,
            adapted: EnsembleModel | None) -> list[tuple[str, float]]:
    """Spearman rho and p of each score against accuracy, then ensemble
    accuracies; only the adapted heads are forwarded again."""
    acc = np.array([accs[r.model_id] for r in report.rows])
    scores = {"sute": [-math.inf if r.components.sute is None
                       else r.components.sute for r in report.rows],
              "ane": [r.ane for r in report.rows],
              "nmi": [r.nmi for r in report.rows]}
    rows = []
    for name, vals in scores.items():
        rho, p, _ = spearman(vals, acc)
        rows += [(f"spearman_{name}_rho", rho), (f"spearman_{name}_p", p)]
    rows.append(("best_single_accuracy", float(acc.max())))
    uniform = mix_outputs([r.probs for r in report.rows],
                          np.full(len(acc), 1.0 / len(acc)))
    rows.append(("uniform_ensemble_accuracy", accuracy(uniform, labels)))
    if selected is not None:
        probs = {r.model_id: r.probs for r in report.rows}
        mixture = mix_outputs([probs[m.model_id] for m in selected.members],
                              selected.weights)
        rows.append(("selected_ensemble_accuracy", accuracy(mixture, labels)))
    if adapted is not None:
        rows.append(("adapted_ensemble_accuracy",
                     accuracy(ensemble_forward(adapted), labels)))
    return rows


def write_summary(path, rows: list[tuple[str, float]]) -> None:
    write_csv(path, ["metric", "value"], rows)


class SpearmanResult(NamedTuple):
    rho: float
    p_value: float
    degenerate: bool = False


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> SpearmanResult:
    """Rank correlation with average ranks for ties, and the two-sided
    p-value of the Student-t approximation t = rho*sqrt((n-2)/(1-rho^2)).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise SynthError("inputs must have equal length")
    n = x.shape[0]
    if n < 3:
        raise SynthError("need at least 3 points")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        return SpearmanResult(rho=math.nan, p_value=math.nan, degenerate=True)
    rho = float(dx @ dy) / math.sqrt(vx * vy)
    if 1.0 - rho * rho <= 0.0:
        return SpearmanResult(rho=rho, p_value=0.0)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return SpearmanResult(rho=rho, p_value=student_t_two_sided(t, n - 2))


def student_t_two_sided(t: float, nu: int) -> float:
    """P(|T| >= |t|) for Student's t with nu degrees of freedom,
    I_x(nu/2, 1/2) at x = nu/(nu+t^2). 1-x is formed as t^2/(nu+t^2),
    not by subtraction, so the tail keeps full precision at small |t|.
    The relative error stays below 1e-11 up to nu = 1000; beyond, the
    cancellation between the lgamma terms grows it roughly in proportion
    to nu (2e-11 at nu = 1e4).
    """
    t2 = t * t
    return _betainc(0.5 * nu, 0.5, nu / (nu + t2), t2 / (nu + t2))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    The continued fraction converges fast below x = (a+1)/(a+b+2);
    above it, I_x(a, b) = 1 - I_y(b, a) is evaluated instead.
    """
    if x == 0.0 or y == 0.0:
        return x  # I_0 = 0 and I_1 = 1
    front = math.exp(a * math.log(x) + b * math.log(y) + math.lgamma(a + b)
                     - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):  # converges in O(sqrt(max(a, b))) steps
        # even step m(b-m)x / ((a+2m-1)(a+2m)), then the odd step
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < sys.float_info.epsilon:
            break
    return h
