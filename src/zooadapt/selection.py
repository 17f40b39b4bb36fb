"""Source-model selection: a greedy transferability pass, a diversity
pass over the remainder, and the inlier/outlier partition."""

import json
import sys
from dataclasses import dataclass

from .diversity import KernelConfig, div_scores
from .ensemble_adapt import EnsembleModel, build_ensemble, ensemble_weights
from .errors import ZooAdaptError
from .sute import ModelScores, SuteConfig, ensemble_components, score_zoo
from .tensorio import JSON_ERRORS, ModelRecord


class SelectionError(ZooAdaptError):
    pass


ID_KEYS = ("transferable_set", "diversity_set", "inliers", "outliers")
SELECTION_KEYS = ID_KEYS + ("sutes", "audit")


@dataclass
class SelectionResult:
    transferable_set: list[str]
    diversity_set: list[str]
    inliers: list[str]
    outliers: list[str]
    audit: dict
    sutes: dict[str, float]  # finite individual scores, for ensemble weights

    def to_json(self) -> str:
        doc = {k: getattr(self, k) for k in SELECTION_KEYS}
        return json.dumps(doc, indent=2) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "SelectionResult":
        try:
            doc = json.loads(text)
        except JSON_ERRORS as e:
            raise SelectionError(f"selection is not valid JSON ({e})")
        if not isinstance(doc, dict):
            raise SelectionError("selection must be a JSON object")
        missing = [k for k in SELECTION_KEYS if k not in doc]
        if missing:
            raise SelectionError(f"selection lacks key {missing[0]!r}")
        for k in ID_KEYS:
            if not (isinstance(doc[k], list)
                    and all(isinstance(mid, str) for mid in doc[k])):
                raise SelectionError(f"selection key {k!r} must be a list of ids")
        for k in ("sutes", "audit"):
            if not isinstance(doc[k], dict):
                raise SelectionError(f"selection key {k!r} must be an object")
        seen = set()
        for mid in doc["inliers"] + doc["outliers"]:
            if mid in seen:
                raise SelectionError(
                    f"model {mid!r} is listed twice in inliers and outliers")
            seen.add(mid)
        if not doc["inliers"]:
            raise SelectionError("selection has no inliers")
        return cls(**{k: doc[k] for k in SELECTION_KEYS})

    def inlier_ensemble(self, records: list[ModelRecord]
                        ) -> tuple[EnsembleModel, list[ModelRecord]]:
        """The score-weighted ensemble of the inliers and the outlier
        records, looked up by id in a loaded zoo."""
        by_id = {m.model_id: m for m in records}
        for mid in self.inliers + self.outliers:
            if mid not in by_id:
                raise SelectionError(f"model {mid!r} is not in the manifest")
        for mid in self.inliers:
            score = self.sutes.get(mid)
            if not (isinstance(score, (int, float))
                    and not isinstance(score, bool)
                    and abs(score) <= sys.float_info.max):
                raise SelectionError(
                    f"inlier {mid!r} has no finite numeric score in sutes")
        ensemble = build_ensemble([by_id[i] for i in self.inliers],
                                  [self.sutes[i] for i in self.inliers])
        return ensemble, [by_id[i] for i in self.outliers]


def _greedy(views: list[ModelScores],
            cfg: SuteConfig) -> tuple[list[ModelScores], dict]:
    """Greedy pass over models sorted by individual score.

    Each candidate is accepted only when the scored ensemble strictly
    improves. Rejected-score (sentinel) models are skipped outright and
    do not count as score evaluations; the audit tallies exactly 2r-1
    evaluations for r finite-score models (r individual plus r-1
    candidate ensembles).
    """
    finite = [v for v in views if not v.components.rejected]
    if not finite:
        raise SelectionError("no transferable model: all scores rejected")
    finite.sort(key=lambda v: (-v.components.sute, v.model_id))
    evaluations = len(finite)  # one individual scoring per finite model

    steps = []
    for v in views:
        if v.components.rejected:
            steps.append({"model_id": v.model_id, "action": "skipped_rejected",
                          "candidate_sute": None,
                          "ensemble_sute_before": None, "ensemble_sute_after": None})

    members = [finite[0]]
    current = finite[0].components.sute  # single-member ensemble equals the member
    steps.append({"model_id": finite[0].model_id, "action": "seed",
                  "candidate_sute": finite[0].components.sute,
                  "ensemble_sute_before": None, "ensemble_sute_after": current})

    for cand in finite[1:]:
        trial_members = members + [cand]
        w = ensemble_weights([m.components.sute for m in trial_members])
        trial = ensemble_components(trial_members, w, cfg)
        evaluations += 1
        trial_sute = None if trial.rejected else trial.sute
        accepted = trial_sute is not None and trial_sute > current
        steps.append({"model_id": cand.model_id,
                      "action": "accepted" if accepted else "rejected",
                      "candidate_sute": cand.components.sute,
                      "ensemble_sute_before": current,
                      "ensemble_sute_after": trial_sute})
        if accepted:
            members.append(cand)
            current = trial_sute

    audit = {"steps": steps, "sute_evaluations": evaluations,
             "finite_models": len(finite), "final_ensemble_sute": current}
    return members, audit


def diversity_set(candidates: list[ModelScores], anchors: list[ModelScores],
                  q: int = 2, kc: KernelConfig = KernelConfig()) -> list[str]:
    """The q candidates whose predictions depend least on the anchor set
    (mean HSIC); ties go to the lowest model_id."""
    if q < 0:
        raise SelectionError("q must be >= 0")
    if q == 0 or not candidates:
        return []
    scores = div_scores([c.probs for c in candidates],
                        [a.probs for a in anchors], kc)
    order = sorted(range(len(candidates)),
                   key=lambda i: (scores[i], candidates[i].model_id))
    return [candidates[i].model_id for i in order[:q]]


def select(models: list[ModelRecord], cfg: SuteConfig = SuteConfig(),
           q: int = 2, kc: KernelConfig = KernelConfig()) -> SelectionResult:
    """Full selection: greedy transferable set, then diversity set from
    the remaining finite-score models, then the inlier/outlier split."""
    if not models:
        raise SelectionError("zoo has no models")
    views = score_zoo(models, cfg).rows
    members, audit = _greedy(views, cfg)
    tr_ids = [v.model_id for v in members]
    tr_set = set(tr_ids)

    # Rejected-score models are excluded from the diversity pool too:
    # dispersity collapse marks them as harmful, and diversity must not
    # reintroduce them.
    pool = [v for v in views
            if v.model_id not in tr_set and not v.components.rejected]
    div_ids = diversity_set(pool, members, q, kc)

    inliers = tr_ids + div_ids
    inset = set(inliers)
    outliers = sorted(m.model_id for m in models if m.model_id not in inset)
    sutes = {v.model_id: v.components.sute
             for v in views if not v.components.rejected}
    return SelectionResult(transferable_set=tr_ids, diversity_set=div_ids,
                           inliers=inliers, outliers=outliers,
                           audit=audit, sutes=sutes)
