import itertools
import math

import numpy as np
import pytest

from conftest import make_model, mini_scenario
from zooadapt.diversity import KernelConfig, div_scores
from zooadapt.inference import (forward, predictive_semantics,
                                structural_semantics)
from zooadapt.selection import (SelectionError, SelectionResult,
                                diversity_set, select)
from zooadapt.sute import SuteConfig, score_zoo, sute_score
from zooadapt.synthzoo import (ArchSpec, TrainConfig, build_zoo,
                               generate_scenario)
from zooadapt.tensorio import load_zoo


def collapsed_model(model_id, seed=50, num_classes=3):
    """A model whose predictions collapse to class 0 (rejected by the clip)."""
    m = make_model(model_id, seed=seed, num_classes=num_classes)
    m.bias[:] = np.concatenate([[60.0], np.zeros(num_classes - 1)])
    return m


def oracle_ensemble_sute(models, weights, cfg):
    """Independent ensemble scorer: explicit mixture + explicit vote."""
    probs = [forward(m) for m in models]
    w = np.asarray(weights, float)
    mix = sum(wj * p for wj, p in zip(w, probs))
    n, num_classes = mix.shape
    votes = [structural_semantics(m.features, p)
             for m, p in zip(models, probs)]
    stu = np.empty(n, dtype=int)
    for i in range(n):
        tally = np.zeros(num_classes)
        for wj, v in zip(w, votes):
            tally[v[i]] += wj
        stu[i] = int(np.argmax(tally))
    pred = predictive_semantics(mix)
    ent = lambda q: sum(-v * math.log(v) for v in q if v > 0)
    ic = -np.mean([ent(r) for r in mix])
    joint = np.zeros((num_classes, num_classes))
    for a, b in zip(pred, stu):
        joint[a, b] += 1
    sc = 0.0
    for row in joint:
        if row.sum():
            sc -= row.sum() / n * ent(row / row.sum())
    gd = ent(mix.mean(axis=0))
    if gd < cfg.tau_l:
        return None
    return cfg.lambda1 * ic + cfg.lambda2 * sc + min(gd, cfg.tau_h)


def views(models):
    return score_zoo(models, SuteConfig.default(3)).rows


def softmax(v):
    e = np.exp(np.asarray(v) - max(v))
    return e / e.sum()


# --- greedy transferable set ---------------------------------------------------

def test_single_model_zoo():
    m = make_model("only", seed=1)
    cfg = SuteConfig.default(3)
    result = select([m], cfg, q=0)
    ids, audit = result.transferable_set, result.audit
    assert ids == ["only"]
    assert audit["sute_evaluations"] == 1  # 2r-1 with r=1


def test_duplicate_of_top_model_rejected_by_strictness():
    m = make_model("a", seed=2)
    dup = make_model("b", features=m.features, weights=m.weights, bias=m.bias)
    cfg = SuteConfig.default(3)
    result = select([m, dup], cfg, q=0)
    ids, audit = result.transferable_set, result.audit
    assert len(ids) == 1
    actions = {s["model_id"]: s["action"] for s in audit["steps"]}
    assert actions[ids[0]] == "seed"
    rejected = [s for s in audit["steps"] if s["action"] == "rejected"]
    assert len(rejected) == 1
    assert rejected[0]["ensemble_sute_after"] == pytest.approx(
        rejected[0]["ensemble_sute_before"], abs=1e-12)


def test_three_model_greedy_matches_exhaustive_oracle():
    models = [make_model(f"m{i}", seed=60 + i, n=18) for i in range(3)]
    cfg = SuteConfig.default(3)
    singles = {m.model_id: sute_score(m, cfg).components.sute for m in models}
    assert all(v is not None for v in singles.values())

    # oracle: table of every non-empty subset's ensemble score
    table = {}
    for r in range(1, 4):
        for combo in itertools.combinations(models, r):
            w = softmax([singles[m.model_id] for m in combo])
            key = tuple(sorted(m.model_id for m in combo))
            table[key] = oracle_ensemble_sute(list(combo), w, cfg)

    # oracle greedy trace from the table
    order = sorted(models, key=lambda m: (-singles[m.model_id], m.model_id))
    expected = [order[0].model_id]
    current = table[(order[0].model_id,)]
    for cand in order[1:]:
        trial = table[tuple(sorted(expected + [cand.model_id]))]
        if trial is not None and trial > current:
            expected.append(cand.model_id)
            current = trial

    result = select(models, cfg, q=0)
    ids, audit = result.transferable_set, result.audit
    assert ids == expected
    assert audit["sute_evaluations"] == 2 * 3 - 1
    assert audit["final_ensemble_sute"] == pytest.approx(current, abs=1e-9)


def test_all_rejected_raises():
    models = [collapsed_model(f"c{i}", seed=70 + i) for i in range(2)]
    cfg = SuteConfig.default(3)
    with pytest.raises(SelectionError, match="no transferable model"):
        select(models, cfg, q=0)


def test_sentinel_models_are_skipped_not_counted():
    good = [make_model(f"g{i}", seed=80 + i) for i in range(2)]
    bad = collapsed_model("zbad", seed=85)
    cfg = SuteConfig.default(3)
    result = select(good + [bad], cfg, q=0)
    ids, audit = result.transferable_set, result.audit
    assert "zbad" not in ids
    assert audit["finite_models"] == 2
    assert audit["sute_evaluations"] == 2 * 2 - 1
    skipped = [s for s in audit["steps"] if s["action"] == "skipped_rejected"]
    assert [s["model_id"] for s in skipped] == ["zbad"]


# --- diversity set ----------------------------------------------------------------

def test_diversity_q_zero_and_q_overflow():
    cands = views([make_model(f"c{i}", seed=90 + i) for i in range(2)])
    anchors = views([make_model("a0", seed=95)])
    assert diversity_set(cands, anchors, q=0) == []
    got = diversity_set(cands, anchors, q=5)
    assert sorted(got) == ["c0", "c1"]


def test_diversity_matches_div_scores_oracle():
    cands = [make_model(f"c{i}", seed=100 + i, n=16) for i in range(3)]
    anchors = [make_model(f"a{i}", seed=110 + i, n=16) for i in range(2)]
    kc = KernelConfig(kind="linear")
    got = diversity_set(views(cands), views(anchors), q=2, kc=kc)
    scores = div_scores([forward(m) for m in cands],
                        [forward(m) for m in anchors], kc)
    order = np.argsort(scores, kind="stable")
    expected = [cands[i].model_id for i in order[:2]]
    assert got == expected


# --- full selection ------------------------------------------------------------------

def test_select_single_finite_model_q0():
    models = [make_model("good", seed=130), collapsed_model("bad", seed=131)]
    cfg = SuteConfig.default(3)
    result = select(models, cfg, q=0)
    assert result.transferable_set == ["good"]
    assert result.diversity_set == []
    assert result.inliers == ["good"]
    assert result.outliers == ["bad"]


def test_select_sole_finite_model_is_sole_inlier():
    models = [collapsed_model(f"b{i}", seed=140 + i) for i in range(3)]
    models.append(make_model("alive", seed=145))
    cfg = SuteConfig.default(3)
    result = select(models, cfg, q=2)
    assert result.inliers == ["alive"]
    assert sorted(result.outliers) == ["b0", "b1", "b2"]


def test_select_partition_is_exact_and_disjoint():
    models = [make_model(f"m{i}", seed=150 + i, n=20) for i in range(6)]
    cfg = SuteConfig.default(3)
    result = select(models, cfg, q=2)
    assert set(result.inliers) == set(result.transferable_set) | set(
        result.diversity_set)
    assert not set(result.inliers) & set(result.outliers)
    assert set(result.inliers) | set(result.outliers) == {
        m.model_id for m in models}
    assert not set(result.transferable_set) & set(result.diversity_set)


def test_select_deterministic_replay():
    models = [make_model(f"m{i}", seed=160 + i, n=20) for i in range(5)]
    cfg = SuteConfig.default(3)
    r1 = select(models, cfg, q=2)
    r2 = select(models, cfg, q=2)
    assert r1.to_json() == r2.to_json()


def test_monotone_audit():
    models = [make_model(f"m{i}", seed=170 + i, n=24) for i in range(6)]
    cfg = SuteConfig.default(3)
    result = select(models, cfg, q=1)
    for step in result.audit["steps"]:
        if step["action"] == "accepted":
            assert step["ensemble_sute_after"] > step["ensemble_sute_before"]


def test_selection_result_json_round_trip(tmp_path):
    models = [make_model(f"m{i}", seed=180 + i) for i in range(3)]
    cfg = SuteConfig.default(3)
    result = select(models, cfg, q=1)
    path = tmp_path / "sel.json"
    result.write_json(path)
    back = SelectionResult.from_json(path.read_text())
    assert back.inliers == result.inliers
    assert back.audit == result.audit
    assert back.sutes == result.sutes


# --- golden 8-model zoo (seed 7) ------------------------------------------------------

def _golden_zoo(tmp_path):
    spec = mini_scenario(seed=7)
    scenario = generate_scenario(spec)
    archs = [ArchSpec(kind="identity", seed=1), ArchSpec(kind="proj", dim=3, seed=2)]
    grid = [TrainConfig(lr=0.5, epochs=80), TrainConfig(lr=0.02, epochs=10)]
    return build_zoo(scenario, archs, grid, tmp_path)


def test_golden_eight_model_zoo_partition(tmp_path):
    manifest = _golden_zoo(tmp_path)
    records, target = load_zoo(manifest)
    assert len(records) == 8
    cfg = SuteConfig.default(target.num_classes)
    result = select(records, cfg, q=2)
    # frozen from the first verified run; replayed against the oracles below
    assert result.transferable_set == ["dom0-identity-lr0.5ep80"]
    assert result.diversity_set == ["dom1-proj3-lr0.02ep10",
                                    "dom0-proj3-lr0.5ep80"]
    assert result.audit["sute_evaluations"] == 2 * 8 - 1

    # the diversity picks must match the mean-dependence oracle
    anchors = [m for m in records if m.model_id in result.transferable_set]
    pool = [m for m in records
            if m.model_id not in result.transferable_set
            and not sute_score(m, cfg).components.rejected]
    scores = div_scores([forward(m) for m in pool],
                        [forward(m) for m in anchors])
    order = sorted(range(len(pool)),
                   key=lambda i: (scores[i], pool[i].model_id))
    assert result.diversity_set == [pool[i].model_id for i in order[:2]]

    # cross-check the greedy trace against the independent ensemble oracle
    singles = {m.model_id: sute_score(m, cfg).components.sute for m in records}
    order = sorted(records, key=lambda m: (-singles[m.model_id], m.model_id))
    expected = [order[0].model_id]
    current = singles[order[0].model_id]
    for cand in order[1:]:
        members = [m for m in records if m.model_id in expected] + [cand]
        w = softmax([singles[m.model_id] for m in members])
        trial = oracle_ensemble_sute(members, w, cfg)
        if trial is not None and trial > current:
            expected.append(cand.model_id)
            current = trial
    assert result.transferable_set == expected


# --- ensemble-beats-best guarantee -----------------------------------------------------

def test_greedy_guarantee_on_random_zoos():
    rng = np.random.default_rng(200)
    checked = 0
    for trial in range(30):
        num_classes = int(rng.integers(3, 5))
        models = [make_model(f"m{j}", seed=int(rng.integers(1e6)),
                             n=20, d=int(rng.integers(3, 6)),
                             num_classes=num_classes)
                  for j in range(int(rng.integers(2, 6)))]
        cfg = SuteConfig.default(num_classes)
        singles = [sute_score(m, cfg).components.sute for m in models]
        finite = [s for s in singles if s is not None]
        if not finite:
            continue
        audit = select(models, cfg, q=0).audit
        assert audit["final_ensemble_sute"] >= max(finite) - 1e-12
        assert audit["sute_evaluations"] == 2 * len(finite) - 1
        checked += 1
    assert checked >= 25
