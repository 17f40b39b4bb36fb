import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import make_model, objective_term
from zooadapt.cli import main
from zooadapt.ensemble_adapt import (RECYCLE_BLOCK, AdaptConfig, AdaptError,
                                     EnsembleModel, RecyclePair, adapt,
                                     build_ensemble, ensemble_forward,
                                     ensemble_weights, loss_ce, loss_sim,
                                     mine_recycle_pairs)
from zooadapt.inference import forward, mix_outputs, predictive_semantics
from zooadapt.kernels import softmax_rows
from zooadapt.selection import SelectionResult
from zooadapt.tensorio import load_zoo


# --- ensemble weights ---------------------------------------------------------

def test_equal_scores_give_uniform_weights():
    w = ensemble_weights([0.7, 0.7, 0.7])
    np.testing.assert_allclose(w, 1 / 3, atol=1e-15)


def test_weights_closed_form():
    w = ensemble_weights([0.0, math.log(3)])
    np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)


def test_weights_match_high_precision_softmax():
    vals = [0.31, -1.2, 2.05]
    with mpmath.workdps(50):
        exps = [mpmath.e ** mpmath.mpf(v) for v in vals]
        s = mpmath.fsum(exps)
        expected = [float(v / s) for v in exps]
    np.testing.assert_allclose(ensemble_weights(vals), expected, atol=1e-12)


def test_weights_shift_invariance():
    vals = np.array([0.4, -0.3, 1.1])
    np.testing.assert_allclose(ensemble_weights(vals),
                               ensemble_weights(vals + 123.0), atol=1e-12)


def test_weights_reject_nonfinite():
    with pytest.raises(AdaptError):
        ensemble_weights([0.1, np.inf])
    with pytest.raises(AdaptError):
        ensemble_weights([])


# --- ensemble forward -----------------------------------------------------------

def test_forward_single_member_identity():
    m = make_model(seed=1)
    e = EnsembleModel(members=[m], weights=np.array([1.0]))
    np.testing.assert_allclose(ensemble_forward(e), forward(m), atol=1e-15)


def test_forward_identical_members():
    m = make_model(seed=2)
    e = EnsembleModel(members=[m, m], weights=np.array([0.4, 0.6]))
    np.testing.assert_allclose(ensemble_forward(e), forward(m), atol=1e-15)


def test_forward_convex_combination_oracle():
    a = make_model("a", seed=3)
    b = make_model("b", seed=4)
    e = EnsembleModel(members=[a, b], weights=np.array([0.3, 0.7]))
    got = ensemble_forward(e)
    expected = 0.3 * forward(a) + 0.7 * forward(b)
    np.testing.assert_allclose(got, expected, atol=1e-15)
    np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_ensemble_validation():
    m = make_model(seed=5)
    with pytest.raises(AdaptError):
        EnsembleModel(members=[m], weights=np.array([0.9]))
    with pytest.raises(AdaptError):
        EnsembleModel(members=[], weights=np.array([]))


# --- outlier recycling -------------------------------------------------------------

def _confidence_model(model_id, peaked_rows, num_classes=3, n=4):
    """Rows listed in peaked_rows get a huge logit on the given class."""
    feats = np.eye(n)
    w = np.zeros((num_classes, n))
    for row, cls, scale in peaked_rows:
        w[cls, row] = scale
    return make_model(model_id, features=feats, weights=w,
                      bias=np.zeros(num_classes))


def test_no_pairs_when_confidence_below_tau():
    m = _confidence_model("o1", [(0, 1, 1.0)])  # soft predictions only
    assert mine_recycle_pairs(["o1"], [forward(m)], tau=0.95) == []


def test_single_confident_pair():
    m = _confidence_model("o1", [(2, 1, 30.0)])
    pairs = mine_recycle_pairs(["o1"], [forward(m)], tau=0.95)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.sample_index, p.label, p.model_id) == (2, 1, "o1")
    assert p.confidence > 0.95


def oracle_pairs(outliers, tau):
    """Brute force over every (model, sample) pair."""
    by_id = {m.model_id: forward(m) for m in outliers}
    n = next(iter(by_id.values())).shape[0]
    out = []
    for i in range(n):
        best = None
        for mid in sorted(by_id):
            row = by_id[mid][i]
            conf, lab = float(row.max()), int(np.argmax(row))
            if best is None or conf > best[0]:
                best = (conf, mid, lab)
        if best[0] > tau:
            out.append((i, best[2], best[1]))
    return out


def test_recycling_matches_bruteforce_oracle():
    a = _confidence_model("oa", [(0, 2, 40.0), (1, 0, 2.0)])
    b = _confidence_model("ob", [(1, 1, 35.0), (0, 2, 20.0)])
    pairs = mine_recycle_pairs(["oa", "ob"], [forward(a), forward(b)], tau=0.9)
    assert [(p.sample_index, p.label, p.model_id) for p in pairs] == \
        oracle_pairs([a, b], 0.9)


def test_recycling_tie_goes_to_lowest_model_id():
    a = _confidence_model("zz", [(0, 1, 25.0)])
    b = make_model("aa", features=a.features, weights=a.weights, bias=a.bias)
    pairs = mine_recycle_pairs(["zz", "aa"], [forward(a), forward(b)], tau=0.9)
    assert pairs[0].model_id == "aa"


def test_empty_outliers_empty_pairs():
    assert mine_recycle_pairs([], [], tau=0.5) == []


def loop_mine_recycle_pairs(model_ids, probs, tau):
    """Reference for the blocked scan: one argmax per model, in sorted-id
    order, then one Python pass over the samples."""
    n = probs[0].shape[0]
    best_conf = np.full(n, -1.0)
    best_label = np.zeros(n, dtype=int)
    best_model = np.zeros(n, dtype=int)
    for j in sorted(range(len(model_ids)), key=model_ids.__getitem__):
        p = probs[j]
        labels = np.argmax(p, axis=1)
        confs = p[np.arange(n), labels]
        better = confs > best_conf  # strict: earlier (lower) id wins ties
        best_conf[better] = confs[better]
        best_label[better] = labels[better]
        best_model[better] = j
    pairs = []
    for i in range(n):
        if best_conf[i] > tau:
            pairs.append(RecyclePair(sample_index=i, label=int(best_label[i]),
                                     model_id=model_ids[best_model[i]],
                                     confidence=float(best_conf[i])))
    return pairs


def assert_same_pairs(model_ids, probs, tau):
    pairs = mine_recycle_pairs(model_ids, probs, tau)
    assert pairs == loop_mine_recycle_pairs(model_ids, probs, tau)
    for p in pairs:
        assert (type(p.sample_index), type(p.label), type(p.confidence)) \
            == (int, int, float)
    return pairs


def _tied_outliers(seed, n, c=5):
    """3 blocks and a part of outliers with unsorted, non-contiguous ids.
    Rows come from a four-row palette (one confident, a two-class tie, a
    weaker one and a uniform row) with shuffled columns, so confidences
    tie within and across blocks and classes tie within rows. Row 0
    places equal maxima on the last model of the first block and the
    first of the second; row 1 (n > 1) on two models inside one block."""
    rng = np.random.default_rng(seed)
    m = 3 * RECYCLE_BLOCK + 5
    ids = [f"o{k:04d}" for k in rng.choice(10_000, size=m, replace=False)]
    palette = np.array([[0.97] + [0.03 / (c - 1)] * (c - 1),
                        [0.485, 0.485] + [0.03 / (c - 2)] * (c - 2),
                        [0.6] + [0.4 / (c - 1)] * (c - 1),
                        [1.0 / c] * c])
    probs = [rng.permuted(palette[rng.integers(len(palette), size=n)], axis=1)
             for _ in ids]
    ranked = sorted(range(m), key=ids.__getitem__)
    for j in ranked:
        probs[j][:2] = palette[3]
    for rank, label in ((RECYCLE_BLOCK - 1, 2), (RECYCLE_BLOCK, 1)):
        probs[ranked[rank]][0] = np.roll(palette[0], label)
    if n > 1:
        for rank in (3, 5):
            probs[ranked[rank]][1] = np.roll(palette[1], rank)
    return ids, probs, ranked


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("seed", range(8))
def test_blocked_mining_matches_per_model_loop(seed, n):
    ids, probs, ranked = _tied_outliers(seed, n)
    for tau in (0.999, 0.95, 0.55, 0.1):
        pairs = assert_same_pairs(ids, probs, tau)
        if tau == 0.999:
            assert pairs == []
        if tau == 0.1:
            assert len(pairs) == n
    first = mine_recycle_pairs(ids, probs, 0.95)
    # the tie across the block boundary goes to the earlier block
    assert (first[0].sample_index, first[0].label, first[0].model_id) == \
        (0, 2, ids[ranked[RECYCLE_BLOCK - 1]])
    if n > 1:  # a tie inside a block: the lower id, then the lower class
        p = mine_recycle_pairs(ids, probs, 0.4)[1]
        assert (p.sample_index, p.label, p.model_id) == (1, 3, ids[ranked[3]])


@pytest.mark.parametrize("case", ["shorter", "longer", "shape", "rank"])
def test_mining_rejects_mismatched_inputs(case):
    p = np.full((4, 3), 1 / 3)
    ids, probs = {"shorter": (["a", "b"], [p]),
                  "longer": (["a"], [p, p]),
                  "shape": (["a", "b"], [p, p[:3]]),
                  "rank": (["a"], [p[0]])}[case]
    with pytest.raises(AdaptError):
        mine_recycle_pairs(ids, probs, 0.5)


def test_blocked_mining_matches_loop_on_large_zoo(tmp_path):
    """The outliers of the benchmark's large_zoo at seed 42, built and
    selected as pipebench/harness.py runs the CLI."""
    wl = _load_workloads().WORKLOADS["large_zoo"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(wl.scenario(42).to_json())
    manifest = tmp_path / "zoo" / "manifest.json"
    sel = tmp_path / "selection.json"
    assert main(["build", str(scenario), str(manifest.parent)]) == 0
    assert main(["select", str(manifest), "-o", str(sel), "--q", "2",
                 "--kernel", wl.kernel]) == 0
    records, _ = load_zoo(manifest)
    _, outliers = SelectionResult.from_json(sel.read_text()).inlier_ensemble(records)
    assert len(outliers) > 3 * RECYCLE_BLOCK
    ids = [m.model_id for m in outliers]
    probs = [forward(m) for m in outliers]
    for tau in (AdaptConfig().tau_recycle, 0.5):
        assert assert_same_pairs(ids, probs, tau)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "pipebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("pipebench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- losses ---------------------------------------------------------------------

ROWS3 = np.arange(3)
NO_PAIRS = np.array([], dtype=int)


def test_loss_pse_one_hot_and_uniform():
    one_hot = np.eye(4)[np.array([0, 2, 1])]
    assert loss_ce(one_hot, ROWS3, predictive_semantics(one_hot)) == 0.0
    uniform = np.full((5, 4), 0.25)
    assert loss_ce(uniform, np.arange(5),
                   predictive_semantics(uniform)) == pytest.approx(
        math.log(4), abs=1e-12)


def test_loss_pse_matches_ce_oracle():
    rng = np.random.default_rng(6)
    p = rng.dirichlet(np.ones(3), size=3)
    labels = predictive_semantics(p)
    expected = np.mean([-math.log(p[i, labels[i]]) for i in range(3)])
    assert loss_ce(p, ROWS3, labels) == pytest.approx(expected, abs=1e-12)


def test_loss_omr_cases():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    assert loss_ce(p, NO_PAIRS, NO_PAIRS) == 0.0
    one_hot = np.eye(3)[np.array([2, 0])]
    assert loss_ce(one_hot, np.array([0]), np.array([2])) == 0.0
    expected = np.mean([-math.log(0.7), -math.log(0.8)])
    assert loss_ce(p, np.array([0, 1]), np.array([0, 1])) == pytest.approx(
        expected, abs=1e-12)


def loss_im(p):
    """One member's information-maximization loss, through loss_sim."""
    return loss_sim([p], np.array([1.0]))


def test_loss_im_reference_points():
    uniform = np.full((8, 4), 0.25)
    assert loss_im(uniform) == pytest.approx(0.0, abs=1e-12)
    balanced = np.eye(4)[np.tile(np.arange(4), 2)]
    assert loss_im(balanced) == pytest.approx(-math.log(4), abs=1e-12)
    collapsed = np.tile(np.eye(4)[0], (8, 1))
    assert loss_im(collapsed) == pytest.approx(0.0, abs=1e-12)


def test_loss_sim_composition():
    rng = np.random.default_rng(7)
    p1 = rng.dirichlet(np.ones(3), size=6)
    p2 = rng.dirichlet(np.ones(3), size=6)
    theta = np.array([0.25, 0.75])

    def im_oracle(p):
        mean_row = p.mean(axis=0)
        return float(-(p * np.log(p)).sum(axis=1).mean()
                     + (mean_row * np.log(mean_row)).sum())

    assert loss_sim([p1, p2], theta) == pytest.approx(
        0.25 * im_oracle(p1) + 0.75 * im_oracle(p2), abs=1e-12)


# --- gradient correctness ----------------------------------------------------------

def _random_instance(seed, n=6, num_classes=3, members=2):
    rng = np.random.default_rng(seed)
    feats, ws, bs = [], [], []
    for _ in range(members):
        d = int(rng.integers(2, 5))
        feats.append(rng.normal(size=(n, d)))
        ws.append(rng.normal(size=(num_classes, d)) * 0.5)
        bs.append(rng.normal(size=num_classes) * 0.3)
    theta = rng.dirichlet(np.ones(members))
    probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
    mixture = mix_outputs(probs, theta)
    labels = predictive_semantics(mixture)
    pairs = [RecyclePair(i, int(rng.integers(num_classes)), "o", 0.99)
             for i in rng.choice(n, size=3, replace=False)]
    return feats, ws, bs, theta, labels, pairs


def fd_term_grads(term, feats, ws, bs, theta, labels, pairs, h=1e-4):
    """Central finite differences of the term value over every head coord."""
    def value(ws_, bs_):
        v, _ = objective_term(term, feats, ws_, bs_, theta, labels, pairs)
        return v

    grads = []
    for j in range(len(ws)):
        gw = np.zeros_like(ws[j])
        for idx in np.ndindex(*ws[j].shape):
            wp = [w.copy() for w in ws]
            wm = [w.copy() for w in ws]
            wp[j][idx] += h
            wm[j][idx] -= h
            gw[idx] = (value(wp, bs) - value(wm, bs)) / (2 * h)
        gb = np.zeros_like(bs[j])
        for k in range(len(bs[j])):
            bp = [b.copy() for b in bs]
            bm = [b.copy() for b in bs]
            bp[j][k] += h
            bm[j][k] -= h
            gb[k] = (value(ws, bp) - value(ws, bm)) / (2 * h)
        grads.append((gw, gb))
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


@pytest.mark.parametrize("term", ["sim", "pse", "omr"])
def test_analytic_gradients_match_finite_differences(term):
    for seed in range(5):
        feats, ws, bs, theta, labels, pairs = _random_instance(100 + seed)
        _, analytic = objective_term(term, feats, ws, bs, theta, labels,
                                     pairs)
        numeric = fd_term_grads(term, feats, ws, bs, theta, labels, pairs)
        for (ga_w, ga_b), (gn_w, gn_b) in zip(analytic, numeric):
            assert rel_err(ga_w, gn_w) <= 1e-4
            assert rel_err(ga_b, gn_b) <= 1e-4


def test_fused_adapt_gradient_equals_term_sum():
    # one epoch, zero momentum: recovered gradient = (old - new) / lr
    a = make_model("a", seed=8)
    b = make_model("b", seed=9)
    e = build_ensemble([a, b], [0.2, 0.5])
    cfg = AdaptConfig(gamma1=0.37, gamma2=0.21, epochs=1, lr=1e-3, momentum=0.0)
    outlier = make_model("o", seed=10)
    adapted, _ = adapt(e, [outlier], cfg)

    feats = [m.features for m in e.members]
    ws = [m.weights for m in e.members]
    bs = [m.bias for m in e.members]
    probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
    mixture = mix_outputs(probs, e.weights)
    labels = predictive_semantics(mixture)
    pairs = mine_recycle_pairs(["o"], [forward(outlier)], cfg.tau_recycle)
    assert pairs
    g_sim, g_pse, g_omr = (
        objective_term(term, feats, ws, bs, e.weights, labels, pairs)[1]
        for term in ("sim", "pse", "omr"))
    for j, m in enumerate(e.members):
        for k, (old, new) in enumerate(((m.weights, adapted.members[j].weights),
                                        (m.bias, adapted.members[j].bias))):
            expected = (g_sim[j][k] + cfg.gamma1 * g_pse[j][k]
                        + cfg.gamma2 * g_omr[j][k])
            np.testing.assert_allclose((old - new) / cfg.lr, expected,
                                       atol=1e-10)


# --- adapt ---------------------------------------------------------------------------

def test_stationary_point_unchanged():
    # zero heads give uniform member outputs: L_sim gradient vanishes
    m1 = make_model("a", seed=11, weights=np.zeros((3, 3)), bias=np.zeros(3))
    m2 = make_model("b", seed=12, weights=np.zeros((3, 3)), bias=np.zeros(3))
    e = build_ensemble([m1, m2], [0.0, 0.0])
    cfg = AdaptConfig(gamma1=0.0, gamma2=0.0, epochs=1, lr=0.5)
    adapted, _ = adapt(e, [], cfg)
    for before, after in zip(e.members, adapted.members):
        np.testing.assert_allclose(after.weights, before.weights, atol=1e-8)
        np.testing.assert_allclose(after.bias, before.bias, atol=1e-8)


def test_lr_zero_params_unchanged_exactly():
    e = build_ensemble([make_model("a", seed=13), make_model("b", seed=14)],
                       [0.1, 0.4])
    cfg = AdaptConfig(epochs=3, lr=0.0)
    adapted, history = adapt(e, [], cfg)
    for before, after in zip(e.members, adapted.members):
        assert (after.weights == before.weights).all()
        assert (after.bias == before.bias).all()
    assert len(history.rows) == 3


def test_adapt_matches_fd_descent_oracle():
    """Drive the identical momentum updates with numeric gradients and
    compare the per-epoch loss trace."""
    a = make_model("a", seed=15, n=8)
    b = make_model("b", seed=16, n=8)
    e = build_ensemble([a, b], [0.3, 0.1])
    outlier = _confidence_model("o", [(2, 1, 30.0)], n=8)
    cfg = AdaptConfig(epochs=3, lr=0.05, momentum=0.9, gamma1=0.3,
                      gamma2=0.3)
    _, lib_history = adapt(e, [outlier], cfg)

    feats = [m.features for m in e.members]
    ws = [m.weights.copy() for m in e.members]
    bs = [m.bias.copy() for m in e.members]
    theta = e.weights
    vel = [(np.zeros_like(w), np.zeros_like(c)) for w, c in zip(ws, bs)]
    h = 1e-5
    trace = []
    for _ in range(cfg.epochs):
        probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
        mixture = mix_outputs(probs, theta)
        labels = predictive_semantics(mixture)
        pairs = mine_recycle_pairs(["o"], [forward(outlier)], cfg.tau_recycle)
        p_idx = np.array([p.sample_index for p in pairs], dtype=int)
        p_lab = np.array([p.label for p in pairs], dtype=int)

        def l_all(ws_, bs_):
            ps = [softmax_rows(f @ w.T + b)
                  for f, w, b in zip(feats, ws_, bs_)]
            mix = mix_outputs(ps, theta)
            l = loss_sim(ps, theta)
            l += cfg.gamma1 * float(-np.log(
                mix[np.arange(len(labels)), labels]).mean())
            if len(p_idx):
                l += cfg.gamma2 * float(-np.log(mix[p_idx, p_lab]).mean())
            return l

        trace.append(l_all(ws, bs))
        new_vel = []
        new_ws = [w.copy() for w in ws]
        new_bs = [c.copy() for c in bs]
        for j in range(2):
            gw = np.zeros_like(ws[j])
            for idx in np.ndindex(*ws[j].shape):
                wp = [w.copy() for w in ws]
                wm = [w.copy() for w in ws]
                wp[j][idx] += h
                wm[j][idx] -= h
                gw[idx] = (l_all(wp, bs) - l_all(wm, bs)) / (2 * h)
            gb = np.zeros_like(bs[j])
            for k in range(len(bs[j])):
                bp = [c.copy() for c in bs]
                bm = [c.copy() for c in bs]
                bp[j][k] += h
                bm[j][k] -= h
                gb[k] = (l_all(ws, bp) - l_all(ws, bm)) / (2 * h)
            vw = cfg.momentum * vel[j][0] + gw
            vb = cfg.momentum * vel[j][1] + gb
            new_vel.append((vw, vb))
            new_ws[j] = ws[j] - cfg.lr * vw
            new_bs[j] = bs[j] - cfg.lr * vb
        vel, ws, bs = new_vel, new_ws, new_bs

    for lib_row, oracle_val in zip(lib_history.rows, trace):
        assert lib_row["L_all"] == pytest.approx(oracle_val, abs=1e-5)


def test_adapt_history_csv(tmp_path):
    e = build_ensemble([make_model("a", seed=19)], [1.0])
    cfg = AdaptConfig(epochs=2, lr=0.01)
    _, history = adapt(e, [], cfg)
    out = tmp_path / "hist.csv"
    history.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,L_sim,L_pse,L_omr,L_all"
    assert len(lines) == 3


# --- distribution-level properties ----------------------------------------------------

def kl(p, q):
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def test_mixture_kl_inequality_thousand_triples():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        comps = rng.dirichlet(np.ones(8), size=5)
        q = rng.dirichlet(np.ones(8))
        w = rng.dirichlet(np.ones(5))
        mixture = w @ comps
        lhs = kl(mixture, q)
        rhs = float(sum(wi * kl(p, q) for wi, p in zip(w, comps)))
        assert lhs <= rhs + 1e-9


def test_one_hot_weights_attain_zero_kl():
    rng = np.random.default_rng(21)
    comps = rng.dirichlet(np.ones(8), size=5)
    q = comps[2].copy()
    w = np.zeros(5)
    w[2] = 1.0
    assert kl(w @ comps, q) == 0.0


def test_grid_searched_weights_beat_best_single():
    """With labels available to the test only, the best mixture on a
    simplex mesh is no worse than the best single member."""
    rng = np.random.default_rng(22)
    members = [make_model(f"m{i}", seed=30 + i, n=40) for i in range(3)]
    labels = rng.integers(0, 3, size=40)
    probs = [forward(m) for m in members]

    def ce(p):
        return float(-np.log(p[np.arange(40), labels] + 1e-300).mean())

    singles = [ce(p) for p in probs]
    best_mix = math.inf
    mesh = np.arange(0.0, 1.0 + 1e-9, 0.05)
    for w1 in mesh:
        for w2 in mesh:
            if w1 + w2 > 1 + 1e-12:
                continue
            w = np.array([w1, w2, 1.0 - w1 - w2])
            best_mix = min(best_mix, ce(mix_outputs(probs, w)))
    assert best_mix <= min(singles) + 1e-9


def test_nonfinite_loss_aborts_with_term_name():
    m = make_model("a", seed=23)
    e = build_ensemble([m], [1.0])
    # poison the features so the optimization state degenerates
    m.features[:] *= 1e200
    cfg = AdaptConfig(epochs=3, lr=10.0)
    with pytest.raises(AdaptError, match="non-finite loss term L_"):
        adapt(e, [], cfg)


def test_zero_mixture_probability_at_recycled_label_aborts():
    # the sharp inlier puts exactly zero mass on class 1 (exp underflows),
    # and the outlier confidently recycles class 1 for sample 2
    inlier = _confidence_model("a", [(i, 0, 1000.0) for i in range(4)])
    assert forward(inlier)[2, 1] == 0.0
    outlier = _confidence_model("o", [(2, 1, 30.0)])
    e = build_ensemble([inlier], [1.0])
    with pytest.raises(AdaptError,
                       match="non-finite loss term L_omr at epoch 0"):
        adapt(e, [outlier], AdaptConfig(epochs=1))
