import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import make_model, objective_term
from zooadapt import ensemble_adapt
from zooadapt.cli import main
from zooadapt.ensemble_adapt import (MOMENTUM, AdaptConfig, AdaptError,
                                     AdaptHistory, EnsembleModel, adapt,
                                     build_ensemble, ensemble_forward,
                                     ensemble_weights, mine_recycle_pairs,
                                     objective)
from zooadapt.inference import forward, mix_outputs, predictive_semantics
from zooadapt.kernels import softmax_rows
from zooadapt.selection import SelectionResult, select
from zooadapt.sute import indicator_gd, indicator_ic
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
    pairs = mine_recycle_pairs([forward(m)], tau=0.95)
    assert pairs.shape == (0, 2) and pairs.dtype == np.intp


def test_single_confident_pair():
    m = _confidence_model("o1", [(2, 1, 30.0)])
    pairs = mine_recycle_pairs([forward(m)], tau=0.95)
    assert pairs.tolist() == [[2, 1]]
    assert forward(m)[2, 1] > 0.95


def brute_force_pairs(probs, tau):
    """Per sample, every (matrix, class) probability in (matrix, class)
    order; the first strictly largest is kept when it exceeds tau."""
    out = []
    for i in range(probs[0].shape[0]):
        best = None
        for p in probs:
            for lab, conf in enumerate(p[i].tolist()):
                if best is None or conf > best[0]:
                    best = (conf, lab)
        if best[0] > tau:
            out.append((i, best[1]))
    return np.array(out, dtype=np.intp).reshape(-1, 2)


def test_recycling_matches_bruteforce_oracle():
    a = _confidence_model("oa", [(0, 2, 40.0), (1, 0, 2.0)])
    b = _confidence_model("ob", [(1, 1, 35.0), (0, 2, 20.0)])
    args = ([forward(a), forward(b)], 0.9)
    assert np.array_equal(mine_recycle_pairs(*args), brute_force_pairs(*args))


def test_recycling_tie_goes_to_earlier_matrix():
    # equal confidence, different labels: the first matrix's label wins
    p = np.array([[0.1, 0.8, 0.1], [0.5, 0.25, 0.25]])
    q = np.array([[0.1, 0.1, 0.8], [0.2, 0.6, 0.2]])
    assert mine_recycle_pairs([p, q], tau=0.55).tolist() == [[0, 1], [1, 1]]
    assert mine_recycle_pairs([q, p], tau=0.55).tolist() == [[0, 2], [1, 1]]


def test_recycling_tie_goes_to_lowest_model_id(monkeypatch):
    """Two outliers equally confident on every row, with different
    labels: adapt recycles the lower id's labels whatever the order of
    the outlier list, so history and heads are bit-equal."""
    n = 6
    low = _confidence_model("o1", [(i, i % 2, 25.0) for i in range(n)], n=n)
    high = _confidence_model("o2", [(i, 1 - i % 2, 25.0) for i in range(n)],
                             n=n)
    p_low, p_high = forward(low), forward(high)
    assert np.array_equal(p_low.max(axis=1), p_high.max(axis=1))
    by_id = mine_recycle_pairs([p_low, p_high], 0.95)
    assert by_id[:, 1].tolist() == [i % 2 for i in range(n)]
    assert not np.array_equal(by_id, mine_recycle_pairs([p_high, p_low], 0.95))

    mined = []

    def recorded(*args):
        mined.append(mine_recycle_pairs(*args))
        return mined[-1]

    monkeypatch.setattr(ensemble_adapt, "mine_recycle_pairs", recorded)
    e = build_ensemble([make_model("a", seed=21, n=n),
                        make_model("b", seed=22, n=n)], [0.2, 0.5])
    cfg = AdaptConfig(epochs=5, lr=0.05)
    runs = [adapt(e, outliers, cfg) for outliers in ([low, high], [high, low])]
    assert len(mined) == 2
    assert all(np.array_equal(pairs, by_id) for pairs in mined)
    (first, first_history), (second, second_history) = runs
    assert first_history.rows == second_history.rows
    assert all(r["L_omr"] > 0 for r in first_history.rows)
    for a, b in zip(first.members, second.members):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_empty_outliers_empty_pairs():
    pairs = mine_recycle_pairs([], tau=0.5)
    assert pairs.shape == (0, 2) and pairs.dtype == np.intp


def loop_mine_recycle_pairs(probs, tau):
    """Reference for the running maximum: one argmax per matrix, in the
    given order, then one Python pass over the samples."""
    n = probs[0].shape[0]
    best_conf = np.full(n, -1.0)
    best_label = np.zeros(n, dtype=int)
    for p in probs:
        labels = np.argmax(p, axis=1)
        confs = p[np.arange(n), labels]
        better = confs > best_conf  # strict: the earlier matrix wins ties
        best_conf[better] = confs[better]
        best_label[better] = labels[better]
    pairs = []
    for i in range(n):
        if best_conf[i] > tau:
            pairs.append((i, int(best_label[i])))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def assert_same_pairs(probs, tau):
    pairs = mine_recycle_pairs(probs, tau)
    assert pairs.dtype == np.intp and pairs.shape[1:] == (2,)
    assert np.array_equal(pairs, loop_mine_recycle_pairs(probs, tau))
    assert np.array_equal(pairs, brute_force_pairs(probs, tau))
    return pairs


def kept_confidence(probs, pairs):
    """Each pair's confidence: its sample's largest outlier probability."""
    return np.max([p[pairs[:, 0]].max(axis=1) for p in probs], axis=0)


def assert_strict_threshold(probs, kept, at):
    """At tau equal to the confidence of kept row `at`, exactly the kept
    rows above it survive: a best confidence equal to tau is dropped."""
    conf = kept_confidence(probs, kept)
    pairs = assert_same_pairs(probs, conf[at])
    assert np.array_equal(pairs, kept[conf > conf[at]])
    assert kept[at].tolist() not in pairs.tolist()


# Row 0 of the tied cases puts equal maxima on outliers TIE_AT - 1 and TIE_AT.
TIE_AT = 16


def _tied_outliers(seed, n, c=5):
    """53 outlier probability matrices in tie-breaking order. Rows come
    from a four-row palette (one confident, a two-class tie, a weaker
    one and a uniform row) with shuffled columns, so confidences tie
    across outliers and classes tie within rows. Row 0 places equal
    maxima with labels 2 and 1 on outliers TIE_AT - 1 and TIE_AT; row 1
    (n > 1) two-class ties on outliers 3 and 5."""
    rng = np.random.default_rng(seed)
    palette = np.array([[0.97] + [0.03 / (c - 1)] * (c - 1),
                        [0.485, 0.485] + [0.03 / (c - 2)] * (c - 2),
                        [0.6] + [0.4 / (c - 1)] * (c - 1),
                        [1.0 / c] * c])
    probs = [rng.permuted(palette[rng.integers(len(palette), size=n)], axis=1)
             for _ in range(53)]
    for p in probs:
        p[:2] = palette[3]
    for j, label in ((TIE_AT - 1, 2), (TIE_AT, 1)):
        probs[j][0] = np.roll(palette[0], label)
    if n > 1:
        for j in (3, 5):
            probs[j][1] = np.roll(palette[1], j)
    return probs


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("seed", range(8))
def test_blocked_mining_matches_per_model_loop(seed, n):
    probs = _tied_outliers(seed, n)
    for tau in (0.999, 0.95, 0.55, 0.1):
        pairs = assert_same_pairs(probs, tau)
        if tau == 0.999:
            assert len(pairs) == 0
        if tau == 0.1:
            assert len(pairs) == n
    first = mine_recycle_pairs(probs, 0.95)
    # the tie on row 0 goes to the earlier outlier's label
    assert first[0].tolist() == [0, 2]
    assert_strict_threshold(probs, first, 0)
    if n > 1:  # a tie across outliers, then across classes
        assert mine_recycle_pairs(probs, 0.4)[1].tolist() == [1, 3]


@pytest.mark.parametrize("case", ["shorter", "longer", "shape", "rank"])
def test_mining_rejects_mismatched_inputs(case):
    p = np.full((4, 3), 1 / 3)
    probs = {"shorter": [p, p[:3]],  # a later matrix with fewer rows
             "longer": [p[:3], p],  # a later matrix with more rows
             "shape": [p, p[:, :2]],
             "rank": [p[0]]}[case]
    with pytest.raises(AdaptError):
        mine_recycle_pairs(probs, 0.5)


def test_mining_matches_loop_on_large_zoo(tmp_path):
    """The outliers of the benchmark's large_zoo at seed 42, built and
    selected as pipebench/harness.py runs the CLI, in id order as adapt
    passes them."""
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
    assert len(outliers) > 100
    probs = [forward(m) for m in sorted(outliers, key=lambda m: m.model_id)]
    for tau in (AdaptConfig().tau_recycle, 0.5):
        assert len(assert_same_pairs(probs, tau))
    kept = mine_recycle_pairs(probs, 0.5)
    middle = np.argsort(kept_confidence(probs, kept),
                        kind="stable")[len(kept) // 2]
    assert_strict_threshold(probs, kept, middle)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "pipebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("pipebench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- losses ---------------------------------------------------------------------

def loss_terms(probs, theta=(1.0,), pairs=()):
    """objective's (L_sim, L_pse, L_omr) for members with the given
    probabilities, at the mixture's pseudo-labels; the features only
    need the row count."""
    theta = np.asarray(theta, dtype=np.float64)
    mixture = mix_outputs(probs, theta)
    feats = [np.zeros((p.shape[0], 1)) for p in probs]
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    terms, _ = objective(feats, probs, mixture, theta,
                         predictive_semantics(mixture), pairs, AdaptConfig())
    return terms


def test_loss_pse_one_hot_and_uniform():
    one_hot = np.eye(4)[np.array([0, 2, 1])]
    assert loss_terms([one_hot])[1] == 0.0
    uniform = np.full((5, 4), 0.25)
    assert loss_terms([uniform])[1] == pytest.approx(math.log(4), abs=1e-12)


def test_loss_pse_matches_ce_oracle():
    rng = np.random.default_rng(6)
    p = rng.dirichlet(np.ones(3), size=3)
    labels = predictive_semantics(p)
    expected = np.mean([-math.log(p[i, labels[i]]) for i in range(3)])
    assert loss_terms([p])[1] == pytest.approx(expected, abs=1e-12)


def test_loss_omr_cases():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    assert loss_terms([p])[2] == 0.0
    one_hot = np.eye(3)[np.array([2, 0])]
    assert loss_terms([one_hot], pairs=[(0, 2)])[2] == 0.0
    expected = np.mean([-math.log(0.7), -math.log(0.8)])
    assert loss_terms([p], pairs=[(0, 0), (1, 1)])[2] == pytest.approx(
        expected, abs=1e-12)


def loss_im(p):
    """One member's information-maximization loss, through objective."""
    return loss_terms([p])[0]


def im_oracle(p):
    """One member's information-maximization loss, mean row entropy
    minus the entropy of the mean row, for p without zeros."""
    mean_row = p.mean(axis=0)
    return float(-(p * np.log(p)).sum(axis=1).mean()
                 + (mean_row * np.log(mean_row)).sum())


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
    assert loss_terms([p1, p2], theta)[0] == pytest.approx(
        0.25 * im_oracle(p1) + 0.75 * im_oracle(p2), abs=1e-12)


@pytest.mark.parametrize("zeros", [False, True])
def test_loss_sim_is_the_weighted_nmi_baseline(zeros):
    """L_sim is -sum_j theta_j * (indicator_ic + indicator_gd), the NMI
    baseline that scoring reports, also for members with exact zeros."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        members = int(rng.integers(1, 4))
        probs = [rng.dirichlet(np.ones(4), size=7) for _ in range(members)]
        if zeros:
            for p in probs:
                p[rng.random(p.shape) < 0.3] = 0.0
            probs[0][:, 1] = 0.0  # one column empty in every row
            for p in probs:
                p[:, 0] += p.sum(axis=1) == 0.0  # no empty row
                p /= p.sum(axis=1, keepdims=True)
            assert (probs[0] == 0.0).any(axis=1).all()
        theta = rng.dirichlet(np.ones(members))
        expected = -sum(t * (indicator_ic(p) + indicator_gd(p))
                        for t, p in zip(theta, probs))
        assert loss_terms(probs, theta)[0] == expected


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
    pairs = np.array([(i, rng.integers(num_classes))
                      for i in rng.choice(n, size=3, replace=False)])
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
    # one epoch from zero velocity steps by lr times the gradient:
    # recovered gradient = (old - new) / lr
    a = make_model("a", seed=8)
    b = make_model("b", seed=9)
    e = build_ensemble([a, b], [0.2, 0.5])
    cfg = AdaptConfig(gamma1=0.37, gamma2=0.21, epochs=1, lr=1e-3)
    outlier = make_model("o", seed=10)
    adapted, _ = adapt(e, [outlier], cfg)

    feats = [m.features for m in e.members]
    ws = [m.weights for m in e.members]
    bs = [m.bias for m in e.members]
    probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
    mixture = mix_outputs(probs, e.weights)
    labels = predictive_semantics(mixture)
    pairs = mine_recycle_pairs([forward(outlier)], cfg.tau_recycle)
    assert len(pairs)
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
    cfg = AdaptConfig(epochs=3, lr=0.05, gamma1=0.3, gamma2=0.3)
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
        p_idx, p_lab = mine_recycle_pairs([forward(outlier)],
                                          cfg.tau_recycle).T

        def l_all(ws_, bs_):
            ps = [softmax_rows(f @ w.T + b)
                  for f, w, b in zip(feats, ws_, bs_)]
            mix = mix_outputs(ps, theta)
            l = sum(t * im_oracle(p) for t, p in zip(theta, ps))
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
            vw = MOMENTUM * vel[j][0] + gw
            vb = MOMENTUM * vel[j][1] + gb
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


def adapt_mining_every_epoch(e, outliers, cfg):
    """adapt as it was when the recycled pairs were mined again at every
    epoch, from the same frozen outlier probabilities."""
    heads_w = [m.weights.copy() for m in e.members]
    heads_b = [m.bias.copy() for m in e.members]
    feats = [np.asarray(m.features, dtype=np.float64) for m in e.members]
    vel_w = [np.zeros_like(w) for w in heads_w]
    vel_b = [np.zeros_like(b) for b in heads_b]
    history = AdaptHistory()
    outlier_probs = [forward(m)
                     for m in sorted(outliers, key=lambda m: m.model_id)]

    for epoch in range(cfg.epochs):
        probs = [softmax_rows(f @ w.T + b)
                 for f, w, b in zip(feats, heads_w, heads_b)]
        mixture = mix_outputs(probs, e.weights)
        labels = predictive_semantics(mixture)
        pairs = mine_recycle_pairs(outlier_probs, cfg.tau_recycle)
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
    return heads_w, heads_b, history


def _recycling_zoo(n=30):
    """Three inliers and 20 outliers on one n-row target; the outliers'
    sharp heads give recycled pairs won by several of them."""
    members = [make_model(f"in{k}", seed=40 + k, n=n) for k in range(3)]
    others = [make_model(f"out{k:02d}", seed=60 + k, n=n, spread=6.0)
              for k in range(20)]
    for m in others:
        m.weights[:] *= 4.0
    return build_ensemble(members, [0.2, -0.1, 0.4]), others


@pytest.mark.parametrize("epochs", [0, 1, 5])
def test_adapt_mines_once_and_matches_per_epoch_mining(epochs, monkeypatch):
    e, outliers = _recycling_zoo()
    cfg = AdaptConfig(epochs=epochs, lr=0.05)
    probs = [forward(m) for m in outliers]
    pairs = mine_recycle_pairs(probs, cfg.tau_recycle)
    # the outlier that wins each pair: the first with its confidence
    winners = np.argmax([p[pairs[:, 0], pairs[:, 1]] for p in probs], axis=0)
    assert len(set(winners.tolist())) > 1
    want_w, want_b, want_history = adapt_mining_every_epoch(e, outliers, cfg)

    calls = []

    def counted(*args):
        calls.append(args)
        return mine_recycle_pairs(*args)

    monkeypatch.setattr(ensemble_adapt, "mine_recycle_pairs", counted)
    adapted, history = adapt(e, outliers, cfg)
    assert len(calls) == 1
    assert history.rows == want_history.rows and len(history.rows) == epochs
    assert all(r["L_omr"] > 0 for r in history.rows)
    for m, w, b in zip(adapted.members, want_w, want_b):
        assert np.array_equal(m.weights, w) and np.array_equal(m.bias, b)


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
    e = build_ensemble([make_model("a", seed=23)], [1.0])
    # a step this large overflows the heads' logits within two epochs
    cfg = AdaptConfig(epochs=3, lr=1e308)
    with pytest.raises(AdaptError,
                       match="non-finite loss term L_sim at epoch 2"):
        adapt(e, [], cfg)


@pytest.fixture(scope="module")
def reference42(reference42_manifest):
    """The reference zoo at seed 42 and its default selection."""
    records, _ = load_zoo(reference42_manifest)
    return records, select(records)


@pytest.mark.parametrize("scale", [10.0, 20.0, 200.0])
def test_sharp_member_with_exact_zeros_adapts(reference42, scale):
    # the first inlier's head scaled up: its softmax underflows to exact
    # zeros, which 0 * log 0 = 0 keeps out of L_sim and its gradient
    records, sel = reference42
    e, outliers = sel.inlier_ensemble(records)
    m = e.members[0]
    e.members[0] = m.with_head(m.weights * scale, m.bias * scale)
    assert (forward(e.members[0]) == 0.0).any()
    adapted, history = adapt(e, outliers, AdaptConfig())
    assert len(history.rows) == AdaptConfig().epochs
    assert all(math.isfinite(v) for r in history.rows for v in r.values())
    f32_max = float(np.finfo(np.float32).max)
    for m in adapted.members:
        assert np.abs(m.weights).max() <= f32_max
        assert np.abs(m.bias).max() <= f32_max


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
