import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model
from zooadapt import sute
from zooadapt.inference import (forward, predictive_semantics,
                                structural_semantics)
from zooadapt.kernels import entropy_rows
from zooadapt.sute import (SuteConfig, SuteError, combine,
                           ensemble_components, indicator_gd, indicator_ic,
                           indicator_sc, phi, score_zoo, sute_score,
                           weighted_vote)


def naive_entropy_vec(p):
    return sum(-v * math.log(v) for v in p if v > 0)


def oracle_conditional_entropy(joint):
    """H(col | row) evaluated straight from the definition."""
    joint = np.asarray(joint, float)
    n = joint.sum()
    h = 0.0
    for row in joint:
        tot = row.sum()
        if tot == 0:
            continue
        cond = row / tot
        h += (tot / n) * sum(-v * math.log(v) for v in cond if v > 0)
    return h


def _labels_from_joint(joint):
    pred, stu = [], []
    for a, row in enumerate(joint):
        for b, count in enumerate(row):
            pred += [a] * count
            stu += [b] * count
    return np.array(stu), np.array(pred)


# --- indicators ---------------------------------------------------------------

def test_indicator_ic_one_hot_rows():
    p = np.eye(4)[np.array([0, 1, 2, 3, 1])]
    assert indicator_ic(p) == 0.0


def test_indicator_ic_uniform_rows():
    p = np.full((7, 4), 0.25)
    assert indicator_ic(p) == pytest.approx(-math.log(4), abs=1e-12)
    # uniform over two of four classes: the zeros add nothing
    p = np.array([[0.5, 0.5, 0.0, 0.0]])
    assert indicator_ic(p) == pytest.approx(-math.log(2), abs=1e-12)


def test_indicator_ic_mixed_matches_oracle():
    p = np.array([[0.7, 0.2, 0.1],
                  [0.2, 0.5, 0.3],
                  [0.9, 0.05, 0.05]])
    expected = -np.mean([naive_entropy_vec(row) for row in p])
    assert indicator_ic(p) == pytest.approx(expected, abs=1e-12)


def test_indicator_sc_identical_labels():
    labels = np.array([0, 1, 2, 1, 0])
    assert indicator_sc(labels, labels.copy(), 3) == 0.0


def test_indicator_sc_independent_uniform_approaches_neg_log_c():
    rng = np.random.default_rng(0)
    n, num_classes = 10000, 3
    stu = rng.integers(0, num_classes, size=n)
    pred = rng.integers(0, num_classes, size=n)
    assert indicator_sc(stu, pred, num_classes) == pytest.approx(
        -math.log(num_classes), abs=0.05)


def test_indicator_sc_matches_conditional_oracle():
    # 0.5 * H(0.75, 0.25), frozen from the oracle at 64-bit precision, and
    # the uniform joint's ln 2
    for joint, frozen in (([[3, 1], [0, 4]], 0.2811675723094042),
                          ([[1, 1], [1, 1]], math.log(2))):
        expected = oracle_conditional_entropy(joint)
        assert expected == pytest.approx(frozen, abs=1e-12)
        stu, pred = _labels_from_joint(joint)
        assert indicator_sc(stu, pred, 2) == pytest.approx(-expected,
                                                           abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_indicator_sc_no_less_than_minus_marginal_entropy(seed):
    """Conditioning cannot raise entropy: H(stu | pred) <= H(stu)."""
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(2, 5))
    n = int(rng.integers(5, 40))
    stu = rng.integers(0, num_classes, size=n)
    pred = rng.integers(0, num_classes, size=n)
    counts = np.bincount(stu, minlength=num_classes).astype(float)
    marginal = sum(-(c / n) * math.log(c / n) for c in counts if c > 0)
    assert -indicator_sc(stu, pred, num_classes) <= marginal + 1e-12


def test_indicator_sc_refuses_unequal_lengths():
    with pytest.raises(SuteError, match="equal length"):
        indicator_sc(np.array([0, 1, 1]), np.array([0, 1]), 2)


def test_indicator_sc_one_entropy_rows_call(monkeypatch):
    """At C=65 every class row of the joint is filled, and their entropies
    still come from a single entropy_rows call."""
    calls = []

    def counted(p):
        calls.append(p.shape)
        return entropy_rows(p)

    monkeypatch.setattr(sute, "entropy_rows", counted)
    rng = np.random.default_rng(0)
    stu = rng.integers(0, 65, size=1300)
    pred = np.tile(np.arange(65), 20)
    indicator_sc(stu, pred, 65)
    assert calls == [(65, 65)]


def test_indicator_gd_collapse_and_balanced():
    collapsed = np.tile(np.eye(4)[0], (9, 1))
    assert indicator_gd(collapsed) == 0.0
    balanced = np.eye(4)[np.tile(np.arange(4), 3)]
    assert indicator_gd(balanced) == pytest.approx(math.log(4), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10 ** 6))
def test_indicator_ic_and_gd_within_zero_and_log_c(num_classes, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_classes), size=6)
    top = math.log(num_classes) + 1e-12
    for row in p:
        assert -1e-12 <= -indicator_ic(row[None, :]) <= top
    assert -1e-12 <= -indicator_ic(p) <= top
    assert -1e-12 <= indicator_gd(p) <= top


def test_indicator_gd_mixed_matches_oracle():
    p = np.array([[0.7, 0.2, 0.1],
                  [0.2, 0.5, 0.3],
                  [0.1, 0.1, 0.8]])
    expected = naive_entropy_vec(p.mean(axis=0))
    assert indicator_gd(p) == pytest.approx(expected, abs=1e-12)


# --- phi (clip) ----------------------------------------------------------------

# the zoos and probes (2, 3, 5, 10, 65) and the paper's largest benchmark
@pytest.mark.parametrize("num_classes", [2, 3, 5, 10, 65, 345])
def test_phi_clips_at_fractions_of_log_c(num_classes):
    cfg = SuteConfig()
    high = 0.9 * math.log(num_classes)
    low = 0.1 * math.log(num_classes)
    assert phi(2 * high, num_classes, cfg) == high
    assert phi(high, num_classes, cfg) == high
    assert phi(0.5 * high, num_classes, cfg) == 0.5 * high
    assert phi(low, num_classes, cfg) == low  # the lower bound is inclusive
    assert phi(math.nextafter(low, 0), num_classes, cfg) is None


def test_config_validation():
    with pytest.raises(SuteError):
        SuteConfig(tau_h=0.2, tau_l=0.5)
    with pytest.raises(SuteError):
        SuteConfig(tau_h=0.5, tau_l=0.5)
    with pytest.raises(SuteError):
        SuteConfig(tau_h=1.1)
    with pytest.raises(SuteError):
        SuteConfig(tau_l=-0.1)
    with pytest.raises(SuteError):
        SuteConfig(tau_h=math.nan)
    with pytest.raises(SuteError):
        SuteConfig(lambda1=-1.0)
    with pytest.raises(SuteError):
        SuteConfig(lambda1=math.nan)
    SuteConfig(tau_h=1.0, tau_l=0.0)  # both ends of the range are allowed


# --- score composition ----------------------------------------------------------

def test_combine_linear_composition():
    comp = combine(ic=-0.3, sc=-0.2, gd=0.8, num_classes=3, cfg=SuteConfig())
    assert comp.sute == pytest.approx(0.3, abs=1e-12)
    assert comp.phi_gd == pytest.approx(0.8)


def test_combine_rejection_dominates():
    comp = combine(ic=5.0, sc=5.0, gd=0.05, num_classes=3, cfg=SuteConfig())
    assert comp.rejected
    assert comp.sute is None and comp.phi_gd is None


def test_sute_score_equals_composed_oracle():
    m = make_model(seed=4, n=6, d=3, num_classes=3)
    cfg = SuteConfig()
    comp = sute_score(m, cfg).components
    p = forward(m)
    pred = predictive_semantics(p)
    stu = structural_semantics(m.features, p)
    ic = -np.mean([naive_entropy_vec(r) for r in p])
    sc = indicator_sc(stu, pred, 3)
    gd = naive_entropy_vec(p.mean(axis=0))
    assert comp.ic == pytest.approx(ic, abs=1e-12)
    assert comp.sc == pytest.approx(sc, abs=1e-12)
    assert comp.gd == pytest.approx(gd, abs=1e-12)
    if comp.sute is not None:
        expected = (cfg.lambda1 * ic + cfg.lambda2 * sc
                    + min(gd, cfg.tau_h * math.log(3)))
        assert comp.sute == pytest.approx(expected, abs=1e-12)


# --- ensemble scoring -------------------------------------------------------------

def test_ensemble_single_member_equals_individual():
    m = make_model(seed=8)
    cfg = SuteConfig()
    single = sute_score(m, cfg)
    ens = ensemble_components([single], [1.0], cfg)
    assert ens == single.components


def test_ensemble_of_identical_members_equals_single():
    m = make_model(seed=9)
    cfg = SuteConfig()
    single = sute_score(m, cfg)
    ens = ensemble_components([single, single], [0.5, 0.5], cfg)
    assert ens.sute == pytest.approx(single.components.sute, abs=1e-12)


def test_ensemble_matches_explicit_mixture_oracle():
    a = make_model("a", seed=10)
    b = make_model("b", seed=11)
    cfg = SuteConfig()
    w = np.array([0.3, 0.7])
    got = ensemble_components([sute_score(a, cfg), sute_score(b, cfg)], w, cfg)

    pa, pb = forward(a), forward(b)
    mix = 0.3 * pa + 0.7 * pb
    stu_votes = [structural_semantics(a.features, pa),
                 structural_semantics(b.features, pb)]
    n = mix.shape[0]
    voted = np.empty(n, dtype=int)
    for i in range(n):
        tally = np.zeros(3)
        for wj, labels in zip(w, stu_votes):
            tally[labels[i]] += wj
        voted[i] = int(np.argmax(tally))
    ic = -np.mean([naive_entropy_vec(r) for r in mix])
    sc = indicator_sc(voted, predictive_semantics(mix), 3)
    gd = naive_entropy_vec(mix.mean(axis=0))
    assert got.ic == pytest.approx(ic, abs=1e-12)
    assert got.sc == pytest.approx(sc, abs=1e-12)
    assert got.gd == pytest.approx(gd, abs=1e-12)


def test_weighted_vote_tie_breaks_low_index():
    votes = [np.array([1, 2]), np.array([0, 1])]
    out = weighted_vote(votes, np.array([0.5, 0.5]), 3)
    np.testing.assert_array_equal(out, [0, 1])


def test_ensemble_one_hot_weights_recover_member():
    a = make_model("a", seed=14)
    b = make_model("b", seed=15)
    cfg = SuteConfig()
    view_a = sute_score(a, cfg)
    got = ensemble_components([view_a, sute_score(b, cfg)], [1.0, 0.0], cfg)
    assert got == view_a.components


# --- baselines ---------------------------------------------------------------------

def test_baselines_one_hot_balanced():
    p = np.eye(4)[np.tile(np.arange(4), 5)]
    assert indicator_ic(p) == 0.0
    assert indicator_gd(p) + indicator_ic(p) == pytest.approx(math.log(4),
                                                              abs=1e-12)


def test_baselines_uniform():
    p = np.full((6, 4), 0.25)
    assert indicator_ic(p) == pytest.approx(-math.log(4), abs=1e-12)
    assert indicator_gd(p) + indicator_ic(p) == pytest.approx(0.0, abs=1e-12)


# --- properties ----------------------------------------------------------------------

def test_permutation_invariance_exact():
    m = make_model(seed=17, n=20)
    cfg = SuteConfig()
    base = sute_score(m, cfg).components
    rng = np.random.default_rng(0)
    perm = rng.permutation(20)
    shuffled = make_model(features=m.features[perm], weights=m.weights,
                          bias=m.bias)
    got = sute_score(shuffled, cfg).components
    assert got.ic == base.ic
    assert got.sc == base.sc
    assert got.gd == base.gd
    assert got.sute == base.sute


def test_finite_iff_gd_above_threshold():
    cfg = SuteConfig(tau_l=0.3)
    low = 0.3 * math.log(3)
    for gd in (0.0, math.nextafter(low, 0), low, math.nextafter(low, 1),
               1.0, 2.0):
        comp = combine(0.0, 0.0, gd, 3, cfg)
        assert comp.rejected == (gd < low)


def test_sute_monotone_in_gd_within_band():
    cfg = SuteConfig()
    ln_c = math.log(3)
    values = [combine(-0.4, -0.1, gd, 3, cfg).sute
              for gd in np.linspace(0.1 * ln_c, 0.9 * ln_c, 9)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert combine(0, 0, 5.0, 3, cfg).phi_gd <= 0.9 * ln_c


# --- report CSV ----------------------------------------------------------------------

def test_report_csv_sentinel_and_rank(tmp_path):
    models = [make_model(f"m{i}", seed=30 + i, n=15) for i in range(3)]
    # force one rejection by collapsing predictions: huge bias on class 0
    collapsed = make_model("zz-collapsed", seed=40, n=15)
    collapsed.bias[:] = np.array([50.0, 0.0, 0.0])
    cfg = SuteConfig()
    report = score_zoo(models + [collapsed], cfg)
    out = tmp_path / "report.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("model_id,domain,arch,ic,sc,gd,phi_gd,sute,ane,nmi,rank")
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert last[0] == "zz-collapsed"
    assert last[6] == "-inf" and last[7] == "-inf"
    assert [row.split(",")[-1] for row in lines[1:]] == ["1", "2", "3", "4"]
