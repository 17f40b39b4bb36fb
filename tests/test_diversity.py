import numpy as np
import pytest

from conftest import hsic_p
from zooadapt import diversity
from zooadapt.cli import main
from zooadapt.diversity import DiversityError, KernelConfig, div_scores
from zooadapt.selection import select
from zooadapt.sute import SuteConfig, score_zoo
from zooadapt.synthzoo import reference_scenario
from zooadapt.tensorio import load_zoo


def oracle_hsic_linear(x, y):
    """Explicit trace(K H L H) / (n-1)^2 with linear-kernel Grams."""
    n = x.shape[0]
    k = x @ x.T
    l = y @ y.T
    h = np.eye(n) - np.ones((n, n)) / n
    return np.trace(k @ h @ l @ h) / (n - 1) ** 2


LINEAR = KernelConfig(kind="linear")


def test_constant_rows_give_zero():
    rng = np.random.default_rng(0)
    pa = rng.dirichlet(np.ones(3), size=10)
    pb = np.tile([0.2, 0.3, 0.5], (10, 1))
    assert hsic_p(pa, pb) == pytest.approx(0.0, abs=1e-12)
    assert hsic_p(pa, pb, LINEAR) == pytest.approx(0.0, abs=1e-12)


def test_self_dependence_positive_and_symmetric():
    rng = np.random.default_rng(1)
    pa = rng.dirichlet(np.ones(4), size=25)
    pb = rng.dirichlet(np.ones(4), size=25)
    assert hsic_p(pa, pa) > 0.0
    assert hsic_p(pa, pb) == hsic_p(pb, pa)  # exact by construction
    assert abs(hsic_p(pa, pb) - hsic_p(pb, pa)) <= 1e-12


def test_three_point_linear_matches_trace_oracle():
    pa = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    pb = np.array([[0.6, 0.4], [0.1, 0.9], [0.7, 0.3]])
    assert hsic_p(pa, pb, LINEAR) == pytest.approx(
        oracle_hsic_linear(pa, pb), abs=1e-12)


def test_rbf_matches_direct_computation():
    rng = np.random.default_rng(2)
    pa = rng.dirichlet(np.ones(3), size=8)
    pb = rng.dirichlet(np.ones(3), size=8)

    def gram(x):
        n = x.shape[0]
        d2 = np.array([[((a - b) ** 2).sum() for b in x] for a in x])
        iu = np.triu_indices(n, k=1)
        bw = np.median(np.sqrt(d2[iu]))
        return np.exp(-d2 / (2 * bw * bw))

    n = 8
    h = np.eye(n) - np.ones((n, n)) / n
    expected = np.trace(gram(pa) @ h @ gram(pb) @ h) / (n - 1) ** 2
    assert hsic_p(pa, pb) == pytest.approx(expected, abs=1e-12)


def test_fixed_bandwidth_respected():
    rng = np.random.default_rng(3)
    pa = rng.dirichlet(np.ones(3), size=6)
    v1 = hsic_p(pa, pa, KernelConfig(kind="rbf", bandwidth=0.1))
    v2 = hsic_p(pa, pa, KernelConfig(kind="rbf", bandwidth=5.0))
    assert v1 != v2


def test_input_validation():
    p = np.full((4, 2), 0.5)
    with pytest.raises(DiversityError):
        hsic_p(p, p[:3])
    with pytest.raises(DiversityError):
        hsic_p(p[:1], p[:1])
    with pytest.raises(DiversityError):
        KernelConfig(kind="sigmoid")
    with pytest.raises(DiversityError):
        KernelConfig(bandwidth=0.0)


# --- div_scores -----------------------------------------------------------------

def test_div_candidate_identical_to_single_anchor():
    rng = np.random.default_rng(4)
    anchor = rng.dirichlet(np.ones(3), size=12)
    scores = div_scores([anchor], [anchor])
    assert scores[0] == pytest.approx(hsic_p(anchor, anchor), abs=1e-15)


def test_div_constant_candidate_is_zero():
    rng = np.random.default_rng(5)
    anchor = rng.dirichlet(np.ones(3), size=12)
    constant = np.tile([0.1, 0.2, 0.7], (12, 1))
    assert div_scores([constant], [anchor])[0] == pytest.approx(0.0, abs=1e-12)


def test_div_two_anchors_average_of_hsic():
    rng = np.random.default_rng(6)
    a1 = rng.dirichlet(np.ones(3), size=10)
    a2 = rng.dirichlet(np.ones(3), size=10)
    cand = rng.dirichlet(np.ones(3), size=10)
    expected = 0.5 * (hsic_p(cand, a1) + hsic_p(cand, a2))
    assert div_scores([cand], [a1, a2])[0] == pytest.approx(expected, abs=1e-15)


def test_div_requires_anchor():
    with pytest.raises(DiversityError):
        div_scores([np.full((4, 2), 0.5)], [])


# --- factor form against the per-pair form ---------------------------------------

def oracle_div_scores(candidates, anchors, kc):
    """div_scores computed per pair, as before centered factors: both
    centered grams are rebuilt for every (candidate, anchor) pair."""
    def gram(x):
        if kc.kind == "linear":
            return x @ x.T
        g = x @ x.T
        sq = np.diag(g)
        d2 = sq[:, None] + sq[None, :] - 2.0 * g
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        if kc.bandwidth is not None:
            bw = kc.bandwidth
        else:
            iu = np.triu_indices(x.shape[0], k=1)
            bw = float(np.median(np.sqrt(d2[iu])))
            if bw == 0.0:
                bw = 1.0
        return np.exp(-d2 / (2.0 * bw * bw))

    def center(g):
        row = g.mean(axis=0, keepdims=True)
        col = g.mean(axis=1, keepdims=True)
        return g - row - col + g.mean()

    def pair(pa, pb):
        n = pa.shape[0]
        return float((center(gram(pa)) * center(gram(pb))).sum() / (n - 1) ** 2)

    return np.array([np.mean([pair(c, a) for a in anchors]) for c in candidates])


@pytest.fixture(scope="module")
def reference_views(tmp_path_factory):
    """The candidates and anchors of select's diversity pass on the
    reference zoo at seed 42, built as the CLI builds it."""
    out = tmp_path_factory.mktemp("reference42")
    scenario = out / "scenario.json"
    scenario.write_text(reference_scenario(42).to_json())
    assert main(["build", str(scenario), str(out / "zoo")]) == 0
    records, target = load_zoo(out / "zoo" / "manifest.json")
    cfg = SuteConfig.default(target.num_classes)
    anchor_ids = set(select(records, cfg, q=0).transferable_set)
    views = score_zoo(records, cfg).rows
    anchors = [v.probs for v in views if v.model_id in anchor_ids]
    candidates = [v.probs for v in views if v.model_id not in anchor_ids
                  and not v.components.rejected]
    assert len(anchors) == 2 and len(candidates) == 34
    return candidates, anchors


@pytest.mark.parametrize("bandwidth", [None, 0.3], ids=["median", "fixed"])
def test_rbf_factor_form_bit_equal_to_per_pair_form(reference_views, bandwidth):
    candidates, anchors = reference_views
    kc = KernelConfig(kind="rbf", bandwidth=bandwidth)
    expected = oracle_div_scores(candidates, anchors, kc)
    assert np.array_equal(div_scores(candidates, anchors, kc), expected)


def test_linear_factor_form_matches_per_pair_form(reference_views):
    candidates, anchors = reference_views
    expected = oracle_div_scores(candidates, anchors, LINEAR)
    scores = div_scores(candidates, anchors, LINEAR)
    np.testing.assert_allclose(scores, expected, rtol=1e-14, atol=0.0)
    ranks = range(len(scores))
    assert (sorted(ranks, key=lambda i: (scores[i], i))
            == sorted(ranks, key=lambda i: (expected[i], i)))


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_div_scores_builds_one_factor_per_model(monkeypatch, kind):
    rng = np.random.default_rng(10)
    candidates = [rng.dirichlet(np.ones(3), size=15) for _ in range(4)]
    anchors = [rng.dirichlet(np.ones(3), size=15) for _ in range(3)]
    calls = {"pairwise_sq_dists": 0, "hsic": 0}

    def counted(name):
        fn = getattr(diversity, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(diversity, name, counted(name))
    div_scores(candidates, anchors, KernelConfig(kind=kind))
    grams = len(candidates) + len(anchors) if kind == "rbf" else 0
    assert calls == {"pairwise_sq_dists": grams,
                     "hsic": len(candidates) * len(anchors)}


# --- invariants -------------------------------------------------------------------

def test_nonnegativity_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        pa = rng.dirichlet(np.ones(3), size=n)
        pb = rng.dirichlet(np.ones(3), size=n)
        assert hsic_p(pa, pb) >= -1e-9
        assert hsic_p(pa, pb, LINEAR) >= -1e-9


def test_joint_permutation_invariance():
    rng = np.random.default_rng(8)
    pa = rng.dirichlet(np.ones(4), size=40)
    pb = rng.dirichlet(np.ones(4), size=40)
    base = hsic_p(pa, pb)
    for _ in range(5):
        perm = rng.permutation(40)
        assert hsic_p(pa[perm], pb[perm]) == pytest.approx(base, abs=1e-9)


def test_independent_sources_vanish_at_n2000():
    rng = np.random.default_rng(9)
    n = 2000
    pa = rng.dirichlet(np.ones(3), size=n)
    pb = rng.dirichlet(np.ones(3), size=n)
    cross = hsic_p(pa, pb)
    self_dep = hsic_p(pa, pa)
    assert self_dep > 0
    assert cross < 0.01 * self_dep
