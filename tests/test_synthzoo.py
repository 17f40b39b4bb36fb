import json
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import stats

from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt.evaluate import (accuracy, read_labels, spearman,
                               student_t_two_sided)
from zooadapt.inference import forward
from zooadapt.kernels import softmax_rows
from zooadapt.synthzoo import (HEAD_L2, HEAD_MOMENTUM, REFERENCE_GRID,
                               ArchSpec, DomainTransform, ScenarioSpec,
                               SynthError, TrainConfig,
                               apply_transform, build_zoo, fit_head,
                               generate_scenario, map_features,
                               reference_archs, reference_scenario,
                               rotation_matrix)
from zooadapt.tensorio import load_zoo, write_tensor


# --- scenario generation --------------------------------------------------------

def test_identical_transforms_same_law():
    t = DomainTransform(rotation=0.4, translation=1.0, noise=0.2)
    spec = ScenarioSpec(num_classes=3, d0=4, num_domains=2,
                        domain_transforms=[t, t], samples_per_domain=50,
                        target_transform=t, target_samples=50, seed=0)
    data = generate_scenario(spec)
    a0 = apply_transform(data.anchors, spec.domain_transforms[0])
    a1 = apply_transform(data.anchors, spec.domain_transforms[1])
    np.testing.assert_array_equal(a0, a1)


def test_seed_42_regeneration_is_identical():
    spec = reference_scenario(42)
    d1 = generate_scenario(spec)
    d2 = generate_scenario(spec)
    np.testing.assert_array_equal(d1.target_x, d2.target_x)
    np.testing.assert_array_equal(d1.target_y, d2.target_y)
    for x1, x2 in zip(d1.domain_x, d2.domain_x):
        np.testing.assert_array_equal(x1, x2)


def test_rotation_matrix_is_orthogonal():
    r = rotation_matrix(6, 0.7)
    np.testing.assert_allclose(r @ r.T, np.eye(6), atol=1e-12)


def test_matched_domain_is_most_transferable(tmp_path):
    tgt = DomainTransform(rotation=0.3, translation=0.5, noise=0.3)
    spec = ScenarioSpec(
        num_classes=3, d0=4, num_domains=2,
        domain_transforms=[DomainTransform(rotation=1.4, translation=3.0,
                                           noise=0.6), tgt],
        samples_per_domain=80,
        target_transform=tgt, target_samples=120, seed=3)
    data = generate_scenario(spec)
    manifest = build_zoo(data, [ArchSpec(kind="identity")],
                         [TrainConfig(lr=0.5, epochs=150)], tmp_path)
    records, _ = load_zoo(manifest)
    labels = read_labels(tmp_path / "target_labels.txt", spec.num_classes)
    accs = {m.domain_id: accuracy(forward(m), labels) for m in records}
    assert accs["dom1"] > accs["dom0"]


def test_scenario_spec_json_round_trip():
    spec = reference_scenario(7)
    back = ScenarioSpec.from_json(spec.to_json())
    assert back == spec


def test_scenario_validation():
    with pytest.raises(SynthError):
        ScenarioSpec(num_classes=1, d0=2, num_domains=1,
                     domain_transforms=[DomainTransform()],
                     samples_per_domain=10,
                     target_transform=DomainTransform(), target_samples=10,
                     seed=0)
    with pytest.raises(SynthError):
        ScenarioSpec(num_classes=3, d0=2, num_domains=2,
                     domain_transforms=[DomainTransform()],
                     samples_per_domain=10,
                     target_transform=DomainTransform(), target_samples=10,
                     seed=0)


# --- feature maps ------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "resnet50"}, "unknown arch kind"),
    ({"kind": "proj", "dim": 0}, "proj dim must be >= 1"),
    ({"kind": "rff", "dim": 0}, "rff dim must be >= 1"),
    ({"kind": "rff", "dim": 64, "bandwidth": 0.0}, "rff bandwidth must be"),
    ({"kind": "rff", "dim": 64, "bandwidth": math.inf}, "rff bandwidth must be")],
    ids=["unknown_kind", "proj_dim_zero", "rff_dim_zero", "rff_bandwidth_zero",
         "rff_bandwidth_inf"])
def test_arch_spec_validation(kwargs, message):
    with pytest.raises(SynthError, match=message):
        ArchSpec(**kwargs)


def test_feature_map_shapes_and_standardization():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    target = rng.normal(size=(30, 4)) + 1.0
    for arch, dim in ((ArchSpec(kind="identity"), 4),
                      (ArchSpec(kind="proj", dim=7, seed=1), 7),
                      (ArchSpec(kind="rff", dim=12, bandwidth=2.0, seed=2), 12),
                      (ArchSpec(kind="poly2"), 4 + 10)):
        src, tgt = map_features(arch, x, target)
        assert src.shape == (50, dim) and tgt.shape == (30, dim)
        np.testing.assert_allclose(src.mean(axis=0), 0.0, atol=1e-9)
        # the target goes through the scaler fitted on the source
        np.testing.assert_array_equal(map_features(arch, x, x)[1], src)


@pytest.mark.parametrize("kwargs", [
    {"epochs": -3}, {"lr": math.nan}, {"lr": -1.0}],
    ids=["epochs_negative", "lr_nan", "lr_negative"])
def test_train_config_validation(kwargs):
    # each value would train nothing
    with pytest.raises(SynthError):
        TrainConfig(**kwargs)


# --- head fitting -------------------------------------------------------------------

def test_fit_head_separable_reaches_high_accuracy():
    rng = np.random.default_rng(1)
    centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
    y = np.tile(np.arange(3), 40)
    x = centers[y] + rng.normal(size=(120, 2)) * 0.4
    w, b, _ = fit_head(x[None], y[None], 3, TrainConfig(lr=0.5, epochs=300))
    p = softmax_rows(x @ w[0].T + b[0])
    assert accuracy(p, y) >= 0.99


def fit_one_head(x, y, num_classes, cfg):
    """Oracle: one head fitted alone, the per-head descent that the
    stacked fit_head replaced, with its own max-subtracted softmax."""
    m, d = x.shape
    onehot = np.zeros((m, num_classes))
    onehot[np.arange(m), y] = 1.0
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    loss = math.inf
    for _ in range(cfg.epochs):
        z = x @ w.T + b
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss = float(-np.log(p[np.arange(m), y]).mean()) \
            + 0.5 * HEAD_L2 * float((w * w).sum())
        if not np.isfinite(loss):
            raise SynthError("head fit diverged: non-finite loss")
        g = p - onehot
        gw = g.T @ x / m + HEAD_L2 * w
        gb = g.sum(axis=0) / m
        vw = HEAD_MOMENTUM * vw + gw
        vb = HEAD_MOMENTUM * vb + gb
        w = w - cfg.lr * vw
        b = b - cfg.lr * vb
    return w, b, loss


def _reference_stack(arch, domains):
    """One arch's standardized source features and labels of the given
    reference seed-42 domains, stacked."""
    data = generate_scenario(reference_scenario(42))
    x = np.stack([map_features(arch, data.domain_x[k], data.target_x)[0]
                  for k in domains])
    return x, np.stack([data.domain_y[k] for k in domains])


@pytest.mark.parametrize("cfg", REFERENCE_GRID, ids=lambda c: c.tag)
@pytest.mark.parametrize("domains", [(1,), (0, 1, 2)], ids=["K1", "K3"])
def test_fit_head_slices_equal_lone_fits(domains, cfg):
    for arch in reference_archs():
        x, y = _reference_stack(arch, domains)
        w, b, loss = fit_head(x, y, 5, cfg)
        assert w.shape == (len(domains), 5, x.shape[2])
        for k in range(len(domains)):
            w1, b1, loss1 = fit_one_head(x[k], y[k], 5, cfg)
            assert np.array_equal(w[k], w1), (arch.tag, k)
            assert np.array_equal(b[k], b1), (arch.tag, k)
            assert loss[k] == loss1


def test_fit_head_diverged_slice_leaves_the_others_bit_equal():
    # at lr=50 only domain 2's rff64b8 head of the reference zoo diverges
    arch = ArchSpec(kind="rff", dim=64, bandwidth=8.0, seed=4)
    assert arch == reference_archs()[4]
    cfg = TrainConfig(lr=50, epochs=300)
    x, y = _reference_stack(arch, (0, 1, 2))
    w, b, loss = fit_head(x, y, 5, cfg)
    diverged = []
    for k in range(3):
        try:
            with np.errstate(all="ignore"):
                w1, b1, loss1 = fit_one_head(x[k], y[k], 5, cfg)
        except SynthError:
            diverged.append(k)
            continue
        assert np.array_equal(w[k], w1) and np.array_equal(b[k], b1)
        assert loss[k] == loss1
    assert diverged == [2]
    assert np.isfinite(loss).tolist() == [True, True, False]


# --- zoo building -------------------------------------------------------------------

def test_build_zoo_single_cell(tmp_path):
    spec = ScenarioSpec(num_classes=3, d0=3, num_domains=1,
                        domain_transforms=[DomainTransform(noise=0.2)],
                        samples_per_domain=45,
                        target_transform=DomainTransform(noise=0.2),
                        target_samples=30, seed=9)
    manifest = build_zoo(generate_scenario(spec), [ArchSpec(kind="identity")],
                         [TrainConfig(lr=0.5, epochs=60)], tmp_path)
    records, target = load_zoo(manifest)
    assert len(records) == 1
    assert target.n == 30


# two archs whose tags and so model ids coincide, or a grid that lists
# one train config twice
PROJ3 = ArchSpec(kind="proj", dim=3)
COLLIDING_CELLS = {
    "ids_collide_archs": ([PROJ3, replace(PROJ3, seed=1)], [TrainConfig()]),
    "ids_collide_grid": ([PROJ3], [TrainConfig(), TrainConfig()]),
}


@pytest.mark.parametrize("case", COLLIDING_CELLS)
def test_build_zoo_refuses_colliding_ids(tmp_path, case):
    archs, grid = COLLIDING_CELLS[case]
    with pytest.raises(SynthError, match="duplicate model id"):
        build_zoo(generate_scenario(mini_scenario()), archs, grid, tmp_path / "zoo")
    assert not (tmp_path / "zoo").exists()


def test_build_zoo_deterministic_bytes(tmp_path):
    spec = mini_scenario(seed=11)
    m1 = build_zoo(generate_scenario(spec), MINI_ARCHS, MINI_GRID,
                   tmp_path / "z1")
    m2 = build_zoo(generate_scenario(spec), MINI_ARCHS, MINI_GRID,
                   tmp_path / "z2")
    assert m1.read_bytes() == m2.read_bytes()
    doc = json.loads(m1.read_text())
    for entry in doc["models"]:
        for key in ("features", "weights", "bias"):
            b1 = (tmp_path / "z1" / entry[key]).read_bytes()
            b2 = (tmp_path / "z2" / entry[key]).read_bytes()
            assert b1 == b2


def test_reference_zoo_accuracy_spread(tmp_path):
    """Regression target measured once from the evaluation oracle: the
    reference zoo must keep a spread of at least 30 accuracy points."""
    data = generate_scenario(reference_scenario(42))
    manifest = build_zoo(data, reference_archs(), REFERENCE_GRID, tmp_path)
    records, _ = load_zoo(manifest)
    assert len(records) == 36
    labels = read_labels(tmp_path / "target_labels.txt", data.spec.num_classes)
    accs = [accuracy(forward(m), labels) for m in records]
    assert max(accs) - min(accs) >= 0.30


def test_labels_file_holds_target_labels(tmp_path):
    data = generate_scenario(mini_scenario(seed=13))
    build_zoo(data, MINI_ARCHS, MINI_GRID, tmp_path)
    labels = read_labels(tmp_path / "target_labels.txt", data.spec.num_classes)
    np.testing.assert_array_equal(labels, data.target_y)


def test_build_excludes_diverged_heads_with_only_their_warning(tmp_path):
    data = generate_scenario(mini_scenario(seed=5))
    archs = MINI_ARCHS + [ArchSpec(kind="rff", dim=64, bandwidth=8.0, seed=3)]
    # lr=50 diverges on one domain's rff64b8 head, lr=1000 on every head
    grid = MINI_GRID + [TrainConfig(lr=50, epochs=80),
                        TrainConfig(lr=1000, epochs=80)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manifest = build_zoo(data, archs, grid, tmp_path)
    expected = []
    for k, x in enumerate(data.domain_x):
        for arch in archs:
            src = map_features(arch, x, data.target_x)[0]
            for cfg in grid:
                try:
                    with np.errstate(all="ignore"):
                        fit_one_head(src, data.domain_y[k], 3, cfg)
                except SynthError:
                    expected.append(f"dom{k}-{arch.tag}-{cfg.tag}")
    assert "dom1-rff64b8-lr50ep80" in expected
    assert "dom0-rff64b8-lr50ep80" not in expected
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert [str(w.message) for w in caught] == [
        f"excluding {i}: head fit diverged: non-finite loss" for i in expected]
    kept = [e["id"] for e in json.loads(manifest.read_text())["models"]]
    assert len(kept) + len(expected) == 2 * len(archs) * len(grid)
    assert not set(kept) & set(expected)


def _features_files(out):
    return sorted(p.name for p in out.glob("*.features.ztf"))


def test_build_writes_one_features_file_per_domain_and_arch(tmp_path):
    data = generate_scenario(mini_scenario(seed=5))
    grid = MINI_GRID + [TrainConfig(lr=0.05, epochs=15)]
    out = tmp_path / "zoo"
    entries = json.loads(build_zoo(data, MINI_ARCHS, grid, out)
                         .read_text())["models"]
    assert len(entries) == 2 * len(MINI_ARCHS) * len(grid)
    names = []
    for k, x in enumerate(data.domain_x):
        for arch in MINI_ARCHS:
            name = f"dom{k}-{arch.tag}.features.ztf"
            names.append(name)
            want = tmp_path / "want.ztf"
            write_tensor(map_features(arch, x, data.target_x)[1]
                         .astype(np.float32), want)
            assert (out / name).read_bytes() == want.read_bytes()
            assert [e["features"] for e in entries
                    if (e["domain"], e["arch"]) == (f"dom{k}", arch.tag)] \
                == [name] * len(grid)
    assert _features_files(out) == sorted(names)


def test_build_writes_features_only_beside_a_converged_head(tmp_path):
    # at lr=50 only dom1's rff64b8 head diverges, at lr=1000 both do
    data = generate_scenario(mini_scenario(seed=5))
    arch = ArchSpec(kind="rff", dim=64, bandwidth=8.0, seed=3)
    grid = [TrainConfig(lr=50, epochs=80), TrainConfig(lr=1000, epochs=80)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = build_zoo(data, [arch], grid, tmp_path)
    kept = json.loads(manifest.read_text())["models"]
    assert [(e["id"], e["features"]) for e in kept] == [
        ("dom0-rff64b8-lr50ep80", "dom0-rff64b8.features.ztf")]
    assert _features_files(tmp_path) == ["dom0-rff64b8.features.ztf"]
    assert [m.model_id for m in load_zoo(manifest)[0]] == [kept[0]["id"]]


# --- accuracy -----------------------------------------------------------------------

def test_accuracy_basics():
    labels = np.array([0, 1, 2, 1])
    perfect = np.eye(3)[labels]
    assert accuracy(perfect, labels) == 1.0
    wrong = np.eye(3)[(labels + 1) % 3]
    assert accuracy(wrong, labels) == 0.0
    with pytest.raises(SynthError):
        accuracy(perfect, labels[:2])


# --- rank correlation -----------------------------------------------------------------

def test_spearman_perfect_and_reversed():
    x = np.array([3.0, 1.0, 4.0, 1.5, 5.0])
    assert spearman(x, x).rho == pytest.approx(1.0, abs=1e-12)
    assert spearman(x, -x).rho == pytest.approx(-1.0, abs=1e-12)


def test_spearman_matches_rank_formula_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    # no ties: rho = 1 - 6*sum(d^2)/(n(n^2-1)) with d^2 summing to 4
    d2 = ((np.argsort(np.argsort(x)) - np.argsort(np.argsort(y))) ** 2).sum()
    oracle = 1 - 6 * d2 / (5 * 24)
    assert oracle == pytest.approx(0.8)
    assert spearman(x, y).rho == pytest.approx(0.8, abs=1e-12)


def test_spearman_tie_handling_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.integers(0, 5, size=12).astype(float)
        y = rng.integers(0, 5, size=12).astype(float)
        expected = stats.spearmanr(x, y)
        got = spearman(x, y)
        if math.isnan(expected.statistic):
            assert got.degenerate
            continue
        assert got.rho == pytest.approx(expected.statistic, abs=1e-12)
        assert got.p_value == pytest.approx(expected.pvalue, abs=1e-9)


def test_student_t_tail_matches_mpmath():
    # two-sided tail I_x(nu/2, 1/2), x = nu/(nu+t^2), at 50 digits
    nus = sorted({*range(1, 21),
                  *(int(v) for v in np.geomspace(20, 1000, 40).round())})
    worst = 0.0
    with mpmath.workdps(50):
        for nu in nus:
            for t in np.geomspace(1e-8, 1e3, 23):
                t2 = mpmath.mpf(float(t)) ** 2
                exact = mpmath.betainc(mpmath.mpf(nu) / 2, mpmath.mpf(1) / 2,
                                       0, nu / (nu + t2), regularized=True)
                if exact < mpmath.mpf("1e-300"):
                    continue
                for sign in (1.0, -1.0):
                    got = student_t_two_sided(sign * float(t), nu)
                    worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-11


def test_student_t_tail_closed_forms():
    for t in np.geomspace(1e-6, 1e4, 41):
        t = float(t)
        assert student_t_two_sided(t, 1) == pytest.approx(
            1 - 2 * math.atan(t) / math.pi, rel=1e-13)
        assert student_t_two_sided(t, 2) == pytest.approx(
            1 - t / math.sqrt(2 + t * t), rel=1e-13)
    for nu in (1, 2, 7, 1000):
        assert student_t_two_sided(0.0, nu) == 1.0


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    assert spearman(x, 3.5 * x + 2.0).rho == pytest.approx(1.0, abs=1e-12)


def test_spearman_degenerate():
    x = np.ones(5)
    y = np.arange(5.0)
    res = spearman(x, y)
    assert res.degenerate
    assert math.isnan(res.rho)


def test_spearman_validation():
    with pytest.raises(SynthError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(SynthError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
