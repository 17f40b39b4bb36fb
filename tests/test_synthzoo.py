import json
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt.evaluate import (accuracy, read_labels, spearman,
                               student_t_two_sided)
from zooadapt.inference import forward
from zooadapt.synthzoo import (ArchSpec, DomainTransform, FeatureMap,
                               ScenarioSpec, SynthError, TrainConfig,
                               apply_transform, build_zoo, fit_head,
                               generate_scenario, reference_archs,
                               reference_grid, reference_scenario,
                               rotation_matrix)
from zooadapt.tensorio import load_zoo


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

def test_arch_parse_tokens():
    assert ArchSpec.parse("identity").kind == "identity"
    assert ArchSpec.parse("proj-16") == ArchSpec(kind="proj", dim=16)
    assert ArchSpec.parse("rff-32-2.5") == ArchSpec(kind="rff", dim=32,
                                                    bandwidth=2.5)
    assert ArchSpec.parse("poly2").kind == "poly2"
    with pytest.raises(SynthError):
        ArchSpec.parse("resnet50")


def test_feature_map_shapes_and_standardization():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    for arch, dim in ((ArchSpec(kind="identity"), 4),
                      (ArchSpec(kind="proj", dim=7, seed=1), 7),
                      (ArchSpec(kind="rff", dim=12, bandwidth=2.0, seed=2), 12),
                      (ArchSpec(kind="poly2"), 4 + 10)):
        fm = FeatureMap(arch, 4).fit(x)
        out = fm.transform(x)
        assert out.shape == (50, dim)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
    with pytest.raises(SynthError):
        FeatureMap(ArchSpec(kind="proj", dim=7), 4).transform(x)


def test_train_config_parse():
    cfg = TrainConfig.parse("lr=0.25,epochs=40,momentum=0.8,l2=0.001")
    assert cfg == TrainConfig(lr=0.25, epochs=40, momentum=0.8, l2=0.001)
    with pytest.raises(SynthError):
        TrainConfig.parse("alpha=3")


# --- head fitting -------------------------------------------------------------------

def test_fit_head_separable_reaches_high_accuracy():
    rng = np.random.default_rng(1)
    centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
    y = np.tile(np.arange(3), 40)
    x = centers[y] + rng.normal(size=(120, 2)) * 0.4
    w, b, _ = fit_head(x, y, 3, TrainConfig(lr=0.5, epochs=300))
    from zooadapt.kernels import softmax_rows

    p = softmax_rows(x @ w.T + b)
    assert accuracy(p, y) >= 0.99


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
    manifest = build_zoo(data, reference_archs(), reference_grid(), tmp_path)
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
