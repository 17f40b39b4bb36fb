import numpy as np
import pytest

from zooadapt.diversity import KernelConfig, centered_factor, hsic
from zooadapt.ensemble_adapt import AdaptConfig, objective
from zooadapt.inference import mix_outputs
from zooadapt.kernels import softmax_rows
from zooadapt.synthzoo import (ArchSpec, DomainTransform, ScenarioSpec,
                               TrainConfig, build_zoo, generate_scenario)
from zooadapt.tensorio import ModelRecord


def make_model(model_id="m0", features=None, weights=None, bias=None,
               domain="d0", arch="toy", seed=0, n=12, d=3, num_classes=3,
               spread=3.0):
    """A small synthetic ModelRecord with mild cluster structure."""
    rng = np.random.default_rng(seed)
    if features is None:
        y = np.tile(np.arange(num_classes), -(-n // num_classes))[:n]
        centers = rng.normal(size=(num_classes, d)) * spread
        features = centers[y] + rng.normal(size=(n, d))
    if weights is None:
        weights = rng.normal(size=(num_classes, features.shape[1]))
    if bias is None:
        bias = rng.normal(size=num_classes)
    return ModelRecord(model_id=model_id, domain_id=domain, arch_tag=arch,
                       features=np.asarray(features, dtype=np.float64),
                       weights=np.asarray(weights, dtype=np.float64),
                       bias=np.asarray(bias, dtype=np.float64))


def hsic_p(pa, pb, kc=KernelConfig()):
    """HSIC between two prediction matrices, through their centered factors."""
    return hsic(centered_factor(pa, kc), centered_factor(pb, kc), kc)


def objective_term(term, feats, ws, bs, theta, labels, pairs):
    """One L_all term's value and per-member head gradients, both from
    objective at the heads (ws, bs). The gradient of L_sim is objective's
    at gamma1 = gamma2 = 0; that of L_pse (L_omr) is objective's at
    gamma1 = 1 (gamma2 = 1) minus the former."""
    probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
    mixture = mix_outputs(probs, theta)

    def at(gamma1, gamma2):
        return objective(feats, probs, mixture, theta, labels, pairs,
                         AdaptConfig(gamma1=gamma1, gamma2=gamma2))

    terms, base = at(0.0, 0.0)
    index = ("sim", "pse", "omr").index(term)
    if index == 0:
        return terms[0], base
    _, grads = at(float(index == 1), float(index == 2))
    return terms[index], [(gw - bw, gb - bb)
                          for (gw, gb), (bw, bb) in zip(grads, base)]


def mini_scenario(seed=5):
    """A tiny 2-domain scenario for fast zoo-on-disk tests."""
    return ScenarioSpec(
        num_classes=3, d0=4, num_domains=2,
        domain_transforms=[DomainTransform(0.0, 0.0, 0.3),
                           DomainTransform(0.9, 1.5, 0.6)],
        samples_per_domain=60,
        target_transform=DomainTransform(0.1, 0.2, 0.3),
        target_samples=90,
        seed=seed,
    )


MINI_ARCHS = [ArchSpec(kind="identity", seed=1),
              ArchSpec(kind="proj", dim=3, seed=2)]
MINI_GRID = [TrainConfig(lr=0.5, epochs=80)]


@pytest.fixture(scope="session")
def mini_zoo(tmp_path_factory):
    """Manifest path of a 4-model zoo written to disk once per session."""
    out = tmp_path_factory.mktemp("mini_zoo")
    scenario = generate_scenario(mini_scenario())
    return build_zoo(scenario, MINI_ARCHS, MINI_GRID, out)
