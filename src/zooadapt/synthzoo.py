"""Synthetic multi-domain benchmark: class-conditional Gaussian domains
under rigid-transform shift, frozen randomized feature maps standing in
for distinct architectures, and a zoo builder that trains one linear
head per (domain, arch, config) cell. The heads of one (domain, arch)
share its frozen extractor, so the builder writes that pair's target
features once and every entry of the pair names the one file.

The builder writes the target labels to their own file and never reads
them back; evaluate.py is the only module that does.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ensemble_adapt import ADAPTED_SUFFIX
from .errors import ZooAdaptError
from .kernels import softmax_rows
from .tensorio import JSON_ERRORS, save_manifest, write_tensor


class SynthError(ZooAdaptError):
    pass


def _check_numbers(obj) -> None:
    """Each int field of a dataclass holds an int, each float field a
    finite int or float; bools, strings and null are neither."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        kinds = {int: int, float: (int, float)}.get(f.type)
        if kinds and not (isinstance(v, kinds) and not isinstance(v, bool)
                          and abs(v) <= sys.float_info.max):
            raise SynthError(f"{f.name} must be " + (
                "an integer" if f.type is int else "a finite number"))


@dataclass(frozen=True)
class DomainTransform:
    rotation: float = 0.0  # radians, applied as Givens rotations on axis pairs
    translation: float = 0.0  # magnitude along the normalized all-ones direction
    noise: float = 0.0  # stddev of isotropic noise added after the transform

    def __post_init__(self):
        _check_numbers(self)


@dataclass
class ScenarioSpec:
    num_classes: int
    d0: int
    num_domains: int
    domain_transforms: list[DomainTransform]
    samples_per_domain: int
    target_transform: DomainTransform
    target_samples: int
    seed: int
    class_scale: float = 3.0
    class_sigma: float = 1.0

    def __post_init__(self):
        _check_numbers(self)
        if self.seed < 0 or min(self.d0, self.samples_per_domain,
                                self.target_samples) < 1:
            raise SynthError("need seed >= 0, and d0 and sample counts >= 1")
        if self.num_classes < 2:
            raise SynthError("need at least 2 classes")
        if self.num_domains < 1:
            raise SynthError("need at least 1 domain")
        if len(self.domain_transforms) != self.num_domains:
            raise SynthError("one transform per domain required")

    def to_json(self) -> str:
        doc = {
            "C": self.num_classes, "d0": self.d0, "K": self.num_domains,
            "samples_per_domain": self.samples_per_domain,
            "target_samples": self.target_samples,
            "seed": self.seed,
            "class_scale": self.class_scale,
            "class_sigma": self.class_sigma,
            "domains": [vars(t) for t in self.domain_transforms],
            "target": vars(self.target_transform),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            doc = json.loads(text)
        except JSON_ERRORS as e:
            raise SynthError(f"scenario is not valid JSON ({e})")
        try:
            return cls(
                num_classes=doc["C"], d0=doc["d0"], num_domains=doc["K"],
                domain_transforms=[DomainTransform(**t) for t in doc["domains"]],
                samples_per_domain=doc["samples_per_domain"],
                target_transform=DomainTransform(**doc["target"]),
                target_samples=doc["target_samples"],
                seed=doc["seed"],
                class_scale=doc.get("class_scale", 3.0),
                class_sigma=doc.get("class_sigma", 1.0),
            )
        except (KeyError, TypeError) as e:
            raise SynthError(f"malformed scenario ({type(e).__name__}: {e})")


@dataclass
class ScenarioData:
    spec: ScenarioSpec
    anchors: np.ndarray  # C x d0 class means before any domain transform
    domain_x: list[np.ndarray]
    domain_y: list[np.ndarray]
    target_x: np.ndarray
    target_y: np.ndarray  # evaluation-only; written to the separate label file


def rotation_matrix(d: int, angle: float) -> np.ndarray:
    """Givens rotation by the same angle on coordinate pairs (0,1), (2,3), ..."""
    r = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    for a in range(0, d - 1, 2):
        r[a, a] = c
        r[a + 1, a + 1] = c
        r[a, a + 1] = -s
        r[a + 1, a] = s
    return r


def apply_transform(x: np.ndarray, t: DomainTransform) -> np.ndarray:
    """Rows of x rotated and shifted by t, before its noise; equal
    transforms give equal laws."""
    d = x.shape[1]
    shift = t.translation * np.ones(d) / math.sqrt(d)
    return x @ rotation_matrix(d, t.rotation).T + shift


def _balanced_labels(n: int, num_classes: int, rng) -> np.ndarray:
    reps = -(-n // num_classes)
    y = np.tile(np.arange(num_classes), reps)[:n]
    rng.shuffle(y)
    return y


def _sample_domain(anchors, t: DomainTransform, n, sigma, rng):
    num_classes, d = anchors.shape
    y = _balanced_labels(n, num_classes, rng)
    x = apply_transform(anchors[y] + rng.normal(size=(n, d)) * sigma, t)
    x += rng.normal(size=(n, d)) * t.noise
    return x, y


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    """Deterministic generation: a single seeded stream consumed in a
    fixed order makes regeneration byte-identical."""
    rng = np.random.default_rng(spec.seed)
    anchors = rng.normal(size=(spec.num_classes, spec.d0)) * spec.class_scale
    domain_x, domain_y = [], []
    for t in spec.domain_transforms:
        x, y = _sample_domain(anchors, t, spec.samples_per_domain,
                              spec.class_sigma, rng)
        domain_x.append(x)
        domain_y.append(y)
    tx, ty = _sample_domain(anchors, spec.target_transform,
                            spec.target_samples, spec.class_sigma, rng)
    return ScenarioData(spec=spec, anchors=anchors, domain_x=domain_x,
                        domain_y=domain_y, target_x=tx, target_y=ty)


# ---------------------------------------------------------------------------
# Frozen feature maps ("architectures")
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchSpec:
    kind: str  # identity | proj | rff | poly2
    dim: int = 0
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "proj", "rff", "poly2"):
            raise SynthError(f"unknown arch kind {self.kind!r}")
        if self.kind in ("proj", "rff") and self.dim < 1:
            raise SynthError(f"{self.kind} dim must be >= 1")
        if self.kind == "rff" and not 0 < self.bandwidth < math.inf:
            raise SynthError("rff bandwidth must be finite and > 0")

    @property
    def tag(self) -> str:
        if self.kind == "proj":
            return f"proj{self.dim}"
        if self.kind == "rff":
            return f"rff{self.dim}b{self.bandwidth:g}"
        return self.kind


def map_features(arch: ArchSpec, source: np.ndarray,
                 target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One source domain and the target through an arch, both standardized
    by a scaler fitted on the source's raw features.

    The scaler is part of the frozen extractor, so shifted target data
    lands in the representation the head was actually trained against.
    """
    d0 = source.shape[1]
    rng = np.random.default_rng([arch.seed, 9151])
    if arch.kind == "proj":
        a = rng.normal(size=(d0, arch.dim)) / math.sqrt(d0)
    elif arch.kind == "rff":
        omega = rng.normal(size=(d0, arch.dim)) / arch.bandwidth
        phase = rng.uniform(0.0, 2.0 * math.pi, size=arch.dim)

    def raw(x):
        if arch.kind == "proj":
            return x @ a
        if arch.kind == "rff":
            return math.sqrt(2.0 / arch.dim) * np.cos(x @ omega + phase)
        if arch.kind == "poly2":
            iu = np.triu_indices(d0)
            quad = (x[:, :, None] * x[:, None, :])[:, iu[0], iu[1]]
            return np.concatenate([x, quad], axis=1)
        return x

    src = raw(source)
    mu = src.mean(axis=0)
    sd = src.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    return (src - mu) / sd, (raw(target) - mu) / sd


# ---------------------------------------------------------------------------
# Head training
# ---------------------------------------------------------------------------

HEAD_MOMENTUM = 0.9
HEAD_L2 = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.5
    epochs: int = 300

    def __post_init__(self):
        if self.epochs < 1:
            raise SynthError("epochs must be >= 1")
        if not 0 < self.lr < math.inf:
            raise SynthError("lr must be finite and > 0")

    @property
    def tag(self) -> str:
        return f"lr{self.lr:g}ep{self.epochs}"


def fit_head(x: np.ndarray, y: np.ndarray, num_classes: int,
             cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multinomial logistic regression by full-batch momentum descent, for
    K heads at once: x is K x m x d (one arch's features of K domains), y
    is K x m. Returns (W, b, loss), K x C x d, K x C and K.

    Each slice runs exactly the arithmetic of a lone fit on its own data,
    through one stacked matmul per step, so slices never mix. Heads are
    zero-initialized (the objective is convex). A slice whose loss goes
    non-finite at any epoch keeps that loss: the builder excludes the
    head, and the other slices are unaffected.
    """
    k, m, _ = x.shape
    # flat index of each row's label in a K x m x C buffer
    at_label = (np.arange(k * m).reshape(k, m) * num_classes + y).reshape(-1)
    w = np.zeros((k, num_classes, x.shape[2]))
    b = np.zeros((k, num_classes))
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    loss = np.zeros(k)
    logits = np.empty((k, m, num_classes))
    # a diverging slice overflows or takes log 0; its loss reports that
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            np.matmul(x, w.transpose(0, 2, 1), out=logits)
            logits += b[:, None, :]
            g = softmax_rows(logits)
            flat = g.reshape(-1)
            step = -np.log(flat[at_label].reshape(k, m)).mean(axis=1) \
                + 0.5 * HEAD_L2 * (w * w).sum(axis=(1, 2))
            loss = np.where(np.isfinite(loss), step, loss)
            flat[at_label] -= 1.0  # softmax minus one-hot
            gw = g.transpose(0, 2, 1) @ x / m + HEAD_L2 * w
            gb = g.sum(axis=1) / m
            vw = HEAD_MOMENTUM * vw + gw
            vb = HEAD_MOMENTUM * vb + gb
            w = w - cfg.lr * vw
            b = b - cfg.lr * vb
    return w, b, loss


# ---------------------------------------------------------------------------
# Zoo builder
# ---------------------------------------------------------------------------

def _model_id(domain: int, arch: ArchSpec, cfg: TrainConfig) -> str:
    return f"dom{domain}-{arch.tag}-{cfg.tag}"


def _features_name(domain: int, arch: ArchSpec) -> str:
    return f"dom{domain}-{arch.tag}.features.ztf"


def _head_names(model_id: str) -> dict[str, str]:
    return {key: f"{model_id}.{key}.ztf" for key in ("weights", "bias")}


def _fit_arch(scenario: ScenarioData, arch: ArchSpec, labels: np.ndarray,
              configs: list[TrainConfig], out: Path) -> set[str]:
    """Map every domain through one arch, fit its heads for all domains
    at once per config, and write the head of each fit that converged.
    Each domain's target features are written once, to the file every
    config's entry names, and only if at least one of its heads
    converged. Returns the ids of the heads that diverged."""
    sources, targets = [], []
    for x in scenario.domain_x:
        src, tgt = map_features(arch, x, scenario.target_x)
        sources.append(src)
        targets.append(tgt.astype(np.float32))
    src = np.stack(sources)
    del sources, tgt  # only the stack and the float32 targets stay live
    diverged = set()
    converged = set()
    for cfg in configs:
        w, b, loss = fit_head(src, labels, scenario.spec.num_classes, cfg)
        for k in range(len(targets)):
            model_id = _model_id(k, arch, cfg)
            if not np.isfinite(loss[k]):
                diverged.add(model_id)
                continue
            converged.add(k)
            names = _head_names(model_id)
            write_tensor(w[k].astype(np.float32), out / names["weights"])
            write_tensor(b[k].astype(np.float32), out / names["bias"])
    for k in sorted(converged):
        write_tensor(targets[k], out / _features_name(k, arch))
    return diverged


def build_zoo(scenario: ScenarioData, archs: list[ArchSpec],
              configs: list[TrainConfig], out_dir) -> Path:
    """Write tensors, the eval-only label file, and the manifest.

    One model per (domain, arch, config) cell, with its own head files;
    the cells of one (domain, arch) name one features file. Models whose
    head fit diverges are excluded with a warning. Cells whose ids
    collide are refused before anything is written. Adapted heads that
    an earlier build's zoo left in out_dir are deleted, so that no stage
    reads them as adapted from this build's heads.
    """
    spec = scenario.spec
    seen = set()
    for k in range(spec.num_domains):
        for arch in archs:
            for cfg in configs:
                model_id = _model_id(k, arch, cfg)
                if model_id in seen:
                    raise SynthError(f"duplicate model id {model_id!r}: two "
                                     "archs or train configs share a tag")
                seen.add(model_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.ztf" + ADAPTED_SUFFIX):
        stale.unlink()

    labels_name = "target_labels.txt"
    (out / labels_name).write_text(
        "".join(f"{int(v)}\n" for v in scenario.target_y))

    labels = np.stack(scenario.domain_y)
    diverged = set()
    for arch in archs:
        diverged |= _fit_arch(scenario, arch, labels, configs, out)

    entries = []
    for k in range(spec.num_domains):
        for arch in archs:
            for cfg in configs:
                model_id = _model_id(k, arch, cfg)
                if model_id in diverged:
                    warnings.warn(f"excluding {model_id}: head fit diverged: "
                                  "non-finite loss")
                    continue
                entries.append({
                    "id": model_id, "domain": f"dom{k}", "arch": arch.tag,
                    "features": _features_name(k, arch),
                    **_head_names(model_id),
                    "meta": {"lr": repr(cfg.lr), "epochs": str(cfg.epochs),
                             "momentum": repr(HEAD_MOMENTUM), "l2": repr(HEAD_L2),
                             "optimizer": "momentum-gd"},
                })

    manifest = out / "manifest.json"
    save_manifest(manifest, entries,
                  {"n": spec.target_samples, "C": spec.num_classes,
                   "labels": labels_name})
    return manifest


# ---------------------------------------------------------------------------
# Reference scenarios, and the archs and grid that `build` always trains
# ---------------------------------------------------------------------------

def reference_scenario(seed: int = 42) -> ScenarioSpec:
    """Three domains at increasing shift from a moderately shifted
    target; tight target clusters leave the ensemble a realignment
    margin that adaptation can exploit. C=5, d0=6."""
    return ScenarioSpec(
        num_classes=5, d0=6, num_domains=3,
        domain_transforms=[
            DomainTransform(rotation=0.15, translation=0.3, noise=0.4),
            DomainTransform(rotation=0.7, translation=1.2, noise=0.5),
            DomainTransform(rotation=1.6, translation=2.5, noise=1.0),
        ],
        samples_per_domain=240,
        target_transform=DomainTransform(rotation=0.5, translation=0.8, noise=0.35),
        target_samples=400,
        seed=seed,
    )


def poisoned_scenario(seed: int = 42) -> ScenarioSpec:
    """Two of three domains are shifted hard enough that their models
    predict confidently wrong on the target and land near chance."""
    return ScenarioSpec(
        num_classes=5, d0=6, num_domains=3,
        domain_transforms=[
            DomainTransform(rotation=0.0, translation=0.0, noise=0.3),
            DomainTransform(rotation=2.4, translation=4.0, noise=0.8),
            DomainTransform(rotation=3.1, translation=2.0, noise=0.8),
        ],
        samples_per_domain=240,
        target_transform=DomainTransform(rotation=0.05, translation=0.1, noise=0.35),
        target_samples=400,
        seed=seed,
    )


REFERENCE_ARCHS = [ArchSpec("identity"), ArchSpec("proj", dim=3),
                   ArchSpec("proj", dim=16),
                   ArchSpec("rff", dim=64, bandwidth=2.0),
                   ArchSpec("rff", dim=64, bandwidth=8.0), ArchSpec("poly2")]
REFERENCE_GRID = [TrainConfig(lr=0.5, epochs=300),
                  TrainConfig(lr=0.05, epochs=15)]


def reference_archs(base_seed: int = 0) -> list[ArchSpec]:
    """The reference maps; the i-th is seeded base_seed * 1000 + i."""
    return [replace(arch, seed=base_seed * 1000 + i)
            for i, arch in enumerate(REFERENCE_ARCHS)]
