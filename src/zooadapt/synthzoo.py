"""Synthetic multi-domain benchmark: class-conditional Gaussian domains
under rigid-transform shift, frozen randomized feature maps standing in
for distinct architectures, and a zoo builder that trains one linear
head per (domain, arch, config) cell.

The builder writes the target labels to their own file and never reads
them back; evaluate.py is the only module that does.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ZooAdaptError
from .kernels import softmax_rows
from .tensorio import save_manifest, write_tensor


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
        except json.JSONDecodeError as e:
            raise SynthError(f"scenario is not valid JSON ({e})")
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
        if self.kind == "rff" and not 0 < self.bandwidth < math.inf:
            raise SynthError("rff bandwidth must be finite and > 0")

    @property
    def tag(self) -> str:
        if self.kind == "proj":
            return f"proj{self.dim}"
        if self.kind == "rff":
            return f"rff{self.dim}b{self.bandwidth:g}"
        return self.kind

    @classmethod
    def parse(cls, token: str, seed: int = 0) -> "ArchSpec":
        """Parse CLI tokens: identity, proj-<dim>, rff-<dim>-<bw>, poly2."""
        parts = token.strip().split("-")
        kind = parts[0]
        try:
            if kind == "identity" and len(parts) == 1:
                return cls(kind="identity", seed=seed)
            if kind == "poly2" and len(parts) == 1:
                return cls(kind="poly2", seed=seed)
            if kind == "proj" and len(parts) == 2:
                return cls(kind="proj", dim=int(parts[1]), seed=seed)
            if kind == "rff" and len(parts) == 3:
                return cls(kind="rff", dim=int(parts[1]),
                           bandwidth=float(parts[2]), seed=seed)
        except ValueError:
            pass
        raise SynthError(f"cannot parse arch token {token!r}")


class FeatureMap:
    """An arch applied behind a scaler fitted on one source domain.

    The scaler is part of the frozen extractor, so shifted target data
    lands in the representation the head was actually trained against.
    """

    def __init__(self, arch: ArchSpec, d0: int):
        self.arch = arch
        rng = np.random.default_rng([arch.seed, 9151])
        if arch.kind == "proj":
            if arch.dim < 1:
                raise SynthError("projection dim must be >= 1")
            self._a = rng.normal(size=(d0, arch.dim)) / math.sqrt(d0)
        elif arch.kind == "rff":
            if arch.dim < 1:
                raise SynthError("fourier dim must be >= 1")
            self._omega = rng.normal(size=(d0, arch.dim)) / arch.bandwidth
            self._phase = rng.uniform(0.0, 2.0 * math.pi, size=arch.dim)
        elif arch.kind not in ("identity", "poly2"):
            raise SynthError(f"unknown arch kind {arch.kind!r}")
        self._mu = None
        self._sd = None

    def _raw(self, x: np.ndarray) -> np.ndarray:
        if self.arch.kind == "identity":
            return x
        if self.arch.kind == "proj":
            return x @ self._a
        if self.arch.kind == "rff":
            return math.sqrt(2.0 / self.arch.dim) * np.cos(x @ self._omega + self._phase)
        iu = np.triu_indices(x.shape[1])
        quad = (x[:, :, None] * x[:, None, :])[:, iu[0], iu[1]]
        return np.concatenate([x, quad], axis=1)

    def fit(self, x: np.ndarray) -> "FeatureMap":
        raw = self._raw(x)
        self._mu = raw.mean(axis=0)
        sd = raw.std(axis=0)
        self._sd = np.where(sd > 0.0, sd, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._mu is None:
            raise SynthError("feature map must be fitted first")
        return (self._raw(x) - self._mu) / self._sd


# ---------------------------------------------------------------------------
# Head training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.5
    epochs: int = 300
    momentum: float = 0.9
    l2: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise SynthError("epochs must be >= 1")
        if not 0 < self.lr < math.inf:
            raise SynthError("lr must be finite and > 0")
        if not 0 <= self.momentum < 1:
            raise SynthError("momentum must be in [0, 1)")
        if not 0 <= self.l2 < math.inf:
            raise SynthError("l2 must be finite and >= 0")

    @property
    def tag(self) -> str:
        return f"lr{self.lr:g}ep{self.epochs}"

    @classmethod
    def parse(cls, token: str) -> "TrainConfig":
        """Parse grid tokens like ``lr=0.5,epochs=300,momentum=0.9,l2=1e-4``."""
        kwargs = {}
        for piece in token.strip().split(","):
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in ("lr", "epochs", "momentum", "l2"):
                raise SynthError(f"unknown grid key {key!r}")
            try:
                kwargs[key] = int(value) if key == "epochs" else float(value)
            except ValueError:
                raise SynthError(f"grid key {key!r}: cannot parse {value!r}")
        return cls(**kwargs)


def fit_head(x: np.ndarray, y: np.ndarray, num_classes: int,
             cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Multinomial logistic regression by full-batch momentum descent.

    Zero-initialized (the objective is convex), returns (W, b, loss).
    A non-finite loss aborts with SynthError so the builder can exclude
    the model.
    """
    m, d = x.shape
    onehot = np.zeros((m, num_classes))
    onehot[np.arange(m), y] = 1.0
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    loss = math.inf
    for _ in range(cfg.epochs):
        p = softmax_rows(x @ w.T + b)
        loss = float(-np.log(p[np.arange(m), y]).mean()) \
            + 0.5 * cfg.l2 * float((w * w).sum())
        if not np.isfinite(loss):
            raise SynthError("head fit diverged: non-finite loss")
        g = p - onehot
        gw = g.T @ x / m + cfg.l2 * w
        gb = g.sum(axis=0) / m
        vw = cfg.momentum * vw + gw
        vb = cfg.momentum * vb + gb
        w = w - cfg.lr * vw
        b = b - cfg.lr * vb
    return w, b, loss


# ---------------------------------------------------------------------------
# Zoo builder
# ---------------------------------------------------------------------------

def _model_id(domain: int, arch: ArchSpec, cfg: TrainConfig) -> str:
    return f"dom{domain}-{arch.tag}-{cfg.tag}"


def build_zoo(scenario: ScenarioData, archs: list[ArchSpec],
              configs: list[TrainConfig], out_dir) -> Path:
    """Write tensors, the eval-only label file, and the manifest.

    One model per (domain, arch, config) cell. Models whose head fit
    diverges are excluded with a warning. Cells whose ids collide are
    refused before anything is written.
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

    labels_name = "target_labels.txt"
    (out / labels_name).write_text(
        "".join(f"{int(v)}\n" for v in scenario.target_y))

    entries = []
    for k in range(spec.num_domains):
        domain_id = f"dom{k}"
        for arch in archs:
            fmap = FeatureMap(arch, spec.d0).fit(scenario.domain_x[k])
            src = fmap.transform(scenario.domain_x[k])
            tgt = fmap.transform(scenario.target_x)
            for cfg in configs:
                model_id = _model_id(k, arch, cfg)
                try:
                    w, b, _ = fit_head(src, scenario.domain_y[k],
                                       spec.num_classes, cfg)
                except SynthError as e:
                    warnings.warn(f"excluding {model_id}: {e}")
                    continue
                names = {
                    "features": f"{model_id}.features.ztf",
                    "weights": f"{model_id}.weights.ztf",
                    "bias": f"{model_id}.bias.ztf",
                }
                write_tensor(tgt.astype(np.float32), out / names["features"])
                write_tensor(w.astype(np.float32), out / names["weights"])
                write_tensor(b.astype(np.float32), out / names["bias"])
                entries.append({
                    "id": model_id, "domain": domain_id, "arch": arch.tag,
                    **names,
                    "meta": {"lr": repr(cfg.lr), "epochs": str(cfg.epochs),
                             "momentum": repr(cfg.momentum), "l2": repr(cfg.l2),
                             "optimizer": "momentum-gd"},
                })

    manifest = out / "manifest.json"
    save_manifest(manifest, entries,
                  {"n": spec.target_samples, "C": spec.num_classes,
                   "labels": labels_name})
    return manifest


# ---------------------------------------------------------------------------
# Reference configurations used by the CLI defaults and the test harness
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


REFERENCE_ARCHS = "identity,proj-3,proj-16,rff-64-2.0,rff-64-8.0,poly2"
REFERENCE_GRID = "lr=0.5,epochs=300;lr=0.05,epochs=15"


def parse_archs(tokens: str, base_seed: int) -> list[ArchSpec]:
    """Comma-separated arch tokens; the i-th map is seeded base_seed * 1000 + i."""
    return [ArchSpec.parse(tok, seed=base_seed * 1000 + i)
            for i, tok in enumerate(tokens.split(","))]


def parse_grid(tokens: str) -> list[TrainConfig]:
    """Semicolon-separated train-config tokens."""
    return [TrainConfig.parse(tok) for tok in tokens.split(";")]


def reference_archs(base_seed: int = 0) -> list[ArchSpec]:
    return parse_archs(REFERENCE_ARCHS, base_seed)


def reference_grid() -> list[TrainConfig]:
    return parse_grid(REFERENCE_GRID)
