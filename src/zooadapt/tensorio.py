"""On-disk formats: dense float32 tensors (ZTF), the zoo manifest and
the CSV reports every stage writes.

ZTF layout: magic ``ZTF1``, u32-le rank, rank x u32-le dims, then the
row-major IEEE-754 binary32 little-endian payload. Tensors are float32
on disk. A loaded model keeps its features float32 as stored, which
halves the zoo's largest arrays in memory, and promotes its head to
float64 because adaptation updates it. All arithmetic runs in float64:
every use of the features promotes them first, so logits, entropies and
kernel sums accumulate in 64-bit.

Several manifest entries may name one features file (the models of one
domain and arch share their frozen extractor's target features). The
loader reads each distinct features file once and gives every record
that names it the same read-only array.
"""

import csv
import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ZooAdaptError

MAGIC = b"ZTF1"
MAX_RANK = 32
MAX_ELEMENTS = 1 << 40


class TensorFormatError(ZooAdaptError):
    """Base class for ZTF read/write failures."""


class BadMagicError(TensorFormatError):
    pass


class DimOverflowError(TensorFormatError):
    pass


class PayloadLengthError(TensorFormatError):
    pass


class NonFiniteValueError(TensorFormatError):
    pass


class ManifestError(ZooAdaptError):
    pass


ENTRY_KEYS = ("id", "domain", "arch", "features", "weights", "bias")
# what json.loads raises on a bad document: ValueError (a decode error, or
# an integer past the digit limit) or RecursionError (nesting too deep)
JSON_ERRORS = (ValueError, RecursionError)


def write_tensor(t: np.ndarray, path) -> None:
    """Write a float32 tensor; read_tensor(path) restores it bit-exactly."""
    arr = np.asarray(t, dtype=np.float32)
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise DimOverflowError(f"rank {arr.ndim} outside [1, {MAX_RANK}]")
    if any(d <= 0 for d in arr.shape):
        raise DimOverflowError(f"dims must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("tensor contains NaN or Inf")
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype("<f4", copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path) -> np.ndarray:
    """Read a ZTF file back into a float32 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a ZTF file")
    if len(raw) < 8:
        raise PayloadLengthError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    if rank < 1 or rank > MAX_RANK:
        raise DimOverflowError(f"{path}: rank {rank} outside [1, {MAX_RANK}]")
    if len(raw) < 8 + 4 * rank:
        raise PayloadLengthError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    if any(d == 0 for d in dims):
        raise DimOverflowError(f"{path}: zero dimension in {dims}")
    count = 1
    for d in dims:
        count *= d
    if count > MAX_ELEMENTS:
        raise DimOverflowError(f"{path}: {count} elements exceeds limit")
    payload = raw[8 + 4 * rank :]
    if len(payload) != 4 * count:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, expected {4 * count}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if not np.isfinite(arr).all():
        raise NonFiniteValueError(f"{path}: payload contains NaN or Inf")
    return arr.astype(np.float32, copy=True)


@dataclass
class ModelRecord:
    """One zoo member: target features plus its linear classifier head.

    features is n x d_m, weights C x d_m, bias length C; d_m may differ
    across records, n and C may not. Loaded features stay float32 as
    stored and the head is float64; all arithmetic on them is float64.
    Arrays are treated as immutable after load; loaded features are
    read-only, since records whose entries name one features file share
    one array. features_path, weights_path and bias_path name its files
    when the record was loaded from a manifest.
    """

    model_id: str
    domain_id: str
    arch_tag: str
    features: np.ndarray
    weights: np.ndarray
    bias: np.ndarray
    features_path: Path | None = None
    weights_path: Path | None = None
    bias_path: Path | None = None

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def with_head(self, weights: np.ndarray, bias: np.ndarray) -> "ModelRecord":
        return replace(self, weights=weights, bias=bias)


@dataclass
class TargetBundle:
    """Unlabeled target set descriptor: its size and class count. The
    manifest's target.labels names the evaluation-only label file;
    load_zoo ignores it and never opens the file (it may be absent)."""

    n: int
    num_classes: int


def read_text(path) -> str:
    """The contents of a UTF-8 text file; any other bytes raise
    ZooAdaptError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ZooAdaptError(f"{path}: not UTF-8 text ({e.reason} at byte "
                            f"{e.start})")


def write_csv(path, header, rows) -> None:
    """Write the header, then each row, with LF line ends. A None cell is
    a rejected score and reads -inf; csv writes every other cell with
    str, which for a float is the shortest repr that round-trips."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(["-inf" if x is None else x for x in row] for row in rows)


def save_manifest(path, models: list[dict], target: dict) -> None:
    doc = {"version": 1, "target": target, "models": models}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_zoo(manifest_path) -> tuple[list[ModelRecord], TargetBundle]:
    """Load and validate a zoo: consistent n and C, unique ids, files parse.

    Each distinct features file is read once; the records that name it
    share that read-only array, and each is checked against it."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(read_text(manifest_path))
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {manifest_path}")
    except JSON_ERRORS as e:
        raise ManifestError(f"{manifest_path}: invalid JSON ({e})")

    if not isinstance(doc, dict):
        raise ManifestError(f"{manifest_path}: manifest must be a JSON object")
    if doc.get("version") != 1:
        raise ManifestError(f"{manifest_path}: unsupported version {doc.get('version')!r}")
    tgt = doc.get("target")
    if not isinstance(tgt, dict) or "n" not in tgt or "C" not in tgt:
        raise ManifestError(f"{manifest_path}: target descriptor missing n/C")
    if any(not isinstance(tgt[k], int) or isinstance(tgt[k], bool)
           for k in ("n", "C")):
        raise ManifestError(f"{manifest_path}: target n and C must be integers")
    if tgt["n"] < 1 or tgt["C"] < 2:
        raise ManifestError(f"{manifest_path}: target needs n >= 1 and C >= 2, "
                            f"got n={tgt['n']}, C={tgt['C']}")
    target = TargetBundle(n=tgt["n"], num_classes=tgt["C"])

    base = manifest_path.parent
    records: list[ModelRecord] = []
    seen: set[str] = set()
    features: dict[Path, np.ndarray] = {}
    if "models" not in doc:
        raise ManifestError(f"{manifest_path}: missing key 'models'")
    models = doc["models"]
    if not isinstance(models, list):
        raise ManifestError(f"{manifest_path}: models must be a list")
    if not models:
        raise ManifestError(f"{manifest_path}: zoo has no models")
    for index, entry in enumerate(models):
        if not isinstance(entry, dict):
            raise ManifestError(f"model #{index}: entry is not an object")
        mid = entry.get("id")
        name = repr(mid) if isinstance(mid, str) else f"#{index}"
        for key in ENTRY_KEYS:
            if key not in entry:
                raise ManifestError(f"model {name}: missing key {key!r}")
            if not isinstance(entry[key], str):
                raise ManifestError(f"model {name}: key {key!r} must be a string")
        if not isinstance(entry.get("meta", {}), dict):
            raise ManifestError(f"model {name}: key 'meta' must be an object")
        if mid in seen:
            raise ManifestError(f"duplicate model_id {mid!r}")
        seen.add(mid)
        arrays = {}
        for key in ("features", "weights", "bias"):
            p = base / entry[key]
            if not p.is_file():
                raise ManifestError(f"model {mid!r}: missing file {p}")
            if key != "features":
                arrays[key] = read_tensor(p)
            elif p not in features:
                features[p] = read_tensor(p)
                features[p].flags.writeable = False
        feats = features[base / entry["features"]]
        w = arrays["weights"].astype(np.float64)
        b = arrays["bias"].astype(np.float64)
        if feats.ndim != 2 or w.ndim != 2 or b.ndim != 1:
            raise ManifestError(f"model {mid!r}: bad tensor ranks")
        if feats.shape[0] != target.n:
            raise ManifestError(
                f"model {mid!r}: target-size mismatch "
                f"(features n={feats.shape[0]}, target n={target.n})"
            )
        if w.shape[0] != target.num_classes or b.shape[0] != target.num_classes:
            raise ManifestError(
                f"model {mid!r}: class-count mismatch "
                f"(head C={w.shape[0]}, target C={target.num_classes})"
            )
        if w.shape[1] != feats.shape[1]:
            raise ManifestError(
                f"model {mid!r}: feature dim {feats.shape[1]} != head dim {w.shape[1]}"
            )
        records.append(ModelRecord(
            model_id=mid,
            domain_id=entry["domain"],
            arch_tag=entry["arch"],
            features=feats,
            weights=w,
            bias=b,
            features_path=base / entry["features"],
            weights_path=base / entry["weights"],
            bias_path=base / entry["bias"],
        ))
    return records, target
