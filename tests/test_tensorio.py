import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zooadapt.sute import SuteConfig, sute_score
from zooadapt.tensorio import (BadMagicError, DimOverflowError, ManifestError,
                               NonFiniteValueError, PayloadLengthError,
                               load_zoo, read_tensor, save_manifest,
                               write_tensor)


def test_round_trip_identity_and_identical_bytes(tmp_path):
    t = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
    p1 = tmp_path / "a.ztf"
    p2 = tmp_path / "b.ztf"
    write_tensor(t, p1)
    back = read_tensor(p1)
    assert back.dtype == np.float32
    assert (back == t).all()
    write_tensor(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_dimension_rejected_at_write(tmp_path):
    with pytest.raises(DimOverflowError):
        write_tensor(np.zeros((2, 0), dtype=np.float32), tmp_path / "z.ztf")


def test_truncated_payload_is_length_mismatch(tmp_path):
    p = tmp_path / "t.ztf"
    write_tensor(np.ones((3, 2), dtype=np.float32), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-1])
    with pytest.raises(PayloadLengthError):
        read_tensor(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.ztf"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_tensor(p)


def test_dim_overflow_on_read(tmp_path):
    p = tmp_path / "o.ztf"
    # rank=200 exceeds the cap
    p.write_bytes(b"ZTF1" + (200).to_bytes(4, "little") + b"\x00" * 800)
    with pytest.raises(DimOverflowError):
        read_tensor(p)


def test_non_finite_rejected_both_ways(tmp_path):
    p = tmp_path / "n.ztf"
    with pytest.raises(NonFiniteValueError):
        write_tensor(np.array([np.nan], dtype=np.float32), p)
    write_tensor(np.array([1.0], dtype=np.float32), p)
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.array([np.inf], dtype="<f4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValueError):
        read_tensor(p)


def test_round_trip_many_random_tensors(tmp_path):
    rng = np.random.default_rng(0)
    p = tmp_path / "r.ztf"
    for _ in range(1000):
        rank = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(rank))
        t = rng.normal(size=dims).astype(np.float32)
        write_tensor(t, p)
        back = read_tensor(p)
        assert back.shape == t.shape
        assert (back == t).all()


# --- zoo loading ------------------------------------------------------------

def _write_models(tmp_path, sizes, num_classes=4, labels="labels.txt"):
    entries = []
    rng = np.random.default_rng(1)
    for i, n in enumerate(sizes):
        d = 3
        names = {k: f"m{i}.{k}.ztf" for k in ("features", "weights", "bias")}
        write_tensor(rng.normal(size=(n, d)).astype(np.float32),
                     tmp_path / names["features"])
        write_tensor(rng.normal(size=(num_classes, d)).astype(np.float32),
                     tmp_path / names["weights"])
        write_tensor(rng.normal(size=num_classes).astype(np.float32),
                     tmp_path / names["bias"])
        entries.append({"id": f"m{i}", "domain": "d0", "arch": "a",
                        **names, "meta": {}})
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, entries,
                  {"n": sizes[0], "C": num_classes, "labels": labels})
    return manifest, entries


def test_load_zoo_two_models(tmp_path):
    manifest, _ = _write_models(tmp_path, [100, 100])
    records, target = load_zoo(manifest)
    assert len(records) == 2
    assert target.n == 100 and target.num_classes == 4
    assert records[0].features.dtype == np.float32
    assert records[0].weights.dtype == np.float64
    assert records[0].bias.dtype == np.float64


def test_float32_features_score_like_float64(mini_zoo):
    records, target = load_zoo(mini_zoo)
    cfg = SuteConfig.default(target.num_classes)
    for m in records:
        got = sute_score(m, cfg)
        want = sute_score(replace(m, features=m.features.astype(np.float64)),
                          cfg)
        assert got.components == want.components
        assert np.array_equal(got.probs, want.probs)
        assert np.array_equal(got.structural, want.structural)


def test_library_and_cli_import_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, zooadapt, zooadapt.cli; "
            "print(sorted(n for n in sys.modules "
            "if n == 'scipy' or n.startswith('scipy.')))")
    child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True, timeout=60)
    assert child.stdout.strip() == "[]"


def test_load_zoo_target_size_mismatch(tmp_path):
    manifest, _ = _write_models(tmp_path, [100, 99])
    with pytest.raises(ManifestError, match="target-size mismatch"):
        load_zoo(manifest)


def test_load_zoo_missing_file_names_path(tmp_path):
    manifest, entries = _write_models(tmp_path, [50, 50])
    missing = tmp_path / entries[1]["weights"]
    missing.unlink()
    with pytest.raises(ManifestError, match=str(missing)):
        load_zoo(manifest)


def test_load_zoo_duplicate_id(tmp_path):
    manifest, entries = _write_models(tmp_path, [30, 30])
    doc = json.loads(manifest.read_text())
    doc["models"][1]["id"] = doc["models"][0]["id"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="duplicate"):
        load_zoo(manifest)


def test_loader_never_opens_labels_file(tmp_path):
    # The labels file referenced by the manifest does not exist at all;
    # loading must still succeed.
    manifest, _ = _write_models(tmp_path, [20, 20], labels="absent.txt")
    assert not (tmp_path / "absent.txt").exists()
    records, _ = load_zoo(manifest)
    assert len(records) == 2
