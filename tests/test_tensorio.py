import csv
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt import tensorio
from zooadapt.sute import score_zoo, sute_score
from zooadapt.synthzoo import TrainConfig, build_zoo, generate_scenario
from zooadapt.tensorio import (BadMagicError, DimOverflowError, ManifestError,
                               NonFiniteValueError, PayloadLengthError,
                               load_zoo, read_tensor, save_manifest,
                               write_csv, write_tensor)


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


# --- CSV reports ------------------------------------------------------------

def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_csv_float_cells_parse_back_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    # random bit patterns reach every exponent, subnormals included
    drawn = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64).view(np.float64)
    values = [5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
              1.7976931348623157e308, -0.0, 0.0, 0.1, 1 / 3,
              *map(float, drawn[np.isfinite(drawn)])]
    p = tmp_path / "f.csv"
    write_csv(p, ["value", "twice"], ([v, v] for v in values))
    rows = _read_csv(p)
    assert rows[0] == ["value", "twice"] and len(rows) == len(values) + 1
    for v, (cell, again) in zip(values, rows[1:]):
        assert cell == again == repr(v)
        assert struct.pack("<d", float(cell)) == struct.pack("<d", v)


def test_csv_nan_none_int_and_str_cells(tmp_path):
    p = tmp_path / "c.csv"
    write_csv(p, ["model_id", "sute", "rank", "acc"],
              [["dom1-poly2", None, 7, math.nan], ["a,b", 1.5, -2, None]])
    assert _read_csv(p) == [["model_id", "sute", "rank", "acc"],
                            ["dom1-poly2", "-inf", "7", "nan"],
                            ["a,b", "1.5", "-2", "-inf"]]


def test_csv_lines_end_in_lf_only(tmp_path):
    p = tmp_path / "lf.csv"
    write_csv(p, ["a", "b"], [[1, 2.0], ["x", None]])
    assert p.read_bytes() == b"a,b\n1,2.0\nx,-inf\n"


def test_csv_without_rows_is_header_only(tmp_path):
    p = tmp_path / "h.csv"
    write_csv(p, ["metric", "value"], iter([]))
    assert p.read_bytes() == b"metric,value\n"


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
    records, _ = load_zoo(mini_zoo)
    for m in records:
        got = sute_score(m)
        want = sute_score(replace(m, features=m.features.astype(np.float64)))
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


# --- shared features --------------------------------------------------------

@pytest.fixture(scope="module")
def shared_zoo(tmp_path_factory):
    """A built zoo whose two configs per (domain, arch) name one features file."""
    grid = MINI_GRID + [TrainConfig(lr=0.05, epochs=15)]
    return build_zoo(generate_scenario(mini_scenario()), MINI_ARCHS, grid,
                     tmp_path_factory.mktemp("shared_zoo"))


def test_records_naming_one_features_file_share_its_array(shared_zoo):
    records, _ = load_zoo(shared_zoo)
    entries = json.loads(shared_zoo.read_text())["models"]
    groups = {}
    for e, m in zip(entries, records):
        groups.setdefault(e["features"], []).append(m)
    assert len(groups) == 4 and len(records) == 8
    for members in groups.values():
        assert len(members) == 2
        assert all(m.features is members[0].features for m in members)
    firsts = [members[0].features for members in groups.values()]
    assert len({id(f) for f in firsts}) == len(firsts)


def test_each_distinct_file_is_read_once(shared_zoo, monkeypatch):
    reads = []
    real = tensorio.read_tensor

    def counting(path):
        reads.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(tensorio, "read_tensor", counting)
    load_zoo(shared_zoo)
    entries = json.loads(shared_zoo.read_text())["models"]
    assert sorted(reads) == sorted(
        {e["features"] for e in entries}
        | {e[k] for e in entries for k in ("weights", "bias")})


def test_loaded_features_are_read_only(shared_zoo):
    records, _ = load_zoo(shared_zoo)
    with pytest.raises(ValueError):
        records[0].features[0, 0] = 0.0
    with pytest.raises(ValueError):
        records[-1].features += 1.0


def test_one_features_file_per_entry_loads_and_scores_the_same(shared_zoo,
                                                               tmp_path):
    # the earlier layout: each entry names its own copy of the features
    doc = json.loads(shared_zoo.read_text())
    for entry in doc["models"]:
        for key in ("features", "weights", "bias"):
            name = f"{entry['id']}.{key}.ztf"
            (tmp_path / name).write_bytes(
                (shared_zoo.parent / entry[key]).read_bytes())
            entry[key] = name
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(doc, indent=2) + "\n")
    shared, _ = load_zoo(shared_zoo)
    copies, _ = load_zoo(old)
    assert len({id(m.features) for m in copies}) == len(copies)
    for a, b in zip(score_zoo(shared).rows, score_zoo(copies).rows):
        assert a == b  # ids and score components
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.structural, b.structural)
