import contextlib
import copy
import hashlib
import io
import json
import math
import shlex
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt.cli import main
from zooadapt.inference import forward
from zooadapt.synthzoo import (ArchSpec, DomainTransform, ScenarioSpec,
                               TrainConfig, build_zoo, generate_scenario,
                               reference_scenario)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_zoo")
    manifest = build_zoo(generate_scenario(mini_scenario(seed=21)),
                         MINI_ARCHS, MINI_GRID, out)
    return manifest


@pytest.fixture(scope="module")
def one_model_zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_one")
    spec = ScenarioSpec(num_classes=3, d0=3, num_domains=1,
                        domain_transforms=[DomainTransform(noise=0.2)],
                        samples_per_domain=45,
                        target_transform=DomainTransform(noise=0.2),
                        target_samples=30, seed=2)
    return build_zoo(generate_scenario(spec), [ArchSpec(kind="identity")],
                     [TrainConfig(lr=0.5, epochs=60)], out)


def test_build_subcommand(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(mini_scenario(seed=22).to_json())
    out_dir = tmp_path / "zoo"
    rc = main(["build", str(scen), str(out_dir),
               "--archs", "identity,proj-3", "--grid", "lr=0.5,epochs=40"])
    assert rc == 0
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert len(doc["models"]) == 4  # 2 domains x 2 archs x 1 config


def test_estimate_one_model_zoo_single_row(one_model_zoo, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["estimate", str(one_model_zoo), "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + exactly one data row
    assert lines[1].split(",")[-1] == "1"


def test_eval_without_labels_has_no_accuracy_columns(zoo, tmp_path):
    out = tmp_path / "eval.csv"
    rc = main(["eval", str(zoo), "-o", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "accuracy" not in header
    assert header[:4] == ["model_id", "domain", "arch", "sute"]


def test_eval_with_labels_has_accuracy_and_summary(zoo, tmp_path):
    labels = zoo.parent / "target_labels.txt"
    out = tmp_path / "eval.csv"
    summary = tmp_path / "summary.csv"
    rc = main(["eval", str(zoo), str(labels), "-o", str(out),
               "--summary", str(summary)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[-2:] == ["rank", "accuracy"]
    assert len(lines) == 5  # 4 models
    metrics = dict(line.split(",") for line in
                   summary.read_text().splitlines()[1:])
    assert "spearman_sute_rho" in metrics
    assert "uniform_ensemble_accuracy" in metrics


# SHA-256 of every output of test_full_pipeline_byte_identical_reruns,
# recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64).
PIPELINE_DIGESTS = {
    "dom0-identity-lr0.5ep80.bias.ztf.adapted":
        "2849003eb8c175023650429de51a70868c81af8e16566262e2920da874a6128c",
    "dom0-identity-lr0.5ep80.weights.ztf.adapted":
        "c49483356d730f059a0078f9d60add9d681905d148fb88d5277424d21f1d1e1a",
    "dom1-proj3-lr0.5ep80.bias.ztf.adapted":
        "f0efba179f4ea52de3dd42c30c1eb95d56ed914f69dd38d18b80ae0ca6b31017",
    "dom1-proj3-lr0.5ep80.weights.ztf.adapted":
        "1c9434f135317df3fa09d68f83312c6d84f5cfc8393a68a1cd7daaf67cb7c48d",
    "est.csv":
        "791996871b38804bc391863663edf8bc94738a4a67e62d2efd4664d2bfc0ca01",
    "eval.csv":
        "c69b5c039edb43e6562070270412f43d92cc78da2bfb2ceda317a51071a0cbf0",
    "hist.csv":
        "52477ff0ba8bd09abebc6283c9370e0d90831436905753678095b7009a5f06ed",
    "sel.json":
        "808808bfc3f9ed78d1a49b9be36b23be5dbdc554528b81046b5a3b66cbab4378",
    "sum.csv":
        "b57c07f082f6705dc877aaced2a93a2e25f8d71a9817efb6d6213cf5b836702d",
}


def test_full_pipeline_byte_identical_reruns(zoo, tmp_path):
    """Two runs of estimate, select, adapt and eval give the same bytes,
    and those bytes are the ones PIPELINE_DIGESTS records: the history,
    selection, estimate, eval and summary CSVs and every .adapted tensor.

    The digests depend on numpy and its BLAS, so another numpy build may
    need its own. Otherwise they are re-recorded only by a change that
    states why its output bytes change."""
    labels = zoo.parent / "target_labels.txt"
    entries = json.loads(zoo.read_text())["models"]

    def adapted(sel):
        inliers = json.loads(sel.read_text())["inliers"]
        names = [e[k] + ".adapted" for e in entries if e["id"] in inliers
                 for k in ("weights", "bias")]
        return {name: (zoo.parent / name).read_bytes() for name in names}

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        est = d / "est.csv"
        sel = d / "sel.json"
        hist = d / "hist.csv"
        ev = d / "eval.csv"
        summ = d / "sum.csv"
        assert main(["estimate", str(zoo), "-o", str(est)]) == 0
        assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
        assert main(["adapt", str(zoo), str(sel), "-o", str(hist),
                     "--epochs", "5"]) == 0
        outputs = adapted(sel)
        assert main(["eval", str(zoo), str(labels), str(sel), "-o", str(ev),
                     "--summary", str(summ), "--adapted"]) == 0
        for p in (est, sel, hist, ev, summ):
            outputs[p.name] = p.read_bytes()
        return outputs

    first = run("r1")
    assert first == run("r2")
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in first.items()} == PIPELINE_DIGESTS


def _walkthrough_commands() -> list[list[str]]:
    """The argv of each `zooadapt` command in README's CLI walkthrough,
    with backslash continuations joined."""
    text = README.read_text().split("## CLI walkthrough", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("zooadapt ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    commands = _walkthrough_commands()
    assert [c[0] for c in commands] == ["build", "estimate", "select",
                                        "adapt", "eval"]
    monkeypatch.chdir(tmp_path)
    # what the walkthrough's python one-liner writes
    Path("scenario.json").write_text(reference_scenario(42).to_json() + "\n")
    for argv in commands:
        assert main(argv) == 0, argv


def test_adapt_refuses_labels_flag(zoo, tmp_path, capsys):
    sel = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(sel)]) == 0
    rc = main(["adapt", str(zoo), str(sel), "-o", str(tmp_path / "h.csv"),
               "--labels", str(zoo.parent / "target_labels.txt")])
    assert rc != 0
    assert "label-free" in capsys.readouterr().err


def test_adapt_writes_adapted_tensors(zoo, tmp_path):
    sel = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(sel)]) == 0
    assert main(["adapt", str(zoo), str(sel), "-o",
                 str(tmp_path / "h.csv"), "--epochs", "2"]) == 0
    picked = json.loads(sel.read_text())["inliers"]
    doc = json.loads(zoo.read_text())
    for entry in doc["models"]:
        if entry["id"] in picked:
            assert (zoo.parent / (entry["weights"] + ".adapted")).exists()
            assert (zoo.parent / (entry["bias"] + ".adapted")).exists()


def test_missing_manifest_reports_error(tmp_path, capsys):
    rc = main(["estimate", str(tmp_path / "nope.json"),
               "-o", str(tmp_path / "x.csv")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(zoo):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", str(zoo), "--frobnicate"])
    assert exc.value.code != 0


def test_select_kernel_flag_variants(zoo, tmp_path):
    for i, kernel in enumerate(("rbf", "linear", "rbf:0.5")):
        out = tmp_path / f"sel{i}.json"
        assert main(["select", str(zoo), "-o", str(out),
                     "--kernel", kernel]) == 0
    bad = main(["select", str(zoo), "-o", str(tmp_path / "bad.json"),
                "--kernel", "sigmoid"])
    assert bad != 0


def test_estimate_tau_overrides(zoo, tmp_path):
    out = tmp_path / "est.csv"
    rc = main(["estimate", str(zoo), "-o", str(out),
               "--tau-l", "0.0001", "--tau-h", "1.0"])
    assert rc == 0


def _single_error_line(capsys, rc) -> str:
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def _absolute_manifest(manifest) -> dict:
    """The manifest document with absolute tensor paths, so a modified
    copy can be written to another directory."""
    doc = json.loads(manifest.read_text())
    for entry in doc["models"]:
        for k in ("features", "weights", "bias"):
            entry[k] = str(manifest.parent / entry[k])
    return doc


@pytest.mark.parametrize("key", ["id", "domain", "arch", "features",
                                 "weights", "bias"])
def test_manifest_entry_missing_key(zoo, tmp_path, capsys, key):
    doc = _absolute_manifest(zoo)
    name = doc["models"][1]["id"]
    del doc["models"][1][key]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["estimate", str(manifest), "-o", str(tmp_path / "est.csv")])
    line = _single_error_line(capsys, rc)
    assert "ManifestError" in line and f"missing key {key!r}" in line
    assert ("#1" if key == "id" else repr(name)) in line


@pytest.mark.parametrize("key,value,message", [
    ("id", ["m"], "key 'id' must be a string"),
    ("domain", 3, "key 'domain' must be a string"),
    ("features", 5, "key 'features' must be a string"),
    ("meta", 5, "key 'meta' must be an object"),
    ("models", 5, "models must be a list")],
    ids=["id_a_list", "domain_a_number", "features_a_number",
         "meta_a_number", "models_a_number"])
def test_manifest_value_of_wrong_type(zoo, tmp_path, capsys, key, value,
                                      message):
    doc = _absolute_manifest(zoo)
    name = doc["models"][1]["id"]
    if key == "models":
        doc["models"] = value
    else:
        doc["models"][1][key] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["estimate", str(manifest), "-o", str(tmp_path / "est.csv")])
    line = _single_error_line(capsys, rc)
    assert "ManifestError" in line and message in line
    if key != "models":
        assert ("#1" if key == "id" else repr(name)) in line


@pytest.mark.parametrize("value", ["ninety", 90.9, "90", True],
                         ids=["word", "float", "digit_string", "bool"])
def test_manifest_target_size_not_an_integer(zoo, tmp_path, capsys, value):
    doc = json.loads(zoo.read_text())
    doc["target"]["n"] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["estimate", str(manifest), "-o", str(tmp_path / "est.csv")])
    line = _single_error_line(capsys, rc)
    assert "ManifestError" in line and "target n and C must be integers" in line


@pytest.mark.parametrize("command", ["estimate", "select"])
@pytest.mark.parametrize("classes", [0, 1])
def test_manifest_target_class_count_below_two(tmp_path, capsys, command,
                                               classes):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"version": 1, "target": {"n": 5, "C": classes}, "models": []}))
    rc = main([command, str(manifest), "-o", str(tmp_path / "out")])
    line = _single_error_line(capsys, rc)
    assert "ManifestError" in line and f"C={classes}" in line


def _bad_selection(doc: dict, case: str) -> str:
    if case == "not_json":
        return "{"
    if case == "missing_key":
        del doc["inliers"]
    elif case == "inlier_not_in_manifest":
        doc["inliers"].append("nope")
        doc["sutes"]["nope"] = 0.0
    elif case == "outlier_not_in_manifest":
        doc["outliers"].append("nope")
    elif case == "inlier_not_in_sutes":
        del doc["sutes"][doc["inliers"][0]]
    elif case == "inlier_score_not_a_number":
        doc["sutes"][doc["inliers"][0]] = "high"
    elif case == "inlier_score_too_large":
        doc["sutes"][doc["inliers"][0]] = 10 ** 400
    elif case == "inliers_a_string":
        doc["inliers"] = doc["inliers"][0]
    elif case == "outliers_null":
        doc["outliers"] = None
    elif case == "id_not_a_string":
        doc["transferable_set"].append(7)
    elif case == "sutes_a_list":
        doc["sutes"] = []
    elif case == "audit_a_string":
        doc["audit"] = "none"
    elif case == "inlier_twice":
        doc["inliers"].append(doc["inliers"][0])
    elif case == "inlier_also_outlier":
        doc["outliers"].append(doc["inliers"][0])
    elif case == "outlier_twice":
        doc["outliers"].append(doc["outliers"][0])
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["adapt", "eval"])
@pytest.mark.parametrize("case", ["not_json", "missing_key",
                                  "inlier_not_in_manifest",
                                  "outlier_not_in_manifest",
                                  "inlier_not_in_sutes",
                                  "inlier_score_not_a_number",
                                  "inlier_score_too_large",
                                  "inliers_a_string", "outliers_null",
                                  "id_not_a_string", "sutes_a_list",
                                  "audit_a_string", "inlier_twice",
                                  "inlier_also_outlier", "outlier_twice"])
def test_bad_selection_json(zoo, tmp_path, capsys, command, case):
    good = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(good), "--q", "1"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(_bad_selection(json.loads(good.read_text()), case))
    capsys.readouterr()
    out = str(tmp_path / "out.csv")
    if command == "adapt":
        argv = ["adapt", str(zoo), str(bad), "-o", out, "--epochs", "1"]
    else:
        argv = ["eval", str(zoo), str(zoo.parent / "target_labels.txt"),
                str(bad), "-o", out]
    line = _single_error_line(capsys, main(argv))
    assert "SelectionError" in line


def test_select_negative_q(zoo, tmp_path, capsys):
    rc = main(["select", str(zoo), "-o", str(tmp_path / "sel.json"),
               "--q", "-1"])
    assert "SelectionError: q must be >= 0" in _single_error_line(capsys, rc)


@pytest.mark.parametrize("label", ["3", "9", "-3"])
def test_eval_refuses_label_outside_class_range(zoo, tmp_path, capsys, label):
    lines = (zoo.parent / "target_labels.txt").read_text().split()
    lines[len(lines) // 2] = label
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(lines) + "\n")
    out, summary = tmp_path / "eval.csv", tmp_path / "sum.csv"
    rc = main(["eval", str(zoo), str(labels), "-o", str(out),
               "--summary", str(summary)])
    assert "labels must be in [0, 3)" in _single_error_line(capsys, rc)
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("case", ["summary_without_labels",
                                  "adapted_without_summary",
                                  "adapted_without_selection"])
def test_eval_refuses_flags_that_write_nothing(zoo, tmp_path, capsys, case):
    sel = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
    capsys.readouterr()
    labels = str(zoo.parent / "target_labels.txt")
    out, summary = tmp_path / "eval.csv", tmp_path / "sum.csv"
    argv = {
        "summary_without_labels": ["--summary", str(summary)],
        "adapted_without_summary": [labels, str(sel), "--adapted"],
        "adapted_without_selection": [labels, "--summary", str(summary),
                                      "--adapted"],
    }[case]
    rc = main(["eval", str(zoo)] + argv + ["-o", str(out)])
    assert "ZooAdaptError: eval --" in _single_error_line(capsys, rc)
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("case", ["fewer_than_3_models", "adapted_not_run"])
def test_eval_writes_nothing_when_its_summary_fails(one_model_zoo, tmp_path,
                                                    capsys, case):
    if case == "fewer_than_3_models":
        manifest, error = one_model_zoo, "SynthError: need at least 3 points"
        extra = []
    else:
        manifest = build_zoo(generate_scenario(mini_scenario(seed=21)),
                             MINI_ARCHS, MINI_GRID, tmp_path / "fresh")
        error = "missing file: "
        sel = tmp_path / "sel.json"
        assert main(["select", str(manifest), "-o", str(sel), "--q", "1"]) == 0
        capsys.readouterr()
        extra = [str(sel), "--adapted"]
    out, summary = tmp_path / "eval.csv", tmp_path / "sum.csv"
    rc = main(["eval", str(manifest), str(manifest.parent / "target_labels.txt")]
              + extra + ["-o", str(out), "--summary", str(summary)])
    assert error in _single_error_line(capsys, rc)
    assert not out.exists() and not summary.exists()


def test_eval_forwards_each_model_once(zoo, tmp_path, monkeypatch):
    """eval --summary --adapted forwards every model once, to score it,
    and each inlier once more, with its adapted head; the selected
    ensemble reuses the scored probabilities."""
    sel = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
    assert main(["adapt", str(zoo), str(sel), "-o", str(tmp_path / "h.csv"),
                 "--epochs", "1"]) == 0
    calls = []

    def counted(m):
        calls.append(m.model_id)
        return forward(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zooadapt") and \
                getattr(mod, "forward", None) is forward:
            monkeypatch.setattr(mod, "forward", counted)
    assert main(["eval", str(zoo), str(zoo.parent / "target_labels.txt"),
                 str(sel), "-o", str(tmp_path / "eval.csv"),
                 "--summary", str(tmp_path / "sum.csv"), "--adapted"]) == 0
    ids = [e["id"] for e in json.loads(zoo.read_text())["models"]]
    inliers = json.loads(sel.read_text())["inliers"]
    assert inliers and sorted(calls) == sorted(ids + inliers)


SCENARIO_VALUES = {"samples_a_string": ("samples_per_domain", "60"),
                   "seed_null": ("seed", None), "C_a_float": ("C", 3.0),
                   "seed_negative": ("seed", -1)}
# build flags whose values parse but would train nothing, or would give
# two models one id
BUILD_VALUES = {"epochs_negative": ("--grid", "epochs=-3"),
                "lr_nan": ("--grid", "lr=nan"),
                "lr_negative": ("--grid", "lr=-1"),
                "momentum_above_one": ("--grid", "momentum=1.5"),
                "l2_inf": ("--grid", "l2=inf"),
                "rff_bandwidth_zero": ("--archs", "rff-64-0"),
                "rff_bandwidth_inf": ("--archs", "rff-64-inf"),
                "ids_collide_grid": (
                    "--archs", "identity", "--grid",
                    "lr=0.5,epochs=20,momentum=0.9;lr=0.5,epochs=20,momentum=0.5"),
                "ids_collide_archs": ("--archs", "proj-3,proj-3")}
KERNEL_VALUES = {"kernel": "rbf:abc", "kernel_nan": "rbf:nan",
                 "kernel_inf": "rbf:inf"}
# input files that are not UTF-8 text, and paths that name a directory
NOT_UTF8 = ["labels_not_utf8", "selection_not_utf8", "scenario_not_utf8",
            "manifest_not_utf8"]
A_DIRECTORY = ["labels_a_directory", "selection_a_directory",
               "out_a_directory"]


@pytest.mark.parametrize("case,error", [
    *[(case, "DiversityError") for case in KERNEL_VALUES], ("archs", "SynthError"),
    ("grid", "SynthError"), ("labels", "SynthError"),
    ("scenario", "SynthError"), ("seed_flag_negative", "SynthError"),
    ("lambda1_nan", "SuteError"), ("lr_inf", "AdaptError"),
    ("lr_1e300", "AdaptError")]
    + [(case, "SynthError") for case in [*SCENARIO_VALUES, *BUILD_VALUES]]
    + [(case, "UnicodeDecodeError") for case in NOT_UTF8]
    + [(case, "IsADirectoryError") for case in A_DIRECTORY])
def test_bad_tokens_and_input_files(zoo, tmp_path, capsys, case, error):
    doc = json.loads(mini_scenario(seed=22).to_json())
    if case in SCENARIO_VALUES:
        key, value = SCENARIO_VALUES[case]
        doc[key] = value
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(doc))
    not_json = tmp_path / "scen.txt"
    not_json.write_text("C = 3\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\nx\n")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x80\xff\x00ZTF")
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    good_labels = str(zoo.parent / "target_labels.txt")
    eval_out = ["-o", str(tmp_path / "eval.csv")]
    build = ["build", str(scen), str(tmp_path / "zoo")]
    sel = tmp_path / "sel.json"
    if case in ("lr_inf", "lr_1e300"):
        assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
        capsys.readouterr()
    adapted = {p: p.read_bytes() for p in zoo.parent.glob("*.adapted")}
    argv = {
        **{k: ["select", str(zoo), "-o", str(sel), "--kernel", v]
           for k, v in KERNEL_VALUES.items()},
        "archs": build + ["--archs", "proj-x"],
        "grid": build + ["--grid", "lr=0.5,epochs=x"],
        "labels": ["eval", str(zoo), str(labels), "-o",
                   str(tmp_path / "eval.csv")],
        "scenario": ["build", str(not_json), str(tmp_path / "zoo")],
        "seed_flag_negative": build + ["--seed", "-1"],
        "lambda1_nan": ["estimate", str(zoo), "-o", str(tmp_path / "est.csv"),
                        "--lambda1", "nan"],
        "lr_inf": ["adapt", str(zoo), str(sel), "-o", str(tmp_path / "h.csv"),
                   "--lr", "inf", "--epochs", "1"],
        "lr_1e300": ["adapt", str(zoo), str(sel), "-o", str(tmp_path / "h.csv"),
                     "--lr", "1e300", "--epochs", "1"],
        "labels_not_utf8": ["eval", str(zoo), str(binary)] + eval_out,
        "selection_not_utf8": ["adapt", str(zoo), str(binary), "-o",
                               str(tmp_path / "h.csv"), "--epochs", "1"],
        "scenario_not_utf8": ["build", str(binary), str(tmp_path / "zoo")],
        "manifest_not_utf8": ["estimate", str(binary), "-o",
                              str(tmp_path / "est.csv")],
        "labels_a_directory": ["eval", str(zoo), str(a_dir)] + eval_out,
        "selection_a_directory": ["eval", str(zoo), good_labels, str(a_dir)]
        + eval_out,
        "out_a_directory": ["eval", str(zoo), good_labels, "-o", str(a_dir)],
    }.get(case, build + list(BUILD_VALUES.get(case, ())))
    assert error in _single_error_line(capsys, main(argv))
    assert not (tmp_path / "zoo").exists()
    assert not (tmp_path / "est.csv").exists()
    assert not (tmp_path / "h.csv").exists()
    assert not (tmp_path / "eval.csv").exists()
    assert {p: p.read_bytes() for p in zoo.parent.glob("*.adapted")} == adapted


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_inputs(mini_zoo, tmp_path_factory):
    """A work directory, a valid selection of mini_zoo and its manifest."""
    work = tmp_path_factory.mktemp("fuzz")
    sel = work / "sel.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["select", str(mini_zoo), "-o", str(sel), "--q", "1"]) == 0
    return work, json.loads(sel.read_text()), _absolute_manifest(mini_zoo)


def _corrupt_ztf(raw: bytes, data) -> bytes:
    """One corruption of a ZTF file: a truncation, one header byte, the
    rank or one dimension, or a NaN or infinite payload value."""
    header = 8 + 4 * struct.unpack_from("<I", raw, 4)[0]
    kind = data.draw(st.sampled_from(["truncate", "header_byte", "rank_or_dim",
                                      "non_finite"]))
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    if kind == "header_byte":
        at = data.draw(st.integers(0, header - 1))
        out[at] = data.draw(st.integers(0, 255))
    elif kind == "rank_or_dim":
        at = data.draw(st.sampled_from(range(4, header, 4)))
        struct.pack_into("<I", out, at, data.draw(st.integers(0, 2**32 - 1)))
    else:
        at = data.draw(st.sampled_from(range(header, len(raw), 4)))
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        struct.pack_into("<f", out, at, value)
    return bytes(out)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_fuzzed_value_ends_in_success_or_one_error_line(mini_zoo, fuzz_inputs,
                                                        data, value):
    """One value of a valid selection, manifest entry or target descriptor
    replaced by an arbitrary JSON value, or one tensor of the manifest
    replaced by a corrupted copy: the stage succeeds or prints one error
    line. Scenario files are not fuzzed: a valid but huge sample count
    makes build allocate that many rows."""
    work, selection, manifest = fuzz_inputs
    command = data.draw(st.sampled_from(["estimate", "adapt", "eval", "ztf"]))
    if command == "ztf":
        doc = copy.deepcopy(manifest)
        container = data.draw(st.sampled_from(doc["models"]))
        key = data.draw(st.sampled_from(["features", "weights", "bias"]))
        bad = work / "bad.ztf"
        bad.write_bytes(_corrupt_ztf(Path(container[key]).read_bytes(), data))
        value = str(bad)
    elif command == "estimate":
        doc = copy.deepcopy(manifest)
        where = data.draw(st.sampled_from(
            ["target"] + list(range(len(doc["models"])))))
        container = doc["target"] if where == "target" else doc["models"][where]
    else:
        doc = copy.deepcopy(selection)
        where = data.draw(st.sampled_from(
            [None, "sutes"] + [k for k in ("inliers", "outliers") if doc[k]]))
        container = doc if where is None else doc[where]
    if command != "ztf":
        key = data.draw(st.sampled_from(
            range(len(container)) if isinstance(container, list)
            else sorted(container)))
    container[key] = value
    if command == "ztf":
        command = "estimate"
    path = work / ("manifest.json" if command == "estimate" else "bad.json")
    path.write_text(json.dumps(doc))

    out = str(work / "out.csv")
    argv = {
        "estimate": ["estimate", str(path), "-o", out],
        "adapt": ["adapt", str(mini_zoo), str(path), "-o", out,
                  "--epochs", "1"],
        "eval": ["eval", str(mini_zoo),
                 str(mini_zoo.parent / "target_labels.txt"), str(path),
                 "-o", out, "--summary", str(work / "sum.csv")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        lines = err.getvalue().splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
