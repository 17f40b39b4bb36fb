import json

import pytest

from conftest import MINI_ARCHS, MINI_GRID, child_env, mini_scenario
from zooadapt.cli import main
from zooadapt.synthzoo import (ArchSpec, DomainTransform, ScenarioSpec,
                               TrainConfig, build_zoo, generate_scenario)


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


def test_eval_with_labels_has_accuracy_and_plot(zoo, tmp_path):
    labels = zoo.parent / "target_labels.txt"
    out = tmp_path / "eval.csv"
    plot = tmp_path / "plot.csv"
    summary = tmp_path / "summary.csv"
    rc = main(["eval", str(zoo), str(labels), "-o", str(out),
               "--plot", str(plot), "--summary", str(summary)])
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[-1] == "accuracy"
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "rank,accuracy"
    assert len(plot_lines) == 5  # 4 models
    metrics = dict(line.split(",") for line in
                   summary.read_text().splitlines()[1:])
    assert "spearman_sute_rho" in metrics
    assert "uniform_ensemble_accuracy" in metrics


def test_full_pipeline_byte_identical_reruns(zoo, tmp_path):
    labels = zoo.parent / "target_labels.txt"

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
        assert main(["eval", str(zoo), str(labels), str(sel), "-o", str(ev),
                     "--summary", str(summ), "--adapted"]) == 0
        return [p.read_bytes() for p in (est, sel, hist, ev, summ)]

    assert run("r1") == run("r2")


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


def test_select_flip_diversity_changes_pick(zoo, tmp_path):
    a = tmp_path / "low.json"
    b = tmp_path / "high.json"
    assert main(["select", str(zoo), "-o", str(a), "--q", "1"]) == 0
    assert main(["select", str(zoo), "-o", str(b), "--q", "1",
                 "--flip-diversity"]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["transferable_set"] == db["transferable_set"]
    assert da["diversity_set"] != db["diversity_set"]


def test_threads_env_var_accepted():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "import zooadapt; print('ok')"],
        env=child_env(ZOOADAPT_THREADS="1", ZOOADAPT_BACKEND=None),
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "ok"


def _single_error_line(capsys, rc) -> str:
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("key", ["id", "domain", "arch", "features",
                                 "weights", "bias"])
def test_manifest_entry_missing_key(zoo, tmp_path, capsys, key):
    doc = json.loads(zoo.read_text())
    for entry in doc["models"]:
        for k in ("features", "weights", "bias"):
            entry[k] = str(zoo.parent / entry[k])
    name = doc["models"][1]["id"]
    del doc["models"][1][key]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["estimate", str(manifest), "-o", str(tmp_path / "est.csv")])
    line = _single_error_line(capsys, rc)
    assert "ManifestError" in line and f"missing key {key!r}" in line
    assert ("#1" if key == "id" else repr(name)) in line


def test_manifest_target_size_not_an_integer(zoo, tmp_path, capsys):
    doc = json.loads(zoo.read_text())
    doc["target"]["n"] = "ninety"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["estimate", str(manifest), "-o", str(tmp_path / "est.csv")])
    assert "ManifestError" in _single_error_line(capsys, rc)


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
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["adapt", "eval"])
@pytest.mark.parametrize("case", ["not_json", "missing_key",
                                  "inlier_not_in_manifest",
                                  "outlier_not_in_manifest",
                                  "inlier_not_in_sutes",
                                  "inlier_score_not_a_number"])
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


@pytest.mark.parametrize("case,error", [
    ("kernel", "DiversityError"), ("archs", "SynthError"),
    ("grid", "SynthError"), ("labels", "SynthError"),
    ("scenario", "SynthError")])
def test_bad_tokens_and_input_files(zoo, tmp_path, capsys, case, error):
    scen = tmp_path / "scen.json"
    scen.write_text(mini_scenario(seed=22).to_json())
    not_json = tmp_path / "scen.txt"
    not_json.write_text("C = 3\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\nx\n")
    build = ["build", str(scen), str(tmp_path / "zoo")]
    argv = {
        "kernel": ["select", str(zoo), "-o", str(tmp_path / "sel.json"),
                   "--kernel", "rbf:abc"],
        "archs": build + ["--archs", "proj-x"],
        "grid": build + ["--grid", "lr=0.5,epochs=x"],
        "labels": ["eval", str(zoo), str(labels), "-o",
                   str(tmp_path / "eval.csv")],
        "scenario": ["build", str(not_json), str(tmp_path / "zoo")],
    }[case]
    assert error in _single_error_line(capsys, main(argv))
