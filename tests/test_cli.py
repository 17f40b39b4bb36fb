import argparse
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import shlex
import shutil
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zooadapt
from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt import cli
from zooadapt.cli import _build_parser, main
from zooadapt.diversity import KernelConfig
from zooadapt.ensemble_adapt import AdaptConfig
from zooadapt.inference import forward
from zooadapt.sute import SuteConfig
from zooadapt.synthzoo import (ArchSpec, DomainTransform, ScenarioSpec,
                               TrainConfig, build_zoo, generate_scenario,
                               reference_scenario)
from zooadapt.tensorio import read_tensor, write_tensor

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
    rc = main(["build", str(scen), str(out_dir)])
    assert rc == 0
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert len(doc["models"]) == 24  # 2 domains x 6 archs x 2 configs


def test_estimate_one_model_zoo_single_row(one_model_zoo, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["estimate", str(one_model_zoo), "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + exactly one data row
    assert lines[1].split(",")[-1] == "1"


def test_eval_refuses_a_call_without_labels(zoo, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(zoo), "-o", str(out)])
    assert exc.value.code == 2
    assert "the following arguments are required: labels" in \
        capsys.readouterr().err
    assert not out.exists()


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


# SHA-256 of every file the `zoo` fixture's build writes (mini_scenario
# seed 21, MINI_ARCHS, MINI_GRID), recorded like PIPELINE_DIGESTS. They
# pin the fitted heads directly, not only through what adapt makes of them,
# and the one features file that each (domain, arch) writes.
BUILD_DIGESTS = {
    "dom0-identity-lr0.5ep80.bias.ztf":
        "becd8b461bbb4d6bc66e6a67f9d04d75503593000757f7faf78111a77bae5be7",
    "dom0-identity.features.ztf":
        "bcf5ad30e8a5ece1060ddd83587e11a6b649a45283c464f5e09391f8286e4a38",
    "dom0-identity-lr0.5ep80.weights.ztf":
        "15c510f065046f4d390416cddc3763d01bec8ae35e8368af642da62cf588526e",
    "dom0-proj3-lr0.5ep80.bias.ztf":
        "0e790faddb8693a24ad40830d9e45a497473e603ef61b5020d0e1616da738eff",
    "dom0-proj3.features.ztf":
        "985e7ce7474da98cb379f6e7f6a97009d0cb6fcb11aeb84149d4cfc5a8e92e4d",
    "dom0-proj3-lr0.5ep80.weights.ztf":
        "02c7808c941016c41aa054ab843365f4697991b7eaba57a03d2ac05e20dfc92b",
    "dom1-identity-lr0.5ep80.bias.ztf":
        "3309d74423b0897d6583d29f4ff7a5dd43dc6dd52005c8ed07d5e36e5383ac7e",
    "dom1-identity.features.ztf":
        "3e2c83acd5249b79e93f8d84440a7b7f614b992fd6d56f94eb2d16e63cd87d42",
    "dom1-identity-lr0.5ep80.weights.ztf":
        "fd9dbf16a709f77f3e51f0dd25f955e237c759266e8b6040660464edce4d7bcd",
    "dom1-proj3-lr0.5ep80.bias.ztf":
        "f424b79c030f7ea549ccb2f6d33f3671a1cad212f66872cbc1092e26bf52801c",
    "dom1-proj3.features.ztf":
        "dca85275d0db3e2b1e93522ccd1df9593abaa4395dc709984ca9d114300cb2be",
    "dom1-proj3-lr0.5ep80.weights.ztf":
        "be7dd936ac43609968581aef5e61b657e373a526542551e0802ca35ee591f82c",
    "manifest.json":
        "178ddb634578eab2ddfa9766d8960c32637d976ff91da2257bfe1d80a59768ca",
    "target_labels.txt":
        "0c1696ff700982502d61607cc807ffa581b7786a3dbc6577706a176dcbe0bc4c",
}


def test_build_writes_recorded_bytes(tmp_path):
    build_zoo(generate_scenario(mini_scenario(seed=21)), MINI_ARCHS,
              MINI_GRID, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == BUILD_DIGESTS


# SHA-256 of every file that `zooadapt build` writes for mini_scenario
# seed 21: the reference archs, seeded from the scenario seed, times the
# reference grid.
CLI_BUILD_DIGESTS = {
    "dom0-identity-lr0.05ep15.bias.ztf":
        "3b3c2af53c790c812cdf5e91fa40e92b506b503dae0ea61cd6835bcc2d7d576f",
    "dom0-identity-lr0.05ep15.weights.ztf":
        "71ec09caaac425e8a17b9ef34c8d143f9f056fb1c94be53d76243c81dc63047d",
    "dom0-identity-lr0.5ep300.bias.ztf":
        "d3fd937cafb245153978ad615a69be236208296a4352fafbfb0a316e9bcb3137",
    "dom0-identity-lr0.5ep300.weights.ztf":
        "9f72e8db4896588440290d027daabf8b2bc0a67294feaa9d12d4b7b3cd0a73ab",
    "dom0-identity.features.ztf":
        "bcf5ad30e8a5ece1060ddd83587e11a6b649a45283c464f5e09391f8286e4a38",
    "dom0-poly2-lr0.05ep15.bias.ztf":
        "e726171688a2af4ba7f9e86ec96e011b8b33d8479e117a658780589ded74081d",
    "dom0-poly2-lr0.05ep15.weights.ztf":
        "479d65bce8ebe0c22c9a388126bd0b9544bec6c9ef9da2eaa70509dcf53d4528",
    "dom0-poly2-lr0.5ep300.bias.ztf":
        "b0af2c0f15ea6818595f1b1de0e5b686815e35d98bb1b2a906320c3194899332",
    "dom0-poly2-lr0.5ep300.weights.ztf":
        "da573153dfaf123fc81a080991c7c085f1304df8b5ddaa629eee0941bcee6b4d",
    "dom0-poly2.features.ztf":
        "83322a748efef8b955c65dc80d4b5bcd02b06b09d8ba082693205de62ec2b439",
    "dom0-proj16-lr0.05ep15.bias.ztf":
        "50e73b949ab113316606774f2755008c882cf2c2be3472db10583b6ef41a92ed",
    "dom0-proj16-lr0.05ep15.weights.ztf":
        "7b0816c542057b15f0c835a4e756af1dbe821ae6602e453f3cc54baafc16dddb",
    "dom0-proj16-lr0.5ep300.bias.ztf":
        "9c266608366b92122250a82e85fdca6805d358f216d6bbbb25bc4314c352e069",
    "dom0-proj16-lr0.5ep300.weights.ztf":
        "e1364ba2189d1296b951a40390be49858d072727598dcc240fc8004ea0eaf32a",
    "dom0-proj16.features.ztf":
        "a37da4dd9061fa26f472ce0f1407580251009ef233cca72129b5276ca3d351ee",
    "dom0-proj3-lr0.05ep15.bias.ztf":
        "a3731106ce43a3a06acbcfae79533cd4c28274cbfa8f8edbe62e116b2e0eedef",
    "dom0-proj3-lr0.05ep15.weights.ztf":
        "194a28a33f43c01e714d8f9380f552d2aadbb81584c993ec0a3ed7929bad3b66",
    "dom0-proj3-lr0.5ep300.bias.ztf":
        "4b2bd0d88269e4ccc8f6f32a8b90bc66d1beab07965c797f206df4de711b015b",
    "dom0-proj3-lr0.5ep300.weights.ztf":
        "61650efb99fbe974ef4532c7da640eae5a75b65494bf3e8a874786ba7426f241",
    "dom0-proj3.features.ztf":
        "4e1997a0617fb79d016882e912ee6f081792aaf1be9a1a42ac17e479d83ed6c7",
    "dom0-rff64b2-lr0.05ep15.bias.ztf":
        "4f5567e8a961e3a49a45febd2292601753f1eb62e53371a0d90dac368da96568",
    "dom0-rff64b2-lr0.05ep15.weights.ztf":
        "91dc06e3a6e3037413e52bdfa97c973c839e0ac3d8a76f3d36d98bf2553e9004",
    "dom0-rff64b2-lr0.5ep300.bias.ztf":
        "061f905adbd931275a059c172e36e2109c15427fa800de5a3883241a38788bae",
    "dom0-rff64b2-lr0.5ep300.weights.ztf":
        "970caea7c55c5fd376bd08bfa01ec8ae342dabd6451738d2037f773a6f9a25e3",
    "dom0-rff64b2.features.ztf":
        "cb7cc5110d2efe1567ff8480132e167c9ea37ade3ecf06c8bb74219452852adc",
    "dom0-rff64b8-lr0.05ep15.bias.ztf":
        "30c2126e303ebad3751e418c88f6ace13b00c92dace69bd03b3bb2b50146efd0",
    "dom0-rff64b8-lr0.05ep15.weights.ztf":
        "30db962c3ccf23b150065dbdf3137d8d18bbc4cf9746d2532df73a593eda4146",
    "dom0-rff64b8-lr0.5ep300.bias.ztf":
        "f664c3d969adfbd11efe81dfe42b211a4c3e0eff28267e831039b176cb6f4cfa",
    "dom0-rff64b8-lr0.5ep300.weights.ztf":
        "40dcc6957ec701fdb1f76370eb50488740b853a695606b1bed9b110680f9e4e4",
    "dom0-rff64b8.features.ztf":
        "6e3f2e2b30afac7373850634e782e550418c957fa172e22829d8612878d20a07",
    "dom1-identity-lr0.05ep15.bias.ztf":
        "174fc750c56832b7f8811a0d55f136377a3c2922e8c821d1ebb01aca274f2896",
    "dom1-identity-lr0.05ep15.weights.ztf":
        "f09115a6bf7f102b29144936f5d0328340bdcfb18a5106678dc08e95c7eacb68",
    "dom1-identity-lr0.5ep300.bias.ztf":
        "f775e783f10858ecdfc1963432f7b99af04bb05e8eeb8b51ebfeb693212fd745",
    "dom1-identity-lr0.5ep300.weights.ztf":
        "1ed0efd1c07665f880ff014a8891046c101ac403a0c1f34a9d879c2e9c8164e3",
    "dom1-identity.features.ztf":
        "3e2c83acd5249b79e93f8d84440a7b7f614b992fd6d56f94eb2d16e63cd87d42",
    "dom1-poly2-lr0.05ep15.bias.ztf":
        "e65fb10d6d8e651bf34287780de587a605b7a8ce5c5de33ad447b4ee7b5bb68e",
    "dom1-poly2-lr0.05ep15.weights.ztf":
        "4540f1e0c64a61b4a24d4efeac114faa12b5ff7d46dfec8504e5fc71a2ba2652",
    "dom1-poly2-lr0.5ep300.bias.ztf":
        "ba862b8ac94c89c9b62b35e88e5daf7987dc1557d300208de15789fa877d6d5a",
    "dom1-poly2-lr0.5ep300.weights.ztf":
        "586db7b0d23ec1102fdd12dc00af62e1f6f585832acb83da4efffeed6e3ad7a2",
    "dom1-poly2.features.ztf":
        "7d6f11a8d8487fd8f7c3dc7241d76b801a5810f997724f35f94340ef3be33019",
    "dom1-proj16-lr0.05ep15.bias.ztf":
        "53348778e45f5d945a44332d719f64821d8249558ad7431e0da2a748bb59018b",
    "dom1-proj16-lr0.05ep15.weights.ztf":
        "7583223e1ba7d985ae13235a77039325f9c5a084b389f4cd12e2fb9e31f3b4ce",
    "dom1-proj16-lr0.5ep300.bias.ztf":
        "2bef3f8af94f382db0c5e4cd2d5487a6cce017adc0bc2fe13e243e03d2a5e886",
    "dom1-proj16-lr0.5ep300.weights.ztf":
        "f607d2a3dc0a68830b17bb412c48a244837f3e63e74d0a505ea51728c30b5661",
    "dom1-proj16.features.ztf":
        "be271ef8f99bf0bec963021f108de2aba158315639bece88c8d2fac300a31ae3",
    "dom1-proj3-lr0.05ep15.bias.ztf":
        "4eae2af6dd8c6d6bd9de94001e47aaa03bd8860a6a4cc277e0dfe89834e6737c",
    "dom1-proj3-lr0.05ep15.weights.ztf":
        "2ecf3122fd4930d68355e0af721a36ab9db6b6a30baabc6ac884a21985b83a9a",
    "dom1-proj3-lr0.5ep300.bias.ztf":
        "4ef6d997ed14a0537d6d1879fbc540a412dad97482f7b8e44add243a714cf012",
    "dom1-proj3-lr0.5ep300.weights.ztf":
        "46a5b1933341a926988c8cee2950b6b5d9b8566e21983c3925b3a38580cdf9ce",
    "dom1-proj3.features.ztf":
        "991fefa4051ff8432e4db6441e547761a068366b67accfb3c56ffb7ae4e3ceaa",
    "dom1-rff64b2-lr0.05ep15.bias.ztf":
        "468ec9d03a7060577198f35ff4560fd98b2b49b45e34092309c4a8628af1bd87",
    "dom1-rff64b2-lr0.05ep15.weights.ztf":
        "10104450bd0e00d079544935cb5a7153b55a8fd979fba1cbc65df8a15aae0cca",
    "dom1-rff64b2-lr0.5ep300.bias.ztf":
        "ecf88c6461744847a8af6bfae9d43869ef1c55ab8ef5131b49d565c326cc1b2a",
    "dom1-rff64b2-lr0.5ep300.weights.ztf":
        "de786a022771d302a4f1d061433db06d5ee88449a967f4869ff2cc0376446ca2",
    "dom1-rff64b2.features.ztf":
        "95eb0d4ee6410fcffbb863d3a49754f908147e24d1740d79e48feddd13b9d310",
    "dom1-rff64b8-lr0.05ep15.bias.ztf":
        "f0ac37c8e67e413a8a87cc3edcaf5dca5dd845c89b709e7b4da638112055b6ba",
    "dom1-rff64b8-lr0.05ep15.weights.ztf":
        "c67945fd8124725b945e31018723956d2254b930c39b53f822e97dc4b5db6297",
    "dom1-rff64b8-lr0.5ep300.bias.ztf":
        "1191ce07ceac193d919e65b3bc342ae1e86446b504a2a6951b87c1a13e84167d",
    "dom1-rff64b8-lr0.5ep300.weights.ztf":
        "33d8b37d1360c09c3a0ad55f1e430a90a02ef78b0db7aaf376e22a9d878f2a68",
    "dom1-rff64b8.features.ztf":
        "53f24fa53a983d4e3bb8509c4359ef211344363d7816c71acb4e3a2169c3bf6a",
    "manifest.json":
        "f304b241eb0a58e75a6ff94b87cf92c404e4fa367ad112fe74ca36724732d146",
    "target_labels.txt":
        "0c1696ff700982502d61607cc807ffa581b7786a3dbc6577706a176dcbe0bc4c",
}


def test_cli_build_writes_recorded_bytes(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(mini_scenario(seed=21).to_json())
    out = tmp_path / "zoo"
    assert main(["build", str(scen), str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == CLI_BUILD_DIGESTS


# SHA-256 of every output of test_full_pipeline_byte_identical_reruns,
# recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64).
PIPELINE_DIGESTS = {
    "dom0-identity-lr0.5ep80.bias.ztf.adapted":
        "9094e57c02f3a9227498c5bcf615d285c1b2b92d22fe9003efecd5d3844f30c5",
    "dom0-identity-lr0.5ep80.weights.ztf.adapted":
        "58e17bf080bd4d66f0a0cd35552af2b85200d65677cc8fa846e755d060a56740",
    "dom1-proj3-lr0.5ep80.bias.ztf.adapted":
        "95532d5a960ac1ac4264a3514a1550cfbc5fbfe6f20581ae87f42b314657332b",
    "dom1-proj3-lr0.5ep80.weights.ztf.adapted":
        "3f0ad12c9281e82a082656d79d6514666bdd8c2ae164b1ab5a3ce015823374eb",
    "est.csv":
        "791996871b38804bc391863663edf8bc94738a4a67e62d2efd4664d2bfc0ca01",
    "eval.csv":
        "c69b5c039edb43e6562070270412f43d92cc78da2bfb2ceda317a51071a0cbf0",
    "hist.csv":
        "5ec33820bcdd9c3b97a8dade391b7366c8539a081ddf3b93ee0a5b55eba8742c",
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
        assert main(["adapt", str(zoo), str(sel), "-o", str(hist)]) == 0
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


def _library_block() -> str:
    """README's "Library entry points" Python example."""
    text = README.read_text().split("## Library entry points", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    commands = _walkthrough_commands()
    assert [c[0] for c in commands] == ["build", "estimate", "select",
                                        "adapt", "eval"]
    monkeypatch.chdir(tmp_path)
    # what the walkthrough's python one-liner writes
    Path("scenario.json").write_text(reference_scenario(42).to_json() + "\n")
    for argv in commands:
        assert main(argv) == 0, argv
    # the library example reads the zoo the walkthrough built
    scope = {}
    exec(compile(_library_block(), "README.md", "exec"), scope)
    assert len(scope["report"].rows) == len(scope["records"]) == 36


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
                 str(tmp_path / "h.csv")]) == 0
    picked = json.loads(sel.read_text())["inliers"]
    doc = json.loads(zoo.read_text())
    for entry in doc["models"]:
        if entry["id"] in picked:
            assert (zoo.parent / (entry["weights"] + ".adapted")).exists()
            assert (zoo.parent / (entry["bias"] + ".adapted")).exists()


def test_rebuild_deletes_adapted_heads_of_the_earlier_zoo(tmp_path, capsys):
    """A build into a directory that holds an earlier zoo's adapted heads
    deletes them, so that eval --adapted cannot score them as adapted
    from the new heads."""
    scen, out, sel = tmp_path / "scen.json", tmp_path / "zoo", tmp_path / "sel.json"
    manifest = out / "manifest.json"
    build = ["build", str(scen), str(out)]
    scen.write_text(mini_scenario(seed=21).to_json())
    assert main(build) == 0
    assert main(["select", str(manifest), "-o", str(sel), "--q", "1"]) == 0
    assert main(["adapt", str(manifest), str(sel), "-o",
                 str(tmp_path / "h.csv")]) == 0
    assert list(out.glob("*.adapted"))
    scen.write_text(mini_scenario(seed=22).to_json())
    assert main(build) == 0
    assert not list(out.glob("*.adapted"))
    capsys.readouterr()
    ev, summ = tmp_path / "eval.csv", tmp_path / "sum.csv"
    rc = main(["eval", str(manifest), str(out / "target_labels.txt"), str(sel),
               "-o", str(ev), "--summary", str(summ), "--adapted"])
    assert "error: missing file: " in _single_error_line(capsys, rc)
    assert not ev.exists() and not summ.exists()


def test_estimate_select_and_eval_give_each_model_one_score(zoo, tmp_path):
    """The three scoring stages, run with their defaults, give each model
    the same sute: a rejected model is -inf in both CSVs and absent from
    the selection's sutes, which holds every other model's score."""
    doc = _absolute_manifest(zoo)
    collapsed = dict(doc["models"][0], id="collapsed",
                     weights=str(tmp_path / "collapsed.weights.ztf"),
                     bias=str(tmp_path / "collapsed.bias.ztf"))
    write_tensor(np.zeros_like(read_tensor(doc["models"][0]["weights"])),
                 collapsed["weights"])
    write_tensor(np.array([50.0, 0.0, 0.0]), collapsed["bias"])
    doc["models"].append(collapsed)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    est, sel, ev = tmp_path / "est.csv", tmp_path / "sel.json", tmp_path / "ev.csv"
    assert main(["estimate", str(manifest), "-o", str(est)]) == 0
    assert main(["select", str(manifest), "-o", str(sel)]) == 0
    assert main(["eval", str(manifest), str(zoo.parent / "target_labels.txt"),
                 "-o", str(ev)]) == 0

    def sutes(path):
        with open(path, newline="") as fh:
            return {row["model_id"]: row["sute"] for row in csv.DictReader(fh)}

    estimated = sutes(est)
    assert estimated == sutes(ev)
    assert estimated["collapsed"] == "-inf"
    assert json.loads(sel.read_text())["sutes"] == {
        mid: float(v) for mid, v in estimated.items() if v != "-inf"}


# Every option string of each subcommand, and each positional with its
# nargs (None: exactly one). A new flag or an optional input lands only
# with an edit here: each one lets some stage run with a value the others
# ignore, or in a form the pipeline does not run.
CLI_FLAGS = {
    "build": ["-h", "--help"],
    "estimate": ["-h", "--help", "-o", "--out"],
    "select": ["-h", "--help", "-o", "--out", "--q", "--kernel"],
    "adapt": ["-h", "--help", "-o", "--out", "--labels"],
    "eval": ["-h", "--help", "-o", "--out", "--summary", "--adapted"],
}
CLI_POSITIONALS = {
    "build": [("scenario", None), ("out_dir", None)],
    "estimate": [("manifest", None)],
    "select": [("manifest", None)],
    "adapt": [("manifest", None), ("selection", None)],
    "eval": [("manifest", None), ("labels", None), ("selection", "?")],
}


def test_cli_flag_set_is_pinned():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in p._actions for s in a.option_strings]
            for name, p in sub.choices.items()} == CLI_FLAGS
    assert {name: [(a.dest, a.nargs) for a in p._actions
                   if not a.option_strings]
            for name, p in sub.choices.items()} == CLI_POSITIONALS


# The fields of each configuration a stage runs with. A new field is a
# knob that lands only with an edit here, which says what sets it.
CONFIG_FIELDS = {
    SuteConfig: ["lambda1", "lambda2", "tau_h", "tau_l"],
    KernelConfig: ["kind"],
    TrainConfig: ["lr", "epochs"],
    AdaptConfig: ["gamma1", "gamma2", "tau_recycle", "epochs", "lr"],
}


def test_config_fields_are_pinned():
    assert {cls: [f.name for f in dataclasses.fields(cls)]
            for cls in CONFIG_FIELDS} == CONFIG_FIELDS


# The names the package root exports, modules aside. An export lands or
# goes only with an edit here, which says what callers gain or lose.
PUBLIC_NAMES = [
    "AdaptConfig", "ArchSpec", "DomainTransform", "EnsembleModel",
    "KernelConfig", "ModelRecord", "ScenarioSpec", "SelectionResult",
    "SuteComponents", "SuteConfig", "TargetBundle", "TrainConfig",
    "TransferabilityReport", "ZooAdaptError", "accuracy", "adapt",
    "build_ensemble", "build_zoo", "centered_factor", "div_scores",
    "diversity_set", "ensemble_forward", "ensemble_weights", "forward",
    "generate_scenario", "hsic", "indicator_gd", "indicator_ic",
    "indicator_sc", "load_zoo", "mine_recycle_pairs", "mix_outputs",
    "objective", "phi", "predictive_semantics", "read_labels", "read_tensor",
    "score_zoo", "select", "spearman", "structural_semantics", "summary",
    "sute_score", "write_tensor",
]


def test_public_names_are_pinned():
    assert sorted(name for name, value in vars(zooadapt).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == PUBLIC_NAMES


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
    for i, kernel in enumerate(("rbf", "linear")):
        out = tmp_path / f"sel{i}.json"
        assert main(["select", str(zoo), "-o", str(out),
                     "--kernel", kernel]) == 0
    bad = main(["select", str(zoo), "-o", str(tmp_path / "bad.json"),
                "--kernel", "sigmoid"])
    assert bad != 0


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
    ("models", 5, "models must be a list"),
    ("models", None, "missing key 'models'"),
    ("models", [], "zoo has no models")],
    ids=["id_a_list", "domain_a_number", "features_a_number",
         "meta_a_number", "models_a_number", "models_missing",
         "models_empty"])
def test_manifest_value_of_wrong_type(zoo, tmp_path, capsys, key, value,
                                      message):
    doc = _absolute_manifest(zoo)
    name = doc["models"][1]["id"]
    if key == "models" and value is None:
        del doc["models"]
    elif key == "models":
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
    elif case == "inlier_score_a_boolean":
        doc["sutes"][doc["inliers"][0]] = True
    elif case == "no_inliers":
        doc["outliers"] += doc["inliers"]
        doc["inliers"] = []
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
                                  "inlier_score_a_boolean", "no_inliers",
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
        argv = ["adapt", str(zoo), str(bad), "-o", out]
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


@pytest.mark.parametrize("case", ["adapted_without_summary",
                                  "adapted_without_selection"])
def test_eval_refuses_flags_that_write_nothing(zoo, tmp_path, capsys, case):
    sel = tmp_path / "sel.json"
    assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
    capsys.readouterr()
    labels = str(zoo.parent / "target_labels.txt")
    out, summary = tmp_path / "eval.csv", tmp_path / "sum.csv"
    argv = {
        "adapted_without_summary": [labels, str(sel), "--adapted"],
        "adapted_without_selection": [labels, "--summary", str(summary),
                                      "--adapted"],
    }[case]
    rc = main(["eval", str(zoo)] + argv + ["-o", str(out)])
    assert "ZooAdaptError: eval --" in _single_error_line(capsys, rc)
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("case", ["fewer_than_3_models", "adapted_not_run",
                                  "adapted_weights_wrong_shape",
                                  "adapted_bias_wrong_shape"])
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
        if case != "adapted_not_run":
            assert main(["adapt", str(manifest), str(sel), "-o",
                         str(tmp_path / "h.csv")]) == 0
            first = json.loads(sel.read_text())["inliers"][0]
            entry = next(e for e in json.loads(manifest.read_text())["models"]
                         if e["id"] == first)
            key = "weights" if case == "adapted_weights_wrong_shape" else "bias"
            path = manifest.parent / (entry[key] + ".adapted")
            head = read_tensor(path)
            write_tensor(np.zeros(head.shape[:-1] + (head.shape[-1] + 1,)),
                         path)
            error = f"AdaptError: {path}: shape "
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
    assert main(["adapt", str(zoo), str(sel), "-o",
                 str(tmp_path / "h.csv")]) == 0
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
# adapt's learning rate, set by replacing its one configuration: one that
# AdaptConfig refuses, and one whose adapted heads overflow float32
ADAPT_LR = {"lr_inf": math.inf, "lr_1e300": 1e300}
KERNEL_VALUES = {"kernel": "rbf:abc", "kernel_bandwidth": "rbf:0.5"}
# input files that are not UTF-8 text, and paths that name a directory
NOT_UTF8 = ["labels_not_utf8", "selection_not_utf8", "scenario_not_utf8",
            "manifest_not_utf8"]
A_DIRECTORY = ["labels_a_directory", "selection_a_directory",
               "out_a_directory", "summary_a_directory",
               "adapted_a_directory"]
# one output of each writing stage in a directory that does not exist
NO_DIRECTORY = ["estimate_out_no_directory", "select_out_no_directory",
                "adapt_out_no_directory", "eval_out_no_directory",
                "summary_no_directory"]
# an output path that names one of the stage's inputs, a file of the
# zoo or another output
ALIASED = ["summary_is_out", "estimate_out_is_manifest",
           "select_out_is_manifest", "eval_out_is_selection",
           "eval_out_is_labels", "adapt_out_is_selection",
           "adapt_out_is_adapted_head", "estimate_out_is_features",
           "select_out_is_weights", "adapt_out_is_bias",
           "eval_out_is_adapted_head"]
# each reader of a JSON input, and two documents json.loads cannot parse:
# nesting past the recursion limit, and an integer past the digit limit
JSON_READERS = {"manifest": "ManifestError", "scenario": "SynthError",
                "selection": "SelectionError"}
UNPARSABLE = {"too_deep": "[" * 100_000, "int_too_long": "1" * 5000}
# spellings of a label that Python's int() reads but that are not ASCII
# digits after an optional minus; each replaces the first true label
# with the same value
LABEL_SPELLINGS = {"labels_arabic_digit": lambda v: chr(0x660 + v),
                   "labels_fullwidth": lambda v: chr(0xFF10 + v),
                   "labels_underscore": lambda v: f"0_{v}",
                   "labels_plus": lambda v: f"+{v}"}


@pytest.mark.parametrize("case,error", [
    *[(case, "DiversityError") for case in KERNEL_VALUES],
    ("labels", "SynthError"), ("labels_wrong_count", "SynthError"),
    ("scenario", "SynthError"), *[(case, "AdaptError") for case in ADAPT_LR]]
    + [(case, "SynthError") for case in {**SCENARIO_VALUES, **LABEL_SPELLINGS}]
    + [(case, "ZooAdaptError") for case in NOT_UTF8 + NO_DIRECTORY + ALIASED]
    + [(case, "IsADirectoryError") for case in A_DIRECTORY]
    + [("manifest_a_symlink_loop", "OSError")]
    + [(f"{reader}_{doc}", error) for reader, error in JSON_READERS.items()
       for doc in UNPARSABLE])
def test_bad_tokens_and_input_files(zoo, tmp_path, capsys, monkeypatch, case,
                                    error):
    if case in ("adapted_a_directory", "adapt_out_no_directory", *ALIASED):
        # a copy without adapted heads keeps the shared zoo whole
        zoo = Path(shutil.copytree(zoo.parent, tmp_path / "zoo_copy",
                                   ignore=shutil.ignore_patterns("*.adapted"))
                   ) / zoo.name
    if case in ADAPT_LR:
        monkeypatch.setattr(cli, "AdaptConfig", functools.partial(
            AdaptConfig, lr=ADAPT_LR[case], epochs=1))
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
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text(UNPARSABLE.get(case.split("_", 1)[-1], ""))
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    loop = tmp_path / "loop"
    loop.symlink_to(tmp_path / "loop_back")
    (tmp_path / "loop_back").symlink_to(loop)
    good_labels = str(zoo.parent / "target_labels.txt")
    n = len(Path(good_labels).read_text().split())
    short = tmp_path / "short.txt"
    short.write_text("0\n" * (n - 1))
    respelled = tmp_path / "respelled.txt"
    if case in LABEL_SPELLINGS:
        first, *rest = Path(good_labels).read_text().split()
        respelled.write_text(
            " ".join([LABEL_SPELLINGS[case](int(first)), *rest]),
            encoding="utf-8")
    eval_out = ["-o", str(tmp_path / "eval.csv")]
    no_dir = tmp_path / "no_dir"
    out_no_dir = ["-o", str(no_dir / "out")]
    build = ["build", str(scen), str(tmp_path / "zoo")]
    sel = tmp_path / "sel.json"
    if case in (*ADAPT_LR, "adapted_a_directory", "adapt_out_no_directory",
                *ALIASED):
        assert main(["select", str(zoo), "-o", str(sel), "--q", "1"]) == 0
        capsys.readouterr()
    if case in ("adapted_a_directory", "eval_out_is_adapted_head"):
        assert main(["adapt", str(zoo), str(sel), "-o",
                     str(tmp_path / "h0.csv")]) == 0
        capsys.readouterr()
    if case == "adapted_a_directory":
        # earlier outputs, then the last inlier's adapted weights path
        # becomes a directory: adapt must fail before it writes anything
        last = json.loads(sel.read_text())["inliers"][-1]
        blocked = zoo.parent / f"{last}.weights.ztf.adapted"
        blocked.unlink()
        blocked.mkdir()
    adapted = _adapted_digests(zoo)
    inputs = {p: p.read_bytes() for p in (zoo, sel, Path(good_labels))
              if p.is_file()}
    zoo_files = {p: hashlib.sha256(p.read_bytes()).digest()
                 for p in zoo.parent.iterdir() if p.is_file()}
    entry = json.loads(zoo.read_text())["models"][0]
    head = None  # the first inlier's adapted weights path
    if sel.is_file():
        first = json.loads(sel.read_text())["inliers"][0]
        head = zoo.parent / f"{first}.weights.ztf.adapted"
    argv = {
        **{k: ["select", str(zoo), "-o", str(sel), "--kernel", v]
           for k, v in KERNEL_VALUES.items()},
        "labels": ["eval", str(zoo), str(labels), "-o",
                   str(tmp_path / "eval.csv")],
        "labels_wrong_count": ["eval", str(zoo), str(short)] + eval_out,
        **{k: ["eval", str(zoo), str(respelled)] + eval_out
           for k in LABEL_SPELLINGS},
        "scenario": ["build", str(not_json), str(tmp_path / "zoo")],
        **{k: ["adapt", str(zoo), str(sel), "-o", str(tmp_path / "h.csv")]
           for k in ADAPT_LR},
        "labels_not_utf8": ["eval", str(zoo), str(binary)] + eval_out,
        "selection_not_utf8": ["adapt", str(zoo), str(binary), "-o",
                               str(tmp_path / "h.csv")],
        "scenario_not_utf8": ["build", str(binary), str(tmp_path / "zoo")],
        "manifest_not_utf8": ["estimate", str(binary), "-o",
                              str(tmp_path / "est.csv")],
        "labels_a_directory": ["eval", str(zoo), str(a_dir)] + eval_out,
        "selection_a_directory": ["eval", str(zoo), good_labels, str(a_dir)]
        + eval_out,
        "out_a_directory": ["eval", str(zoo), good_labels, "-o", str(a_dir)],
        "summary_a_directory": ["eval", str(zoo), good_labels, "--summary",
                                str(a_dir)] + eval_out,
        "adapted_a_directory": ["adapt", str(zoo), str(sel), "-o",
                                str(tmp_path / "h.csv")],
        "manifest_a_symlink_loop": ["estimate", str(loop), "-o",
                                    str(tmp_path / "est.csv")],
        "estimate_out_no_directory": ["estimate", str(zoo)] + out_no_dir,
        "select_out_no_directory": ["select", str(zoo)] + out_no_dir,
        "adapt_out_no_directory": ["adapt", str(zoo), str(sel)] + out_no_dir,
        "eval_out_no_directory": ["eval", str(zoo), good_labels] + out_no_dir,
        "summary_no_directory": ["eval", str(zoo), good_labels, "--summary",
                                 str(no_dir / "out")] + eval_out,
        "summary_is_out": ["eval", str(zoo), good_labels, str(sel),
                           "--summary", str(tmp_path / "eval.csv")] + eval_out,
        # another spelling of the manifest's path
        "estimate_out_is_manifest": ["estimate", str(zoo), "-o", str(
            zoo.parent / ".." / zoo.parent.name / zoo.name)],
        "select_out_is_manifest": ["select", str(zoo), "-o", str(zoo)],
        "eval_out_is_selection": ["eval", str(zoo), good_labels, str(sel),
                                  "-o", str(sel)],
        "eval_out_is_labels": ["eval", str(zoo), good_labels,
                               "-o", good_labels],
        "adapt_out_is_selection": ["adapt", str(zoo), str(sel),
                                   "-o", str(sel)],
        "adapt_out_is_adapted_head": ["adapt", str(zoo), str(sel),
                                      "-o", str(head)],
        "estimate_out_is_features": ["estimate", str(zoo), "-o",
                                     str(zoo.parent / entry["features"])],
        "select_out_is_weights": ["select", str(zoo), "-o",
                                  str(zoo.parent / entry["weights"])],
        "adapt_out_is_bias": ["adapt", str(zoo), str(sel), "-o",
                              str(zoo.parent / entry["bias"])],
        "eval_out_is_adapted_head": ["eval", str(zoo), good_labels, str(sel),
                                     "-o", str(head), "--summary",
                                     str(tmp_path / "eval.csv"), "--adapted"],
        **{f"manifest_{doc}": ["estimate", str(unparsable), "-o",
                               str(tmp_path / "est.csv")]
           for doc in UNPARSABLE},
        **{f"scenario_{doc}": ["build", str(unparsable),
                               str(tmp_path / "zoo")] for doc in UNPARSABLE},
        **{f"selection_{doc}": ["adapt", str(zoo), str(unparsable), "-o",
                                str(tmp_path / "h.csv")]
           for doc in UNPARSABLE},
    }.get(case, build)
    line = _single_error_line(capsys, main(argv))
    assert error in line
    if case in NOT_UTF8:
        assert f"{binary}: not UTF-8 text" in line
    if case == "labels_wrong_count":
        assert f"{short}: expected {n} labels, got {n - 1}" in line
    if case in LABEL_SPELLINGS:
        assert line.endswith(f"{respelled}: labels must be integers")
    if case == "adapted_a_directory":
        assert str(blocked) in line and not any(blocked.iterdir())
    if case in NO_DIRECTORY:
        assert f"output {no_dir / 'out'}: no directory {no_dir}" in line
    if case in ALIASED:
        assert "same file as" in line
    if case.endswith(tuple(UNPARSABLE)):
        assert "valid JSON" in line  # "invalid JSON" or "not valid JSON"
    if case == "adapt_out_is_adapted_head":
        assert not head.exists()
    assert {p: p.read_bytes() for p in inputs} == inputs
    assert {p: hashlib.sha256(p.read_bytes()).digest()
            for p in zoo_files} == zoo_files
    assert not no_dir.exists()
    assert not (tmp_path / "zoo").exists()
    assert not (tmp_path / "est.csv").exists()
    assert not (tmp_path / "h.csv").exists()
    assert not (tmp_path / "eval.csv").exists()
    assert _adapted_digests(zoo) == adapted


def _adapted_digests(manifest) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in manifest.parent.glob("*.adapted") if p.is_file()}


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
        "adapt": ["adapt", str(mini_zoo), str(path), "-o", out],
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
