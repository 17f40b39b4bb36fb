"""Checks of the benchmark itself. Takes about a minute:

    PYTHONPATH=src python -m pytest pipebench
"""

import collections
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from spans import PER_LAYER, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The linear kernel builds no pairwise distances, so on large_zoo this
# wrapper must stay at zero rather than be hit.
NEVER_CALLED = {"large_zoo": {"kernels.pairwise_sq_dists"}}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced run (seconds=0: one timed pass) of every workload at seed 42."""
    runs = {}
    for name in WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        detail = harness.run_workload(name, 42, 0, True, root)
        spans = root / ".pipebench_out" / f"{name}-seed42-trace1.spans.jsonl"
        names = collections.Counter(json.loads(line)["name"]
                                    for line in spans.read_text().splitlines())
        runs[name] = detail, names
    return runs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_wrapped_name_is_hit(traced, workload):
    detail, names = traced[workload]
    assert detail["correct"], detail["failures"]
    never = NEVER_CALLED.get(workload, set())
    assert {n for n in TRACED if names[n] == 0} == never
    assert set(names) <= set(TRACED)


def test_reference_seed42_exact_counts(traced):
    metrics = {k: m["value"] for k, m in traced["reference"][0]["metrics"].items()}
    assert metrics["diversity.hsic.calls"] == 68
    assert metrics["sute.ensemble_components.calls"] == 35  # r - 1
    assert metrics["selection.audit_evaluations"] == 2 * 36 - 1
    assert metrics["ensemble_adapt.mine_recycle_pairs.calls"] == 50
    assert metrics["synthzoo.fit_head.calls"] == 36


def test_reference_seed42_end_to_end(tmp_path):
    detail = harness.run_workload("reference", 42, 0, False, tmp_path)
    assert detail["correct"], detail["failures"]
    assert detail["failed"] == 0
    assert detail["attempted"] == harness.SETUP_BUILDS + 2
    metrics = {k: m["value"] for k, m in detail["metrics"].items()}
    assert set(metrics) == set(harness.END_TO_END)
    assert metrics["rho_sute"] == pytest.approx(0.8818, abs=5e-5)
    assert metrics["selected_acc"] == pytest.approx(0.970)
    assert metrics["adapted_acc"] == pytest.approx(0.9725)
    assert metrics["diversity_ms_per_pair"] > 0 and metrics["scoring_s"] > 0


def test_changed_outputs_count_as_failed():
    tally = harness._Tally()
    outputs = iter(["a", "a", "b"])
    results = [tally.run("pass", lambda: {"digest": next(outputs)})
               for _ in range(3)]
    assert results[2] is None
    assert tally.attempted == 3 and len(tally.failures) == 1


def test_failed_stage_counts_as_failed(tmp_path):
    tally = harness._Tally()
    p = harness._paths(tmp_path)  # no zoo on disk
    assert tally.run("pass", harness.pipeline_pass, p,
                     WORKLOADS["reference"]) is None
    assert tally.failures and tally.failures[0].startswith("estimate:")


def test_peak_rss_is_the_process_own():
    # getrusage's maximum would report this test's 200 MB in the child
    ballast = bytearray(b"\1") * (200 * 2**20)
    proc = subprocess.run(
        [sys.executable, "-c", "import harness; print(harness.peak_rss_mb())"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{HERE}"})
    del ballast
    assert 0 < float(proc.stdout) < 150, proc.stderr


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **PER_LAYER, **harness.RUN_LEVEL}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
