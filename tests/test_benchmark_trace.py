"""The benchmark (pipebench/) imports package names and its traced run
(pipebench/spans.py) wraps package functions by their "<module>.<function>"
names; a rename or removal breaks it."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from conftest import MINI_ARCHS, MINI_GRID, mini_scenario
from zooadapt import synthzoo
from zooadapt.cli import main

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_package_callable():
    spans = _load_spans()
    missing = []
    for qual in spans.TRACED:
        module, name = qual.split(".")
        mod = importlib.import_module(f"zooadapt.{module}")
        if not callable(getattr(mod, name, None)):
            missing.append(qual)
    assert spans.TRACED and missing == []


def _zooadapt_uses(tree):
    """(module, name) for each name imported from a zooadapt module and
    each attribute read on a zooadapt module imported by name."""
    importlib.import_module("zooadapt.cli")  # loads every module
    aliases = {}  # local name -> zooadapt module path
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "zooadapt"):
            for a in node.names:
                uses.append((node.module, a.name))
                obj = getattr(importlib.import_module(node.module), a.name, None)
                if isinstance(obj, types.ModuleType):
                    aliases[a.asname or a.name] = obj.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr))
    return uses


def test_every_zooadapt_name_the_benchmark_uses_exists():
    checked, missing = 0, []
    for path in sorted(SPANS.parent.glob("*.py")):
        for module, name in _zooadapt_uses(ast.parse(path.read_text())):
            checked += 1
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert checked and missing == []


def test_hsic_probe_reads_factor_arguments():
    # The traced run's probe on diversity.hsic reads its positional
    # arguments; a signature change would break only the benchmark.
    spans = _load_spans()
    diversity = importlib.import_module("zooadapt.diversity")
    rng = np.random.default_rng(0)
    candidates = [rng.dirichlet(np.ones(3), size=12) for _ in range(3)]
    anchors = [rng.dirichlet(np.ones(3), size=12) for _ in range(2)]
    tracer = spans.Tracer()
    with tracer:
        diversity.div_scores(candidates, anchors)
    metrics = spans.layer_metrics(tracer)
    assert metrics["diversity.hsic.calls"] == len(candidates) * len(anchors)
    assert metrics["diversity.gram_bytes"] == 8 * 12 * 12


def test_traced_build_fits_once_per_arch_and_config(tmp_path):
    # fit_head takes every domain's heads of one (arch, config) at once,
    # and the wrappers change no byte of what the build writes
    spans = _load_spans()
    data = synthzoo.generate_scenario(mini_scenario())
    grid = MINI_GRID + [synthzoo.TrainConfig(lr=0.05, epochs=15)]
    synthzoo.build_zoo(data, MINI_ARCHS, grid, tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer:
        synthzoo.build_zoo(data, MINI_ARCHS, grid, tmp_path / "traced")
    cells = len(MINI_ARCHS) * len(grid)
    assert spans.layer_metrics(tracer)["synthzoo.fit_head.calls"] == cells

    def written(d):
        return {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}

    plain = written("plain")
    # one features file per (domain, arch), a head's two tensors per
    # model, the manifest and the labels file
    assert len(plain) == data.spec.num_domains * len(MINI_ARCHS) * (
        1 + 2 * len(grid)) + 2
    assert written("traced") == plain


def test_traced_adapt_mines_recycle_pairs_once(tmp_path):
    # the outlier heads are frozen, so adapt mines its recycled pairs once
    # for all epochs, and the wrappers change no byte that adapt writes
    spans = _load_spans()
    data = synthzoo.generate_scenario(mini_scenario())
    manifest = synthzoo.build_zoo(data, MINI_ARCHS, MINI_GRID, tmp_path / "zoo")
    sel = tmp_path / "sel.json"
    assert main(["select", str(manifest), "-o", str(sel), "--q", "1"]) == 0
    hist = tmp_path / "hist.csv"
    argv = ["adapt", str(manifest), str(sel), "-o", str(hist)]

    def written():
        adapted = sorted(manifest.parent.glob("*.adapted"))
        return hist.read_bytes(), {p.name: p.read_bytes() for p in adapted}

    assert main(argv) == 0
    plain = written()
    for p in manifest.parent.glob("*.adapted"):
        p.unlink()
    hist.unlink()
    tracer = spans.Tracer()
    with tracer:
        assert main(argv) == 0
    mined = [s for s in tracer.spans
             if s.name == "ensemble_adapt.mine_recycle_pairs"]
    assert len(mined) == 1
    assert tracer.spans[mined[0].parent].name == "ensemble_adapt.adapt"
    assert plain[1] and written() == plain
