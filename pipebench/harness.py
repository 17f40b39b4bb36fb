"""One run of the pipeline benchmark on one workload and seed.

The run builds the workload's zoo, then runs the CLI stages in-process
through `zooadapt.cli.main` in a closed loop: estimate, select --q 0,
select, adapt and eval, one pass after another, each pass waiting for the
last. Every build
and pass is checked (the correctness gate) before its numbers count.

Every timed metric is CPU time of this process (user + system), with BLAS
held to one thread by run.py. On an idle machine that equals the stage's
wall time; on a shared host it leaves out the time the process waits for
a core (README.md, "Clock"). Wall times go to the detail file next to them.
"""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

from zooadapt import cli, kernels
from zooadapt.ensemble_adapt import ADAPTED_SUFFIX
from zooadapt.errors import ZooAdaptError
from zooadapt.tensorio import read_tensor

from spans import PER_LAYER, Tracer, layer_metrics
from workloads import DROPPED, WORKLOADS

SETUP_BUILDS = 5  # setup_s is the median of this many builds
PIPELINE = ("estimate", "select", "adapt", "eval")
# A timed pass also runs `select --q 0`: load, scoring and the greedy pass
# without diversity, work that does not depend on how many anchors the
# seed's greedy pass keeps.
TIMED = ("estimate", "select_q0", "select", "adapt", "eval")

END_TO_END = {
    "setup_s": "s",
    "scoring_s": "s",
    "diversity_ms_per_pair": "ms",
    "adapt_s": "s",
    "peak_rss_mb": "MB",
    "rho_sute": "1",
    "selected_acc": "1",
    "adapted_acc": "1",
}
# Reported with the per-layer metrics: untraced medians of the same run and
# the tracing overhead.
RUN_LEVEL = {"pipeline_s": "s", "select_s": "s", "trace_overhead": "1"}
# Timed metrics of one pass, from its stage times.
PER_PASS = {
    # the three stages that load the zoo and score every model
    "scoring_s": lambda t, pairs: t["estimate"] + t["select_q0"] + t["eval"],
    "diversity_ms_per_pair":
        lambda t, pairs: 1e3 * (t["select"] - t["select_q0"]) / pairs,
    "adapt_s": lambda t, pairs: t["adapt"],
}
QUALITY = {"rho_sute": "spearman_sute_rho",
           "selected_acc": "selected_ensemble_accuracy",
           "adapted_acc": "adapted_ensemble_accuracy"}


class GateFailure(Exception):
    """A stage failed or its outputs broke the correctness gate."""


def _paths(d: Path) -> dict[str, Path]:
    zoo = d / "zoo"
    return {"scenario": d / "scenario.json", "zoo": zoo,
            "manifest": zoo / "manifest.json",
            "labels": zoo / "target_labels.txt",
            "estimate": d / "estimate.csv", "select": d / "selection.json",
            "select_q0": d / "selection_q0.json",
            "adapt": d / "history.csv", "eval": d / "eval.csv",
            "summary": d / "summary.csv"}


def stage_argv(stage: str, p: dict[str, Path], wl) -> list[str]:
    m = str(p["manifest"])
    return {
        "build": ["build", str(p["scenario"]), str(p["zoo"])],
        "estimate": ["estimate", m, "-o", str(p["estimate"])],
        "select_q0": ["select", m, "-o", str(p["select_q0"]), "--q", "0",
                      "--kernel", wl.kernel],
        "select": ["select", m, "-o", str(p["select"]), "--q", "2",
                   "--kernel", wl.kernel],
        "adapt": ["adapt", m, str(p["select"]), "-o", str(p["adapt"])],
        "eval": ["eval", m, str(p["labels"]), str(p["select"]),
                 "-o", str(p["eval"]), "--summary", str(p["summary"]),
                 "--adapted"],
    }[stage]


def run_stage(argv: list[str]) -> tuple[float, float]:
    """CPU and wall time of one `zooadapt` subcommand run in-process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = process_time(), perf_counter()
            rc = cli.main(argv)
            elapsed = process_time() - c0, perf_counter() - t0
    except SystemExit as e:  # argparse rejected the arguments
        raise GateFailure(f"{argv[0]}: exit {e.code}: {err.getvalue().strip()}")
    except Exception:  # a traceback is a failed stage, not a crashed benchmark
        raise GateFailure(f"{argv[0]}: {traceback.format_exc()}")
    errors = [line for line in (out.getvalue() + err.getvalue()).splitlines()
              if line.startswith("error:")]
    if rc != 0 or errors:
        raise GateFailure(f"{argv[0]}: exit {rc}: {' | '.join(errors)}")
    return elapsed


def _digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def build(p: dict[str, Path], wl) -> dict:
    shutil.rmtree(p["zoo"], ignore_errors=True)
    cpu, wall = run_stage(stage_argv("build", p, wl))
    return {"seconds": cpu, "wall": wall,
            "digest": _digest(sorted(p["zoo"].iterdir()))}


def pipeline_pass(p: dict[str, Path], wl, stages=TIMED) -> dict:
    """Run the stages once, in order; check and digest the outputs."""
    for f in [p[s] for s in (*TIMED, "summary")] + _adapted(p):
        f.unlink(missing_ok=True)
    both = {stage: run_stage(stage_argv(stage, p, wl)) for stage in stages}
    times = {stage: cpu for stage, (cpu, _) in both.items()}

    sel = json.loads(p["select"].read_text())
    for s in {"select", "select_q0"} & set(stages):
        a = json.loads(p[s].read_text())["audit"]
        if a["sute_evaluations"] != 2 * a["finite_models"] - 1:
            raise GateFailure(f"{s} audit: {a['sute_evaluations']} score "
                              f"evaluations for {a['finite_models']} finite models")
    with open(p["adapt"], newline="") as fh:
        losses = [float(v) for row in list(csv.reader(fh))[1:] for v in row[1:]]
    if not losses or not all(math.isfinite(v) for v in losses):
        raise GateFailure("history: missing or non-finite loss")
    adapted = _adapted(p)
    if len(adapted) != 2 * len(sel["inliers"]):
        raise GateFailure(f"adapt wrote {len(adapted)} tensors for "
                          f"{len(sel['inliers'])} inliers")
    for f in adapted:
        try:
            finite = np.isfinite(read_tensor(f)).all()
        except ZooAdaptError as e:
            raise GateFailure(f"{f.name}: {e}")
        if not finite:
            raise GateFailure(f"{f.name}: non-finite adapted head")
    with open(p["summary"], newline="") as fh:
        summary = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}

    anchors = len(sel["transferable_set"])
    finite = sel["audit"]["finite_models"]
    return {
        "times": times,  # CPU seconds; wall seconds below
        "walls": {stage: wall for stage, (_, wall) in both.items()},
        # select scores each of the finite - anchors remaining candidates
        # against every anchor: one HSIC per pair
        "hsic_pairs": anchors * (finite - anchors),
        "quality": {k: summary[v] for k, v in QUALITY.items()},
        "digest": _digest([p[s] for s in (*PIPELINE, "summary")] + adapted),
    }


def _adapted(p: dict[str, Path]) -> list[Path]:
    return sorted(p["zoo"].glob("*" + ADAPTED_SUFFIX))


class _Tally:
    """Attempted and failed operations, and the digest each must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, kind: str, fn, *args):
        self.attempted += 1
        try:
            result = fn(*args)
        except GateFailure as e:
            self.failures.append(str(e))
            return None
        if self.digests.setdefault(kind, result["digest"]) != result["digest"]:
            self.failures.append(f"{kind}: outputs differ from the first {kind} "
                                 "of this seed")
            return None
        return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).
    Not getrusage: on Linux its maximum carries the parent's peak across
    the exec that started this process."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return math.nan


def _median(values):
    return statistics.median(values) if values else math.nan


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "zooadapt_backend": kernels.active_backend()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Run one workload; returns the result line plus the run's details.

    Without trace: one timed build, one untimed warm-up pass, then timed
    passes while the next one fits in `seconds`, with the other
    SETUP_BUILDS - 1 timed builds spread over that window; end-to-end
    metrics.
    With trace: one build, the warm-up and the same loop of untraced passes,
    then one traced build, one traced pass and one more untraced pass (with
    the loop's last pass, the baseline for the tracing overhead); per-layer
    metrics.
    """
    wl = {**WORKLOADS, **DROPPED}[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = root / ".pipebench_work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".pipebench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        work.mkdir(parents=True)
        p = _paths(work)
        p["scenario"].write_text(wl.scenario(seed).to_json())
        detail = _measure(wl, p, seconds, trace, out_dir / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  environment=environment())
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
    return detail


def _measure(wl, p, seconds, trace, spans_path) -> dict:
    tally = _Tally()

    def checked(kind, fn, *args):
        gc.collect()
        return tally.run(kind, fn, *args)

    builds = [checked("build", build, p, wl)]
    passes = []
    rss = math.nan
    if any(builds):
        checked("pass", pipeline_pass, p, wl)  # warm-up, untimed
        # The peak of one build and one pass: what running each stage once
        # costs. Later passes in the same process raised it by about 1 MB
        # in some runs and not in others, a cost of the loop alone.
        rss = peak_rss_mb()
        # Start a pass only while the last one says it fits in the window;
        # a pass longer than the window still runs once. The other builds
        # are spread evenly over the window, so that their median, like the
        # passes', covers the host's speed over the whole run.
        n_builds = 1 if trace else SETUP_BUILDS
        start = perf_counter()
        while True:
            t0 = perf_counter()
            if len(builds) < n_builds and \
                    t0 - start >= len(builds) * seconds / n_builds:
                builds.append(checked("build", build, p, wl))
                continue
            passes.append(checked("pass", pipeline_pass, p, wl))
            now = perf_counter()
            if (now - start) + (now - t0) > seconds:
                break
    builds = [b for b in builds if b]
    passes = [r for r in passes if r]
    if trace:
        units = {**PER_LAYER, **RUN_LEVEL}
        values = _traced(wl, p, tally, passes, spans_path) if passes else {}
    else:
        units = END_TO_END
        values = {
            "setup_s": [b["seconds"] for b in builds],
            **{k: [f(r["times"], r["hsic_pairs"]) for r in passes]
               for k, f in PER_PASS.items()},
            "peak_rss_mb": [rss],
            **{k: [r["quality"][k] for r in passes] for k in QUALITY},
        }
    metrics = {k: {"value": _median(values.get(k, [])), "unit": u,
                   "samples": len(values.get(k, []))} for k, u in units.items()}
    correct = not tally.failures and all(
        m["samples"] and math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": correct, "attempted": tally.attempted,
            "failed": len(tally.failures), "failures": tally.failures,
            "metrics": metrics,
            "builds_s": [b["seconds"] for b in builds],
            "builds_wall_s": [b["wall"] for b in builds],
            "passes": [{"times": r["times"], "walls": r["walls"],
                        "hsic_pairs": r["hsic_pairs"]}
                       for r in passes]}


def _pipeline_s(result) -> float:
    return sum(result["times"][s] for s in PIPELINE)


def _traced(wl, p, tally, passes, spans_path) -> dict[str, list[float]]:
    gc.collect()
    with Tracer() as tracer:
        built = tally.run("build", build, p, wl)
        traced = (tally.run("pass", pipeline_pass, p, wl, PIPELINE)
                  if built else None)
    tracer.write_jsonl(spans_path)
    if traced is None:
        return {}
    # The host's speed drifts over minutes, so the traced pass is compared
    # with the untraced passes run just before and just after it.
    gc.collect()
    after = tally.run("pass", pipeline_pass, p, wl, PIPELINE)
    if after is None:
        return {}
    values = {k: [v] for k, v in layer_metrics(tracer).items()}
    values["pipeline_s"] = [_pipeline_s(r) for r in passes]
    values["select_s"] = [r["times"]["select"] for r in passes]
    around = (_pipeline_s(passes[-1]) + _pipeline_s(after)) / 2
    values["trace_overhead"] = [_pipeline_s(traced) / around - 1.0]
    return values
