#!/usr/bin/env python3
"""Record the benchmark's numbers in pipebench/RECORD.json.

Rewrites the whole file from one set of runs (about an hour on 2 cores):

- full sets: every workload on each seed in SEEDS, with --trace 0 and
  --trace 1, so a later speed claim can be re-checked on the second seed;
- spread: SETS sets of one --trace 0 run per seed in SPREAD_SEEDS on every
  workload. Each end-to-end metric gets its median and quartile spread,
  (Q3 - Q1) / median as statistics.quantiles gives them, next to its bound,
  and how much worse each later set's median is than the first set's.
  Timed metrics also get the median and spread of the same runs' wall
  times, the clock the benchmark does not report;
- repeat spread: REPEATS runs of every workload on the one seed
  REPEAT_SEED, the run-to-run spread with the inputs held fixed;
- dropped workloads: one spread set of each workload in
  workloads.DROPPED, the figures behind leaving it out;
- quality panel: the quality metrics of every workload on seeds
  QUALITY_SEEDS, and the quartile spread they give over random draws of
  ten of those seeds, the spread their bounds must cover;
- the environment, the CPU caches lscpu reports, kernels.share and the
  computed HSIC gram bytes.

    python3 pipebench/record.py
"""

import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "RECORD.json"
SEEDS = (42, 7)
SPREAD_SEEDS = range(1, 11)
SETS = 2
REPEAT_SEED, REPEATS = 42, 5
QUALITY_SEEDS = range(1, 41)
DRAWS = 5000

# The quality panel runs in this process: one BLAS thread, as in run.py.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))
import harness  # noqa: E402
from workloads import DROPPED, WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One run of run.py; returns its detail file (every sample, environment)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stdout}{proc.stderr}")
    detail = ROOT / ".pipebench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(detail.read_text())


def lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except FileNotFoundError:
        return {}
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    return {key: fields[key].strip() for key in
            ("Model name", "L1d cache", "L2 cache", "L3 cache") if key in fields}


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def wall_metrics(detail) -> dict[str, float]:
    """A run's timed metrics computed from its wall times instead."""
    return {"setup_s": statistics.median(detail["builds_wall_s"]),
            **{k: statistics.median(f(r["walls"], r["hsic_pairs"])
                                    for r in detail["passes"])
               for k, f in harness.PER_PASS.items()}}


def spread_set(workload, seeds, seconds, bounds) -> dict:
    """One --trace 0 run per seed; each metric's median and quartile spread,
    and for the timed ones the same from the same runs' wall times."""
    values: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    for seed in seeds:
        detail = bench(workload, seed, 0, seconds)
        for k, m in detail["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        for k, v in wall_metrics(detail).items():
            walls.setdefault(k, []).append(v)
    out = {}
    for k, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        out[k] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                  "spread": _spread(v), "bound": bounds[k], "values": v}
        if k in walls:
            out[k]["wall"] = {"median": statistics.median(walls[k]),
                              "spread": _spread(walls[k]), "values": walls[k]}
    return out


def quality_panel(workload: str) -> dict:
    """Quality metrics on every seed of QUALITY_SEEDS, one build and pass
    each, and the quantiles of their ten-seed spread over random draws."""
    wl = WORKLOADS[workload]
    work = ROOT / ".pipebench_work" / f"quality-{workload}"
    values: dict[str, list[float]] = {k: [] for k in harness.QUALITY}
    for seed in QUALITY_SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        p = harness._paths(work)
        p["scenario"].write_text(wl.scenario(seed).to_json())
        harness.build(p, wl)
        quality = harness.pipeline_pass(p, wl, harness.PIPELINE)["quality"]
        for k, v in quality.items():
            values[k].append(v)
    shutil.rmtree(work, ignore_errors=True)
    rng = random.Random(0)
    out = {}
    for k, v in values.items():
        draws = sorted(_spread(rng.sample(v, 10)) for _ in range(DRAWS))
        out[k] = {"values": v, "ten_seed_spread": {
            q: draws[round(float(q) * (DRAWS - 1))]
            for q in ("0.5", "0.9", "0.99", "1")}}
    return out


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = doc["run_seconds"]
    workloads = [w["name"] for w in doc["workloads"]]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"]}

    panel = {w: quality_panel(w) for w in workloads}
    runs, item5, grams = {}, {}, {}
    for seed in SEEDS:
        for w in workloads:
            untraced, traced = (bench(w, seed, t, seconds) for t in (0, 1))
            env = traced["environment"]
            layer = {k: m["value"] for k, m in traced["metrics"].items()}
            runs.setdefault(w, {})[str(seed)] = {
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "end_to_end": untraced["metrics"],
                "per_layer": traced["metrics"],
            }
            item5.setdefault(w, {})[str(seed)] = {
                k: layer[k] for k in ("kernels.share", "kernels.setup_share")}
            grams[w] = layer["diversity.gram_bytes"]

    sets = [{w: spread_set(w, SPREAD_SEEDS, seconds, bounds) for w in workloads}
            for _ in range(SETS)]
    # share by which a later set's median is worse than the first's
    worse = [{w: {k: (m["median"] - sets[0][w][k]["median"])
                  / sets[0][w][k]["median"]
                  * (1 if better[k] == "lower" else -1)
                  for k, m in by_metric.items()}
              for w, by_metric in later.items()} for later in sets[1:]]
    repeat = {w: spread_set(w, [REPEAT_SEED] * REPEATS, seconds, bounds)
              for w in workloads}
    dropped = {w: spread_set(w, SPREAD_SEEDS, seconds, bounds) for w in DROPPED}

    record = {
        "environment": {**env, "cpu": lscpu()},
        "full_sets": {"seeds": list(SEEDS), "run_seconds": seconds,
                      "runs": runs},
        "kernels_share": {
            "what": "kernel time / traced pipeline_s (setup_share: / traced "
                    "build); input to ROADMAP item 5",
            "backend": env["zooadapt_backend"],
            "numba": "present" if importlib.util.find_spec("numba") else "absent",
            "by_workload": item5},
        "gram_bytes": {
            "what": "computed, not measured: one float64 n x n HSIC gram",
            "by_workload": grams,
            "roadmap_grid_n": {str(n): 8 * n * n for n in (400, 2000, 4000)},
            "cpu_caches": lscpu()},
        "spread": {"seeds": list(SPREAD_SEEDS), "run_seconds": seconds,
                   "sets": sets, "worse_than_first_set": worse},
        "repeat_spread": {"seed": REPEAT_SEED, "runs": REPEATS,
                          "run_seconds": seconds, "by_workload": repeat},
        "dropped_workloads": {"seeds": list(SPREAD_SEEDS),
                              "run_seconds": seconds, "by_workload": dropped},
        "quality_panel": {"seeds": list(QUALITY_SEEDS), "draws": DRAWS,
                          "bounds": {k: bounds[k] for k in harness.QUALITY},
                          "by_workload": panel},
    }
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
