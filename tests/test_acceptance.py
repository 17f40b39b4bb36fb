"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line. Budgeted runs are wall-clock timed in-process."""

import csv
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import hsic_p, make_model, objective_term
from zooadapt.cli import main as cli_main
from zooadapt.inference import forward, mix_outputs, predictive_semantics
from zooadapt.kernels import softmax_rows
from zooadapt.selection import select
from zooadapt.sute import SuteConfig, score_zoo, sute_score
from zooadapt.evaluate import accuracy, read_labels, spearman
from zooadapt.synthzoo import (REFERENCE_GRID, build_zoo, generate_scenario,
                               poisoned_scenario, reference_archs,
                               reference_scenario)
from zooadapt.tensorio import load_zoo

def report(capfd, num: int, desc: str, ok: bool) -> None:
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [criterion {num}] {desc}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _build_reference(work, seed):
    out = work / f"ref{seed}"
    if not (out / "manifest.json").exists():
        data = generate_scenario(reference_scenario(seed))
        build_zoo(data, reference_archs(), REFERENCE_GRID, out)
    return out / "manifest.json", out / "target_labels.txt"


def test_criterion_1_sute_ranking_quality(work, capfd):
    t0 = time.perf_counter()
    manifest, labels_path = _build_reference(work, 42)
    records, target = load_zoo(manifest)
    labels = read_labels(labels_path, target.num_classes)
    accs = np.array([accuracy(forward(m), labels) for m in records])

    report_rows = score_zoo(records).rows
    sute_vals = np.array([-np.inf if r.components.sute is None
                          else r.components.sute for r in report_rows])
    ane_vals = np.array([r.ane for r in report_rows])
    acc_by_row = np.array([accs[i] for i, _ in enumerate(report_rows)])
    res_sute = spearman(sute_vals, acc_by_row)
    res_ane = spearman(ane_vals, acc_by_row)
    elapsed = time.perf_counter() - t0

    spread = accs.max() - accs.min()
    ok = (len(records) == 36 and spread >= 0.30
          and res_sute.rho >= 0.70 and res_sute.p_value < 0.05
          and res_sute.rho >= res_ane.rho and elapsed < 60.0)
    report(capfd, 1, f"ranking quality: rho_sute={res_sute.rho:.3f} "
              f"(p={res_sute.p_value:.2e}) vs rho_ane={res_ane.rho:.3f}, "
              f"spread={100 * spread:.1f}pts, {elapsed:.1f}s", ok)


def _selected_ensemble_accuracy(records, sel, labels):
    by_id = {m.model_id: m for m in records}
    from zooadapt.ensemble_adapt import build_ensemble, ensemble_forward

    ens = build_ensemble([by_id[i] for i in sel.inliers],
                         [sel.sutes[i] for i in sel.inliers])
    return accuracy(ensemble_forward(ens), labels)


def test_criterion_2_selection_ensemble(work, capfd):
    t0 = time.perf_counter()
    manifest, labels_path = _build_reference(work, 42)
    records, target = load_zoo(manifest)
    labels = read_labels(labels_path, target.num_classes)
    cfg = SuteConfig()
    sel = select(records, cfg, q=2)
    sel_acc = _selected_ensemble_accuracy(records, sel, labels)
    best = max(accuracy(forward(m), labels) for m in records)

    pz = work / "poison"
    if not (pz / "manifest.json").exists():
        build_zoo(generate_scenario(poisoned_scenario(42)),
                  reference_archs(), REFERENCE_GRID, pz)
    precords, ptarget = load_zoo(pz / "manifest.json")
    plabels = read_labels(pz / "target_labels.txt", ptarget.num_classes)
    paccs = np.array([accuracy(forward(m), plabels) for m in precords])
    near_chance = (paccs <= 1.0 / ptarget.num_classes + 0.05).mean()
    psel = select(precords, q=2)
    psel_acc = _selected_ensemble_accuracy(precords, psel, plabels)
    uniform = mix_outputs([forward(m) for m in precords],
                          np.full(len(precords), 1.0 / len(precords)))
    uni_acc = accuracy(uniform, plabels)
    elapsed = time.perf_counter() - t0

    ok = (sel_acc >= best - 0.010 and near_chance >= 0.30
          and psel_acc >= uni_acc + 0.050 and elapsed < 60.0)
    report(capfd, 2, f"selection ensemble: ref {sel_acc:.3f} vs best {best:.3f}; "
              f"poisoned ({100 * near_chance:.0f}% near-chance) "
              f"{psel_acc:.3f} vs uniform {uni_acc:.3f}, {elapsed:.1f}s", ok)


def test_criterion_3_adaptation_gain(work, capfd):
    t0 = time.perf_counter()
    gains = {}
    drops_ok = True
    for seed in (0, 1, 2):
        out = work / f"adapt{seed}"
        out.mkdir(exist_ok=True)
        scen = out / "scenario.json"
        scen.write_text(reference_scenario(seed).to_json())
        zoo = out / "zoo"
        assert cli_main(["build", str(scen), str(zoo)]) == 0
        man = zoo / "manifest.json"
        sel = out / "sel.json"
        summ = out / "summary.csv"
        assert cli_main(["select", str(man), "-o", str(sel)]) == 0
        assert cli_main(["adapt", str(man), str(sel),
                         "-o", str(out / "hist.csv")]) == 0
        assert cli_main(["eval", str(man), str(zoo / "target_labels.txt"),
                         str(sel), "-o", str(out / "eval.csv"),
                         "--summary", str(summ), "--adapted"]) == 0
        metrics = dict(r for r in csv.reader(summ.read_text().splitlines()) if r)
        pre = float(metrics["selected_ensemble_accuracy"])
        post = float(metrics["adapted_ensemble_accuracy"])
        gains[seed] = 100 * (post - pre)
        drops_ok = drops_ok and post >= pre - 0.005
    elapsed = time.perf_counter() - t0
    ok = drops_ok and max(gains.values()) >= 1.0 and elapsed < 120.0
    report(capfd, 3, "adaptation gain per seed: "
              + ", ".join(f"{s}: {g:+.2f}pt" for s, g in gains.items())
              + f", {elapsed:.1f}s", ok)


def test_criterion_4_mixture_kl_inequality(capfd):
    rng = np.random.default_rng(4242)

    def kl(p, q):
        mask = p > 0
        return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())

    violations = 0
    for _ in range(1000):
        comps = rng.dirichlet(np.ones(8), size=5)
        q = rng.dirichlet(np.ones(8))
        w = rng.dirichlet(np.ones(5))
        lhs = kl(w @ comps, q)
        rhs = float(sum(wi * kl(p, q) for wi, p in zip(w, comps)))
        if lhs > rhs + 1e-9:
            violations += 1
    report(capfd, 4, f"mixture-KL inequality: {violations} violations in 1000 trials",
           violations == 0)


def _gradient_check_instances():
    """20 random instances, then one whose first member holds exact
    zeros: its bias sinks class 0 in every row, and a last feature of 1
    sinks class 1 in half the rows."""
    rng = np.random.default_rng(55)

    def with_pairs(n, num_classes, feats, ws, bs, theta):
        probs = [softmax_rows(f @ w.T + b) for f, w, b in zip(feats, ws, bs)]
        labels = predictive_semantics(mix_outputs(probs, theta))
        k = int(rng.integers(1, n))
        pairs = np.array([(i, rng.integers(num_classes))
                          for i in rng.choice(n, size=k, replace=False)])
        return feats, ws, bs, theta, labels, pairs

    for _ in range(20):
        n = int(rng.integers(4, 8))
        num_classes = int(rng.integers(2, 5))
        members = int(rng.integers(1, 4))
        feats, ws, bs = [], [], []
        for _ in range(members):
            d = int(rng.integers(2, 5))
            feats.append(rng.normal(size=(n, d)))
            ws.append(rng.normal(size=(num_classes, d)) * 0.5)
            bs.append(rng.normal(size=num_classes) * 0.3)
        theta = rng.dirichlet(np.ones(members))
        yield with_pairs(n, num_classes, feats, ws, bs, theta)

    n, num_classes = 6, 3
    feats = [np.column_stack([rng.normal(size=(n, 2)), np.arange(n) % 2]),
             rng.normal(size=(n, 3))]
    ws = [rng.normal(size=(num_classes, 3)) * 0.5 for _ in range(2)]
    bs = [rng.normal(size=num_classes) * 0.3 for _ in range(2)]
    ws[0][1, 2] = -1000.0
    bs[0][0] = -1000.0
    yield with_pairs(n, num_classes, feats, ws, bs, np.array([0.6, 0.4]))


def test_criterion_5_gradient_correctness(capfd):
    errors = []
    for feats, ws, bs, theta, labels, pairs in _gradient_check_instances():
        members = len(feats)
        for term in ("sim", "pse", "omr"):
            _, analytic = objective_term(term, feats, ws, bs, theta, labels,
                                         pairs)
            h = 1e-4
            for j in range(members):
                for arr_idx, arr in ((0, ws), (1, bs)):
                    it = np.ndindex(*arr[j].shape)
                    for idx in it:
                        plus = [a.copy() for a in arr]
                        minus = [a.copy() for a in arr]
                        plus[j][idx] += h
                        minus[j][idx] -= h
                        if arr_idx == 0:
                            vp, _ = objective_term(
                                term, feats, plus, bs, theta, labels, pairs)
                            vm, _ = objective_term(
                                term, feats, minus, bs, theta, labels, pairs)
                        else:
                            vp, _ = objective_term(
                                term, feats, ws, plus, theta, labels, pairs)
                            vm, _ = objective_term(
                                term, feats, ws, minus, theta, labels, pairs)
                        numeric = (vp - vm) / (2 * h)
                        got = analytic[j][arr_idx][idx]
                        scale = max(abs(numeric), abs(got), 1e-8)
                        errors.append(abs(numeric - got) / scale)
    worst = float(np.max(errors))  # a NaN gradient fails the check
    report(capfd, 5, f"gradient correctness: max relative error {worst:.2e}",
           worst <= 1e-4)


def test_criterion_6_greedy_guarantee(capfd):
    rng = np.random.default_rng(66)
    violations = 0
    count_errors = 0
    zoos = 0
    while zoos < 100:
        num_classes = int(rng.integers(3, 6))
        n = int(rng.integers(15, 40))
        models = [make_model(f"m{j:02d}", seed=int(rng.integers(1e9)),
                             n=n, d=int(rng.integers(3, 8)),
                             num_classes=num_classes,
                             spread=float(rng.uniform(0.5, 4.0)))
                  for j in range(int(rng.integers(2, 8)))]
        cfg = SuteConfig()
        singles = [sute_score(m, cfg).components.sute for m in models]
        finite = [s for s in singles if s is not None]
        if not finite:
            continue
        zoos += 1
        audit = select(models, cfg, q=0).audit
        if audit["final_ensemble_sute"] < max(finite) - 1e-12:
            violations += 1
        if audit["sute_evaluations"] != 2 * len(finite) - 1:
            count_errors += 1
    report(capfd, 6, f"greedy guarantee over 100 zoos: {violations} violations, "
              f"{count_errors} audit-count errors",
           violations == 0 and count_errors == 0)


def test_criterion_7_unit_examples(capfd):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--ignore", str(Path(__file__)), str(Path(__file__).parent)],
        capture_output=True, text=True, cwd=Path(__file__).parent.parent)
    lines = proc.stdout.strip().splitlines()
    tail = lines[-1] if lines else "?"
    failed = [ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    report(capfd, 7, "; ".join([f"unit example suite: {tail}", *failed]),
           proc.returncode == 0)


def test_criterion_8_label_blindness(work, capfd):
    out = work / "blind"
    out.mkdir(exist_ok=True)
    scen = out / "scenario.json"
    scen.write_text(reference_scenario(1).to_json())
    zoo = out / "zoo"
    assert cli_main(["build", str(scen), str(zoo)]) == 0
    man = zoo / "manifest.json"

    def run(tag):
        est = out / f"est_{tag}.csv"
        sel = out / f"sel_{tag}.json"
        hist = out / f"hist_{tag}.csv"
        assert cli_main(["estimate", str(man), "-o", str(est)]) == 0
        assert cli_main(["select", str(man), "-o", str(sel), "--q", "1"]) == 0
        assert cli_main(["adapt", str(man), str(sel), "-o", str(hist)]) == 0
        adapted = sorted(p.read_bytes() for p in zoo.glob("*.adapted"))
        return [est.read_bytes(), sel.read_bytes(), hist.read_bytes(), adapted]

    with_labels = run("with")
    labels_file = zoo / "target_labels.txt"
    labels_file.unlink()
    without_labels = run("without")
    report(capfd, 8, "label-blindness: estimate/select/adapt outputs byte-identical "
              "after deleting the labels file", with_labels == without_labels)


def test_criterion_9_hsic_properties(capfd):
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10):
        n = int(rng.integers(5, 40))
        pa = rng.dirichlet(np.ones(4), size=n)
        pb = rng.dirichlet(np.ones(4), size=n)
        ok &= abs(hsic_p(pa, pb) - hsic_p(pb, pa)) <= 1e-12
        ok &= hsic_p(pa, pb) >= -1e-9
        perm = rng.permutation(n)
        ok &= abs(hsic_p(pa[perm], pb[perm]) - hsic_p(pa, pb)) <= 1e-9
    n = 2000
    pa = rng.dirichlet(np.ones(3), size=n)
    pb = rng.dirichlet(np.ones(3), size=n)
    independence = hsic_p(pa, pb) < 0.01 * hsic_p(pa, pa)
    ok &= independence
    report(capfd, 9, "HSIC symmetry/nonnegativity/permutation invariance and "
              f"n=2000 independence bound (cross={hsic_p(pa, pb):.2e})", ok)
