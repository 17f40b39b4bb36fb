"""Outside-in tracing of zooadapt for the per-layer metrics.

A `Tracer` wraps the public functions listed in TRACED and installs each
wrapper at every import site in the package (the modules import by name,
so `selection.forward` and `inference.forward` are separate bindings of
one function). Each call records a span: name, start, end and parent,
start and end read from the process's CPU clock, the clock of the
end-to-end metrics. Spans stay in memory; self times are computed once,
after the run.
"""

import functools
import importlib
import json
import sys
from time import process_time

# "<module>.<function>" under the zooadapt package.
TRACED = (
    "tensorio.load_zoo", "tensorio.read_tensor", "tensorio.write_tensor",
    "synthzoo.generate_scenario", "synthzoo.fit_head", "synthzoo.build_zoo",
    "inference.forward", "inference.structural_semantics",
    "sute.score_zoo", "sute.ensemble_components",
    "selection.select",
    "diversity.div_scores", "diversity.hsic",
    "ensemble_adapt.adapt", "ensemble_adapt.mine_recycle_pairs",
    "ensemble_adapt.ensemble_forward", "ensemble_adapt.write_adapted_heads",
    "kernels.softmax_rows", "kernels.entropy_rows", "kernels.pairwise_sq_dists",
    "cli.cmd_build", "cli.cmd_estimate", "cli.cmd_select", "cli.cmd_adapt",
    "cli.cmd_eval",
)

KERNELS = ("kernels.softmax_rows", "kernels.entropy_rows",
           "kernels.pairwise_sq_dists")
PIPELINE_STAGES = ("cli.cmd_estimate", "cli.cmd_select", "cli.cmd_adapt",
                   "cli.cmd_eval")


def _ztf_bytes(args, arr):
    return 8 + 4 * arr.ndim + arr.nbytes  # magic, rank, dims, float32 payload


def _head_key(args, _):
    m = args[0]
    return hash((m.model_id, m.weights.tobytes(), m.bias.tobytes()))


def _hsic_inputs(args, _):
    pa, pb = args[0], args[1]
    return pa.shape[0], hash(pa.tobytes()), hash(pb.tobytes())


# Per-call facts taken after the span closes, from the positional
# arguments and the result, for the counters that spans alone cannot give.
PROBES = {
    "tensorio.read_tensor": _ztf_bytes,
    "inference.forward": _head_key,
    "diversity.hsic": _hsic_inputs,
    "ensemble_adapt.mine_recycle_pairs": lambda args, pairs: len(pairs),
    "ensemble_adapt.adapt": lambda args, res: len(res[1].rows),
    "selection.select": lambda args, res: res.audit["sute_evaluations"],
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent  # index into Tracer.spans, or None
        self.start = self.end = 0.0


class Tracer:
    """Context manager: while entered, every TRACED call records a span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.facts: dict[str, list] = {name: [] for name in PROBES}
        self._stack: list[int] = []
        self._patched = []

    def __enter__(self):
        importlib.import_module("zooadapt.cli")  # loads every module
        modules = [m for name, m in sys.modules.items()
                   if name == "zooadapt" or name.startswith("zooadapt.")]
        for qual in TRACED:
            mod_name, attr = qual.split(".")
            orig = getattr(importlib.import_module(f"zooadapt.{mod_name}"), attr)
            wrapper = self._wrap(qual, orig)
            for mod in modules:
                for site, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, site, wrapper)
                        self._patched.append((mod, site, orig))
        return self

    def __exit__(self, *exc):
        for mod, site, orig in reversed(self._patched):
            setattr(mod, site, orig)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe, facts = PROBES.get(name), self.facts.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = process_time()
                stack.pop()
            if probe is not None:
                facts.append(probe(args, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def stage_of(self) -> list[str | None]:
        """The outermost cli.cmd_* span each span ran under."""
        stage: list[str | None] = []
        for s in self.spans:
            if s.parent is None:
                stage.append(s.name if s.name.startswith("cli.") else None)
            else:
                stage.append(stage[s.parent])
        return stage

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "self_s": self_s}) + "\n")


# Per-layer metrics, in the order they are reported, with units.
PER_LAYER = {
    "tensorio.load_zoo.calls": "count", "tensorio.load_zoo.s": "s",
    "tensorio.read_tensor.calls": "count", "tensorio.read_bytes": "B",
    "tensorio.write_tensor.calls": "count", "tensorio.write_tensor.s": "s",
    "synthzoo.generate_scenario.s": "s", "synthzoo.fit_head.calls": "count",
    "synthzoo.fit_head.s": "s", "synthzoo.build_zoo.s": "s",
    "inference.forward.calls": "count", "inference.forward.s": "s",
    "inference.structural_semantics.calls": "count",
    "inference.structural_semantics.s": "s",
    "inference.forward.per_head": "1",
    "sute.score_zoo.calls": "count", "sute.score_zoo.s": "s",
    "sute.ensemble_components.calls": "count",
    "sute.ensemble_components.s": "s",
    "selection.select.s": "s", "selection.select.self_s": "s",
    "selection.audit_evaluations": "count",
    "diversity.div_scores.s": "s", "diversity.hsic.calls": "count",
    "diversity.hsic.s": "s", "diversity.gram_bytes": "B",
    "diversity.gram_reuse": "1",
    "ensemble_adapt.adapt.s": "s", "ensemble_adapt.epoch_s": "s",
    "ensemble_adapt.mine_recycle_pairs.calls": "count",
    "ensemble_adapt.mine_recycle_pairs.s": "s",
    "ensemble_adapt.recycle_pairs": "count",
    "ensemble_adapt.ensemble_forward.s": "s",
    "ensemble_adapt.write_adapted_heads.s": "s",
    "kernels.softmax_rows.calls": "count", "kernels.softmax_rows.s": "s",
    "kernels.entropy_rows.calls": "count", "kernels.entropy_rows.s": "s",
    "kernels.pairwise_sq_dists.calls": "count",
    "kernels.pairwise_sq_dists.s": "s",
    "kernels.share": "1", "kernels.setup_share": "1",
    "cli.estimate.self_s": "s", "cli.select.self_s": "s",
    "cli.adapt.self_s": "s", "cli.eval.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run of build plus one pipeline pass.

    Counts and times cover the whole traced run, except that the kernels.*
    counts and times cover only the pipeline stages (estimate to eval);
    kernels.setup_share is the kernels' share of the traced build.
    """
    own = tracer.self_times()
    stage = tracer.stage_of()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    kern_calls: dict[str, int] = {}
    kern_s: dict[str, float] = {}
    kern_build_s = 0.0
    for s, o, st in zip(tracer.spans, own, stage):
        d = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + d
        self_s[s.name] = self_s.get(s.name, 0.0) + o
        if s.name in KERNELS:
            if st in PIPELINE_STAGES:
                kern_calls[s.name] = kern_calls.get(s.name, 0) + 1
                kern_s[s.name] = kern_s.get(s.name, 0.0) + d
            elif st == "cli.cmd_build":
                kern_build_s += d

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    facts = tracer.facts
    pipeline_s = sum(t(name) for name in PIPELINE_STAGES)
    hsic = facts["diversity.hsic"]
    grams_needed = len({h for _, a, b in hsic for h in (a, b)})
    epochs = sum(facts["ensemble_adapt.adapt"])
    mined = facts["ensemble_adapt.mine_recycle_pairs"]

    out = {
        "tensorio.load_zoo.calls": n("tensorio.load_zoo"),
        "tensorio.load_zoo.s": t("tensorio.load_zoo"),
        "tensorio.read_tensor.calls": n("tensorio.read_tensor"),
        "tensorio.read_bytes": sum(facts["tensorio.read_tensor"]),
        "tensorio.write_tensor.calls": n("tensorio.write_tensor"),
        "tensorio.write_tensor.s": t("tensorio.write_tensor"),
        "synthzoo.generate_scenario.s": t("synthzoo.generate_scenario"),
        "synthzoo.fit_head.calls": n("synthzoo.fit_head"),
        "synthzoo.fit_head.s": t("synthzoo.fit_head"),
        "synthzoo.build_zoo.s": t("synthzoo.build_zoo"),
        "inference.forward.calls": n("inference.forward"),
        "inference.forward.s": t("inference.forward"),
        "inference.structural_semantics.calls": n("inference.structural_semantics"),
        "inference.structural_semantics.s": t("inference.structural_semantics"),
        "inference.forward.per_head":
            _ratio(n("inference.forward"), len(set(facts["inference.forward"]))),
        "sute.score_zoo.calls": n("sute.score_zoo"),
        "sute.score_zoo.s": t("sute.score_zoo"),
        "sute.ensemble_components.calls": n("sute.ensemble_components"),
        "sute.ensemble_components.s": t("sute.ensemble_components"),
        "selection.select.s": t("selection.select"),
        "selection.select.self_s": self_s.get("selection.select", 0.0),
        "selection.audit_evaluations": sum(facts["selection.select"]),
        "diversity.div_scores.s": t("diversity.div_scores"),
        "diversity.hsic.calls": n("diversity.hsic"),
        "diversity.hsic.s": t("diversity.hsic"),
        # computed, not measured: one float64 n x n gram
        "diversity.gram_bytes": max((8 * m * m for m, _, _ in hsic), default=0),
        "diversity.gram_reuse": _ratio(grams_needed, 2 * len(hsic)),
        "ensemble_adapt.adapt.s": t("ensemble_adapt.adapt"),
        "ensemble_adapt.epoch_s": _ratio(t("ensemble_adapt.adapt"), epochs),
        "ensemble_adapt.mine_recycle_pairs.calls": n("ensemble_adapt.mine_recycle_pairs"),
        "ensemble_adapt.mine_recycle_pairs.s": t("ensemble_adapt.mine_recycle_pairs"),
        "ensemble_adapt.recycle_pairs": _ratio(sum(mined), len(mined)),
        "ensemble_adapt.ensemble_forward.s": t("ensemble_adapt.ensemble_forward"),
        "ensemble_adapt.write_adapted_heads.s": t("ensemble_adapt.write_adapted_heads"),
        "kernels.share": _ratio(sum(kern_s.values()), pipeline_s),
        "kernels.setup_share": _ratio(kern_build_s, t("cli.cmd_build")),
    }
    for name in KERNELS:
        out[f"{name}.calls"] = kern_calls.get(name, 0)
        out[f"{name}.s"] = kern_s.get(name, 0.0)
    for name in PIPELINE_STAGES:
        out[f"cli.{name[len('cli.cmd_'):]}.self_s"] = self_s.get(name, 0.0)
    return {name: out[name] for name in PER_LAYER}


def _ratio(a, b):
    return a / b if b else 0.0
