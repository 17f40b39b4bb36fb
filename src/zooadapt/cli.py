"""Command-line pipeline: build a synthetic zoo, estimate
transferability, select models, adapt the selected heads, evaluate.

Every subcommand exits 0 on success and nonzero with a one-line
``error: <context>: <message>`` on stderr otherwise. All randomness is
seeded, so reruns with identical inputs produce byte-identical outputs.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .diversity import KernelConfig
from .ensemble_adapt import (AdaptConfig, EnsembleModel, adapt,
                             read_adapted_heads, write_adapted_heads)
from .errors import ZooAdaptError
from .evaluate import (accuracy, read_labels, summary, write_eval_csv,
                       write_summary)
from .selection import SelectionResult, select
from .sute import SuteConfig, score_zoo
from .synthzoo import (REFERENCE_ARCHS, REFERENCE_GRID, ScenarioSpec,
                       build_zoo, generate_scenario, parse_archs, parse_grid)
from .tensorio import load_zoo


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return 1
    except (ZooAdaptError, OSError, UnicodeDecodeError) as e:
        # OSError: a directory given as a file; UnicodeDecodeError: not UTF-8
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zooadapt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a scenario and train a zoo")
    p.add_argument("scenario", help="scenario spec JSON")
    p.add_argument("out_dir", help="output directory for tensors + manifest")
    p.add_argument("--archs", default=REFERENCE_ARCHS,
                   help="comma-separated arch tokens")
    p.add_argument("--grid", default=REFERENCE_GRID,
                   help="semicolon-separated train configs")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("estimate", help="score every model in a zoo")
    p.add_argument("manifest")
    p.add_argument("-o", "--out", required=True, help="report CSV path")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--tau-h", type=float, default=None)
    p.add_argument("--tau-l", type=float, default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="split a zoo into inliers and outliers")
    p.add_argument("manifest")
    p.add_argument("-o", "--out", required=True, help="selection JSON path")
    p.add_argument("--q", type=int, default=2, help="diversity-set size")
    p.add_argument("--kernel", default="rbf",
                   help="rbf, rbf:<bandwidth>, or linear")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--tau-h", type=float, default=None)
    p.add_argument("--tau-l", type=float, default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("adapt", help="adapt the selected classifier heads")
    p.add_argument("manifest")
    p.add_argument("selection", help="selection JSON from `select`")
    p.add_argument("-o", "--out", required=True, help="history CSV path")
    p.add_argument("--gamma1", type=float, default=0.3)
    p.add_argument("--gamma2", type=float, default=0.3)
    p.add_argument("--tau-recycle", type=float, default=0.95)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.01)
    # Adaptation is label-free by contract; passing a labels file is an error.
    p.add_argument("--labels", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="accuracy/rank-correlation report")
    p.add_argument("manifest")
    p.add_argument("labels", nargs="?", default=None,
                   help="evaluation label file (optional)")
    p.add_argument("selection", nargs="?", default=None,
                   help="selection JSON (optional)")
    p.add_argument("-o", "--out", required=True, help="report CSV path")
    p.add_argument("--summary", default=None,
                   help="summary CSV with correlations and ensemble accuracy "
                        "(needs labels)")
    p.add_argument("--adapted", action="store_true",
                   help="add the accuracy of the .adapted heads written by "
                        "`adapt` to the summary (needs --summary and a "
                        "selection)")
    p.set_defaults(func=cmd_eval)

    return parser


def cmd_build(args) -> int:
    spec = ScenarioSpec.from_json(Path(args.scenario).read_text())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    archs = parse_archs(args.archs, spec.seed)
    scenario = generate_scenario(spec)
    manifest = build_zoo(scenario, archs, parse_grid(args.grid), args.out_dir)
    print(manifest)
    return 0


def _sute_config(args, num_classes: int) -> SuteConfig:
    cfg = SuteConfig.default(num_classes, lambda1=args.lambda1,
                             lambda2=args.lambda2)
    return replace(cfg, tau_h=cfg.tau_h if args.tau_h is None else args.tau_h,
                   tau_l=cfg.tau_l if args.tau_l is None else args.tau_l)


def cmd_estimate(args) -> int:
    records, target = load_zoo(args.manifest)
    cfg = _sute_config(args, target.num_classes)
    report = score_zoo(records, cfg)
    report.write_csv(args.out)
    print(f"estimated {len(records)} models -> {args.out}")
    return 0


def cmd_select(args) -> int:
    records, target = load_zoo(args.manifest)
    cfg = _sute_config(args, target.num_classes)
    result = select(records, cfg, q=args.q, kc=KernelConfig.parse(args.kernel))
    result.write_json(args.out)
    print(f"inliers={len(result.inliers)} outliers={len(result.outliers)} "
          f"-> {args.out}")
    return 0


def cmd_adapt(args) -> int:
    if args.labels is not None:
        raise ZooAdaptError(
            "adapt is label-free; refusing to accept a labels file")
    records, _ = load_zoo(args.manifest)
    sel = SelectionResult.from_json(Path(args.selection).read_text())
    ensemble, outliers = sel.inlier_ensemble(records)
    cfg = AdaptConfig(gamma1=args.gamma1, gamma2=args.gamma2,
                      tau_recycle=args.tau_recycle, epochs=args.epochs,
                      lr=args.lr)
    adapted, history = adapt(ensemble, outliers, cfg)
    history.write_csv(args.out)
    write_adapted_heads(adapted)
    print(f"adapted {len(ensemble.members)} heads, history -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.summary and not args.labels:
        raise ZooAdaptError("eval --summary needs a labels file")
    if args.adapted and not (args.summary and args.selection):
        raise ZooAdaptError("eval --adapted needs --summary and a selection")
    records, target = load_zoo(args.manifest)
    labels = (read_labels(args.labels, target.num_classes)
              if args.labels else None)
    selected = adapted = None
    if args.selection:
        sel = SelectionResult.from_json(Path(args.selection).read_text())
        selected, _ = sel.inlier_ensemble(records)
    if args.adapted:
        adapted = EnsembleModel(members=read_adapted_heads(selected.members),
                                weights=selected.weights)

    report = score_zoo(records, SuteConfig.default(target.num_classes))
    accs = (None if labels is None else
            {r.model_id: accuracy(r.probs, labels) for r in report.rows})
    if args.summary:  # every summary error comes before either file opens
        rows = summary(report, accs, labels, selected, adapted)
    write_eval_csv(args.out, report, accs)
    if args.summary:
        write_summary(args.summary, rows)
    print(f"evaluated {len(records)} models -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
