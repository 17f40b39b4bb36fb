"""Command-line pipeline: build a synthetic zoo, estimate
transferability, select models, adapt the selected heads, evaluate.

Every subcommand exits 0 on success and nonzero with a one-line
``error: <context>: <message>`` on stderr otherwise. All randomness is
seeded, so reruns with identical inputs produce byte-identical outputs.
"""

import argparse
import errno
import os
import sys
from pathlib import Path

from .diversity import KernelConfig
from .ensemble_adapt import (AdaptConfig, EnsembleModel, adapt,
                             adapted_paths, read_adapted_heads,
                             write_adapted_heads)
from .errors import ZooAdaptError
from .evaluate import (accuracy, read_labels, summary, write_eval_csv,
                       write_summary)
from .selection import SelectionResult, select
from .sute import score_zoo
from .synthzoo import (REFERENCE_GRID, ScenarioSpec, SynthError, build_zoo,
                       generate_scenario, reference_archs)
from .tensorio import load_zoo, read_text


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return 1
    except (ZooAdaptError, OSError) as e:  # OSError: a directory given as a file
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zooadapt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a scenario and train a zoo")
    p.add_argument("scenario", help="scenario spec JSON")
    p.add_argument("out_dir", help="output directory for tensors + manifest")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("estimate", help="score every model in a zoo")
    p.add_argument("manifest")
    p.add_argument("-o", "--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="split a zoo into inliers and outliers")
    p.add_argument("manifest")
    p.add_argument("-o", "--out", required=True, help="selection JSON path")
    p.add_argument("--q", type=int, default=2, help="diversity-set size")
    p.add_argument("--kernel", default="rbf",
                   help="rbf or linear")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("adapt", help="adapt the selected classifier heads")
    p.add_argument("manifest")
    p.add_argument("selection", help="selection JSON from `select`")
    p.add_argument("-o", "--out", required=True, help="history CSV path")
    # Adaptation is label-free by contract; passing a labels file is an error.
    p.add_argument("--labels", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="accuracy/rank-correlation report")
    p.add_argument("manifest")
    p.add_argument("labels", help="evaluation label file")
    p.add_argument("selection", nargs="?", default=None,
                   help="selection JSON (optional)")
    p.add_argument("-o", "--out", required=True, help="report CSV path")
    p.add_argument("--summary", default=None,
                   help="summary CSV with correlations and ensemble accuracy")
    p.add_argument("--adapted", action="store_true",
                   help="add the accuracy of the .adapted heads written by "
                        "`adapt` to the summary (needs --summary and a "
                        "selection)")
    p.set_defaults(func=cmd_eval)

    return parser


def cmd_build(args) -> int:
    spec = ScenarioSpec.from_json(read_text(args.scenario))
    manifest = build_zoo(generate_scenario(spec), reference_archs(spec.seed),
                         REFERENCE_GRID, args.out_dir)
    print(manifest)
    return 0


def cmd_estimate(args) -> int:
    records, _ = load_zoo(args.manifest)
    _check_outputs([args.out], [args.manifest], records)
    report = score_zoo(records)
    report.write_csv(args.out)
    print(f"estimated {len(records)} models -> {args.out}")
    return 0


def cmd_select(args) -> int:
    records, _ = load_zoo(args.manifest)
    _check_outputs([args.out], [args.manifest], records)
    result = select(records, q=args.q, kc=KernelConfig.parse(args.kernel))
    result.write_json(args.out)
    print(f"inliers={len(result.inliers)} outliers={len(result.outliers)} "
          f"-> {args.out}")
    return 0


def cmd_adapt(args) -> int:
    if args.labels is not None:
        raise ZooAdaptError(
            "adapt is label-free; refusing to accept a labels file")
    records, _ = load_zoo(args.manifest)
    sel = SelectionResult.from_json(read_text(args.selection))
    ensemble, outliers = sel.inlier_ensemble(records)
    _check_outputs([args.out, *(path for m in ensemble.members
                                for path in adapted_paths(m))],
                   [args.manifest, args.selection], records)
    adapted, history = adapt(ensemble, outliers, AdaptConfig())
    history.write_csv(args.out)
    write_adapted_heads(adapted)
    print(f"adapted {len(ensemble.members)} heads, history -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.adapted and not (args.summary and args.selection):
        raise ZooAdaptError("eval --adapted needs --summary and a selection")
    records, target = load_zoo(args.manifest)
    labels = read_labels(args.labels, target.num_classes)
    if len(labels) != target.n:
        raise SynthError(f"{args.labels}: expected {target.n} labels, "
                         f"got {len(labels)}")
    selected = adapted = None
    if args.selection:
        sel = SelectionResult.from_json(read_text(args.selection))
        selected, _ = sel.inlier_ensemble(records)
    if args.adapted:
        adapted = EnsembleModel(members=read_adapted_heads(selected.members),
                                weights=selected.weights)
    _check_outputs(filter(None, (args.out, args.summary)),
                   filter(None, (args.manifest, args.labels, args.selection)),
                   records, selected.members if args.adapted else ())

    report = score_zoo(records)
    accs = {r.model_id: accuracy(r.probs, labels) for r in report.rows}
    if args.summary:  # every summary error comes before either file opens
        rows = summary(report, accs, labels, selected, adapted)
    write_eval_csv(args.out, report, accs)
    if args.summary:
        write_summary(args.summary, rows)
    print(f"evaluated {len(records)} models -> {args.out}")
    return 0


def _check_outputs(paths, inputs, records, adapted=()) -> None:
    """Raise before a stage writes anything if an output path is a
    directory, lies in no directory, or is an input, an earlier output, a
    file of the loaded zoo or an adapted head of a record in adapted."""
    paths = list(map(Path, paths))
    if any(path.exists() for path in paths):  # only these can be zoo files
        inputs = [*inputs, *(f for m in records for f in (
            m.features_path, m.weights_path, m.bias_path)),
            *(f for m in adapted for f in adapted_paths(m))]
    # realpath, unlike Path.resolve, leaves a symlink loop to the read
    taken = {os.path.realpath(p): f"input {p}" for p in inputs}
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output is a directory",
                                    str(path))
        if not path.parent.is_dir():
            raise ZooAdaptError(f"output {path}: no directory {path.parent}")
        key = os.path.realpath(path)
        if key in taken:
            raise ZooAdaptError(f"output {path}: same file as {taken[key]}")
        taken[key] = f"output {path}"


if __name__ == "__main__":
    sys.exit(main())
