"""Command-line interface.

Commands: synth, train, score, eval, experiment, ablate, sweep, theory.
Machine-readable results go to files (JSON/CSV); stdout carries short
human-readable summaries. Exit codes: 0 success, 2 usage error,
3 data/capacity error, 4 numeric failure.

Settings and their defaults are declared once, in the specs: each run
flag (``RUN_FLAGS``) and each synth flag has the field it sets as its
dest and that field's default as its default.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone

from . import __version__
from .dataset import load_csv, load_feature_csv, save_csv
from .engine import load_checkpoint, read_scores_csv, save_checkpoint, write_scores_csv
from .engine import train  # noqa: F401  unused; bench/tests/test_bench.py traces this binding
from .errors import DataError, NumericError, SchemaError
from .harness import (
    ExperimentSpec,
    SyntheticSpec,
    experiment_report_json,
    fit,
    generate_synthetic,
    grid_report_json,
    load_source,
    parse_spec_file,
    run_experiment,
    run_grid,
)
from .metrics import evaluate
from .model import VARIANTS
from .ndcore import make_rng
from .pairgen import (
    OrdinalLabels,
    expected_scores,
    expected_true_relation_proportions,
    mislabel_fraction,
)


def _parse_list(text: str, kind: type, flag: str) -> list:
    """The comma-separated values of ``flag`` as ``kind``; a bad one is a ValueError."""
    try:
        return [kind(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{flag} expects comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _parse_labels(text: str) -> OrdinalLabels:
    values = _parse_list(text, float, "--labels")
    if len(values) != 3:
        raise ValueError(f"--labels expects 'aa,au,uu', got {text!r}")
    return OrdinalLabels(*values)


def _labels_text(labels: OrdinalLabels) -> str:
    return f"{labels.aa:g},{labels.au:g},{labels.uu:g}"


def _parse_hidden_dims(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    return tuple(_parse_list(text, int, "--hidden-dims")) if text.strip() else ()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# Each run flag of train, experiment, ablate and sweep: the ExperimentSpec
# field it sets (its dest), its type and its help; its default is the
# field's default. --labels and --hidden-dims stay text until
# _spec_from_args parses them, so that a bad value is one error line;
# --no-standardize (type bool) clears its field.
RUN_FLAGS = {
    "--seed": ("base_seed", int, "base seed; run i uses seed+i"),
    "--n-labeled": ("n_labeled", int, "labeled anomalies available for training"),
    "--no-standardize": ("standardize", bool,
                         "skip z-scoring features with training statistics (standardize: "
                         "%(default)s)"),
    "--labels": ("labels", str, "ordinal targets aa,au,uu"),
    "--l2": ("l2_lambda", float, "weight penalty coefficient"),
    "--epochs": ("n_epochs", int, "training epochs"),
    "--batches-per-epoch": ("n_batches_per_epoch", int, "mini-batches per epoch"),
    "--batch-size": ("batch_size", int, "pairs (or instances) per mini-batch"),
    "--learning-rate": ("learning_rate", float, "RMSprop learning rate"),
    "--variant": ("variant", str, f"model variant: {', '.join(VARIANTS)}"),
    "--hidden-dims": ("hidden_dims", str,
                      "comma-separated hidden layer widths; the variant's own if None"),
    "--contamination": ("contamination", float, "anomaly fraction of the unlabeled pool"),
    "--runs": ("n_runs", int, "independent runs to average"),
    "--train-fraction": ("train_fraction", float, "fraction of each class kept for training"),
    "--ensemble-size": ("ensemble_size", int, "partner draws per side when scoring"),
}
# the flags of a multi-run experiment, which train rejects
EXPERIMENT_FLAGS = ("--runs", "--train-fraction", "--ensemble-size", "--jobs", "--spec-file")
_PARSED_LATE = {"labels": _parse_labels, "hidden_dims": _parse_hidden_dims}
_DEFAULT_SPEC = ExperimentSpec(source="")


def _add_run_flags(p: argparse.ArgumentParser, omit=()) -> None:
    """Add --data and every run flag not in ``omit``."""
    p.add_argument("--data", help="labeled CSV dataset")
    _add_column_flags(p)
    for flag, (field, kind, text) in RUN_FLAGS.items():
        if flag in omit:
            continue
        default = getattr(_DEFAULT_SPEC, field)
        if kind is bool:
            p.add_argument(flag, dest=field, action="store_false", default=default, help=text)
            continue
        if isinstance(default, OrdinalLabels):
            default = _labels_text(default)
        p.add_argument(flag, dest=field, type=kind, default=default, help=text,
                       metavar=flag[2:].upper().replace("-", "_"))
    if "--jobs" not in omit:
        p.add_argument("--jobs", type=int, default=1, help="worker processes for independent runs")
        p.add_argument("--spec-file", help="flat key=value file; explicit flags override it")


def _add_column_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default=_DEFAULT_SPEC.label_column,
                   help="name of the label column")
    p.add_argument("--anomaly-value", help="label value to treat as the anomaly class")


def _spec_from_args(args) -> ExperimentSpec:
    """The default spec with each field the command has a flag for set
    from that flag."""
    if not args.data:
        raise ValueError("--data is required")
    values = {
        field: _PARSED_LATE.get(field, lambda v: v)(getattr(args, field))
        for field in (f.name for f in fields(ExperimentSpec))
        if field in args
    }
    return replace(_DEFAULT_SPEC, source=args.data, **values)


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    ds = generate_synthetic(spec)
    save_csv(ds, args.output)
    print(f"wrote {ds.n} rows ({ds.n_anomalies} anomalies, dim {ds.dim}) to {args.output}")
    return 0


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    ds = load_source(spec)
    scorer, report = fit(ds, spec, spec.base_seed, make_rng(spec.base_seed))
    save_checkpoint(args.output, scorer)
    _write_json(args.report or f"{args.output}.train.json", asdict(report))
    means = report.epoch_means()
    print(
        f"trained {spec.variant} on {ds.n} rows: epoch objective "
        f"{means[0]:.4f} -> {means[-1]:.4f}, checkpoint {args.output}"
    )
    return 0


def cmd_score(args) -> int:
    scorer = load_checkpoint(args.checkpoint)
    features, labels, _ = load_feature_csv(args.data, args.label_column, args.anomaly_value)
    input_dim = scorer.model.config.input_dim
    if features.shape[1] != input_dim:
        raise DataError(
            f"{args.data} has {features.shape[1]} features, checkpoint expects {input_dim}"
        )
    scores = scorer.score(features, args.ensemble_size, make_rng(args.seed))
    write_scores_csv(args.output, scores, labels)
    print(f"scored {features.shape[0]} rows -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    scores, labels = read_scores_csv(args.scores)
    if labels is None:
        if not args.data:
            raise ValueError("scores file has no true_label column; pass --data")
        ds = load_csv(args.data, args.label_column, args.anomaly_value)
        if ds.n != scores.shape[0]:
            raise DataError(
                f"{scores.shape[0]} scores for {ds.n} labeled rows in {args.data}"
            )
        labels = ds.labels
    if labels.min() == labels.max():
        raise SchemaError(f"labels hold only class {labels[0]}; the metrics need both")
    report = evaluate(scores, labels)
    doc = report.as_dict()
    doc["generated_at"] = _timestamp()
    _write_json(args.output, doc)
    print(f"auc_roc {report.auc_roc:.4f}  auc_pr {report.auc_pr:.4f} -> {args.output}")
    return 0


def cmd_experiment(args) -> int:
    spec = _spec_from_args(args)
    agg = run_experiment(spec, jobs=args.jobs)
    doc = experiment_report_json(spec, agg, extra={"generated_at": _timestamp()})
    _write_json(args.output, doc)
    print(
        f"{spec.variant} on {spec.dataset_name()}: "
        f"auc_roc {agg.auc_roc_mean:.4f}±{agg.auc_roc_std:.4f}  "
        f"auc_pr {agg.auc_pr_mean:.4f}±{agg.auc_pr_std:.4f}  ({agg.n_runs} runs)"
    )
    return 0


def cmd_grid(args) -> int:
    spec = _spec_from_args(args)
    values = args.values
    if isinstance(values, str):  # sweep's --rates, parsed late so a bad rate is one error line
        values = _parse_list(values, float, "--rates")
    results = run_grid(spec, args.field, values, jobs=args.jobs)
    for value, agg in results.items():
        print(
            f"{args.field} {value}: auc_roc {agg.auc_roc_mean:.4f}±{agg.auc_roc_std:.4f}  "
            f"auc_pr {agg.auc_pr_mean:.4f}±{agg.auc_pr_std:.4f}"
        )
    doc = grid_report_json(spec, args.field, results, {"generated_at": _timestamp()})
    _write_json(args.output, doc)
    return 0


def cmd_theory(args) -> int:
    labels = _parse_labels(args.labels)
    p_aa, p_an, p_nn = expected_true_relation_proportions(args.eps)
    mis = mislabel_fraction(args.eps)
    anom_mean, norm_mean = expected_scores(labels, args.eps)
    print(f"contamination rate:             {args.eps:g}")
    print(f"ordinal targets (aa, au, uu):   ({labels.aa:g}, {labels.au:g}, {labels.uu:g})")
    print(f"true pair relations (aa/an/nn): {p_aa:.6g} / {p_an:.6g} / {p_nn:.6g}")
    print(f"uu pairs with hidden anomaly:   {mis:.6g}")
    print(f"expected anomaly score:         {anom_mean:.6g}")
    print(f"expected normal score:          {norm_mean:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prenet",
        description="Weakly-supervised anomaly detection by ordinal regression "
        "over random instance pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        """add_parser with defaults shown in --help."""

        def add_parser(self, name, **kw):
            kw.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
            return subparsers.add_parser(name, **kw)

    sub = _Sub()

    p = sub.add_parser("synth", help="generate a two-Gaussian synthetic dataset CSV")
    synth = SyntheticSpec()
    for flag, kind, text in (
        ("--n-normal", int, "normal instances"),
        ("--n-anomaly", int, "anomalous instances"),
        ("--dim", int, "feature count"),
        ("--separation", float, "distance between class means in units of the shared std"),
        ("--seed", int, "generator seed"),
    ):
        p.add_argument(flag, type=kind, default=getattr(synth, flag[2:].replace("-", "_")),
                       help=text)
    p.add_argument("-o", "--output", required=True, help="dataset CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a labeled CSV (whole file is the training pool)")
    _add_run_flags(p, omit=EXPERIMENT_FLAGS)
    p.add_argument("-o", "--output", required=True, help="checkpoint JSON path")
    p.add_argument("--report", help="training report JSON path (default: <checkpoint>.train.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a CSV with a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON from train")
    p.add_argument("--data", required=True, help="CSV to score (label column optional)")
    _add_column_flags(p)
    p.add_argument("--ensemble-size", type=int, default=_DEFAULT_SPEC.ensemble_size,
                   help="partner draws per side")
    p.add_argument("--seed", type=int, default=_DEFAULT_SPEC.base_seed, help="partner-draw seed")
    p.add_argument("-o", "--output", required=True, help="scores CSV path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="compute AUC-ROC / AUC-PR from a scores CSV")
    p.add_argument("--scores", required=True, help="scores CSV from score")
    p.add_argument("--data", help="labeled CSV when scores lack true_label")
    _add_column_flags(p)
    p.add_argument("-o", "--output", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="multi-run split/train/score/eval protocol")
    _add_run_flags(p)
    p.add_argument("-o", "--output", required=True, help="aggregate report JSON path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("ablate", help="run all model variants under shared splits")
    _add_run_flags(p, omit=("--variant", "--hidden-dims"))
    p.add_argument("-o", "--output", required=True, help="per-variant report JSON path")
    p.set_defaults(func=cmd_grid, field="variant", values=VARIANTS)

    p = sub.add_parser("sweep", help="repeat an experiment across contamination rates")
    _add_run_flags(p, omit=("--contamination",))
    p.add_argument("--rates", default="0,0.02,0.05,0.1", dest="values", metavar="RATES",
                   help="comma-separated contamination rates")
    p.add_argument("-o", "--output", required=True, help="sweep report JSON path")
    p.set_defaults(func=cmd_grid, field="contamination")

    p = sub.add_parser("theory", help="closed-form expectations for a contamination rate")
    p.add_argument("--eps", type=float, required=True, help="contamination rate in [0, 1)")
    p.add_argument("--labels", default=_labels_text(OrdinalLabels()),
                   help="ordinal targets aa,au,uu")
    p.set_defaults(func=cmd_theory)

    return parser


def _spec_file_flags(path) -> list[str]:
    """The values of a spec file as the flags its keys name."""
    flags: list[str] = []
    for key, value in parse_spec_file(path).items():
        flag = "--" + key.replace("_", "-")
        if value.lower() not in ("true", "false"):
            flags += [flag, value]
        elif value.lower() == "true":
            flags.append(flag)
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "spec_file", None):
            # file values go right after the command, so explicit flags win
            args = parser.parse_args(argv[:1] + _spec_file_flags(args.spec_file) + argv[1:])
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
