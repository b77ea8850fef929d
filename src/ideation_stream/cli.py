"""Command-line entry point.

Subcommands cover both phases: ``train`` / ``evaluate`` / ``top-terms``
for the batch phase, ``replay`` / ``serve`` / ``report`` for the streaming
phase, plus ``inspect`` and the ``broker`` utilities. Every command writes
a JSON run manifest beside its primary output and supports ``--json`` for
machine-readable results on stdout.

Errors exit with stable codes (see EXIT_CODES); argparse usage errors exit
with 2. Set SOURCE_DATE_EPOCH to pin the timestamp embedded in saved
models, which makes re-runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import errors
from .broker import _check_name
from .hashutil import sha256_file

EXIT_CODES: dict[type, int] = {
    errors.MissingColumn: 10,
    errors.EmptyCorpus: 11,
    errors.UnknownLabel: 12,
    errors.DegenerateSplit: 13,
    errors.EmptyVocabulary: 20,
    errors.NotFitted: 21,
    errors.DimensionMismatch: 22,
    errors.NegativeFeature: 30,
    errors.DegenerateLabels: 31,
    errors.TooFewRows: 32,
    errors.LengthMismatch: 40,
    errors.EmptyMatrix: 41,
    errors.SingleClass: 42,
    errors.UnknownClass: 43,
    errors.VersionMismatch: 50,
    errors.CorruptPayload: 51,
    errors.IoFailure: 52,
    errors.TopicExists: 60,
    errors.UnknownTopic: 61,
    errors.OffsetOutOfRange: 62,
}

COMBO_CHOICES = ["uni-tfidf", "uni-cv-idf", "bi-cv-idf", "uni-bi-cv-idf"]
MODEL_CHOICES = ["nb", "lr", "svc", "dt", "rf", "mlp"]


def _now() -> float:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return float(epoch) if epoch else time.time()


def _write_manifest(primary_output: str | None, command: str, args: argparse.Namespace,
                    inputs: list[str], outputs: list[str], started: float,
                    extra: dict | None = None) -> str:
    if primary_output:
        path = Path(str(primary_output) + ".manifest.json")
    else:
        path = Path(f"{command}.manifest.json")
    manifest = {
        "command": command,
        "argv": {k: v for k, v in vars(args).items() if k != "func"},
        "seeds": {"seed": getattr(args, "seed", None)},
        "input_digests": {p: sha256_file(p) for p in inputs if p and Path(p).is_file()},
        "outputs": outputs,
        "started_at": started,
        "duration_s": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str), "utf-8")
    return str(path)


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(human)


def _load_labeled(path: str, text_col: str, label_col: str):
    from .corpus import dedupe_and_clean, load_csv

    raw = load_csv(path, text_column=text_col, label_column=label_col)
    cleaned, report = dedupe_and_clean(raw)
    return cleaned, raw.load_report, report


def _tokens(docs, pconfig) -> list:
    from .preprocess import preprocess

    return [preprocess(d.text, pconfig, source_id=d.id).tokens for d in docs]


def _labeled(pipeline, token_docs, docs):
    """The documents' TF-IDF rows as one batch, with their labels."""
    from .classifiers import LabeledDataset
    from .corpus import LABEL_TO_INT

    return LabeledDataset(pipeline.transform_batch(token_docs),
                          [LABEL_TO_INT[d.label] for d in docs])


def _hyper_pair(pair: str) -> tuple[str, object]:
    """An argparse ``type`` for ``--hyper key=value``: the value is JSON
    when it starts like a JSON number, list, object or boolean, else text."""
    key, sep, value = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expects key=value, got {pair!r}")
    try:
        parsed = json.loads(value) if value and value[0] in "[{0123456789.-tf" else value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{pair!r}: {exc}") from None
    return key.replace("-", "_"), parsed


def _check_hyper(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage error unless each ``--hyper`` key is a parameter of the chosen
    trainer and its value has the type of that parameter's default."""
    import inspect

    from .classifiers import TRAINERS, ModelKind

    params = inspect.signature(TRAINERS[ModelKind(args.model)]).parameters
    for key, value in args.hyper:
        if key not in params or key in ("data", "seed"):
            parser.error(f"--hyper {key}: not a hyperparameter of the {args.model} trainer")
        default = params[key].default
        want = list if isinstance(default, tuple) else type(default)
        if not (type(value) is want or want is float and type(value) is int):
            parser.error(f"--hyper {key}={json.dumps(value)}: expects a value like "
                         f"{json.dumps(default)}")


def cmd_train(args: argparse.Namespace) -> int:
    from . import store
    from .classifiers import DEFAULT_GRIDS, TRAINERS, ModelKind, cross_validate, grid_search
    from .corpus import SplitSpec, split
    from .evaluation import Averaging, evaluate_model
    from .features import fit_pipeline
    from .preprocess import PreprocessConfig

    started = time.time()
    corpus, load_report, clean_report = _load_labeled(args.data, args.text_col, args.label_col)
    train_corpus, test_corpus = split(corpus, SplitSpec(train_fraction=args.train_frac,
                                                        seed=args.seed))
    pconfig = PreprocessConfig.load_default()
    train_tokens = _tokens(train_corpus.documents, pconfig)
    pipeline = fit_pipeline(train_tokens, args.combo, min_tf=args.min_tf,
                            num_buckets=args.buckets, normalize_tf=not args.no_tf_norm,
                            vocab_cap=args.vocab_cap)
    train_data = _labeled(pipeline, train_tokens, train_corpus.documents)
    test_data = _labeled(pipeline, _tokens(test_corpus.documents, pconfig),
                         test_corpus.documents)

    kind = ModelKind(args.model)
    params = dict(args.hyper)
    cv_reports = []
    if args.grid:
        grid = DEFAULT_GRIDS[kind] if args.grid == "default" else json.loads(args.grid)
        best, cv_reports = grid_search(kind, grid, train_data, k=args.folds, seed=args.seed)
        params = {**best, **params}
    elif args.folds > 0:
        cv_reports = [cross_validate(kind, params, train_data, k=args.folds, seed=args.seed)]

    model = TRAINERS[kind](train_data, seed=args.seed, **params)
    model.training_meta["trained_at"] = _now()
    report, cm = evaluate_model(model, test_data, averaging=Averaging(args.averaging))

    digest = store.save(pipeline, model, args.out,
                        metrics_snapshot=report.to_dict(),
                        preprocess_config_digest=pconfig.digest())
    outputs = [args.out]
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            "model,combo,accuracy,precision,recall,f1,auc\n"
            f"{kind.value},{pipeline.combo.value},{report.csv_row()}\n", "utf-8")
        outputs.append(args.metrics_out)
    if args.cv_out and cv_reports:
        lines = ["model,params,mean_accuracy,std_accuracy"]
        for rep in cv_reports:
            lines.append(f"{rep.kind.value},\"{json.dumps(rep.params)}\","
                         f"{rep.mean_accuracy:.6f},{rep.std_accuracy:.6f}")
        Path(args.cv_out).write_text("\n".join(lines) + "\n", "utf-8")
        outputs.append(args.cv_out)

    manifest = _write_manifest(args.out, "train", args, [args.data], outputs, started,
                               extra={"model_digest": digest,
                                      "rows_loaded": load_report.rows_read,
                                      "duplicates_removed": clean_report.duplicates_removed,
                                      "train_rows": len(train_data),
                                      "test_rows": len(test_data),
                                      "params": params})
    payload = {"model": args.out, "digest": digest, "params": params,
               "metrics": report.to_dict(), "manifest": manifest,
               "cv": [r.to_dict() for r in cv_reports]}
    _emit(args, payload,
          f"saved {args.out} (digest {digest[:12]}…)\n"
          f"test metrics: acc={report.accuracy:.4f} p={report.precision:.4f} "
          f"r={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import store
    from .evaluation import Averaging, evaluate_model, roc_points
    from .preprocess import PreprocessConfig

    started = time.time()
    pipeline, model = store.load(args.model)
    corpus, _, _ = _load_labeled(args.data, args.text_col, args.label_col)
    pconfig = PreprocessConfig.load_default()
    data = _labeled(pipeline, _tokens(corpus.documents, pconfig), corpus.documents)
    report, cm = evaluate_model(model, data, averaging=Averaging(args.averaging))

    outputs = []
    header = "accuracy,precision,recall,f1,auc"
    row = report.csv_row()
    if args.out:
        Path(args.out).write_text(f"{header}\n{row}\n", "utf-8")
        outputs.append(args.out)
    if args.roc_out:
        pts = roc_points(report.scores, [int(g) for g in data.labels])
        lines = ["fpr,tpr,threshold"] + [f"{f:.6f},{t:.6f},{thr}" for f, t, thr in pts]
        Path(args.roc_out).write_text("\n".join(lines) + "\n", "utf-8")
        outputs.append(args.roc_out)

    manifest = _write_manifest(args.out or None, "evaluate", args,
                               [args.model, args.data], outputs, started)
    payload = {"metrics": report.to_dict(),
               "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
               "manifest": manifest}
    _emit(args, payload, f"{header}\n{row}")
    return 0


def cmd_top_terms(args: argparse.Namespace) -> int:
    from .corpus import load_csv
    from .evaluation import top_terms
    from .preprocess import PreprocessConfig, preprocess

    started = time.time()
    corpus = load_csv(args.data, text_column=args.text_col, label_column=args.label_col)
    pconfig = PreprocessConfig.load_default()
    labeled = ((preprocess(d.text, pconfig).tokens, d.label) for d in corpus.documents)
    ranked = top_terms(labeled, args.cls, args.k)

    lines = ["term,frequency"] + [f"{term},{freq}" for term, freq in ranked]
    body = "\n".join(lines) + "\n"
    outputs = []
    if args.out:
        Path(args.out).write_text(body, "utf-8")
        outputs.append(args.out)
    manifest = _write_manifest(args.out or None, "top-terms", args, [args.data],
                               outputs, started)
    _emit(args, {"terms": ranked, "manifest": manifest}, body.rstrip("\n"))
    return 0


def _open_broker(args: argparse.Namespace):
    from .broker import Broker

    return Broker(args.broker_dir, durability=args.durability)


def cmd_replay(args: argparse.Namespace) -> int:
    from .stream import replay_produce

    started = time.time()
    with _open_broker(args) as broker:
        if args.create_topics and args.topic not in broker.topics():
            broker.create_topic(args.topic, partitions=args.partitions)
        source = sys.stdin if args.file == "-" else args.file
        stats = replay_produce(source, broker, args.topic, rate=args.rate, loop=args.loop)
    manifest = _write_manifest(None, "replay", args,
                               [args.file] if args.file != "-" else [], [], started,
                               extra={"produced": stats.produced,
                                      "malformed": stats.malformed})
    _emit(args, {"produced": stats.produced, "malformed": stats.malformed,
                 "manifest": manifest},
          f"produced {stats.produced} records ({stats.malformed} malformed lines skipped)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .stream import StreamConfig, run_stream

    started = time.time()
    config = StreamConfig(
        model_path=args.model,
        input_topic=args.input_topic,
        output_topic=args.output_topic,
        micro_batch_max=args.batch_max,
        trigger_interval_ms=args.trigger_ms,
        keyword_filter=tuple(k.strip() for k in args.keywords.split(",") if k.strip())
        if args.keywords else (),
        language_filter=args.language_filter,
        dedupe_window=args.dedupe_window,
        group=args.group,
        filters_enabled=not args.no_filter,
    )
    stop = threading.Event()
    try:
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread

    with _open_broker(args) as broker:
        if args.create_topics:
            for topic in (config.input_topic, config.output_topic):
                if topic not in broker.topics():
                    broker.create_topic(topic)
        stats = run_stream(broker, config, stop_event=stop,
                           stop_when_idle=args.stop_when_idle)
    manifest = _write_manifest(None, "serve", args, [args.model], [], started,
                               extra={"consumed": stats.consumed, "events": stats.events,
                                      "dead_letters": stats.dead_letters,
                                      "dropped": dict(stats.dropped),
                                      "p50_latency_ms": stats.p50_latency_ms})
    _emit(args, {"consumed": stats.consumed, "events": stats.events,
                 "dead_letters": stats.dead_letters, "dropped": dict(stats.dropped),
                 "p50_latency_ms": stats.p50_latency_ms, "manifest": manifest},
          f"consumed {stats.consumed}, emitted {stats.events} events "
          f"({stats.dead_letters} dead letters, dropped {dict(stats.dropped)}), "
          f"p50 latency {stats.p50_latency_ms} ms")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .stream import aggregate

    started = time.time()
    window = None if args.window in (None, "all") else int(args.window)
    with _open_broker(args) as broker:
        report = aggregate(broker, output_topic=args.output_topic, group=args.group,
                           window=window, jsonl_out=args.jsonl_out, csv_out=args.csv_out)
    outputs = [p for p in (args.jsonl_out, args.csv_out) if p]
    manifest = _write_manifest(args.csv_out or None, "report", args, [], outputs, started)
    pct_s = "NA" if report.pct_suicide is None else f"{report.pct_suicide:.2f}%"
    pct_n = "NA" if report.pct_non_suicide is None else f"{report.pct_non_suicide:.2f}%"
    _emit(args, {**report.to_dict(), "manifest": manifest},
          f"{report.total} events: {report.suicide} suicide ({pct_s}), "
          f"{report.non_suicide} non-suicide ({pct_n})")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from . import store

    header = store.inspect_header(args.model)
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def cmd_broker_create_topic(args: argparse.Namespace) -> int:
    with _open_broker(args) as broker:
        broker.create_topic(args.topic, partitions=args.partitions)
    _emit(args, {"topic": args.topic, "partitions": args.partitions},
          f"created topic {args.topic!r} with {args.partitions} partition(s)")
    return 0


def cmd_broker_offsets(args: argparse.Namespace) -> int:
    with _open_broker(args) as broker:
        ends = broker.end_offsets(args.topic)
    _emit(args, {"topic": args.topic, "end_offsets": ends},
          f"{args.topic}: end offsets {ends}")
    return 0


def _checked(check, convert=str):
    """An argparse ``type``: ``convert`` the text, then run a library
    ``check`` on the value; a ValueError is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _positive(value) -> None:
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def _num_buckets(value: int) -> None:
    from .features import check_num_buckets
    check_num_buckets(value)


TOPIC = _checked(lambda name: _check_name("topic", name))
GROUP = _checked(lambda name: _check_name("group", name))


def _add_broker_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--broker-dir", required=True, help="broker root directory")
    parser.add_argument("--durability", default="batch",
                        choices=["fsync", "batch", "none"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ideation-stream",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="ingest, fit features, train, evaluate, save")
    p.add_argument("--data", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--label-col", default="class")
    p.add_argument("--combo", default="uni-bi-cv-idf", choices=COMBO_CHOICES)
    p.add_argument("--model", default="mlp", choices=MODEL_CHOICES)
    p.add_argument("--out", default="model.isp")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--min-tf", type=int, default=4)
    p.add_argument("--buckets", type=_checked(_num_buckets, int), default=1 << 18)
    p.add_argument("--no-tf-norm", action="store_true",
                   help="skip the 1/doc-length term-frequency normalization")
    p.add_argument("--vocab-cap", type=int, default=None)
    p.add_argument("--grid", default=None,
                   help="'default' for the shipped grid, or inline JSON")
    p.add_argument("--hyper", action="append", default=[], type=_hyper_pair,
                   help="key=value hyperparameter, repeatable")
    p.add_argument("--folds", type=int, default=10,
                   help="cross-validation folds (0 skips CV)")
    p.add_argument("--averaging", default="weighted", choices=["weighted", "positive"])
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--cv-out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--label-col", default="class")
    p.add_argument("--averaging", default="weighted", choices=["weighted", "positive"])
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--roc-out", default=None, help="ROC curve points CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("top-terms", help="per-class term frequency ranking")
    p.add_argument("--data", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--label-col", default="class")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_top_terms)

    p = sub.add_parser("replay", help="produce a file (or '-' for stdin) onto a topic")
    _add_broker_arg(p)
    p.add_argument("--file", required=True)
    p.add_argument("--topic", type=TOPIC, default="Source-tweets")
    p.add_argument("--rate", type=float, default=0.0, help="records/sec, 0 = unpaced")
    p.add_argument("--loop", action="store_true")
    p.add_argument("--create-topics", action="store_true")
    p.add_argument("--partitions", type=_checked(_positive, int), default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("serve", help="run the micro-batch prediction loop")
    _add_broker_arg(p)
    p.add_argument("--model", required=True)
    p.add_argument("--input-topic", type=TOPIC, default="Source-tweets")
    p.add_argument("--output-topic", type=TOPIC, default="Predicted-tweets")
    p.add_argument("--trigger-ms", type=_checked(_positive, float), default=500.0)
    p.add_argument("--batch-max", type=int, default=1024)
    p.add_argument("--keywords", default=None,
                   help="comma-separated keep phrases, e.g. 'feel,want to die,kill myself'")
    p.add_argument("--language-filter", default="off",
                   choices=["off", "english-heuristic"])
    p.add_argument("--dedupe-window", type=int, default=1024)
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--group", type=GROUP, default="stream-engine")
    p.add_argument("--stop-when-idle", action="store_true")
    p.add_argument("--create-topics", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="aggregate prediction events from the output topic")
    _add_broker_arg(p)
    p.add_argument("--output-topic", type=TOPIC, default="Predicted-tweets")
    p.add_argument("--group", type=GROUP, default="aggregate")
    p.add_argument("--window", default="all", help="'all' or a sliding window size")
    p.add_argument("--jsonl-out", default=None)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="dump a stored model's JSON header")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    broker = sub.add_parser("broker", help="broker utilities")
    bsub = broker.add_subparsers(dest="broker_command", required=True)

    p = bsub.add_parser("create-topic")
    _add_broker_arg(p)
    p.add_argument("--topic", type=TOPIC, required=True)
    p.add_argument("--partitions", type=_checked(_positive, int), default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_broker_create_topic)

    p = bsub.add_parser("offsets")
    _add_broker_arg(p)
    p.add_argument("--topic", type=TOPIC, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_broker_offsets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.input_topic == args.output_topic:
        parser.error("serve: --input-topic and --output-topic must differ")
    if args.command == "train":
        _check_hyper(parser, args)
    try:
        return args.func(args)
    except errors.IdeationStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
