"""Command-line entry point.

Subcommands cover both phases: ``train`` / ``evaluate`` / ``top-terms``
for the batch phase, ``replay`` / ``serve`` / ``report`` for the streaming
phase, plus ``inspect`` and the ``broker`` utilities. Every command but
``inspect`` supports ``--json`` for machine-readable results on stdout
(``inspect`` always prints the header as JSON), and every command but
``inspect``, ``broker create-topic`` and ``broker offsets`` writes a JSON
run manifest beside its primary output, or in the working directory when
it has none.

Each command returns what it reports; ``main`` times it, writes its
manifest and prints the result. A library error exits with its class's
``exit_code`` (see ``ideation_stream.errors``); argparse usage errors exit
with 2. Set SOURCE_DATE_EPOCH to pin the timestamp embedded in saved
models, which makes re-runs byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import errors
from .broker import _check_name
from .corpus import SplitSpec
from .hashutil import sha256_file

COMBO_CHOICES = ["uni-tfidf", "uni-cv-idf", "bi-cv-idf", "uni-bi-cv-idf"]
MODEL_CHOICES = ["nb", "lr", "svc", "dt", "rf", "mlp"]


class Manifest(NamedTuple):
    """A command's run manifest, written to ``<primary or command>.manifest.json``:
    the argv, seed, input digests, outputs and timing, plus ``extra``."""
    primary: str | None
    inputs: list[str]
    outputs: list[str]
    extra: dict | None = None


# what a command reports: its --json payload, its human text, its manifest if it writes one
Outcome = tuple[dict, str, Manifest | None]


def _now() -> float:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return float(epoch) if epoch else time.time()


def _write(path, text: str) -> str:
    """Write ``text`` to ``path``; an OS error is ``IoFailure``."""
    try:
        Path(path).write_text(text, "utf-8")
    except OSError as exc:
        raise errors.IoFailure(f"cannot write {path}: {exc}") from exc
    return str(path)


def _write_manifest(args: argparse.Namespace, spec: Manifest, started: float) -> str:
    manifest = {
        "command": args.command,
        "argv": {k: v for k, v in vars(args).items() if k != "func"},
        "seeds": {"seed": getattr(args, "seed", None)},
        "input_digests": {p: sha256_file(p) for p in spec.inputs if p and Path(p).is_file()},
        "outputs": spec.outputs,
        "started_at": started,
        "duration_s": time.time() - started,
        **(spec.extra or {}),
    }
    return _write(f"{spec.primary or args.command}.manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True, default=str))


def _load_labeled(path: str, text_col: str, label_col: str):
    from .corpus import dedupe_and_clean, load_csv

    raw = load_csv(path, text_column=text_col, label_column=label_col)
    cleaned, report = dedupe_and_clean(raw)
    return cleaned, raw.load_report, report


def _tokens(docs, pconfig) -> list:
    from .preprocess import preprocess

    return [preprocess(d.text, pconfig, source_id=d.id).tokens for d in docs]


def _labeled(batch, docs):
    """The documents' TF-IDF rows, one batch, with their labels."""
    from .classifiers import LabeledDataset
    from .corpus import LABEL_TO_INT

    return LabeledDataset(batch, [LABEL_TO_INT[d.label] for d in docs])


def _hyper_pair(pair: str) -> tuple[str, object]:
    """An argparse ``type`` for ``--hyper key=value``: the value is JSON
    when it starts like a JSON number, list, object or boolean, else text."""
    key, sep, value = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expects key=value, got {pair!r}")
    try:
        parsed = json.loads(value) if value and value[0] in "[{0123456789.-tf" else value
    except (ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"{pair!r}: {exc}") from None
    return key.replace("-", "_"), parsed


def _grid_shape(grid) -> None:
    if grid != "default" and not (isinstance(grid, dict) and grid and all(
            isinstance(values, list) and values for values in grid.values())):
        raise ValueError("expects 'default' or a JSON object whose values are non-empty lists")


def _check_hyper(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage error unless each ``--hyper`` and ``--grid`` key is a parameter of
    the chosen trainer, each value for it has the type of its default, and
    no key is given to both (every grid point is scored with the ``--hyper``
    values, so the saved model is one that was cross-validated)."""
    from .classifiers import DEFAULT_GRIDS, TRAINERS, ModelKind

    kind = ModelKind(args.model)
    params = inspect.signature(TRAINERS[kind]).parameters
    grid = DEFAULT_GRIDS[kind] if args.grid == "default" else args.grid or {}
    if both := sorted(grid.keys() & dict(args.hyper).keys()):
        parser.error(f"--hyper {both[0]}: also a --grid key; give it to one of them")
    pairs = [("--hyper", key, value) for key, value in args.hyper]
    pairs += [("--grid", key, value) for key, values in grid.items() for value in values]
    for flag, key, value in pairs:
        if key not in params or key in ("data", "seed"):
            parser.error(f"{flag} {key}: not a hyperparameter of the {args.model} trainer")
        default = params[key].default
        want = list if isinstance(default, tuple) else type(default)
        if not (type(value) is want or want is float and type(value) is int):
            parser.error(f"{flag} {key}={json.dumps(value)}: expects a value like "
                         f"{json.dumps(default)}")


def cmd_train(args: argparse.Namespace) -> Outcome:
    from . import store
    from .classifiers import DEFAULT_GRIDS, ModelKind, cross_validate
    from .corpus import split
    from .evaluation import Averaging, evaluate_model
    from .features import fit_pipeline
    from .preprocess import PreprocessConfig

    for path in (args.out, args.metrics_out, args.cv_out):  # fail before any work
        if path and not Path(path).parent.is_dir():
            raise errors.IoFailure(f"cannot write {path}: {Path(path).parent} is not a directory")
    corpus, load_report, clean_report = _load_labeled(args.data, args.text_col, args.label_col)
    train_corpus, test_corpus = split(corpus, SplitSpec(train_fraction=args.train_frac,
                                                        seed=args.seed))
    pconfig = PreprocessConfig.load_default()
    pipeline, train_batch = fit_pipeline(
        _tokens(train_corpus.documents, pconfig), args.combo, min_tf=args.min_tf,
        num_buckets=args.buckets, normalize_tf=not args.no_tf_norm, vocab_cap=args.vocab_cap)
    train_data = _labeled(train_batch, train_corpus.documents)
    test_data = _labeled(pipeline.transform_batch(_tokens(test_corpus.documents, pconfig)),
                         test_corpus.documents)

    kind = ModelKind(args.model)
    params, cv_reports, model = cross_validate(
        kind, dict(args.hyper), train_data, k=args.folds, seed=args.seed,
        grid=DEFAULT_GRIDS[kind] if args.grid == "default" else args.grid)
    model.training_meta["trained_at"] = _now()
    report, cm = evaluate_model(model, test_data, averaging=Averaging(args.averaging))

    digest = store.save(pipeline, model, args.out,
                        metrics_snapshot=report.to_dict(),
                        preprocess_config_digest=pconfig.digest())
    outputs = [args.out]
    if args.metrics_out:
        outputs.append(_write(args.metrics_out,
                              "model,combo,accuracy,precision,recall,f1,auc\n"
                              f"{kind.value},{pipeline.combo.value},{report.csv_row()}\n"))
    if args.cv_out and cv_reports:
        table = io.StringIO()
        rows = csv.writer(table, lineterminator="\n")
        rows.writerow(["model", "params", "mean_accuracy", "std_accuracy"])
        rows.writerows([rep.kind.value, json.dumps(rep.params), f"{rep.mean_accuracy:.6f}",
                        f"{rep.std_accuracy:.6f}"] for rep in cv_reports)
        outputs.append(_write(args.cv_out, table.getvalue()))

    payload = {"model": args.out, "digest": digest, "params": params,
               "metrics": report.to_dict(), "cv": [r.to_dict() for r in cv_reports]}
    human = (f"saved {args.out} (digest {digest[:12]}…)\n"
             f"test metrics: acc={report.accuracy:.4f} p={report.precision:.4f} "
             f"r={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f}")
    return payload, human, Manifest(args.out, [args.data], outputs, extra={
        "model_digest": digest, "rows_loaded": load_report.rows_read,
        "duplicates_removed": clean_report.duplicates_removed,
        "train_rows": len(train_data), "test_rows": len(test_data), "params": params})


def cmd_evaluate(args: argparse.Namespace) -> Outcome:
    from . import store
    from .evaluation import Averaging, evaluate_model, roc_points
    from .preprocess import PreprocessConfig

    pipeline, model = store.load(args.model)
    corpus, _, _ = _load_labeled(args.data, args.text_col, args.label_col)
    pconfig = PreprocessConfig.load_default()
    data = _labeled(pipeline.transform_batch(_tokens(corpus.documents, pconfig)),
                    corpus.documents)
    report, cm = evaluate_model(model, data, averaging=Averaging(args.averaging))

    outputs = []
    table = f"accuracy,precision,recall,f1,auc\n{report.csv_row()}"
    if args.out:
        outputs.append(_write(args.out, table + "\n"))
    if args.roc_out:
        pts = roc_points(report.scores, data.labels)
        lines = ["fpr,tpr,threshold"] + [f"{f:.6f},{t:.6f},{thr}" for f, t, thr in pts]
        outputs.append(_write(args.roc_out, "\n".join(lines) + "\n"))

    payload = {"metrics": report.to_dict(),
               "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn}}
    return payload, table, Manifest(args.out, [args.model, args.data], outputs)


def cmd_top_terms(args: argparse.Namespace) -> Outcome:
    from .corpus import load_csv
    from .evaluation import top_terms
    from .preprocess import PreprocessConfig, preprocess

    corpus = load_csv(args.data, text_column=args.text_col, label_column=args.label_col)
    pconfig = PreprocessConfig.load_default()
    labeled = ((preprocess(d.text, pconfig).tokens, d.label) for d in corpus.documents)
    ranked = top_terms(labeled, args.cls, args.k)

    body = "\n".join(["term,frequency"] + [f"{term},{freq}" for term, freq in ranked])
    outputs = [_write(args.out, body + "\n")] if args.out else []
    return {"terms": ranked}, body, Manifest(args.out, [args.data], outputs)


def _open_broker(args: argparse.Namespace):
    from .broker import Broker

    return Broker(args.broker_dir, durability=args.durability)


def cmd_replay(args: argparse.Namespace) -> Outcome:
    from .stream import replay_produce

    with _open_broker(args) as broker:
        if args.create_topics and args.topic not in broker.topics():
            broker.create_topic(args.topic, partitions=args.partitions)
        source = sys.stdin if args.file == "-" else args.file
        stats = replay_produce(source, broker, args.topic, rate=args.rate, loop=args.loop)
    payload = {"produced": stats.produced, "malformed": stats.malformed}
    return (payload,
            f"produced {stats.produced} records ({stats.malformed} malformed lines skipped)",
            Manifest(None, [args.file] if args.file != "-" else [], [], extra=payload))


def cmd_serve(args: argparse.Namespace) -> Outcome:
    import signal
    import threading

    from .stream import StreamConfig, run_stream

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
    replaced = {}  # signal -> the handler it had, put back on the way out
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            replaced[sig] = signal.signal(sig, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread
    try:
        with _open_broker(args) as broker:
            if args.create_topics:
                for topic in (config.input_topic, config.output_topic):
                    if topic not in broker.topics():
                        broker.create_topic(topic)
            stats = run_stream(broker, config, stop_event=stop,
                               stop_when_idle=args.stop_when_idle)
    finally:
        for sig, handler in replaced.items():
            signal.signal(sig, handler)
    payload = {"consumed": stats.consumed, "events": stats.events,
               "dead_letters": stats.dead_letters, "dropped": dict(stats.dropped),
               "p50_latency_ms": stats.p50_latency_ms}
    return (payload,
            f"consumed {stats.consumed}, emitted {stats.events} events "
            f"({stats.dead_letters} dead letters, dropped {dict(stats.dropped)}), "
            f"p50 latency {stats.p50_latency_ms} ms",
            Manifest(None, [args.model], [], extra=payload))


def cmd_report(args: argparse.Namespace) -> Outcome:
    from .stream import aggregate

    with _open_broker(args) as broker:
        report = aggregate(broker, output_topic=args.output_topic, group=args.group,
                           window=args.window, jsonl_out=args.jsonl_out, csv_out=args.csv_out)
    pct_s = "NA" if report.pct_suicide is None else f"{report.pct_suicide:.2f}%"
    pct_n = "NA" if report.pct_non_suicide is None else f"{report.pct_non_suicide:.2f}%"
    return (report.to_dict(),
            f"{report.total} events: {report.suicide} suicide ({pct_s}), "
            f"{report.non_suicide} non-suicide ({pct_n})",
            Manifest(args.csv_out, [], [p for p in (args.jsonl_out, args.csv_out) if p]))


def cmd_inspect(args: argparse.Namespace) -> Outcome:
    from . import store

    header = store.inspect_header(args.model)
    return header, json.dumps(header, indent=2, sort_keys=True), None


def cmd_broker_create_topic(args: argparse.Namespace) -> Outcome:
    with _open_broker(args) as broker:
        broker.create_topic(args.topic, partitions=args.partitions)
    return ({"topic": args.topic, "partitions": args.partitions},
            f"created topic {args.topic!r} with {args.partitions} partition(s)", None)


def cmd_broker_offsets(args: argparse.Namespace) -> Outcome:
    with _open_broker(args) as broker:
        ends = broker.end_offsets(args.topic)
    return {"topic": args.topic, "end_offsets": ends}, f"{args.topic}: end offsets {ends}", None


def _checked(check, convert=str):
    """An argparse ``type``: ``convert`` the text, then run a library
    ``check`` on the value; a ValueError is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except (ValueError, RecursionError) as exc:  # the latter: JSON nested too deep
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _positive(value) -> None:
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def _non_negative(value) -> None:
    if not value >= 0:
        raise ValueError(f"must be >= 0, got {value}")


def _trigger_ms(value: float) -> None:
    from .stream import check_trigger_ms
    check_trigger_ms(value)


def _num_buckets(value: int) -> None:
    from .features import check_num_buckets
    check_num_buckets(value)


TOPIC = _checked(lambda name: _check_name("topic", name))
GROUP = _checked(lambda name: _check_name("group", name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ideation-stream",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags several commands share, declared once as parent parsers
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--data", required=True)
    corpus.add_argument("--text-col", default="text")
    corpus.add_argument("--label-col", default="class")
    averaging = argparse.ArgumentParser(add_help=False)
    averaging.add_argument("--averaging", default="weighted", choices=["weighted", "positive"])
    broker_dir = argparse.ArgumentParser(add_help=False)
    broker_dir.add_argument("--broker-dir", required=True, help="broker root directory")
    broker_dir.add_argument("--durability", default="batch",
                            choices=["fsync", "batch", "none"])

    p = sub.add_parser("train", help="ingest, fit features, train, evaluate, save",
                       parents=[corpus, averaging, as_json])
    p.add_argument("--combo", default="uni-bi-cv-idf", choices=COMBO_CHOICES)
    p.add_argument("--model", default="mlp", choices=MODEL_CHOICES)
    p.add_argument("--out", default="model.isp")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--train-frac", type=_checked(lambda f: SplitSpec(f), float), default=0.8)
    p.add_argument("--min-tf", type=int, default=4)
    p.add_argument("--buckets", type=_checked(_num_buckets, int), default=1 << 18)
    p.add_argument("--no-tf-norm", action="store_true",
                   help="skip the 1/doc-length term-frequency normalization")
    p.add_argument("--vocab-cap", type=_checked(_positive, int), default=None)
    p.add_argument("--grid", help="'default' for the shipped grid, or inline JSON",
                   type=_checked(_grid_shape, lambda t: t if t == "default" else json.loads(t)))
    p.add_argument("--hyper", action="append", default=[], type=_hyper_pair,
                   help="key=value hyperparameter, repeatable")
    p.add_argument("--folds", type=_checked(_non_negative, int), default=10,
                   help="cross-validation folds (0 skips CV)")
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--cv-out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a labeled CSV",
                       parents=[corpus, averaging, as_json])
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--roc-out", default=None, help="ROC curve points CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("top-terms", help="per-class term frequency ranking",
                       parents=[corpus, as_json])
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--k", type=_checked(_positive, int), default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_top_terms)

    p = sub.add_parser("replay", help="produce a file (or '-' for stdin) onto a topic",
                       parents=[broker_dir, as_json])
    p.add_argument("--file", required=True)
    p.add_argument("--topic", type=TOPIC, default="Source-tweets")
    p.add_argument("--rate", type=_checked(_non_negative, float), default=0.0,
                   help="records/sec, 0 = unpaced")
    p.add_argument("--loop", action="store_true")
    p.add_argument("--create-topics", action="store_true")
    p.add_argument("--partitions", type=_checked(_positive, int), default=1)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("serve", help="run the micro-batch prediction loop",
                       parents=[broker_dir, as_json])
    p.add_argument("--model", required=True)
    p.add_argument("--input-topic", type=TOPIC, default="Source-tweets")
    p.add_argument("--output-topic", type=TOPIC, default="Predicted-tweets")
    p.add_argument("--trigger-ms", type=_checked(_trigger_ms, float), default=500.0)
    p.add_argument("--batch-max", type=_checked(_positive, int), default=1024)
    p.add_argument("--keywords", default=None,
                   help="comma-separated keep phrases, e.g. 'feel,want to die,kill myself'")
    p.add_argument("--language-filter", default="off",
                   choices=["off", "english-heuristic"])
    p.add_argument("--dedupe-window", type=_checked(_non_negative, int), default=1024)
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--group", type=GROUP, default="stream-engine")
    p.add_argument("--stop-when-idle", action="store_true")
    p.add_argument("--create-topics", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="aggregate prediction events from the output topic",
                       parents=[broker_dir, as_json])
    p.add_argument("--output-topic", type=TOPIC, default="Predicted-tweets")
    p.add_argument("--group", type=GROUP, default="aggregate")
    p.add_argument("--window", default="all", help="'all' or a sliding window size",
                   type=_checked(lambda size: size is None or _positive(size),
                                 lambda t: None if t == "all" else int(t)))
    p.add_argument("--jsonl-out", default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="dump a stored model's JSON header")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    broker = sub.add_parser("broker", help="broker utilities")
    bsub = broker.add_subparsers(dest="broker_command", required=True)

    p = bsub.add_parser("create-topic", parents=[broker_dir, as_json])
    p.add_argument("--topic", type=TOPIC, required=True)
    p.add_argument("--partitions", type=_checked(_positive, int), default=1)
    p.set_defaults(func=cmd_broker_create_topic)

    p = bsub.add_parser("offsets", parents=[broker_dir, as_json])
    p.add_argument("--topic", type=TOPIC, required=True)
    p.set_defaults(func=cmd_broker_offsets)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: time it, write its manifest (if it has one) before
    its payload gains the manifest's path, print the ``--json`` line or the
    human text, and map a library error to its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.input_topic == args.output_topic:
        parser.error("serve: --input-topic and --output-topic must differ")
    if args.command == "train":
        _check_hyper(parser, args)
    started = time.time()
    try:
        payload, human, manifest = args.func(args)
        if manifest is not None:
            payload["manifest"] = _write_manifest(args, manifest, started)
    except errors.IdeationStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(payload, sort_keys=True, default=str) if getattr(args, "json", False)
          else human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
