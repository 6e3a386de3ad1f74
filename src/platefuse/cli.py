"""Command-line interface.

Subcommands wire the file formats to the fusion, scoring, and generation
APIs:

* ``fuse``      fuse a prediction corpus with one strategy
* ``eval``      score fused outputs (or fuse on the fly) per dataset
* ``sweep``     accuracy/latency table over top-N ensembles
* ``simulate``  generate a synthetic prediction corpus from a config
* ``report``    re-render a delimited report

All outputs are deterministic given the inputs (and the config seed); rerunning
a command reproduces its output byte for byte. Exit status is 0 on success and
1 on any named error, printed to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import errors, fileio
from .core import (
    DEFAULT_ALPHABET,
    NORMALIZE_OFF,
    NORMALIZE_PER_MODEL_MEAN,
    STRATEGY_NAMES,
    apply_strategy,
    check_alphabet,
    normalize_confidences,
    parse_strategy,
)
from .scoring import count_sample, rank_models, recognition_rate, sweep_top_n
from .synth import generate


_NORMALIZE_CHOICES = {"off": NORMALIZE_OFF, "per-model-mean": NORMALIZE_PER_MODEL_MEAN}


def _alphabet(value: str) -> str:
    try:
        return check_alphabet(value)
    except errors.InvalidConfig as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_corpus_options(parser):
    parser.add_argument("--input", required=True, help="prediction corpus (JSONL)")
    parser.add_argument("--alphabet", default=DEFAULT_ALPHABET, type=_alphabet,
                        help="allowed symbols after normalization")
    parser.add_argument("--normalize", choices=sorted(_NORMALIZE_CHOICES),
                        default="off",
                        help="confidence rescaling before fusing (default: off)")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown fields, duplicate ids and unmatched "
                             "fused ids instead of ignoring them with a warning")


def _load_corpus(args):
    """The corpus samples, with confidences rescaled as ``--normalize`` says."""
    samples = fileio.load_predictions(args.input, strict=args.strict,
                                      alphabet=args.alphabet)
    return normalize_confidences(samples, _NORMALIZE_CHOICES[args.normalize])


def _accuracy_ranking(args):
    if not args.profiles:
        return None
    profiles = fileio.load_profiles(args.profiles, strict=args.strict)
    return rank_models(profiles, "accuracy")


def _strategy(parser, args):
    if args.strategy.endswith("-bm") and not args.profiles:
        parser.error(f"strategy {args.strategy!r} requires --profiles")
    return parse_strategy(args.strategy, _accuracy_ranking(args))


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        fileio.write_atomic(output, (text,))


def _cmd_fuse(parser, args) -> int:
    strategy = _strategy(parser, args)
    # Each record is fused and written as it is read.
    fileio.dump_fused((
        fileio.FusedRecord.from_result(s, apply_strategy(s.predictions, strategy))
        for s in _load_corpus(args)
    ), args.output)
    return 0


def _cmd_eval(parser, args) -> int:
    strategy = None if args.fused else _strategy(parser, args)
    fused = {}
    if args.fused:
        # Scoring fused records reads no confidence, so nothing is rescaled.
        args.normalize = "off"
        fused = {r.sample_id: r.text
                 for r in fileio.load_fused(args.fused, strict=args.strict,
                                            alphabet=args.alphabet)}
    # Each sample is scored as it is read; only the fused texts not yet
    # matched and the counts are kept.
    totals, corrects = {}, {}
    for s in _load_corpus(args):
        if strategy is not None:
            text = apply_strategy(s.predictions, strategy).text
        else:
            text = fused.pop(s.sample_id, None)
            if text is None:
                raise errors.UncoveredSample(
                    f"no fused output for sample {s.sample_id!r}")
        if text == count_sample(totals, s):
            corrects[s.dataset] = corrects.get(s.dataset, 0) + 1
    tolerate = fileio._Tolerance(strict=False)
    for sample_id in fused:
        message = f"fused sample_id {sample_id!r} is not in {args.input}"
        if args.strict:
            raise errors.UnknownSample(f"{args.fused}: {message}")
        tolerate("fused sample_ids not in the corpus", message, args.fused)
    tolerate.log_counts()
    reports = recognition_rate(totals, corrects)
    _write(fileio.render_report(reports, args.format), args.output)
    return 0


def _cmd_sweep(parser, args) -> int:
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        parser.error("no strategies to sweep")
    for i, name in enumerate(names):
        if name not in STRATEGY_NAMES:
            parser.error(f"unknown strategy {name!r}")
        if name in names[:i]:
            parser.error(f"strategy {name!r} given twice")
    profiles = fileio.load_profiles(args.profiles, strict=args.strict)
    ranking = None
    if any(name.endswith("-bm") or name == "hc" for name in names):
        ranking = rank_models(profiles, "accuracy")
    strategies = [parse_strategy(name, ranking) for name in names]
    report = sweep_top_n(_load_corpus(args), profiles, strategies, ranking_mode=args.rank)
    _write(fileio.render_report(report, args.format), args.output)
    return 0


def _cmd_simulate(parser, args) -> int:
    config = fileio.load_synth_config(args.config)
    fileio.dump_predictions(generate(config), args.output)
    return 0


def _cmd_report(parser, args) -> int:
    text = fileio.read_text(args.input)
    _write(fileio.reformat_report(text, args.format), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platefuse",
        description="Fuse, score, and sweep multi-model string recognizer outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse a prediction corpus with one strategy")
    _add_corpus_options(p)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--profiles", help="model profiles (JSONL); required for *-bm")
    p.add_argument("--output", required=True, help="fused records (JSONL)")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("eval", help="exact-match rates per dataset")
    _add_corpus_options(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fused", help="previously fused records (JSONL)")
    source.add_argument("--strategy", choices=STRATEGY_NAMES,
                        help="fuse on the fly with this strategy")
    p.add_argument("--profiles", help="model profiles (JSONL)")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_DELIMITED)
    p.add_argument("--output", help="report destination (default: stdout)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sweep", help="accuracy/latency over top-N ensembles")
    _add_corpus_options(p)
    p.add_argument("--profiles", required=True, help="model profiles (JSONL)")
    p.add_argument("--rank", choices=("accuracy", "speed"), default="accuracy")
    p.add_argument("--strategies", default=",".join(STRATEGY_NAMES),
                   help="comma-separated strategy names (default: all five)")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_DELIMITED)
    p.add_argument("--output", help="report destination (default: stdout)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", help="generate a synthetic prediction corpus")
    p.add_argument("--config", required=True, help="generator config (JSON)")
    p.add_argument("--output", required=True, help="prediction corpus (JSONL)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="re-render a delimited report")
    p.add_argument("--input", required=True, help="delimited report file")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_TABLE)
    p.add_argument("--output", help="destination (default: stdout)")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except errors.PlatefuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
