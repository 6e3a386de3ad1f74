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
1 on any named error, printed to stderr; a usage error prints the
subcommand's usage and exits 2. ``--output -`` writes to stdout in every
command.
"""

from __future__ import annotations

import argparse
import sys

from . import errors, fileio
from .core import (
    DEFAULT_ALPHABET,
    STRATEGY_NAMES,
    FusionStrategy,
    apply_strategy,
    check_alphabet,
    normalize_confidences,
)
from .scoring import count_sample, rank_models, recognition_rate, sweep_top_n
from .synth import generate


def _alphabet(value: str) -> str:
    try:
        return check_alphabet(value)
    except errors.InvalidConfig as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_corpus_options(parser):
    parser.add_argument("--input", required=True, help="prediction corpus (JSONL)")
    parser.add_argument("--alphabet", default=DEFAULT_ALPHABET, type=_alphabet,
                        help="allowed symbols after normalization")
    parser.add_argument("--normalize", choices=("off", "per-model-mean"),
                        default="off",
                        help="confidence rescaling before fusing (default: off)")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown fields, duplicate ids and unmatched "
                             "fused ids instead of ignoring them with a warning")


def _load_corpus(args):
    """The corpus samples, with confidences rescaled as ``--normalize`` says."""
    samples = fileio.load_predictions(args.input, strict=args.strict,
                                      alphabet=args.alphabet)
    return normalize_confidences(samples, args.normalize)


def _strategies(parser, args, names):
    """The ``--profiles`` (None without them) and a strategy per name.

    Only ``hc`` and the ``*-bm`` strategies read the accuracy ranking, so
    only they need every profile to carry an ``accuracy_rank``.
    """
    for i, name in enumerate(names):
        if name not in STRATEGY_NAMES:
            parser.error(f"unknown strategy {name!r}")
        if name in names[:i]:
            parser.error(f"strategy {name!r} given twice")
        if name.endswith("-bm") and not args.profiles:
            parser.error(f"strategy {name!r} requires --profiles")
    profiles = ranking = None
    if args.profiles:
        profiles = fileio.load_profiles(args.profiles, strict=args.strict)
        if any(name == "hc" or name.endswith("-bm") for name in names):
            ranking = rank_models(profiles, "accuracy")
    return profiles, [FusionStrategy(name, ranking) for name in names]


def _cmd_fuse(parser, args) -> int:
    _, (strategy,) = _strategies(parser, args, [args.strategy])
    # Each record is fused and written as it is read.
    fileio.dump_fused((
        fileio.FusedRecord.from_result(s, apply_strategy(s.predictions, strategy))
        for s in _load_corpus(args)
    ), args.output)
    return 0


def _cmd_eval(parser, args) -> int:
    strategy, fused = None, {}
    if args.strategy:
        _, (strategy,) = _strategies(parser, args, [args.strategy])
    else:
        if args.profiles:
            parser.error("--profiles applies only with --strategy")
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
    fileio.write_atomic(args.output, (fileio.render_report(reports, args.format),))
    return 0


def _cmd_sweep(parser, args) -> int:
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        parser.error("no strategies to sweep")
    profiles, strategies = _strategies(parser, args, names)
    report = sweep_top_n(_load_corpus(args), profiles, strategies, ranking_mode=args.rank)
    fileio.write_atomic(args.output, (fileio.render_report(report, args.format),))
    return 0


def _cmd_simulate(parser, args) -> int:
    config = fileio.load_synth_config(args.config)
    fileio.dump_predictions(generate(config), args.output)
    return 0


def _cmd_report(parser, args) -> int:
    text = fileio.read_text(args.input)
    fileio.write_atomic(args.output, (fileio.reformat_report(text, args.format),))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platefuse",
        description="Fuse, score, and sweep multi-model string recognizer outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        # Each handler reports usage errors through its own subcommand's parser.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("fuse", _cmd_fuse, "fuse a prediction corpus with one strategy")
    _add_corpus_options(p)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--profiles", help="model profiles (JSONL); required for *-bm")
    p.add_argument("--output", required=True, help="fused records (JSONL); - for stdout")

    p = command("eval", _cmd_eval, "exact-match rates per dataset")
    _add_corpus_options(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fused", help="previously fused records (JSONL)")
    source.add_argument("--strategy", choices=STRATEGY_NAMES,
                        help="fuse on the fly with this strategy")
    p.add_argument("--profiles", help="model profiles (JSONL)")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_DELIMITED)
    p.add_argument("--output", default="-", help="report file (default: - for stdout)")

    p = command("sweep", _cmd_sweep, "accuracy/latency over top-N ensembles")
    _add_corpus_options(p)
    p.add_argument("--profiles", required=True, help="model profiles (JSONL)")
    p.add_argument("--rank", choices=("accuracy", "speed"), default="accuracy")
    p.add_argument("--strategies", default=",".join(STRATEGY_NAMES),
                   help="comma-separated strategy names (default: all five)")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_DELIMITED)
    p.add_argument("--output", default="-", help="report file (default: - for stdout)")

    p = command("simulate", _cmd_simulate, "generate a synthetic prediction corpus")
    p.add_argument("--config", required=True, help="generator config (JSON)")
    p.add_argument("--output", required=True, help="predictions (JSONL); - for stdout")

    p = command("report", _cmd_report, "re-render a delimited report")
    p.add_argument("--input", required=True, help="delimited report file")
    p.add_argument("--format", choices=(fileio.FORMAT_DELIMITED, fileio.FORMAT_TABLE),
                   default=fileio.FORMAT_TABLE)
    p.add_argument("--output", default="-", help="destination (default: - for stdout)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except (errors.PlatefuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
