"""Domain types and fusion strategies for multi-recognizer string ensembles.

An ensemble is a map ``model id -> Prediction`` for one input. Three ways to
combine it are provided:

* :func:`hc_fuse`    take the single most confident prediction;
* :func:`mv_fuse`    plurality vote over whole sequences;
* :func:`mvcp_fuse`  plurality vote per character position, concatenated.

Vote ties are resolved by a :class:`TieBreak`: either the tied candidate
backed by the highest confidence, or the one predicted by the best model
under a fixed ranking. Exact confidence ties fall back to the ranking for
:func:`hc_fuse` and to model-id order elsewhere, so every operation is a pure,
deterministic function of its inputs and safe to call from any number of
threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress
from typing import Iterable, Mapping, Sequence

from . import _kernels_py as kernels
from . import errors

DEFAULT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# Characters dropped (not rejected) during normalization: hyphen, period, and
# whitespace.
_SEPARATORS = frozenset("-. \t\r\n\f\v")

NORMALIZE_OFF = "off"
NORMALIZE_PER_MODEL_MEAN = "per_model_mean_scaling"


def backend_name() -> str:
    """Name of the kernel implementation, for run records: always 'python'."""
    return "python"


@functools.lru_cache(maxsize=8)
def _symbol_table(alphabet: str) -> dict[str, str]:
    """Raw character -> its normalized form ('' for separators).

    A symbol is accepted as itself or as its lowercase form whose uppercase is
    exactly that symbol. Characters whose full case mapping changes length
    ('ß', 'ﬁ') or that fold onto a symbol without being its lowercase
    ('ı', 'ſ') are absent, so normalization never changes a text's length
    other than by dropping separators.
    """
    table = {}
    for symbol in alphabet:
        for ch in (symbol, symbol.lower()):
            if ch.upper() == symbol:
                table[ch] = symbol
    table.update(dict.fromkeys(_SEPARATORS, ""))
    return table


@functools.lru_cache(maxsize=8)
def _kept(alphabet: str) -> str:
    """The characters that :func:`_symbol_table` maps to themselves."""
    return "".join(ch for ch, norm in _symbol_table(alphabet).items() if ch == norm)


def normalize_text(raw: str, alphabet: str = DEFAULT_ALPHABET) -> str:
    """Uppercase ``raw`` and strip separator characters.

    Raises:
        SymbolOutsideAlphabet: a non-separator character is neither an
            alphabet symbol nor its lowercase form (the message names the
            raw character).
        EmptyAfterNormalization: nothing is left.
    """
    # Already normalized: every character maps to itself.
    if raw and not raw.strip(_kept(alphabet)):
        return raw
    table = _symbol_table(alphabet)
    try:
        text = "".join([table[ch] for ch in raw])
    except KeyError as exc:
        raise errors.SymbolOutsideAlphabet(
            f"symbol {exc.args[0]!r} in {raw!r} is not in the alphabet"
        ) from None
    if not text:
        raise errors.EmptyAfterNormalization(
            f"nothing left of {raw!r} after normalization"
        )
    return text


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value, name: str, error: type[errors.PlatefuseError]) -> float:
    """``value`` as a float if it is a number (see :func:`is_number`).

    An integer too large for a float becomes an infinity of its sign, so
    the caller's range check rejects it.
    """
    if not is_number(value):
        raise error(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Prediction:
    """One model's output for one input: a normalized string plus confidence.

    The confidence must be a real number in [0, 1]; an integer is stored as
    the equal float. This is the one place a confidence is validated.
    """

    text: str
    confidence: float

    def __post_init__(self):
        if not self.text:
            raise errors.EmptyAfterNormalization("prediction text is empty")
        c = self.confidence
        if type(c) is not float:
            c = _real(c, "confidence", errors.InvalidConfidence)
            object.__setattr__(self, "confidence", c)
        # NaN fails both comparisons, infinities the range.
        if not 0.0 <= c <= 1.0:
            raise errors.InvalidConfidence(f"confidence {c!r} outside [0, 1]")


@dataclass(frozen=True)
class Sample:
    """A single test instance and the predictions made for it.

    ``ground_truth`` is optional; exact-match scoring requires it. Texts are
    expected to be normalized already (loaders and the generator take care of
    that).
    """

    sample_id: str
    dataset: str
    ground_truth: str | None
    predictions: Mapping[str, Prediction]

    def __post_init__(self):
        if not self.sample_id:
            raise errors.InvalidConfig("sample_id must be non-empty")
        if not self.dataset:
            raise errors.InvalidConfig("dataset must be non-empty")


@dataclass(frozen=True)
class ModelProfile:
    """A model's identity, accuracy-rank position (1 = best), and mean latency.

    The latency must be a positive finite real; an integer is stored as the
    equal float, as in :class:`Prediction`.
    """

    model_id: str
    latency_ms: float
    accuracy_rank: int | None = None

    def __post_init__(self):
        if not self.model_id:
            raise errors.InvalidConfig("model id must be non-empty")
        latency = self.latency_ms
        if type(latency) is not float:
            latency = _real(latency, "latency_ms", errors.InvalidConfig)
            object.__setattr__(self, "latency_ms", latency)
        if not (math.isfinite(latency) and latency > 0):
            raise errors.InvalidConfig(
                f"latency_ms must be a positive real, got {latency!r}"
            )
        if self.accuracy_rank is not None and (
            not isinstance(self.accuracy_rank, int)
            or isinstance(self.accuracy_rank, bool)
            or self.accuracy_rank < 1
        ):
            raise errors.InvalidConfig(
                f"accuracy_rank must be a positive integer, got {self.accuracy_rank!r}"
            )


class StrategyKind(Enum):
    HC = "hc"
    MV = "mv"
    MVCP = "mvcp"


class TieBreakKind(Enum):
    HIGHEST_CONFIDENCE = "hc"
    BEST_MODEL = "bm"


@dataclass(frozen=True)
class TieBreak:
    """How vote ties are resolved.

    ``ranking`` (most trusted model first) is required for BEST_MODEL and
    ignored for HIGHEST_CONFIDENCE.
    """

    kind: TieBreakKind
    ranking: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.ranking is not None:
            object.__setattr__(self, "ranking", tuple(self.ranking))
            if len(set(self.ranking)) != len(self.ranking):
                raise errors.InvalidConfig("tie-break ranking contains duplicates")
        if self.kind is TieBreakKind.BEST_MODEL and not self.ranking:
            raise errors.InvalidConfig("best-model tie-break requires a ranking")


@dataclass(frozen=True)
class FusionStrategy:
    """One of the five supported configurations (see :func:`parse_strategy`)."""

    kind: StrategyKind
    tiebreak: TieBreak | None = None

    def __post_init__(self):
        if self.kind is not StrategyKind.HC and self.tiebreak is None:
            raise errors.InvalidConfig(
                f"{self.kind.value} fusion requires a tie-break"
            )

    @property
    def name(self) -> str:
        """Canonical spelling: hc, mv-bm, mv-hc, mvcp-bm, mvcp-hc."""
        if self.kind is StrategyKind.HC:
            return "hc"
        return f"{self.kind.value}-{self.tiebreak.kind.value}"


STRATEGY_NAMES = ("hc", "mv-bm", "mv-hc", "mvcp-bm", "mvcp-hc")


def parse_strategy(name: str, ranking: Sequence[str] | None = None) -> FusionStrategy:
    """Build a :class:`FusionStrategy` from its canonical spelling.

    ``ranking`` is required for the ``*-bm`` strategies. When given with
    ``hc`` it is used to settle exact confidence ties.
    """
    if name not in STRATEGY_NAMES:
        raise errors.InvalidConfig(
            f"unknown strategy {name!r}; expected one of {', '.join(STRATEGY_NAMES)}"
        )
    if name == "hc":
        tb = TieBreak(TieBreakKind.BEST_MODEL, tuple(ranking)) if ranking else None
        return FusionStrategy(StrategyKind.HC, tb)
    kind_s, _, tb_s = name.partition("-")
    kind = StrategyKind(kind_s)
    if tb_s == "hc":
        return FusionStrategy(kind, TieBreak(TieBreakKind.HIGHEST_CONFIDENCE))
    if ranking is None:
        raise errors.InvalidConfig(f"strategy {name!r} requires a model ranking")
    return FusionStrategy(kind, TieBreak(TieBreakKind.BEST_MODEL, tuple(ranking)))


@dataclass(frozen=True)
class FusionResult:
    """A fused text plus provenance.

    ``winning_votes`` is the winning vote count for mv, the number of
    predictions exactly equal to the output for mvcp, and 0 for hc.
    ``contributors`` holds the models whose prediction equals the output
    (hc/mv) or that supplied at least one winning character (mvcp).
    """

    text: str
    winning_votes: int
    tie_broken: bool
    contributors: frozenset[str]


@functools.lru_cache(maxsize=8)
def _positions(ranking: tuple[str, ...]) -> dict[str, int]:
    """Model id -> its position in ``ranking``."""
    return {m: i for i, m in enumerate(ranking)}


def _prepare(predictions: Mapping[str, Prediction],
             ranking: Sequence[str] | None):
    """Canonicalize an ensemble into the parallel kernel inputs.

    Entries are sorted by model id so results never depend on map iteration
    order. ``prio`` is the ranking position when a ranking is given, the
    id-sorted position otherwise.
    """
    if not predictions:
        raise errors.EmptyEnsemble("no predictions to fuse")
    ids = sorted(predictions)
    entries = [predictions[m] for m in ids]
    texts = [p.text for p in entries]
    confs = [p.confidence for p in entries]
    if ranking is None:
        prio = list(range(len(ids)))
    else:
        pos = _positions(tuple(ranking))
        try:
            prio = [pos[m] for m in ids]
        except KeyError as exc:
            raise errors.IncompleteRanking(
                f"model {exc.args[0]!r} is missing from the ranking"
            ) from None
    return ids, texts, confs, prio


def hc_fuse(predictions: Mapping[str, Prediction],
            ranking: Sequence[str] | None) -> FusionResult:
    """Select the prediction with the highest confidence.

    Exact confidence ties go to the model appearing earliest in ``ranking``,
    or to the smallest model id when ``ranking`` is None; ``tie_broken``
    reports whether that happened.
    """
    ids, texts, confs, prio = _prepare(predictions, ranking)
    idx, tie = kernels.hc_select(confs, prio)
    text = texts[idx]
    contributors = frozenset(compress(ids, map(text.__eq__, texts)))
    return FusionResult(text, 0, tie, contributors)


def _tiebreak_prepared(predictions, tiebreak: TieBreak):
    use_conf = tiebreak.kind is TieBreakKind.HIGHEST_CONFIDENCE
    ranking = None if use_conf else tiebreak.ranking
    return _prepare(predictions, ranking), use_conf


def mv_fuse(predictions: Mapping[str, Prediction],
            tiebreak: TieBreak) -> FusionResult:
    """Plurality vote over whole sequences.

    The text predicted by the most models wins. Ties among maximal-vote texts
    are settled by ``tiebreak``: highest confidence backing a tied text, or
    the tied text predicted by the best-ranked model among their predictors.
    """
    (ids, texts, confs, prio), use_conf = _tiebreak_prepared(predictions, tiebreak)
    rep, votes, tie = kernels.mv_select(texts, confs, prio, use_conf)
    text = texts[rep]
    contributors = frozenset(compress(ids, map(text.__eq__, texts)))
    return FusionResult(text, votes, tie, contributors)


def mvcp_fuse(predictions: Mapping[str, Prediction],
              tiebreak: TieBreak) -> FusionResult:
    """Plurality vote per character position.

    The output length is chosen by plurality over prediction lengths; each
    position then takes the modal character among predictions long enough to
    vote there. Positional and length ties use ``tiebreak`` with the
    sequence-level confidence (or rank) of the contributing prediction.
    """
    (ids, texts, confs, prio), use_conf = _tiebreak_prepared(predictions, tiebreak)
    fused, tie = kernels.mvcp_select(texts, confs, prio, use_conf)
    votes = texts.count(fused)
    contributors = frozenset(compress(
        ids, [t == fused or any(map(str.__eq__, t, fused)) for t in texts]
    ))
    return FusionResult(fused, votes, tie, contributors)


def apply_strategy(predictions: Mapping[str, Prediction],
                   strategy: FusionStrategy) -> FusionResult:
    """Dispatch to the fusion operation selected by ``strategy``.

    An ``hc`` strategy without a ranking settles exact confidence ties by
    model-id order.
    """
    if strategy.kind is StrategyKind.HC:
        tb = strategy.tiebreak
        if tb is not None and tb.kind is TieBreakKind.BEST_MODEL:
            return hc_fuse(predictions, tb.ranking)
        return hc_fuse(predictions, None)
    if strategy.kind is StrategyKind.MV:
        return mv_fuse(predictions, strategy.tiebreak)
    return mvcp_fuse(predictions, strategy.tiebreak)


def normalize_confidences(samples: Iterable[Sample],
                          mode: str = NORMALIZE_OFF) -> Iterable[Sample]:
    """Optionally rescale confidences before fusing.

    ``off`` returns ``samples`` itself, unread (the default: rescaling has not
    proved helpful). ``per_model_mean_scaling`` reads all of ``samples``,
    divides each model's confidences by that model's corpus-wide mean and
    clamps to [0, 1], and returns a list. A model whose mean is zero is left
    unscaled.
    """
    if mode == NORMALIZE_OFF:
        return samples
    if mode != NORMALIZE_PER_MODEL_MEAN:
        raise errors.InvalidConfig(f"unknown normalization mode {mode!r}")
    samples = list(samples)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in samples:
        for m, p in s.predictions.items():
            sums[m] = sums.get(m, 0.0) + p.confidence
            counts[m] = counts.get(m, 0) + 1
    means = {m: sums[m] / counts[m] for m in sums}
    out = []
    for s in samples:
        scaled = {
            m: p if means[m] == 0.0
            else replace(p, confidence=min(1.0, p.confidence / means[m]))
            for m, p in s.predictions.items()
        }
        out.append(replace(s, predictions=scaled))
    return out
