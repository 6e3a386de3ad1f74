"""Domain types and fusion strategies for multi-recognizer string ensembles.

An ensemble is a map ``model id -> Prediction`` for one input. Three ways to
combine it are provided:

* :func:`hc_fuse`    take the single most confident prediction;
* :func:`mv_fuse`    plurality vote over whole sequences;
* :func:`mvcp_fuse`  plurality vote per character position, concatenated.

Vote ties are resolved by a :class:`TieBreak`: either the tied candidate
backed by the highest confidence, or the one predicted by the best model
under a fixed ranking. Exact confidence ties fall back to the ranking for
:func:`hc_fuse` and to model-id order elsewhere. Each rule is an order of the
ensemble's entries, chosen in one place, and every kernel lets the earliest
entry win, so every operation is a pure, deterministic function of its inputs
and safe to call from any number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress
from typing import Iterable, Mapping, Sequence

from . import errors, kernels

DEFAULT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# Characters dropped (not rejected) during normalization: hyphen, period, and
# whitespace.
_SEPARATORS = frozenset("-. \t\r\n\f\v")

NORMALIZE_OFF = "off"
NORMALIZE_PER_MODEL_MEAN = "per_model_mean_scaling"


def backend_name() -> str:
    """Name of the kernel implementation, for run records: always 'python'."""
    return "python"


def check_alphabet(alphabet) -> str:
    """``alphabet`` itself if it is a valid set of symbols.

    It must be a non-empty string of unique symbols, each its own uppercase
    and none of them a separator, so that every symbol normalizes to itself.
    """
    if not isinstance(alphabet, str):
        raise errors.InvalidConfig(f"alphabet must be a string, got {alphabet!r}")
    if not alphabet:
        raise errors.InvalidConfig("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        raise errors.InvalidConfig("alphabet symbols must be unique")
    for symbol in alphabet:
        if symbol in _SEPARATORS:
            raise errors.InvalidConfig(f"alphabet symbol {symbol!r} is a separator")
        if symbol.upper() != symbol:
            raise errors.InvalidConfig(
                f"alphabet symbol {symbol!r} is not its own uppercase")
    return alphabet


@functools.lru_cache(maxsize=8)
def _symbol_table(alphabet: str) -> dict[str, str]:
    """Raw character -> its normalized form ('' for separators).

    ``alphabet`` is checked first (see :func:`check_alphabet`). A symbol is
    accepted as itself or as its lowercase form whose uppercase is exactly
    that symbol. Characters whose full case mapping changes length ('ß', 'ﬁ')
    or that fold onto a symbol without being its lowercase ('ı', 'ſ') are
    absent, so normalization never changes a text's length other than by
    dropping separators.
    """
    table = {}
    for symbol in check_alphabet(alphabet):
        for ch in (symbol, symbol.lower()):
            if ch.upper() == symbol:
                table[ch] = symbol
    table.update(dict.fromkeys(_SEPARATORS, ""))
    return table


def normalize_text(raw: str, alphabet: str = DEFAULT_ALPHABET) -> str:
    """Uppercase ``raw`` and strip separator characters.

    Raises:
        InvalidConfig: ``alphabet`` is not valid (see :func:`check_alphabet`).
        SymbolOutsideAlphabet: a non-separator character is neither an
            alphabet symbol nor its lowercase form (the message names the
            raw character).
        EmptyAfterNormalization: nothing is left.
    """
    try:
        table = _symbol_table(alphabet)
    except TypeError:
        # An unhashable alphabet, such as a list, never reaches the check
        # inside the cache; a string is always hashable.
        check_alphabet(alphabet)
        raise
    # Already normalized: every character is a symbol, which maps to itself.
    if raw and not raw.strip(alphabet):
        return raw
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


def check_identifier(value, name: str, error: type[errors.PlatefuseError]) -> str:
    """``value`` if it is a non-empty string that UTF-8 can encode.

    JSON's ``\\ud800`` escapes decode to lone surrogates, which no output
    file can hold; they are rejected here rather than at write time.
    """
    if not isinstance(value, str) or not value:
        raise error(f"{name} must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{name} {value!r} is not encodable as UTF-8") from None
    return value


def check_cell(value, name: str, error: type[errors.PlatefuseError]) -> str:
    """A :func:`check_identifier` value that fits one cell of a delimited report."""
    value = check_identifier(value, name, error)
    if "," in value or "\r" in value or "\n" in value:
        raise error(f"{name} {value!r} holds a comma or line break")
    return value


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


# Most-confident-first order; a bare object, so that no ranking equals it.
_CONFIDENCE_ORDER = object()


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

    @property
    def order(self):
        """The ranking, or most confident first (see :func:`in_tiebreak_order`)."""
        if self.kind is TieBreakKind.BEST_MODEL:
            return self.ranking
        return _CONFIDENCE_ORDER


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

    @property
    def order(self):
        """The tie-break order :func:`apply_strategy` puts an ensemble in:
        ``hc`` settles exact confidence ties by its ranking, else by id."""
        order = None if self.tiebreak is None else self.tiebreak.order
        hc_by_id = self.kind is StrategyKind.HC and order is _CONFIDENCE_ORDER
        return None if hc_by_id else order


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


def in_tiebreak_order(ids: list[str], order,
                      predictions: Mapping[str, Prediction] | None = None
                      ) -> list[str]:
    """``ids``, given in model-id order, in the tie-break ``order``.

    ``order`` is a strategy's :attr:`~FusionStrategy.order`: a ranking, most
    confident first (read from ``predictions``), or None for model-id order.
    Both sorts are stable, so equal confidences stay in id order and a
    ranking that misses several ids names the smallest of them.
    """
    if order is None:
        return ids
    if order is _CONFIDENCE_ORDER:
        return sorted(ids, key=lambda m: predictions[m].confidence, reverse=True)
    try:
        return sorted(ids, key=_positions(tuple(order)).__getitem__)
    except KeyError as exc:
        raise errors.IncompleteRanking(
            f"model {exc.args[0]!r} is missing from the ranking"
        ) from None


def _prepare(predictions: Mapping[str, Prediction], order):
    """The ensemble as parallel kernel inputs in tie-break ``order``, so
    results never depend on map iteration order."""
    if not predictions:
        raise errors.EmptyEnsemble("no predictions to fuse")
    ids = in_tiebreak_order(sorted(predictions), order, predictions)
    entries = [predictions[m] for m in ids]
    texts = [p.text for p in entries]
    confs = [p.confidence for p in entries]
    return ids, texts, confs


def hc_fuse(predictions: Mapping[str, Prediction],
            ranking: Sequence[str] | None) -> FusionResult:
    """Select the prediction with the highest confidence.

    Exact confidence ties go to the model appearing earliest in ``ranking``,
    or to the smallest model id when ``ranking`` is None; ``tie_broken``
    reports whether that happened.
    """
    ids, texts, confs = _prepare(predictions, ranking)
    idx, tie = kernels.hc_select(confs)
    text = texts[idx]
    contributors = frozenset(compress(ids, map(text.__eq__, texts)))
    return FusionResult(text, 0, tie, contributors)


def mv_fuse(predictions: Mapping[str, Prediction],
            tiebreak: TieBreak) -> FusionResult:
    """Plurality vote over whole sequences.

    The text predicted by the most models wins. Ties among maximal-vote texts
    are settled by ``tiebreak``: highest confidence backing a tied text, or
    the tied text predicted by the best-ranked model among their predictors.
    """
    ids, texts, _ = _prepare(predictions, tiebreak.order)
    text, votes, tie = kernels.mv_select(texts)
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
    ids, texts, _ = _prepare(predictions, tiebreak.order)
    fused, tie = kernels.mvcp_select(texts)
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
        return hc_fuse(predictions, strategy.order)
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
