"""Domain types and fusion strategies for multi-recognizer string ensembles.

An ensemble is one input's predictions, held as an :class:`Ensemble`: a
read-only map ``model id -> Prediction`` kept as parallel tuples of ids,
texts and confidences in model-id order. The fusion functions also accept
any other such map, and convert it first. Three ways to combine an ensemble
are provided:

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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress

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
    and none of them a separator, so that every symbol normalizes to itself,
    and UTF-8 must encode it, so that every text made of it can be written.
    """
    if not isinstance(alphabet, str):
        raise errors.InvalidConfig(f"alphabet must be a string, got {alphabet!r}")
    if not alphabet:
        raise errors.InvalidConfig("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        raise errors.InvalidConfig("alphabet symbols must be unique")
    for symbol in alphabet:
        if "\ud800" <= symbol <= "\udfff":  # the code points UTF-8 cannot encode
            raise errors.InvalidConfig(
                f"alphabet symbol {symbol!r} is not encodable as UTF-8")
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


def check_confidence(value) -> float:
    """``value`` as a float if it is a confidence: a real number in [0, 1].

    An integer is returned as the equal float. This is the one confidence
    rule: :class:`Prediction` applies it, and so does the corpus loader,
    which checks each confidence without building a :class:`Prediction`.
    """
    c = _real(value, "confidence", errors.InvalidConfidence)
    # NaN fails both comparisons, infinities the range.
    if not 0.0 <= c <= 1.0:
        raise errors.InvalidConfidence(f"confidence {c!r} outside [0, 1]")
    return c


@dataclass(frozen=True)
class Prediction:
    """One model's output for one input: a normalized string plus confidence.

    The confidence must pass :func:`check_confidence`; an integer is stored
    as the equal float.
    """

    text: str
    confidence: float

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise errors.InvalidConfig(
                f"prediction text must be a string, got {self.text!r}")
        if not self.text:
            raise errors.EmptyAfterNormalization("prediction text is empty")
        object.__setattr__(self, "confidence", check_confidence(self.confidence))


def _tuple(value, name: str) -> tuple:
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise errors.InvalidConfig(f"ensemble {name} must be a sequence, got {value!r}")
    return tuple(value)


class Ensemble(Mapping):
    """One input's predictions: a read-only map ``model id -> Prediction``.

    It is held as three parallel tuples: ``ids`` strictly increasing, and
    ``texts`` and ``confs`` in the same order. So every ensemble is in
    model-id order once it is built, and looking a model up builds its
    :class:`Prediction`. The constructor checks every id as
    :func:`check_identifier` does and every text and confidence as
    :class:`Prediction` does, and stores an integer confidence as the equal
    float. An ensemble may be empty; fusing one raises ``EmptyEnsemble``.
    """

    __slots__ = ("ids", "texts", "confs")

    def __init__(self, ids: Iterable[str] = (), texts: Iterable[str] = (),
                 confs: Iterable[float] = ()):
        ids, texts, confs = (_tuple(ids, "ids"), _tuple(texts, "texts"),
                             _tuple(confs, "confs"))
        if not len(ids) == len(texts) == len(confs):
            raise errors.InvalidConfig("ensemble ids, texts and confs differ in length")
        for model_id in ids:
            check_identifier(model_id, "model id", errors.InvalidConfig)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise errors.InvalidConfig("ensemble model ids must be strictly increasing")
        confs = tuple(Prediction(t, c).confidence for t, c in zip(texts, confs))
        for name, value in (("ids", ids), ("texts", texts), ("confs", confs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, ids: tuple, texts: Iterable[str], confs: Iterable[float],
                 last_ids: tuple = ()) -> Ensemble:
        """An ensemble of values that were checked already, without a check.

        ``ids`` are unique model ids in any order, and ``texts`` and
        ``confs`` are parallel to them. The three are sorted only when
        ``ids`` is out of order; ``last_ids``, the ids of the ensemble built
        before, is shared instead of ``ids`` when the two are equal.
        """
        if ids == last_ids:
            ids = last_ids
        elif list(ids) != sorted(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = tuple([ids[i] for i in order])
            texts = [texts[i] for i in order]
            confs = [confs[i] for i in order]
        self = object.__new__(cls)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "texts", tuple(texts))
        object.__setattr__(self, "confs", tuple(confs))
        return self

    def _read_only(self, *args):
        raise AttributeError("an Ensemble is read-only")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        # Pickle and copy would restore the slots through __setattr__.
        return Ensemble, (self.ids, self.texts, self.confs)

    def __getitem__(self, model_id) -> Prediction:
        try:
            i = self.ids.index(model_id)
        except ValueError:
            raise KeyError(model_id) from None
        return Prediction(self.texts[i], self.confs[i])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if isinstance(other, Ensemble):
            return (self.ids == other.ids and self.texts == other.texts
                    and self.confs == other.confs)
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Ensemble({dict(self.items())!r})"


def _as_ensemble(predictions) -> Ensemble:
    """``predictions``, an :class:`Ensemble` or a map ``model id -> Prediction``,
    as an :class:`Ensemble`."""
    if isinstance(predictions, Ensemble):
        return predictions
    if not isinstance(predictions, Mapping):
        raise errors.InvalidConfig(
            f"predictions must map model ids to Predictions, got {predictions!r}")
    ids, texts, confs = [], [], []
    for model_id, p in predictions.items():
        check_identifier(model_id, "model id", errors.InvalidConfig)
        if not isinstance(p, Prediction):
            raise errors.InvalidConfig(
                f"prediction of model {model_id!r} must be a Prediction, got {p!r}")
        ids.append(model_id)
        texts.append(p.text)
        confs.append(p.confidence)
    return Ensemble._trusted(tuple(ids), texts, confs)


@dataclass(frozen=True)
class Sample:
    """A single test instance and the predictions made for it.

    ``ground_truth`` is optional; exact-match scoring requires it. Texts are
    expected to be normalized already (loaders and the generator take care of
    that). ``predictions`` is always an :class:`Ensemble`: any other map
    ``model id -> Prediction`` given is converted into one.
    """

    sample_id: str
    dataset: str
    ground_truth: str | None
    predictions: Ensemble

    def __post_init__(self):
        check_identifier(self.sample_id, "sample_id", errors.InvalidConfig)
        check_identifier(self.dataset, "dataset", errors.InvalidConfig)
        object.__setattr__(self, "predictions", _as_ensemble(self.predictions))


@dataclass(frozen=True)
class ModelProfile:
    """A model's identity, accuracy-rank position (1 = best), and mean latency.

    The latency must be a real in [0.001, 1e9] ms; an integer is stored as
    the equal float, as in :class:`Prediction`. In that range any sum of
    latencies and its FPS are finite and render at display precision.
    """

    model_id: str
    latency_ms: float
    accuracy_rank: int | None = None

    def __post_init__(self):
        check_identifier(self.model_id, "model id", errors.InvalidConfig)
        latency = _real(self.latency_ms, "latency_ms", errors.InvalidConfig)
        object.__setattr__(self, "latency_ms", latency)
        # NaN fails both comparisons.
        if not 1e-3 <= latency <= 1e9:
            raise errors.InvalidConfig(
                f"latency_ms must be in [0.001, 1e9], got {latency!r}"
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
        if not isinstance(self.kind, TieBreakKind):
            raise errors.InvalidConfig(
                f"tie-break kind must be a TieBreakKind, got {self.kind!r}")
        if self.ranking is not None:
            if isinstance(self.ranking, str) or not isinstance(self.ranking, Iterable):
                raise errors.InvalidConfig(
                    f"tie-break ranking must be a sequence of model ids, "
                    f"got {self.ranking!r}")
            ranking = tuple(self.ranking)
            for model_id in ranking:
                check_identifier(model_id, "tie-break ranking entry", errors.InvalidConfig)
            object.__setattr__(self, "ranking", ranking)
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
        if not isinstance(self.kind, StrategyKind):
            raise errors.InvalidConfig(
                f"strategy kind must be a StrategyKind, got {self.kind!r}")
        if self.tiebreak is not None and not isinstance(self.tiebreak, TieBreak):
            raise errors.InvalidConfig(
                f"tiebreak must be a TieBreak, got {self.tiebreak!r}")
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
        tb = TieBreak(TieBreakKind.BEST_MODEL, ranking) if ranking else None
        return FusionStrategy(StrategyKind.HC, tb)
    kind_s, _, tb_s = name.partition("-")
    kind = StrategyKind(kind_s)
    if tb_s == "hc":
        return FusionStrategy(kind, TieBreak(TieBreakKind.HIGHEST_CONFIDENCE))
    if ranking is None:
        raise errors.InvalidConfig(f"strategy {name!r} requires a model ranking")
    return FusionStrategy(kind, TieBreak(TieBreakKind.BEST_MODEL, ranking))


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


def in_tiebreak_order(indices: Sequence[int], order, ensemble: Ensemble
                      ) -> Sequence[int]:
    """``indices`` of entries of ``ensemble``, given in model-id order, in the
    tie-break ``order``.

    ``order`` is a strategy's :attr:`~FusionStrategy.order`: a ranking, most
    confident first, or None for model-id order. Both sorts are stable, so
    equal confidences stay in id order and a ranking that misses several ids
    names the smallest of them.
    """
    if order is None:
        return indices
    if order is _CONFIDENCE_ORDER:
        return sorted(indices, key=ensemble.confs.__getitem__, reverse=True)
    position, ids = _positions(tuple(order)), ensemble.ids
    try:
        return sorted(indices, key=lambda i: position[ids[i]])
    except KeyError as exc:
        raise errors.IncompleteRanking(
            f"model {exc.args[0]!r} is missing from the ranking"
        ) from None


def _prepare(predictions: Mapping[str, Prediction], order):
    """The ensemble as parallel kernel inputs in tie-break ``order``.

    A map that is not an :class:`Ensemble` is converted first. Its entries
    are then in model-id order, so results never depend on map iteration
    order, and ``order`` is a permutation of them.
    """
    ensemble = _as_ensemble(predictions)
    ids, texts, confs = ensemble.ids, ensemble.texts, ensemble.confs
    if not ids:
        raise errors.EmptyEnsemble("no predictions to fuse")
    entries = in_tiebreak_order(range(len(ids)), order, ensemble)
    return ([ids[i] for i in entries], [texts[i] for i in entries],
            [confs[i] for i in entries])


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
        for m, c in zip(s.predictions.ids, s.predictions.confs):
            sums[m] = sums.get(m, 0.0) + c
            counts[m] = counts.get(m, 0) + 1
    means = {m: sums[m] / counts[m] for m in sums}
    out = []
    for s in samples:
        ids = s.predictions.ids
        scaled = [c if means[m] == 0.0 else min(1.0, c / means[m])
                  for m, c in zip(ids, s.predictions.confs)]
        out.append(replace(s, predictions=Ensemble._trusted(
            ids, s.predictions.texts, scaled, ids)))
    return out
