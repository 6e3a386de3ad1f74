"""Domain types and fusion strategies for multi-recognizer string ensembles.

An ensemble is one input's predictions, held as an :class:`Ensemble`: a
read-only map ``model id -> Prediction`` kept as parallel tuples of ids,
texts and confidences in model-id order. ``Ensemble(predictions)`` builds one
from any such non-empty map, and a :class:`Sample` and the fusion functions
convert any other map they are given the same way; an empty map raises
``EmptyEnsemble``. Three ways to combine an ensemble are provided:

* :func:`hc_fuse`    take the single most confident prediction;
* :func:`mv_fuse`    plurality vote over whole sequences;
* :func:`mvcp_fuse`  plurality vote per character position, concatenated.

Each takes the ensemble and an optional ``ranking`` of model ids, most
trusted first. With a ranking, every tie goes to the best-ranked model.
Without one, a vote tie goes to the tied candidate backed by the highest
confidence, and an exact confidence tie to the smallest model id. A
:class:`FusionStrategy` is one of the five named configurations with the
ranking it reads, and :func:`apply_strategy` fuses with it. Each rule is an
order of the ensemble's entries, chosen in one place, and every kernel lets
the earliest entry win. That order is read only when a round ties: a round
without a tie has the same winner, count and flag in every order. So each
function votes on the ensemble in model-id order first, and puts it in its
tie-break order and votes again only when the kernel reports a tie. Every
operation is a pure, deterministic function of its inputs and safe to call
from any number of threads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import add

from . import errors, kernels

DEFAULT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# Characters dropped (not rejected) during normalization: hyphen, period, and
# whitespace.
_SEPARATORS = frozenset("-. \t\r\n\f\v")


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
        fault = _symbol_fault(symbol)
        if fault:
            raise errors.InvalidConfig(f"alphabet symbol {symbol!r} {fault}")
    return alphabet


def _symbol_fault(symbol: str) -> str | None:
    """Why no alphabet may hold the character ``symbol``, or None if one may."""
    if "\ud800" <= symbol <= "\udfff":  # the code points UTF-8 cannot encode
        return "is not encodable as UTF-8"
    if symbol in _SEPARATORS:
        return "is a separator"
    if symbol.upper() != symbol:
        return "is not its own uppercase"
    return None


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


def _check_text(value, name: str) -> None:
    """The one text rule, of a prediction and of a ground truth.

    A text is a non-empty string of characters that some alphabet may hold
    (see :func:`check_alphabet`), so that it loads back as written: the
    loader would read ``"a-b"`` as ``"AB"``.
    """
    if not isinstance(value, str):
        raise errors.InvalidConfig(f"{name} must be a string, got {value!r}")
    if not value:
        raise errors.EmptyAfterNormalization(f"{name} is empty")
    for ch in value:
        fault = _symbol_fault(ch)
        if fault:
            raise errors.InvalidConfig(f"{name} {value!r} holds {ch!r}, which {fault}")


@dataclass(frozen=True)
class Prediction:
    """One model's output for one input: a normalized string plus confidence.

    The text must be a non-empty string of characters that some alphabet
    may hold: each its own uppercase, none a separator or a lone surrogate.
    The confidence must pass :func:`check_confidence`; an integer is stored
    as the equal float.
    """

    text: str
    confidence: float

    def __post_init__(self):
        _check_text(self.text, "prediction text")
        object.__setattr__(self, "confidence", check_confidence(self.confidence))


class Ensemble(Mapping):
    """One input's predictions: a read-only map ``model id -> Prediction``.

    ``Ensemble(predictions)`` takes any non-empty map ``model id ->
    Prediction``; an empty one raises ``EmptyEnsemble``, as nothing could
    fuse it or load it back. Each id must pass :func:`check_identifier` and
    each value must be a :class:`Prediction`, which has checked its own text
    and confidence. The entries are held as three parallel tuples in
    model-id order, ``ids``, ``texts`` and ``confs``, so an ensemble never
    depends on the order of the map it was built from, and looking a model
    up builds its :class:`Prediction`.

    ``confs`` is always a tuple of floats. An ensemble the corpus loader
    read from a template-matched line holds its confidences' texts instead,
    and the first read of ``confs`` decodes them, stores the floats and
    drops the texts. ``==``, ``repr``, pickling and ``ens[m]`` read
    ``confs``, as do ``hc`` and an mv or mvcp vote that settles a tie most
    confident first; ``eval --fused`` and an mv or mvcp vote without a tie
    never do. Held unread, 12 confidences' texts cost ~0.5 KB more than
    their floats. Two threads that read ``confs`` first at once may both
    decode it, and both store equal tuples.
    """

    __slots__ = ("ids", "texts", "_confs")

    # __new__, not __init__: the checked entries are built by _trusted.
    def __new__(cls, predictions: Mapping[str, Prediction]):
        if not isinstance(predictions, Mapping):
            raise errors.InvalidConfig(
                f"predictions must map model ids to Predictions, got {predictions!r}")
        if not predictions:
            raise errors.EmptyEnsemble("an ensemble needs at least one prediction")
        ids, texts, confs = [], [], []
        for model_id, p in predictions.items():
            check_identifier(model_id, "model id", errors.InvalidConfig)
            if not isinstance(p, Prediction):
                raise errors.InvalidConfig(
                    f"prediction of model {model_id!r} must be a Prediction, got {p!r}")
            ids.append(model_id)
            texts.append(p.text)
            confs.append(p.confidence)
        return cls._trusted(tuple(ids), texts, confs)

    @classmethod
    def _trusted(cls, ids: tuple, texts: Iterable[str], confs: Iterable[float | str],
                 last_ids: tuple = ()) -> Ensemble:
        """An ensemble of values that were checked already, without a check.

        ``ids`` are one or more unique model ids in any order, and ``texts``
        and ``confs`` are parallel to them. Either every confidence is a
        float, or every one is the text of a JSON number in [0, 1] that
        ``float()`` reads as JSON does, which ``confs`` decodes when first
        read. The three are sorted only when ``ids`` is out of order;
        ``last_ids``, the ids of the ensemble built before, is shared
        instead of ``ids`` when the two are equal.
        """
        if ids == last_ids:
            ids = last_ids
        elif list(ids) != sorted(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = tuple([ids[i] for i in order])
            texts = [texts[i] for i in order]
            confs = [confs[i] for i in order]
        self = object.__new__(cls)
        _SET_IDS(self, ids)
        _SET_TEXTS(self, tuple(texts))
        _SET_CONFS(self, tuple(confs))
        return self

    @property
    def confs(self) -> tuple[float, ...]:
        """The confidences, parallel to ``ids``: a tuple of floats."""
        confs = self._confs
        if type(confs[0]) is str:
            # From a list, not from map: a tuple built from map is resized
            # into place, so the tuples freed meanwhile pile up on the
            # interpreter's free list (~80 KB more in a 600-sample sweep).
            confs = tuple(list(map(float, confs)))
            _SET_CONFS(self, confs)
        return confs

    def _read_only(self, *args):
        raise AttributeError("an Ensemble is read-only")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        # Pickle and copy would restore the slots through __setattr__.
        return Ensemble, (dict(self.items()),)

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

    def __repr__(self) -> str:
        return f"Ensemble({dict(self.items())!r})"


# The slots' own setters, which skip the read-only __setattr__.
_SET_IDS, _SET_TEXTS, _SET_CONFS = (
    Ensemble.__dict__[name].__set__ for name in ("ids", "texts", "_confs"))


@dataclass(frozen=True, slots=True)
class Sample:
    """A single test instance and the predictions made for it.

    ``sample_id`` must pass :func:`check_identifier` and ``dataset``
    :func:`check_cell`, the rules the corpus loader applies to them.
    ``ground_truth`` is None or a text that passes the rule a prediction's
    text does; exact-match scoring requires it. ``predictions`` is always an
    :class:`Ensemble`: any other map ``model id -> Prediction`` given is
    converted into one, so an empty one raises ``EmptyEnsemble``.
    """

    sample_id: str
    dataset: str
    ground_truth: str | None
    predictions: Ensemble

    def __post_init__(self):
        check_identifier(self.sample_id, "sample_id", errors.InvalidConfig)
        check_cell(self.dataset, "dataset", errors.InvalidConfig)
        if self.ground_truth is not None:
            _check_text(self.ground_truth, "ground_truth")
        if not isinstance(self.predictions, Ensemble):
            object.__setattr__(self, "predictions", Ensemble(self.predictions))

    @classmethod
    def _trusted(cls, sample_id: str, dataset: str, ground_truth: str | None,
                 predictions: Ensemble) -> Sample:
        """A sample of values that were checked already, without a check,
        as :meth:`Ensemble._trusted` builds an ensemble."""
        self = object.__new__(cls)
        _SET_SAMPLE_ID(self, sample_id)
        _SET_DATASET(self, dataset)
        _SET_GROUND_TRUTH(self, ground_truth)
        _SET_PREDICTIONS(self, predictions)
        return self


# The slots' own setters, which skip the frozen __setattr__: in a perfbench
# sweep, object.__setattr__ per field read 3-6% slower than these.
_SET_SAMPLE_ID, _SET_DATASET, _SET_GROUND_TRUTH, _SET_PREDICTIONS = (
    Sample.__dict__[name].__set__
    for name in ("sample_id", "dataset", "ground_truth", "predictions"))


@dataclass(frozen=True)
class ModelProfile:
    """A model's identity, accuracy-rank position (1 = best), and mean latency.

    The id must pass :func:`check_cell`, as the profiles loader requires, so
    that every profile written loads and names one cell of a report. The
    latency must be a real in [0.001, 1e9] ms; an integer is stored as
    the equal float, as in :class:`Prediction`. In that range any sum of
    latencies and its FPS are finite and render at display precision.
    """

    model_id: str
    latency_ms: float
    accuracy_rank: int | None = None

    def __post_init__(self):
        check_cell(self.model_id, "model id", errors.InvalidConfig)
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


STRATEGY_NAMES = ("hc", "mv-bm", "mv-hc", "mvcp-bm", "mvcp-hc")


def _check_ranking(ranking) -> tuple[str, ...]:
    """``ranking`` as a tuple if it is a tie-break ranking: a non-empty
    sequence, not a string, of unique model ids, each as
    :func:`check_identifier` requires.

    This is the one ranking rule: :class:`FusionStrategy` applies it, and so
    do the fuse functions, once per ranking, through :func:`_positions`.
    """
    if isinstance(ranking, str) or not isinstance(ranking, Sequence):
        raise errors.InvalidConfig(
            f"tie-break ranking must be a sequence of model ids, got {ranking!r}")
    ranking = tuple(ranking)
    if not ranking:
        raise errors.InvalidConfig("tie-break ranking is empty")
    for model_id in ranking:
        check_identifier(model_id, "tie-break ranking entry", errors.InvalidConfig)
    if len(set(ranking)) != len(ranking):
        raise errors.InvalidConfig("tie-break ranking contains duplicates")
    return ranking


@dataclass(frozen=True)
class FusionStrategy:
    """One of the five strategies, with the ranking it reads.

    ``name`` is one of :data:`STRATEGY_NAMES`. ``ranking``, most trusted
    model first, must be a non-empty sequence, not a string, of unique model
    ids; a list is stored as a tuple. The ``*-bm`` strategies require one.
    ``hc`` settles exact confidence ties by it, or by model-id order without
    one. ``*-hc`` reads none, so it checks the one given and stores None:
    two ``*-hc`` strategies of one name compare equal whatever ranking they
    were given. ``kind`` is ``"hc"``, ``"mv"`` or ``"mvcp"``.
    """

    name: str
    ranking: tuple[str, ...] | None = None
    kind: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise errors.InvalidConfig(
                f"unknown strategy {self.name!r}; "
                f"expected one of {', '.join(STRATEGY_NAMES)}")
        ranking = self.ranking
        if ranking is not None:
            ranking = _check_ranking(ranking)
        elif self.name.endswith("-bm"):
            raise errors.InvalidConfig(f"strategy {self.name!r} requires a model ranking")
        if self.name.endswith("-hc"):
            ranking = None
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "kind", self.name.partition("-")[0])


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
def _positions(ranking) -> dict[str, int]:
    """Model id -> its position in ``ranking``, checked by :func:`_check_ranking`."""
    return {m: i for i, m in enumerate(_check_ranking(ranking))}


def _ranked(predictions: Mapping[str, Prediction], ranking):
    """``predictions`` as an :class:`Ensemble`, and each of its model ids'
    position in ``ranking``, or None without one.

    A map that is not an :class:`Ensemble` is converted first, so its entries
    are in model-id order and the first id missing from the ranking, the one
    ``IncompleteRanking`` names, is the smallest. Every id is checked whether
    or not a vote ties, so a ranking that misses a model is rejected on every
    ensemble that holds it.
    """
    ensemble = predictions if isinstance(predictions, Ensemble) else Ensemble(predictions)
    if ranking is None:
        return ensemble, None
    try:
        position = _positions(ranking)
    except TypeError:
        # An unhashable ranking, such as a list, never reaches the cache.
        position = _positions(_check_ranking(ranking))
    for model_id in ensemble.ids:
        if model_id not in position:
            raise errors.IncompleteRanking(
                f"model {model_id!r} is missing from the ranking")
    return ensemble, position


def _prepare(ensemble: Ensemble, most_confident_first: bool, position):
    """The ensemble's entry indices in tie-break order.

    The entries start in model-id order and are sorted by their ranking
    ``position`` (see :func:`_ranked`) when one is given, then by
    confidence, highest first, when ``most_confident_first``. Both sorts are
    stable, so equal confidences keep the order before them. ``hc`` is never
    most confident first: it picks the most confident entry itself, and the
    order only settles exact confidence ties. Only a vote that tied reads
    this order (see the module docstring), and only an order by confidence
    reads ``confs``.
    """
    ids = ensemble.ids
    entries = range(len(ids))
    if position is not None:
        entries = sorted(entries, key=lambda i: position[ids[i]])
    if most_confident_first:
        entries = sorted(entries, key=ensemble.confs.__getitem__, reverse=True)
    return entries


def hc_fuse(predictions: Mapping[str, Prediction],
            ranking: Sequence[str] | None = None) -> FusionResult:
    """Select the prediction with the highest confidence.

    Exact confidence ties go to the model appearing earliest in ``ranking``,
    or to the smallest model id without one; ``tie_broken`` reports whether
    that happened.
    """
    ensemble, position = _ranked(predictions, ranking)
    confs = ensemble.confs
    idx, tie = kernels.hc_select(confs)
    if tie:
        entries = _prepare(ensemble, False, position)
        idx, tie = kernels.hc_select([confs[i] for i in entries])
        idx = entries[idx]
    text = ensemble.texts[idx]
    contributors = frozenset(compress(ensemble.ids, map(text.__eq__, ensemble.texts)))
    return FusionResult(text, 0, tie, contributors)


def mv_fuse(predictions: Mapping[str, Prediction],
            ranking: Sequence[str] | None = None) -> FusionResult:
    """Plurality vote over whole sequences.

    The text predicted by the most models wins. A tie among maximal-vote
    texts goes to the tied text of the model appearing earliest in
    ``ranking`` or, without one, to the tied text backed by the highest
    confidence (equal confidences by model id).
    """
    ensemble, position = _ranked(predictions, ranking)
    texts = ensemble.texts
    text, votes, tie = kernels.mv_select(texts)
    if tie:
        text, votes, tie = kernels.mv_select(
            [texts[i] for i in _prepare(ensemble, position is None, position)])
    contributors = frozenset(compress(ensemble.ids, map(text.__eq__, texts)))
    return FusionResult(text, votes, tie, contributors)


def mvcp_fuse(predictions: Mapping[str, Prediction],
              ranking: Sequence[str] | None = None) -> FusionResult:
    """Plurality vote per character position.

    The output length is chosen by plurality over prediction lengths; each
    position then takes the modal character among predictions long enough to
    vote there. Length and positional ties are settled as in
    :func:`mv_fuse`, by the rank or else the confidence of each tied value's
    predictors.
    """
    ensemble, position = _ranked(predictions, ranking)
    texts = ensemble.texts
    fused, tie = kernels.mvcp_select(texts)
    if tie:
        fused, tie = kernels.mvcp_select(
            [texts[i] for i in _prepare(ensemble, position is None, position)])
    first = fused[0]
    contributors = frozenset(compress(ensemble.ids, [
        t[0] == first or any(map(str.__eq__, t, fused)) for t in texts]))
    return FusionResult(fused, texts.count(fused), tie, contributors)


def apply_strategy(predictions: Mapping[str, Prediction],
                   strategy: FusionStrategy) -> FusionResult:
    """Fuse ``predictions`` with the function of ``strategy``'s kind, given
    its ranking."""
    if strategy.kind == "hc":
        return hc_fuse(predictions, strategy.ranking)
    if strategy.kind == "mv":
        return mv_fuse(predictions, strategy.ranking)
    return mvcp_fuse(predictions, strategy.ranking)


def normalize_confidences(samples: Iterable[Sample],
                          mode: str = "off") -> Iterable[Sample]:
    """Optionally rescale confidences before fusing.

    ``off`` returns ``samples`` itself, unread (the default: rescaling has not
    proved helpful). ``per-model-mean`` reads all of ``samples``, divides
    each model's confidences by that model's corpus-wide mean and clamps to
    [0, 1], and returns a list. A model whose mean is zero is left unscaled.
    """
    if mode == "off":
        return samples
    if mode != "per-model-mean":
        raise errors.InvalidConfig(f"unknown normalization mode {mode!r}")
    # Summed as they are collected: a loaded sample decodes its confidences
    # when first read (see Ensemble), so none is held as text meanwhile.
    # Samples in a row with the same model ids share one ids tuple, and each
    # run of them is summed in a list, one sample at a time in corpus order,
    # as each model's dict entry would be.
    held = []
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    ids, run, n = (), [], 0
    def end_run():
        sums.update(zip(ids, run))
        for m in ids:
            counts[m] = counts.get(m, 0) + n
    for s in samples:
        held.append(s)
        e = s.predictions
        if e.ids is not ids:
            end_run()
            ids, run, n = e.ids, [sums.get(m, 0.0) for m in e.ids], 0
        run = list(map(add, run, e.confs))
        n += 1
    end_run()
    means = {m: sums[m] / counts[m] for m in sums}
    out, ids = [], ()
    for s in held:
        e = s.predictions
        if e.ids is not ids:
            ids = e.ids
            scale = [means[m] for m in ids]
        scaled = [c if mean == 0.0 else min(1.0, c / mean)
                  for mean, c in zip(scale, e.confs)]
        out.append(Sample._trusted(s.sample_id, s.dataset, s.ground_truth,
                                   Ensemble._trusted(ids, e.texts, scaled, ids)))
    return out
