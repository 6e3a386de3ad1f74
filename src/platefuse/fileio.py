"""File formats and report rendering.

Predictions, profiles, and fused outputs are line-delimited JSON (UTF-8, one
record per line) so corpora stream and diff cleanly. Every line is what
``json.dumps(record, separators=(",", ":"))`` writes. Profiles are encoded
from dicts by ``json``'s encoder. A corpus line, the bulk of what
``simulate`` writes, and a fused line, what ``fuse`` writes, are joined from
strings by the functions that encoder calls (see :func:`dump_predictions`
and :func:`dump_fused`). Their loaders try each line against a template of
that exact shape first: a line that matches is read from the template's
groups, with no JSON decode, and any other line is decoded as JSON, with the
same values, accepts and messages.

Reports render either as comma-delimited text or as an aligned
human-readable table; both apply the display rounding rules (rates to one
decimal percent, latency to one decimal millisecond, FPS to a half-up
integer) while all internal values stay unrounded. Rendering is
deterministic: identical inputs give identical bytes.

Strict parsing (the default) rejects unknown fields and duplicate sample ids;
the CLI loads tolerantly and instead ignores them, with a warning for the
first of each kind and a count of the rest. A key repeated in an object is
rejected in both modes.
"""

from __future__ import annotations

import json
import logging
import os
import re
import stat
import sys
from dataclasses import MISSING, dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from typing import Iterable, Iterator, Sequence

from . import errors
from .core import (DEFAULT_ALPHABET, Ensemble, FusionResult, ModelProfile, Sample,
                   _check_text, check_alphabet, check_cell, check_confidence,
                   check_identifier, normalize_text)
from .scoring import DatasetReport, SweepReport, macro_average
from .synth import ErrorModel, SynthConfig

logger = logging.getLogger(__name__)

FORMAT_DELIMITED = "delimited"
FORMAT_TABLE = "table"

_SAMPLE_KEYS = {"sample_id", "dataset", "ground_truth", "predictions"}
_PREDICTION_KEYS = {"text", "confidence"}
_PROFILE_KEYS = {"id", "accuracy_rank", "latency_ms"}
_CONFIG_KEYS = {f.name for f in fields(SynthConfig)}
_REQUIRED_CONFIG_KEYS = [f.name for f in fields(SynthConfig) if f.default is MISSING]
_ERROR_MODEL_KEYS = {f.name for f in fields(ErrorModel)}
# Made once for every record: json.loads adds whitespace and BOM scans to
# each line (see _json), and json.dumps with non-default separators builds a
# new encoder for each record.
_scan_json = json.JSONDecoder().scan_once
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
# What json's encoder writes for a string under ensure_ascii, the default.
_quote = json.encoder.encode_basestring_ascii


# --- shared parsing helpers --------------------------------------------------

def read_text(path) -> str:
    """Content of the UTF-8 file ``path``.

    Bytes that are not UTF-8 raise :class:`~platefuse.errors.ParseError`
    naming their line, instead of a bare ``UnicodeDecodeError``.
    """
    return "".join(_read_lines(path))


def _read_lines(path) -> Iterator[str]:
    """The lines of the UTF-8 file ``path``, each with its ``"\\n"``, read lazily.

    The file, or pipe, is read once. A byte that is not UTF-8 is rejected
    when its line is reached, so a record loader reports a fault on an
    earlier line first. ``"\\n"`` is ASCII, so the rejection reads as a
    decode of the whole file would: its line, its reason, and its byte
    offset in the file.
    """
    with open(path, "rb") as f:
        offset = 0
        for number, line in enumerate(f, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise errors.ParseError(
                    f"line {number}: not UTF-8 ({exc.reason} at byte {offset + exc.start})"
                ) from None
            offset += len(line)


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 concatenation of ``chunks`` to ``path`` in one step.

    The chunks are written, as they come, to a new uniquely named file in the
    destination's directory, which then replaces ``path`` (``os.replace``):
    readers see the old file or the whole new one. On any exception the
    temporary file is removed and ``path`` is left as it was. As with
    ``Path.write_text``, a new file gets mode ``0o666`` less the umask, an
    existing one keeps its mode, a symlink is written through, and a
    destination that is not a regular file (a pipe, a device) is written in
    place. The path ``-`` is standard output, also written in place: it gets
    the same UTF-8 bytes, through ``sys.stdout.buffer`` after ``sys.stdout``
    is flushed, whatever encoding ``sys.stdout`` has. Nothing is
    ``fsync``-ed: an interrupted command leaves the old file, but after a
    power loss neither version may be on disk.
    """
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunk.encode("utf-8") for chunk in chunks)
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one compact JSON object per line; no records give an empty file."""
    write_atomic(path, (_encode_json(record) + "\n" for record in records))


def _lines(lines: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_number, line) for each non-blank line.

    ``lines`` is a whole text, or its lines as :func:`_read_lines` yields them.
    Lines end at ``"\\n"`` only, so numbers match those of :func:`read_text`'s
    decode errors and characters such as U+2028 stay inside their line. One
    ``"\\r"`` before the ``"\\n"`` is dropped; any other carriage return (a
    ``"\\r"``-only file, say) is rejected.
    """
    if isinstance(lines, str):
        lines = lines.split("\n")
    for number, line in enumerate(lines, start=1):
        line = line.removesuffix("\n").removesuffix("\r")
        if "\r" in line:
            raise errors.ParseError(f"line {number}: carriage return inside a line")
        if line.strip():
            yield number, line


def _unique_keys(pairs: list) -> dict:
    """``dict(pairs)``, rejecting the first repeated key by name."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise errors.ParseError(f"repeated key {key!r}")
            seen.add(key)
    return record


def _json(text: str, where: str, *, unique: bool = False):
    """``json.loads(text)``, with any failure a ParseError naming ``where``.

    Besides malformed JSON, this covers an integer longer than Python's
    digit limit (a ValueError) and nesting deep enough to exhaust the
    interpreter's recursion limit (a RecursionError). With ``unique``, an
    object with a repeated key is rejected too, naming the key.

    Without ``unique``, a text that is one JSON value from its first
    character to its last is decoded by one scan, as ``json.loads`` would
    decode it. Anything else (a BOM, surrounding whitespace, extra data, a
    failed scan) is decoded again by ``json.loads``, for its value or its
    message.
    """
    if not unique:
        try:
            value, end = _scan_json(text, 0)
            if end == len(text):
                return value
        except (StopIteration, ValueError, RecursionError):
            pass
    try:
        return json.loads(text, object_pairs_hook=_unique_keys if unique else None)
    except (ValueError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise errors.ParseError(f"{where}: invalid JSON ({reason})") from None
    except errors.ParseError as exc:
        raise errors.ParseError(f"{where}: {exc}") from None


def _parse_records(lines: str | Iterable[str], what: str, parse_record,
                   tolerate: _Tolerance, keys=len, match_line=None) -> Iterator:
    """``parse_record(record, where)`` for each JSON object line, dropping ``None``.

    A generator: a record is read when the one before it has been consumed.
    A rejection it raises is re-raised as its own class with the line number;
    a file with no records raises :class:`~platefuse.errors.EmptyFile` at its end.
    Once the last line has been read, ``tolerate`` logs what it counted.

    ``match_line(line, where)``, when given, is tried on each line before it
    is decoded: it returns the line's result (``None`` to drop it), or
    ``_DECLINED`` to have the line decoded and read by ``parse_record``. A
    rejection it raises gets the line number too.

    A line that repeats a key in any object is rejected in both modes: JSON
    would keep the last value, and there is no reading to ignore the repeat
    to. Outside strings, JSON has a colon only after a key, so a line with
    as many colons as ``keys(record)``, the keys of the objects the loader
    reads, repeats none. Any other line (a colon in a string, an object
    inside an unknown field, a repeat) is decoded again, rejecting a repeat.
    """
    empty = True
    for number, line in _lines(lines):
        where = f"line {number}"
        result = _DECLINED
        if match_line is not None:
            try:
                result = match_line(line, where)
            except errors.PlatefuseError as exc:
                raise type(exc)(f"{where}: {exc}") from None
        if result is _DECLINED:
            # _json's one scan, inline; anything else goes to _json for its
            # value or its message.
            try:
                record, end = _scan_json(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                record = _json(line, where)
            if not isinstance(record, dict):
                raise errors.ParseError(f"{where}: record is not an object")
            if line.count(":") != keys(record):
                _json(line, where, unique=True)
            try:
                result = parse_record(record, where)
            except errors.PlatefuseError as exc:
                raise type(exc)(f"{where}: {exc}") from None
        if result is not None:
            empty = False
            yield result
    tolerate.log_counts()
    if empty:
        raise errors.EmptyFile(f"no {what} records found")


class _Tolerance:
    """What a parse does with a fault that tolerant mode ignores.

    When ``strict``, each fault is rejected. Otherwise the first fault of
    each kind is logged with its line and ignored, and the rest are only
    counted, so that one fault repeated on every line of a large corpus
    logs two lines, not one per line.
    """

    def __init__(self, strict: bool):
        self.strict = strict
        self.ignored: dict[str, int] = {}

    def __call__(self, kind: str, message: str, where: str) -> None:
        """Reject ``message``, or ignore it as one more fault of ``kind``."""
        if self.strict:
            raise errors.ParseError(message)
        count = self.ignored.get(kind, 0)
        self.ignored[kind] = count + 1
        if not count:
            logger.warning("%s: %s (ignored)", where, message)

    def log_counts(self) -> None:
        """Log, per kind, how many faults were ignored after the first."""
        for kind, count in self.ignored.items():
            if count > 1:
                logger.warning("%d more %s (ignored)", count - 1, kind)


_UNKNOWN_RECORD_FIELDS = "records with unknown fields"
_UNKNOWN_PREDICTION_FIELDS = "predictions with unknown fields"
_DUPLICATE_IDS = "duplicate sample_ids"


def _check_keys(record: dict, known: set, where: str, tolerate: _Tolerance,
                kind: str = _UNKNOWN_RECORD_FIELDS) -> None:
    if record.keys() <= known:
        return
    unknown = ", ".join(map(repr, sorted(record.keys() - known)))
    tolerate(kind, f"unknown field(s) {unknown}", where)


def _first(sample_id: str, seen: set, where: str, tolerate: _Tolerance) -> bool:
    """Whether ``sample_id`` is new; a repeat goes to ``tolerate``."""
    if sample_id not in seen:
        seen.add(sample_id)
        return True
    tolerate(_DUPLICATE_IDS, f"duplicate sample_id {sample_id!r}", where)
    return False


def _normalized(value, name: str, alphabet: str) -> str:
    """The string ``value`` normalized under ``alphabet``."""
    if not isinstance(value, str):
        raise errors.ParseError(f"{name} must be a string")
    try:
        return normalize_text(value, alphabet)
    except errors.PlatefuseError as exc:
        raise type(exc)(f"{name}: {exc}") from None


# --- canonical lines ------------------------------------------------------------
#
# A line in the exact shape a writer here joins it in (see dump_predictions and
# dump_fused) is read by one fullmatch of a template of that shape, from its
# groups: no JSON scan, no dict and no check of each value. A group matches
# only text that JSON reads as that very text (a string with no escape), or as
# float() or int() of it (a number), and that the loader would accept as it
# stands. Any other line is declined and read as before, so every value, every
# accept and every message is the same on either path.

# A character of a string with no escape. Lone surrogates, which only a str
# handed to a parser can hold, are left out, so check_identifier accepts the
# text of a _STRING: a non-empty string of such characters.
_CHAR = r'[^"\\\x00-\x1f\ud800-\udfff]'
_STRING = f'"({_CHAR}+)"'
# A _STRING that check_cell accepts too.
_CELL = r'"([^",\\\x00-\x1f\ud800-\udfff]+)"'
# A JSON number in [0, 1] that json reads as float() of its text; every
# float.__repr__ of such a value is one.
_CONFIDENCE = r"(0\.[0-9]+|1\.0|[1-9](?:\.[0-9]+)?e-0*[1-9][0-9]*)"
# A count within the digit limit of int().
_COUNT = r"(0|[1-9][0-9]{0,17})"
# What a line matcher returns for a line it leaves to the general path.
_DECLINED = object()
# Lines a corpus template is kept at least before another is built: a build
# (~1 ms for 12 model ids) then costs at most ~1 µs a line.
_TEMPLATE_LINES = 1024


def _symbols_group(alphabet: str) -> str | None:
    """A quoted group of ``alphabet`` symbols that JSON reads as they stand
    (none of ``"``, ``\\`` and the control characters), or None if there is
    no such symbol."""
    symbols = "".join(s for s in alphabet if s >= " " and s not in '"\\')
    return f'"([{re.escape(symbols)}]+)"' if symbols else None


def _sample_template(ids: tuple, symbols: str):
    """The ``fullmatch`` of a corpus line as :func:`dump_predictions` writes
    it for model ids ``ids``, in that order, with texts of ``symbols``.

    Its groups are the sample id, the dataset, the ground truth (None when
    absent), then each model's text and confidence.
    """
    pattern = [re.escape('{"sample_id":'), _STRING, re.escape(',"dataset":'), _CELL,
               "(?:", re.escape(',"ground_truth":'), _STRING, ")?",
               re.escape(',"predictions":')]
    for i, m in enumerate(ids):
        pattern += [re.escape(("{" if i == 0 else "},") + _quote(m) + ':{"text":'),
                    symbols, re.escape(',"confidence":'), _CONFIDENCE]
    pattern.append(re.escape("}}}"))
    return re.compile("".join(pattern)).fullmatch


# --- predictions --------------------------------------------------------------

def _sample_keys(record: dict) -> int:
    """The keys of a predictions record, its predictions and each prediction."""
    predictions = record.get("predictions")
    if type(predictions) is not dict:
        return len(record)
    count = len(record) + len(predictions)
    for entry in predictions.values():
        if type(entry) is dict:
            count += len(entry)
    return count


def parse_predictions(text: str | Iterable[str], *, strict: bool = True,
                      alphabet: str = DEFAULT_ALPHABET) -> Iterator[Sample]:
    """Parse a prediction corpus from line-delimited JSON content, lazily.

    ``text`` is the whole content, or its lines split at ``"\\n"`` (each may
    keep its ``"\\n"``). The result is a generator: each record is read,
    validated and yielded only when the sample before it has been consumed,
    so a rejection surfaces after the samples on the lines before it. An
    invalid ``alphabet`` is rejected at the call, before any record is read.

    A line in the shape :func:`dump_predictions` writes for the model ids of
    the template held is read from one ``fullmatch`` of that template: no
    whitespace, the keys and model ids in that order, strings without
    escapes, texts of ``alphabet`` symbols only and confidences in a
    ``float.__repr__`` form of [0, 1]. JSON would read each of its values
    as it stands, and the general path would accept it. Its confidences are
    kept as their texts, which ``float()`` reads as JSON does, and decoded
    on the first read of the ensemble's ``confs`` (see
    :class:`~platefuse.core.Ensemble`): ``eval --fused``, and an mv or mvcp
    vote without a tie, never decode them, and a sample held unread keeps
    its texts (~0.5 KB more than the floats, for 12 models). One template is
    held at a time. It is built when the general path reads the same model
    ids, in model-id order, on two lines in a row, the second of them
    exactly what ``json``'s compact encoder writes for its record; and no
    sooner than 1,024 lines after the last build or try. So neither a
    corpus whose model set changes on every line nor one written with
    other separators compiles a template.

    Any other line is decoded as JSON. A value already in canonical form (a
    model id that is a non-empty ASCII string, a text made of ``alphabet``
    symbols only, a float confidence in [0, 1]) is accepted by inline tests.
    Any other value goes through the one
    rule that checks, normalizes or rejects it
    (:func:`~platefuse.core.check_identifier`,
    :func:`~platefuse.core.normalize_text`,
    :func:`~platefuse.core.check_confidence`), so the accepts and the
    messages are the rule's. A ground truth always goes through the rule, on
    either path. Each :class:`~platefuse.core.Sample` and its
    :class:`~platefuse.core.Ensemble` are built from the values so checked,
    without a check of their own; a record whose model ids are out of order
    is sorted, and samples with the same model ids as the sample before
    share its ``ids`` tuple.
    """
    check_alphabet(alphabet)
    symbols = _symbols_group(alphabet)
    tolerate = _Tolerance(strict)
    seen_ids: set[str] = set()
    last_ids = ()
    # One template at a time: its fullmatch and model ids, the lines read,
    # the line a template was last built (or tried) at, and the line the
    # template last declined.
    template = template_ids = declined = None
    lines, built_at = 0, -_TEMPLATE_LINES
    def canonical(line, where):
        nonlocal lines, declined, last_ids
        lines += 1
        if template is None or (match := template(line)) is None:
            declined = line
            return _DECLINED
        g = match.groups()
        ground_truth = g[2]
        if ground_truth is not None:
            ground_truth = _normalized(ground_truth, "ground_truth", alphabet)
        if _first(g[0], seen_ids, where, tolerate):
            # The confidences' texts: Ensemble.confs decodes them when read.
            predictions = Ensemble._trusted(template_ids, g[3::2], g[4::2], last_ids)
            last_ids = predictions.ids
            return Sample._trusted(g[0], g[1], ground_truth, predictions)
    def sample(record, where):
        nonlocal last_ids, template, template_ids, built_at
        _check_keys(record, _SAMPLE_KEYS, where, tolerate)
        sample_id = check_identifier(record.get("sample_id"), "sample_id", errors.ParseError)
        dataset = check_cell(record.get("dataset"), "dataset", errors.ParseError)
        ground_truth = record.get("ground_truth")
        # Always through normalize_text, canonical or not: a traced fuse,
        # eval or sweep must enter it (perfbench's EXPECTED_SPANS), and a
        # canonical prediction text is accepted without it.
        if ground_truth is not None:
            ground_truth = _normalized(ground_truth, "ground_truth", alphabet)
        raw_predictions = record.get("predictions")
        if not isinstance(raw_predictions, dict) or not raw_predictions:
            raise errors.ParseError("predictions must be a non-empty object")
        texts, confs = [], []
        for model_id, entry in raw_predictions.items():
            if not model_id.isascii() or not model_id:
                check_identifier(model_id, "model id", errors.ParseError)
            try:
                if not isinstance(entry, dict):
                    raise errors.ParseError("prediction must be an object")
                # Only a shortcut, as _check_keys decides: skipping it and the
                # text it is given saves ~1.3 of ~12.4 µs a 12-model sample.
                if entry.keys() != _PREDICTION_KEYS:
                    _check_keys(entry, _PREDICTION_KEYS, f"{where}: model {model_id!r}",
                                tolerate, _UNKNOWN_PREDICTION_FIELDS)
                # A canonical value is accepted inline; any other goes
                # through the rule that normalizes or rejects it.
                text = entry.get("text")
                if type(text) is not str or not text or text.strip(alphabet):
                    text = _normalized(text, "text", alphabet)
                c = entry.get("confidence")
                if type(c) is not float or not 0.0 <= c <= 1.0:
                    c = check_confidence(c)
            except errors.PlatefuseError as exc:
                raise type(exc)(f"model {model_id!r}: {exc}") from None
            texts.append(text)
            confs.append(c)
        if _first(sample_id, seen_ids, where, tolerate):
            predictions = Ensemble._trusted(tuple(raw_predictions), texts, confs,
                                            last_ids)
            ids = predictions.ids
            # Shared ids: the sample before had the same model ids, in order,
            # and was read the general way too unless the template has them.
            # Such a line gets a template if it is what json's compact
            # encoder writes for it, so a corpus written otherwise compiles
            # none; one try every _TEMPLATE_LINES lines at most.
            if (ids is last_ids and ids is not template_ids and symbols
                    and lines - built_at >= _TEMPLATE_LINES):
                built_at = lines
                if _encode_json(record) == declined:
                    template, template_ids = _sample_template(ids, symbols), ids
            last_ids = ids
            return Sample._trusted(sample_id, dataset, ground_truth, predictions)
    return _parse_records(text, "prediction", sample, tolerate, _sample_keys, canonical)


def load_predictions(path, *, strict: bool = True,
                     alphabet: str = DEFAULT_ALPHABET) -> Iterator[Sample]:
    """Read a prediction corpus from a line-delimited JSON file, lazily.

    The file, or pipe, is read once, line by line as the samples are
    consumed (see :func:`parse_predictions`): a bad byte is rejected when its
    line is reached, after the samples on the lines before it.
    """
    return parse_predictions(_read_lines(path), strict=strict, alphabet=alphabet)


def dump_predictions(samples: Iterable[Sample], path) -> None:
    """Write samples as line-delimited JSON; inverse of :func:`load_predictions`.

    Each line is the bytes ``json.dumps(record, separators=(",", ":"))``
    writes for the record ``{"sample_id", "dataset", "ground_truth" (unless
    None), "predictions": {model id: {"text", "confidence"}}}``, keys in that
    order and model ids in the ensemble's order, but it is joined from
    strings, not encoded from a dict. Every string goes through
    ``encode_basestring_ascii`` and every confidence through
    ``float.__repr__``, the functions ``json``'s encoder calls for them (an
    :class:`~platefuse.core.Ensemble` holds only finite floats), between
    the same separators. The part of a line that depends only on the model
    ids, ``"<id>":{"text":`` before each text, is made once per distinct
    ``ids`` tuple, which the samples of a generated or loaded corpus share.
    """
    def lines():
        ids = None
        for s in samples:
            e = s.predictions
            if e.ids is not ids:
                ids = e.ids
                keys = [("{" if i == 0 else "},") + _quote(m) + ':{"text":'
                        for i, m in enumerate(ids)]
            line = '{"sample_id":' + _quote(s.sample_id) + ',"dataset":' + _quote(s.dataset)
            if s.ground_truth is not None:
                line += ',"ground_truth":' + _quote(s.ground_truth)
            yield line + ',"predictions":' + "".join([
                key + _quote(t) + ',"confidence":' + repr(c)
                for key, t, c in zip(keys, e.texts, e.confs)]) + "}}}\n"
    write_atomic(path, lines())


# --- profiles ------------------------------------------------------------------

def parse_profiles(text: str | Iterable[str], *,
                   strict: bool = True) -> list[ModelProfile]:
    """Parse model profiles from line-delimited JSON content or its lines."""
    tolerate = _Tolerance(strict)
    ids: set[str] = set()
    ranks: dict[int, str] = {}
    def profile(record, where):
        _check_keys(record, _PROFILE_KEYS, where, tolerate)
        model_id = check_cell(record.get("id"), "id", errors.ParseError)
        if model_id in ids:
            raise errors.DuplicateModelId(f"duplicate model id {model_id!r}")
        ids.add(model_id)
        try:
            profile = ModelProfile(model_id, record.get("latency_ms"),
                                   record.get("accuracy_rank"))
        except errors.InvalidConfig as exc:
            raise errors.ParseError(str(exc)) from None
        rank = profile.accuracy_rank
        if rank is not None:
            if rank in ranks:
                raise errors.DuplicateRank(f"rank {rank} already used by {ranks[rank]!r}")
            ranks[rank] = model_id
        return profile
    return list(_parse_records(text, "profile", profile, tolerate))


def load_profiles(path, *, strict: bool = True) -> list[ModelProfile]:
    """Read model profiles from a line-delimited JSON file."""
    return parse_profiles(_read_lines(path), strict=strict)


def dump_profiles(profiles: Iterable[ModelProfile], path) -> None:
    def records():
        for p in profiles:
            record = {"id": p.model_id}
            if p.accuracy_rank is not None:
                record["accuracy_rank"] = p.accuracy_rank
            record["latency_ms"] = p.latency_ms
            yield record
    _write_jsonl(path, records())


def load_stock_profiles() -> list[ModelProfile]:
    """Profiles of twelve well-known public recognition models.

    Accuracy ranks reflect mean published exact-match results across eight
    benchmark datasets; latencies are published mean per-image times in
    milliseconds.
    """
    text = (resources.files("platefuse") / "data" / "model_profiles.jsonl").read_text(
        encoding="utf-8"
    )
    return parse_profiles(text, strict=True)


# --- fused outputs ---------------------------------------------------------------

def _check_fused_fields(votes, tie_broken, contributors,
                        error: type[errors.PlatefuseError]) -> None:
    """The rule for a fused record's ``winning_votes``, ``tie_broken`` and
    ``contributors``, as :func:`load_fused` and :class:`FusedRecord` apply it."""
    if isinstance(votes, bool) or not isinstance(votes, int) or votes < 0:
        raise error(f"winning_votes must be a non-negative integer, got {votes!r}")
    if not isinstance(tie_broken, bool):
        raise error(f"tie_broken must be a boolean, got {tie_broken!r}")
    if not isinstance(contributors, (list, tuple)):
        raise error(f"contributors must be a list of model ids, got {contributors!r}")
    for model_id in contributors:
        check_identifier(model_id, "contributor", error)


@dataclass(frozen=True)
class FusedRecord:
    """One fused output row, as written by the ``fuse`` command.

    Its fields are checked by the rule :func:`load_fused` applies to a line,
    so that every record written loads back: ``sample_id`` by
    :func:`~platefuse.core.check_identifier`, ``dataset`` by
    :func:`~platefuse.core.check_cell`, ``text`` by the rule of a
    :class:`~platefuse.core.Prediction`'s text, ``winning_votes`` a
    non-negative ``int`` (not a ``bool``), ``tie_broken`` a ``bool``, and
    ``contributors`` a list or tuple of model ids, stored as a tuple. A
    field the loader would reject raises ``InvalidConfig`` naming it
    (``EmptyAfterNormalization`` for an empty text). :meth:`from_result`
    and :func:`load_fused` build records of values checked already, without
    a check.
    """

    sample_id: str
    dataset: str
    text: str
    winning_votes: int
    tie_broken: bool
    contributors: tuple[str, ...]

    def __post_init__(self):
        check_identifier(self.sample_id, "sample_id", errors.InvalidConfig)
        check_cell(self.dataset, "dataset", errors.InvalidConfig)
        _check_text(self.text, "text")
        _check_fused_fields(self.winning_votes, self.tie_broken, self.contributors,
                            errors.InvalidConfig)
        object.__setattr__(self, "contributors", tuple(self.contributors))

    @classmethod
    def _trusted(cls, sample_id: str, dataset: str, text: str, winning_votes: int,
                 tie_broken: bool, contributors: tuple[str, ...]) -> FusedRecord:
        """A record of values that were checked already, without a check."""
        self = object.__new__(cls)
        self.__dict__.update(sample_id=sample_id, dataset=dataset, text=text,
                             winning_votes=winning_votes, tie_broken=tie_broken,
                             contributors=contributors)
        return self

    @classmethod
    def from_result(cls, sample: Sample, result: FusionResult) -> FusedRecord:
        """The record of ``result``, the fusion of ``sample``: its
        contributors sorted."""
        return cls._trusted(sample.sample_id, sample.dataset, result.text,
                            result.winning_votes, result.tie_broken,
                            tuple(sorted(result.contributors)))


_FUSED_FIELDS = tuple(f.name for f in fields(FusedRecord))
_FUSED_KEYS = set(_FUSED_FIELDS)


def _fused_template(symbols: str):
    """The ``fullmatch`` of a fused line as :func:`dump_fused` writes it with
    a text of ``symbols`` and one or more contributors.

    Its groups are the sample id, the dataset, the text, the winning votes,
    ``true`` or ``false``, and the contributors joined by ``","``: no
    contributor holds ``"``.
    """
    return re.compile("".join([
        re.escape('{"sample_id":'), _STRING, re.escape(',"dataset":'), _CELL,
        re.escape(',"text":'), symbols, re.escape(',"winning_votes":'), _COUNT,
        re.escape(',"tie_broken":'), "(true|false)", re.escape(',"contributors":["'),
        f'({_CHAR}+(?:","{_CHAR}+)*)', re.escape('"]}')])).fullmatch


def dump_fused(records: Iterable[FusedRecord], path) -> None:
    """Write fused records as line-delimited JSON; inverse of :func:`load_fused`.

    Each line is the bytes ``json.dumps(record, separators=(",", ":"))``
    writes for the record's fields as a dict, in field order, but it is
    joined from strings, as :func:`dump_predictions` joins a corpus line:
    every string goes through ``encode_basestring_ascii`` and
    ``winning_votes`` through ``int.__repr__``, the functions ``json``'s
    encoder calls for them, and ``tie_broken`` is written ``true`` or
    ``false``. A :class:`FusedRecord` has checked its field types, so these
    are the only encodings its values need.
    """
    def lines():
        for r in records:
            yield ('{"sample_id":' + _quote(r.sample_id) + ',"dataset":' + _quote(r.dataset)
                   + ',"text":' + _quote(r.text) + ',"winning_votes":'
                   + int.__repr__(r.winning_votes)
                   + (',"tie_broken":true,"contributors":[' if r.tie_broken
                      else ',"tie_broken":false,"contributors":[')
                   + ",".join(map(_quote, r.contributors)) + "]}\n")
    write_atomic(path, lines())


def load_fused(path, *, strict: bool = True,
               alphabet: str = DEFAULT_ALPHABET) -> Iterator[FusedRecord]:
    """Read fused records written by :func:`dump_fused`, lazily.

    As with :func:`load_predictions`, the file is read once, line by line as
    the records are consumed, and a rejection (a bad byte among them) surfaces
    after the records on the lines before it. Every field must have its
    written type and ``text`` must already be normalized under ``alphabet``;
    violations are rejected with the line number in both modes.
    A line in the shape :func:`dump_fused` writes is read from one
    ``fullmatch`` of a template of it, as :func:`parse_predictions` reads a
    corpus line: strings without escapes, a text of ``alphabet`` symbols
    only, a count of at most 18 digits and one or more contributors. Any
    other line is decoded as JSON.
    There, a text of ``alphabet`` symbols only is accepted inline, and so are
    counts of their written types and contributors that are all non-empty
    ASCII strings; any other value goes through the rule that names what is
    wrong with it, the rule :class:`FusedRecord` applies. A repeated sample id
    is an error when ``strict``; otherwise the first record is kept and each
    repeat warned about and ignored. An invalid ``alphabet`` is rejected
    before the file is read.
    """
    check_alphabet(alphabet)
    tolerate = _Tolerance(strict)
    seen_ids: set[str] = set()
    symbols = _symbols_group(alphabet)
    template = symbols and _fused_template(symbols)
    def canonical(line, where):
        match = template(line)
        if match is None:
            return _DECLINED
        sample_id, dataset, text, votes, tie_broken, contributors = match.groups()
        if _first(sample_id, seen_ids, where, tolerate):
            return FusedRecord._trusted(sample_id, dataset, text, int(votes),
                                        tie_broken == "true",
                                        tuple(contributors.split('","')))
    def fused(record, where):
        _check_keys(record, _FUSED_KEYS, where, tolerate)
        try:
            sample_id, dataset, text, votes, tie_broken, contributors = [
                record[name] for name in _FUSED_FIELDS]
        except KeyError as exc:
            raise errors.ParseError(f"missing field {exc.args[0]!r}") from None
        check_identifier(sample_id, "sample_id", errors.ParseError)
        check_cell(dataset, "dataset", errors.ParseError)
        if type(text) is not str or not text or text.strip(alphabet):
            norm = _normalized(text, "text", alphabet)
            if norm != text:
                raise errors.ParseError(
                    f"text {text!r} is not normalized (expected {norm!r})")
        try:
            canonical = (type(votes) is int and votes >= 0 and type(tie_broken) is bool
                         and type(contributors) is list
                         and "".join(contributors).isascii() and "" not in contributors)
        except TypeError:  # a contributor that is not a string
            canonical = False
        if not canonical:
            _check_fused_fields(votes, tie_broken, contributors, errors.ParseError)
        if _first(sample_id, seen_ids, where, tolerate):
            return FusedRecord._trusted(sample_id, dataset, text, votes, tie_broken,
                                        tuple(contributors))
    return _parse_records(_read_lines(path), "fused", fused, tolerate,
                          match_line=canonical if template else None)


# --- synthetic config -------------------------------------------------------------

def parse_synth_config(text: str) -> SynthConfig:
    """Parse a generator config from a JSON document.

    Every rejection names the config (``config: ...``), whether the JSON,
    a field or a value of :class:`~platefuse.synth.SynthConfig` is at fault.
    """
    record = _json(text, "config", unique=True)
    try:
        if not isinstance(record, dict):
            raise errors.ParseError("document is not an object")
        unknown = sorted(set(record) - _CONFIG_KEYS)
        if unknown:
            raise errors.InvalidConfig(f"unknown field(s) {', '.join(map(repr, unknown))}")
        entries = record.get("per_model", [])
        if not isinstance(entries, list):
            raise errors.InvalidConfig(f"per_model must be a list, got {entries!r}")
        per_model = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise errors.InvalidConfig(f"per_model[{index}] must be an object")
            unknown = sorted(set(entry) - _ERROR_MODEL_KEYS)
            if unknown:
                raise errors.InvalidConfig(
                    f"per_model[{index}]: unknown field(s) {', '.join(map(repr, unknown))}"
                )
            try:
                per_model.append(ErrorModel(**entry))
            except errors.InvalidConfig as exc:
                raise errors.InvalidConfig(f"per_model[{index}]: {exc}") from None
        missing = [k for k in _REQUIRED_CONFIG_KEYS if k not in record]
        if missing:
            raise errors.InvalidConfig(f"missing field(s) {', '.join(missing)}")
        return SynthConfig(**{**record, "per_model": tuple(per_model)})
    except errors.PlatefuseError as exc:
        raise type(exc)(f"config: {exc}") from None


def load_synth_config(path) -> SynthConfig:
    return parse_synth_config(read_text(path))


# --- display rounding (applied at the rendering boundary only) --------------------

def _half_up(value: float, step: str) -> str:
    """``value`` rounded half-up to a multiple of ``step`` ('0.1' or '1')."""
    return str(Decimal(repr(value)).quantize(Decimal(step), rounding=ROUND_HALF_UP))


def _percent_digits(rate: float) -> str:
    return _half_up(rate * 100.0, "0.1")


def format_percent(rate: float) -> str:
    """0.92406 -> '92.4%'."""
    return _percent_digits(rate) + "%"


def format_latency_ms(latency: float) -> str:
    """59.7000001 -> '59.7'."""
    return _half_up(latency, "0.1")


def format_fps(fps: float) -> str:
    """16.75 -> '17' (half-up)."""
    return _half_up(fps, "1")


# --- report rendering ---------------------------------------------------------------

def render_report(report, fmt: str = FORMAT_DELIMITED) -> str:
    """Render dataset reports or a sweep report as delimited text or a table.

    A cell that holds a comma or a line break raises ``InvalidConfig``.
    """
    _check_format(fmt)
    if isinstance(report, SweepReport):
        header, rows = _sweep_cells(report, fmt)
    else:
        reports = list(report)
        if not reports or not all(isinstance(r, DatasetReport) for r in reports):
            raise errors.EmptyInput("nothing to render")
        header, rows = _dataset_cells(reports, fmt)
    # A report built directly, not by scoring, may hold a dataset or model
    # id that the loaders reject: it would split its cell or row, and no
    # reader could parse it.
    for row in (header, *rows):
        for cell in row:
            if "," in cell or "\r" in cell or "\n" in cell:
                raise errors.InvalidConfig(
                    f"report cell {cell!r} holds a comma or line break")
    return _layout(header, rows, fmt)


def _check_format(fmt: str) -> None:
    if fmt not in (FORMAT_DELIMITED, FORMAT_TABLE):
        raise errors.InvalidConfig(f"unknown report format {fmt!r}")


def _dataset_cells(reports: Sequence[DatasetReport], fmt: str):
    """Header and rows of per-dataset rates, then their macro average."""
    percent = format_percent if fmt == FORMAT_TABLE else _percent_digits
    rows = [[r.dataset, str(r.total), str(r.correct), percent(r.rate)]
            for r in reports]
    rows.append(["average", "", "", percent(macro_average(reports))])
    return ["dataset", "total", "correct", "rate"], rows


def _sweep_cells(report: SweepReport, fmt: str):
    """Header and rows of a sweep; a table merges latency and FPS in one cell."""
    strategies = list(report.strategies)
    table = fmt == FORMAT_TABLE
    percent = format_percent if table else _percent_digits
    header = (["top-n", "added model", *strategies, "time (ms) / fps"] if table
              else ["n", "added_model", *strategies, "cumulative_latency_ms", "fps"])
    rows = []
    for row in report.rows:
        latency = format_latency_ms(row.cumulative_latency_ms)
        fps = format_fps(row.fps)
        rows.append([str(row.n), row.added_model,
                     *(percent(row.per_strategy_rate[s]) for s in strategies),
                     *([f"{latency} / {fps}"] if table else [latency, fps])])
    return header, rows


def _layout(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """Comma-join each row, or align the rows as a table under a dashed rule.

    A table left-aligns the leading text columns and right-aligns the rest:
    a dataset report's ``dataset`` column, or the first two of another
    report of more than two columns (a sweep's top-n and added model).
    """
    _check_format(fmt)
    if fmt == FORMAT_DELIMITED:
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    text_cols = 2 if len(header) > 2 and header[0] != "dataset" else 1

    def fit(row):
        return "  ".join(cell.ljust(w) if i < text_cols else cell.rjust(w)
                         for i, (cell, w) in enumerate(zip(row, widths))).rstrip()

    rule = ["-" * w for w in widths]
    return "".join(fit(row) + "\n" for row in [header, rule, *rows])


def reformat_report(text: str, fmt: str) -> str:
    """Re-render a canonical delimited report (e.g. as an aligned table).

    Values are display strings already; they are laid out, not recomputed.
    A leading UTF-8 byte order mark is rejected, as every JSONL loader
    rejects it, rather than kept as text of the first header cell.
    """
    if text.startswith("\ufeff"):
        raise errors.ParseError("line 1: unexpected UTF-8 BOM")
    lines = list(_lines(text))
    if not lines:
        raise errors.EmptyFile("no report content found")
    rows = [line.split(",") for _, line in lines]
    width = len(rows[0])
    for (number, _), row in zip(lines, rows):
        if len(row) != width:
            raise errors.ParseError(
                f"line {number}: expected {width} columns, found {len(row)}"
            )
    return _layout(rows[0], rows[1:], fmt)
