"""File formats and report rendering.

Predictions, profiles, and fused outputs are line-delimited JSON (UTF-8, one
record per line) so corpora stream and diff cleanly. Reports render either as
comma-delimited text or as an aligned human-readable table; both apply the
display rounding rules (rates to one decimal percent, latency to one decimal
millisecond, FPS to a half-up integer) while all internal values stay
unrounded. Rendering is deterministic: identical inputs give identical bytes.

Strict parsing (the default) rejects unknown fields and duplicate sample ids;
the CLI loads tolerantly and instead warns and ignores them.
"""

from __future__ import annotations

import json
import logging
import os
import stat
from dataclasses import MISSING, dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from . import errors
from .core import DEFAULT_ALPHABET, FusionResult, ModelProfile, Prediction, Sample, normalize_text
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


# --- shared parsing helpers --------------------------------------------------

def read_text(path) -> str:
    """Content of the UTF-8 file ``path``.

    Bytes that are not UTF-8 raise :class:`~platefuse.errors.ParseError`
    naming their line, instead of a bare ``UnicodeDecodeError``.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise errors.ParseError(
            f"line {line}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 concatenation of ``chunks`` to ``path`` in one step.

    The chunks are written, as they come, to a new uniquely named file in the
    destination's directory, which then replaces ``path`` (``os.replace``):
    readers see the old file or the whole new one. On any exception the
    temporary file is removed and ``path`` is left as it was. As with
    ``Path.write_text``, a new file gets mode ``0o666`` less the umask, an
    existing one keeps its mode, a symlink is written through, and a
    destination that is not a regular file (a pipe, a device) is written in
    place. Nothing is ``fsync``-ed: an interrupted command leaves the old
    file, but after a power loss neither version may be on disk.
    """
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
    """Write one compact JSON object per line; no records give one newline."""
    def lines():
        empty = True
        for record in records:
            empty = False
            yield json.dumps(record, separators=(",", ":")) + "\n"
        if empty:
            yield "\n"
    write_atomic(path, lines())


def _lines(text: str):
    """Yield (line_number, line) for each non-blank line of ``text``.

    Lines end at ``"\\n"`` only, so numbers match those of
    :func:`read_text`'s decode errors and characters such as U+2028 stay
    inside their line. One ``"\\r"`` before the ``"\\n"`` is dropped; any
    other carriage return (a ``"\\r"``-only file, say) is rejected.
    """
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if "\r" in line:
            raise errors.ParseError(f"line {number}: carriage return inside a line")
        if line.strip():
            yield number, line


def _parse_records(text: str, what: str, parse_record) -> list:
    """``parse_record(record, where)`` for each JSON object line, dropping ``None``.

    A rejection it raises is re-raised as its own class with the line number.
    """
    results = []
    for number, line in _lines(text):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise errors.ParseError(f"line {number}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise errors.ParseError(f"line {number}: record is not an object")
        try:
            result = parse_record(record, f"line {number}")
        except errors.PlatefuseError as exc:
            raise type(exc)(f"line {number}: {exc}") from None
        if result is not None:
            results.append(result)
    if not results:
        raise errors.EmptyFile(f"no {what} records found")
    return results


def _tolerate(message: str, where: str, strict: bool) -> None:
    """Reject ``message`` when ``strict``; otherwise warn that it is ignored."""
    if strict:
        raise errors.ParseError(message)
    logger.warning("%s: %s (ignored)", where, message)


def _check_keys(record: dict, known: set, where: str, strict: bool) -> None:
    if record.keys() <= known:
        return
    unknown = ", ".join(map(repr, sorted(record.keys() - known)))
    _tolerate(f"unknown field(s) {unknown}", where, strict)


def _first(sample_id: str, seen: set, where: str, strict: bool) -> bool:
    """Whether ``sample_id`` is new; a repeat goes through :func:`_tolerate`."""
    if sample_id not in seen:
        seen.add(sample_id)
        return True
    _tolerate(f"duplicate sample_id {sample_id!r}", where, strict)
    return False


def _identifier(value, name: str) -> str:
    """``value`` if it is a non-empty string that UTF-8 can encode.

    JSON's ``\\ud800`` escapes decode to lone surrogates, which no output
    file can hold; they are rejected here rather than at write time.
    """
    if not isinstance(value, str) or not value:
        raise errors.ParseError(f"{name} must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise errors.ParseError(f"{name} {value!r} is not encodable as UTF-8") from None
    return value


def _cell(value, name: str) -> str:
    """An :func:`_identifier` that fits one cell of a delimited report."""
    value = _identifier(value, name)
    if "," in value or "\r" in value or "\n" in value:
        raise errors.ParseError(f"{name} {value!r} holds a comma or line break")
    return value


def _normalized(value, name: str, alphabet: str) -> str:
    """The string ``value`` normalized under ``alphabet``."""
    if not isinstance(value, str):
        raise errors.ParseError(f"{name} must be a string")
    try:
        return normalize_text(value, alphabet)
    except errors.PlatefuseError as exc:
        raise type(exc)(f"{name}: {exc}") from None


# --- predictions --------------------------------------------------------------

def parse_predictions(text: str, *, strict: bool = True,
                      alphabet: str = DEFAULT_ALPHABET) -> list[Sample]:
    """Parse a prediction corpus from line-delimited JSON content."""
    seen_ids: set[str] = set()
    model_ids: set[str] = set()
    def sample(record, where):
        _check_keys(record, _SAMPLE_KEYS, where, strict)
        sample_id = _identifier(record.get("sample_id"), "sample_id")
        dataset = _cell(record.get("dataset"), "dataset")
        ground_truth = record.get("ground_truth")
        if ground_truth is not None:
            ground_truth = _normalized(ground_truth, "ground_truth", alphabet)
        raw_predictions = record.get("predictions")
        if not isinstance(raw_predictions, dict) or not raw_predictions:
            raise errors.ParseError("predictions must be a non-empty object")
        predictions = {}
        for model_id, entry in raw_predictions.items():
            if model_id not in model_ids:
                model_ids.add(_identifier(model_id, "model id"))
            try:
                if not isinstance(entry, dict):
                    raise errors.ParseError("prediction must be an object")
                _check_keys(entry, _PREDICTION_KEYS, f"{where}: model {model_id!r}", strict)
                text = _normalized(entry.get("text"), "text", alphabet)
                predictions[model_id] = Prediction(text, entry.get("confidence"))
            except errors.PlatefuseError as exc:
                raise type(exc)(f"model {model_id!r}: {exc}") from None
        if _first(sample_id, seen_ids, where, strict):
            return Sample(sample_id, dataset, ground_truth, predictions)
    return _parse_records(text, "prediction", sample)


def load_predictions(path, *, strict: bool = True,
                     alphabet: str = DEFAULT_ALPHABET) -> list[Sample]:
    """Read a prediction corpus from a line-delimited JSON file."""
    return parse_predictions(read_text(path), strict=strict, alphabet=alphabet)


def dump_predictions(samples: Iterable[Sample], path) -> None:
    """Write samples as line-delimited JSON; inverse of :func:`load_predictions`."""
    def records():
        for s in samples:
            record = {"sample_id": s.sample_id, "dataset": s.dataset}
            if s.ground_truth is not None:
                record["ground_truth"] = s.ground_truth
            record["predictions"] = {
                m: {"text": p.text, "confidence": p.confidence}
                for m, p in sorted(s.predictions.items())
            }
            yield record
    _write_jsonl(path, records())


# --- profiles ------------------------------------------------------------------

def parse_profiles(text: str, *, strict: bool = True) -> list[ModelProfile]:
    """Parse model profiles from line-delimited JSON content."""
    ids: set[str] = set()
    ranks: dict[int, str] = {}
    def profile(record, where):
        _check_keys(record, _PROFILE_KEYS, where, strict)
        model_id = _cell(record.get("id"), "id")
        if model_id in ids:
            raise errors.DuplicateModelId(f"duplicate model id {model_id!r}")
        ids.add(model_id)
        rank = record.get("accuracy_rank")
        if rank is not None:
            if isinstance(rank, bool) or not isinstance(rank, int):
                raise errors.ParseError("accuracy_rank must be an integer")
            if rank in ranks:
                raise errors.DuplicateRank(f"rank {rank} already used by {ranks[rank]!r}")
            ranks[rank] = model_id
        try:
            return ModelProfile(model_id, record.get("latency_ms"), rank)
        except errors.InvalidConfig as exc:
            raise errors.ParseError(str(exc)) from None
    return _parse_records(text, "profile", profile)


def load_profiles(path, *, strict: bool = True) -> list[ModelProfile]:
    """Read model profiles from a line-delimited JSON file."""
    return parse_profiles(read_text(path), strict=strict)


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

@dataclass(frozen=True)
class FusedRecord:
    """One fused output row, as written by the ``fuse`` command."""

    sample_id: str
    dataset: str
    text: str
    winning_votes: int
    tie_broken: bool
    contributors: tuple[str, ...]

    @classmethod
    def from_result(cls, sample: Sample, result: FusionResult) -> "FusedRecord":
        return cls(
            sample_id=sample.sample_id,
            dataset=sample.dataset,
            text=result.text,
            winning_votes=result.winning_votes,
            tie_broken=result.tie_broken,
            contributors=tuple(sorted(result.contributors)),
        )


_FUSED_FIELDS = tuple(f.name for f in fields(FusedRecord))
_FUSED_KEYS = set(_FUSED_FIELDS)


def dump_fused(records: Iterable[FusedRecord], path) -> None:
    _write_jsonl(path, ({name: getattr(r, name) for name in _FUSED_FIELDS}
                        for r in records))


def load_fused(path, *, strict: bool = True,
               alphabet: str = DEFAULT_ALPHABET) -> list[FusedRecord]:
    """Read fused records written by :func:`dump_fused`.

    Every field must have its written type and ``text`` must already be
    normalized under ``alphabet``; violations are rejected with the line
    number in both modes. A repeated sample id is an error when ``strict``;
    otherwise the first record is kept and each repeat warned about and ignored.
    """
    seen_ids: set[str] = set()
    model_ids: set[str] = set()
    def fused(record, where):
        _check_keys(record, _FUSED_KEYS, where, strict)
        try:
            sample_id, dataset, text, votes, tie_broken, contributors = [
                record[name] for name in _FUSED_FIELDS]
        except KeyError as exc:
            raise errors.ParseError(f"missing field {exc.args[0]!r}") from None
        _identifier(sample_id, "sample_id")
        _cell(dataset, "dataset")
        norm = _normalized(text, "text", alphabet)
        if norm != text:
            raise errors.ParseError(f"text {text!r} is not normalized (expected {norm!r})")
        if isinstance(votes, bool) or not isinstance(votes, int) or votes < 0:
            raise errors.ParseError(
                f"winning_votes must be a non-negative integer, got {votes!r}"
            )
        if not isinstance(tie_broken, bool):
            raise errors.ParseError(f"tie_broken must be a boolean, got {tie_broken!r}")
        if not isinstance(contributors, list):
            raise errors.ParseError(
                f"contributors must be a list of model ids, got {contributors!r}"
            )
        for model_id in contributors:
            if type(model_id) is not str or model_id not in model_ids:
                model_ids.add(_identifier(model_id, "contributor"))
        if _first(sample_id, seen_ids, where, strict):
            return FusedRecord(sample_id, dataset, text, votes, tie_broken,
                               tuple(contributors))
    return _parse_records(read_text(path), "fused", fused)


# --- synthetic config -------------------------------------------------------------

def parse_synth_config(text: str) -> SynthConfig:
    """Parse a generator config from a JSON document."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"config: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise errors.ParseError("config: document is not an object")
    unknown = sorted(set(record) - _CONFIG_KEYS)
    if unknown:
        raise errors.InvalidConfig(
            f"config: unknown field(s) {', '.join(map(repr, unknown))}"
        )
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
        raise errors.InvalidConfig(f"config: missing field(s) {', '.join(missing)}")
    return SynthConfig(**{**record, "per_model": tuple(per_model)})


def load_synth_config(path) -> SynthConfig:
    return parse_synth_config(read_text(path))


# --- display rounding (applied at the rendering boundary only) --------------------

def format_percent(rate: float) -> str:
    """0.92406 -> '92.4%'."""
    return _percent_digits(rate) + "%"


def _percent_digits(rate: float) -> str:
    return str(Decimal(repr(rate * 100.0)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP))


def format_latency_ms(latency: float) -> str:
    """59.7000001 -> '59.7'."""
    return str(Decimal(repr(latency)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP))


def format_fps(fps: float) -> str:
    """16.75 -> '17' (half-up)."""
    return str(Decimal(repr(fps)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


# --- report rendering ---------------------------------------------------------------

def render_report(report, fmt: str = FORMAT_DELIMITED) -> str:
    """Render dataset reports or a sweep report as delimited text or a table."""
    if fmt not in (FORMAT_DELIMITED, FORMAT_TABLE):
        raise errors.InvalidConfig(f"unknown report format {fmt!r}")
    if isinstance(report, SweepReport):
        return _render_sweep(report, fmt)
    reports = list(report)
    if not reports or not all(isinstance(r, DatasetReport) for r in reports):
        raise errors.EmptyInput("nothing to render")
    return _render_datasets(reports, fmt)


def _render_datasets(reports: Sequence[DatasetReport], fmt: str) -> str:
    average = macro_average(reports)
    rows = [[r.dataset, str(r.total), str(r.correct), _percent_digits(r.rate)]
            for r in reports]
    if fmt == FORMAT_DELIMITED:
        lines = ["dataset,total,correct,rate"]
        lines += [",".join(row) for row in rows]
        lines.append(f"average,,,{_percent_digits(average)}")
        return "\n".join(lines) + "\n"
    table_rows = [[r.dataset, str(r.total), str(r.correct), format_percent(r.rate)]
                  for r in reports]
    table_rows.append(["average", "", "", format_percent(average)])
    return _align(["dataset", "total", "correct", "rate"], table_rows)


def _render_sweep(report: SweepReport, fmt: str) -> str:
    strategies = list(report.strategies)
    if fmt == FORMAT_DELIMITED:
        lines = ["n,added_model," + ",".join(strategies)
                 + ",cumulative_latency_ms,fps"]
        for row in report.rows:
            cells = [str(row.n), row.added_model]
            cells += [_percent_digits(row.per_strategy_rate[s]) for s in strategies]
            cells.append(format_latency_ms(row.cumulative_latency_ms))
            cells.append(format_fps(row.fps))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    header = ["top-n", "added model"] + strategies + ["time (ms) / fps"]
    table_rows = []
    for row in report.rows:
        cells = [str(row.n), row.added_model]
        cells += [format_percent(row.per_strategy_rate[s]) for s in strategies]
        cells.append(f"{format_latency_ms(row.cumulative_latency_ms)} / "
                     f"{format_fps(row.fps)}")
        table_rows.append(cells)
    return _align(header, table_rows)


def _align(header: list[str], rows: list[list[str]]) -> str:
    """Left-align the leading text columns, right-align the rest."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    text_cols = 2 if len(header) > 2 else 1

    def fit(row):
        cells = [
            cell.ljust(widths[i]) if i < text_cols else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        return "  ".join(cells).rstrip()

    lines = [fit(header)]
    lines.append("  ".join("-" * w for w in widths).rstrip())
    lines += [fit(row) for row in rows]
    return "\n".join(lines) + "\n"


def reformat_report(text: str, fmt: str) -> str:
    """Re-render a canonical delimited report (e.g. as an aligned table).

    Values are display strings already; they are laid out, not recomputed.
    """
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
    if fmt == FORMAT_DELIMITED:
        return "".join(line + "\n" for _, line in lines)
    if fmt != FORMAT_TABLE:
        raise errors.InvalidConfig(f"unknown report format {fmt!r}")
    return _align(rows[0], rows[1:])
