"""File formats and report rendering.

Predictions, profiles, and fused outputs are line-delimited JSON (UTF-8, one
record per line) so corpora stream and diff cleanly. Reports render either as
comma-delimited text or as an aligned human-readable table; both apply the
display rounding rules (rates to one decimal percent, latency to one decimal
millisecond, FPS to a half-up integer) while all internal values stay
unrounded. Rendering is deterministic: identical inputs give identical bytes.

Strict parsing (the default) rejects unknown fields and duplicate sample ids;
the CLI loads tolerantly and logs warnings instead.
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
from .scoring import DatasetReport, SweepReport
from .synth import ErrorModel, SynthConfig

logger = logging.getLogger(__name__)

FORMAT_DELIMITED = "delimited"
FORMAT_TABLE = "table"

_SAMPLE_KEYS = {"sample_id", "dataset", "ground_truth", "predictions"}
_PREDICTION_KEYS = {"text", "confidence"}
_PROFILE_KEYS = {"id", "accuracy_rank", "latency_ms"}
_FUSED_KEYS = {"sample_id", "dataset", "text", "winning_votes", "tie_broken",
               "contributors"}
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
    place.
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


def _records(text: str):
    """Yield (line_number, parsed_object) for each non-blank line."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise errors.ParseError(f"line {number}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise errors.ParseError(f"line {number}: record is not an object")
        yield number, record


def _check_keys(record: dict, known: set, where: str, strict: bool) -> None:
    unknown = sorted(set(record) - known)
    if not unknown:
        return
    message = f"{where}: unknown field(s) {', '.join(map(repr, unknown))}"
    if strict:
        raise errors.ParseError(message)
    logger.warning("%s (ignored)", message)


def _identifier(value, name: str, where: str) -> str:
    """``value`` if it is a non-empty string that UTF-8 can encode.

    JSON's ``\\ud800`` escapes decode to lone surrogates, which no output
    file can hold; they are rejected here rather than at write time.
    """
    if not isinstance(value, str) or not value:
        raise errors.ParseError(f"{where}: {name} must be a non-empty string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise errors.ParseError(
            f"{where}: {name} {value!r} is not encodable as UTF-8"
        ) from None
    return value


# --- predictions --------------------------------------------------------------

def parse_predictions(text: str, *, strict: bool = True,
                      alphabet: str = DEFAULT_ALPHABET) -> list[Sample]:
    """Parse a prediction corpus from line-delimited JSON content."""
    samples = []
    seen_ids: set[str] = set()
    model_ids: set[str] = set()
    for number, record in _records(text):
        where = f"line {number}"
        _check_keys(record, _SAMPLE_KEYS, where, strict)
        sample_id = _identifier(record.get("sample_id"), "sample_id", where)
        dataset = _identifier(record.get("dataset"), "dataset", where)
        if sample_id in seen_ids:
            message = f"{where}: duplicate sample_id {sample_id!r}"
            if strict:
                raise errors.ParseError(message)
            logger.warning("%s", message)
        seen_ids.add(sample_id)
        ground_truth = record.get("ground_truth")
        if ground_truth is not None:
            if not isinstance(ground_truth, str):
                raise errors.ParseError(f"{where}: ground_truth must be a string")
            try:
                ground_truth = normalize_text(ground_truth, alphabet)
            except errors.PlatefuseError as exc:
                raise type(exc)(f"{where}: ground truth: {exc}") from None
        raw_predictions = record.get("predictions")
        if not isinstance(raw_predictions, dict) or not raw_predictions:
            raise errors.ParseError(f"{where}: predictions must be a non-empty object")
        predictions = {}
        for model_id, entry in raw_predictions.items():
            if model_id not in model_ids:
                model_ids.add(_identifier(model_id, "model id", where))
            if not isinstance(entry, dict):
                raise errors.ParseError(
                    f"{where}: model {model_id!r}: prediction must be an object"
                )
            _check_keys(entry, _PREDICTION_KEYS, f"{where}: model {model_id!r}", strict)
            raw_text = entry.get("text")
            if not isinstance(raw_text, str):
                raise errors.ParseError(f"{where}: model {model_id!r}: text must be a string")
            try:
                norm = normalize_text(raw_text, alphabet)
            except errors.PlatefuseError as exc:
                raise type(exc)(f"{where}: model {model_id!r}: {exc}") from None
            try:
                predictions[model_id] = Prediction(norm, entry.get("confidence"))
            except errors.InvalidConfidence as exc:
                raise errors.InvalidConfidence(
                    f"{where}: model {model_id!r}: {exc}"
                ) from None
        samples.append(Sample(sample_id, dataset, ground_truth, predictions))
    if not samples:
        raise errors.EmptyFile("no prediction records found")
    return samples


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
    profiles = []
    ids: set[str] = set()
    ranks: dict[int, str] = {}
    for number, record in _records(text):
        where = f"line {number}"
        _check_keys(record, _PROFILE_KEYS, where, strict)
        model_id = _identifier(record.get("id"), "id", where)
        if model_id in ids:
            raise errors.DuplicateModelId(f"{where}: duplicate model id {model_id!r}")
        ids.add(model_id)
        rank = record.get("accuracy_rank")
        if rank is not None:
            if isinstance(rank, bool) or not isinstance(rank, int):
                raise errors.ParseError(f"{where}: accuracy_rank must be an integer")
            if rank in ranks:
                raise errors.DuplicateRank(
                    f"{where}: rank {rank} already used by {ranks[rank]!r}"
                )
            ranks[rank] = model_id
        try:
            profiles.append(ModelProfile(model_id, record.get("latency_ms"), rank))
        except errors.InvalidConfig as exc:
            raise errors.ParseError(f"{where}: {exc}") from None
    if not profiles:
        raise errors.EmptyFile("no profile records found")
    return profiles


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


def dump_fused(records: Iterable[FusedRecord], path) -> None:
    _write_jsonl(path, ({
        "sample_id": r.sample_id,
        "dataset": r.dataset,
        "text": r.text,
        "winning_votes": r.winning_votes,
        "tie_broken": r.tie_broken,
        "contributors": list(r.contributors),
    } for r in records))


def load_fused(path, *, strict: bool = True,
               alphabet: str = DEFAULT_ALPHABET) -> list[FusedRecord]:
    """Read fused records written by :func:`dump_fused`.

    Every field must have its written type and ``text`` must already be
    normalized under ``alphabet``; violations are rejected with the line
    number in both modes. Duplicate sample ids are an error when ``strict``
    and a warning otherwise.
    """
    records = []
    seen_ids: set[str] = set()
    model_ids: set[str] = set()
    for number, record in _records(read_text(path)):
        where = f"line {number}"
        _check_keys(record, _FUSED_KEYS, where, strict)
        try:
            sample_id = record["sample_id"]
            dataset = record["dataset"]
            text = record["text"]
            votes = record["winning_votes"]
            tie_broken = record["tie_broken"]
            contributors = record["contributors"]
        except KeyError as exc:
            raise errors.ParseError(f"{where}: missing field {exc.args[0]!r}") from None
        _identifier(sample_id, "sample_id", where)
        _identifier(dataset, "dataset", where)
        if not isinstance(text, str):
            raise errors.ParseError(f"{where}: text must be a string")
        try:
            norm = normalize_text(text, alphabet)
        except errors.PlatefuseError as exc:
            raise type(exc)(f"{where}: text: {exc}") from None
        if norm != text:
            raise errors.ParseError(
                f"{where}: text {text!r} is not normalized (expected {norm!r})"
            )
        if isinstance(votes, bool) or not isinstance(votes, int) or votes < 0:
            raise errors.ParseError(
                f"{where}: winning_votes must be a non-negative integer, got {votes!r}"
            )
        if not isinstance(tie_broken, bool):
            raise errors.ParseError(
                f"{where}: tie_broken must be a boolean, got {tie_broken!r}"
            )
        if not isinstance(contributors, list):
            raise errors.ParseError(
                f"{where}: contributors must be a list of model ids, got {contributors!r}"
            )
        for model_id in contributors:
            if type(model_id) is not str or model_id not in model_ids:
                model_ids.add(_identifier(model_id, "contributor", where))
        if sample_id in seen_ids:
            message = f"{where}: duplicate sample_id {sample_id!r}"
            if strict:
                raise errors.ParseError(message)
            logger.warning("%s", message)
        seen_ids.add(sample_id)
        records.append(FusedRecord(sample_id, dataset, text, votes, tie_broken,
                                   tuple(contributors)))
    if not records:
        raise errors.EmptyFile("no fused records found")
    return records


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
    from .scoring import macro_average

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
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise errors.EmptyFile("no report content found")
    rows = [line.split(",") for line in lines]
    width = len(rows[0])
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise errors.ParseError(
                f"line {number}: expected {width} columns, found {len(row)}"
            )
    if fmt == FORMAT_DELIMITED:
        return "\n".join(lines) + "\n"
    if fmt != FORMAT_TABLE:
        raise errors.InvalidConfig(f"unknown report format {fmt!r}")
    return _align(rows[0], rows[1:])
