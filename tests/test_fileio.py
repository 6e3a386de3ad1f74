"""Unit tests for file formats and report rendering."""

import gc
import json
import logging
import os
import re
import stat
import sys
import threading
import tracemalloc

import pytest

from conftest import SHOWCASE_PATH
from platefuse import (
    DatasetReport,
    ErrorModel,
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    SweepReport,
    SweepRow,
    SynthConfig,
    errors,
    generate,
    normalize_confidences,
    rank_models,
    sweep_top_n,
)
from platefuse import cli, fileio


# --- predictions ------------------------------------------------------------

def test_load_showcase_corpus():
    samples = list(fileio.load_predictions(SHOWCASE_PATH))
    assert len(samples) == 8
    case_a = samples[0]
    assert case_a.sample_id == "case-a"
    assert len(case_a.predictions) == 5
    assert case_a.predictions["TRBA"].text == "AIQ1056"
    assert case_a.predictions["TRBA"].confidence == 0.98
    assert case_a.ground_truth == "AIQ1056"


def test_load_predictions_normalizes(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d", "ground_truth": "ab-12",
        "predictions": {"m": {"text": "a b.12", "confidence": 0.5}},
    }) + "\n")
    (sample,) = list(fileio.load_predictions(path))
    assert sample.ground_truth == "AB12"
    assert sample.predictions["m"].text == "AB12"


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(errors.EmptyFile):
        list(fileio.load_predictions(path))


def test_out_of_range_confidence_names_line_and_model(tmp_path):
    path = tmp_path / "p.jsonl"
    lines = [
        json.dumps({"sample_id": "s1", "dataset": "d",
                    "predictions": {"m": {"text": "AB", "confidence": 0.5}}}),
        json.dumps({"sample_id": "s2", "dataset": "d",
                    "predictions": {"m2": {"text": "AB", "confidence": 1.3}}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(errors.InvalidConfidence, match=r"line 2.*m2"):
        list(fileio.load_predictions(path))


@pytest.mark.parametrize("confidence,reason", [
    ("x", "not a number"),
    (True, "not a number"),
    (float("nan"), r"outside \[0, 1\]"),
    (-0.1, r"outside \[0, 1\]"),
    pytest.param(10 ** 400, r"outside \[0, 1\]", id="int-beyond-float"),
])
def test_bad_confidence_names_line_model_and_reason(tmp_path, confidence, reason):
    path = tmp_path / "p.jsonl"
    lines = [
        json.dumps({"sample_id": "s1", "dataset": "d",
                    "predictions": {"m": {"text": "AB", "confidence": 0.5}}}),
        json.dumps({"sample_id": "s2", "dataset": "d",
                    "predictions": {"m": {"text": "AB", "confidence": 0.5},
                                    "m2": {"text": "AB", "confidence": confidence}}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(errors.InvalidConfidence,
                       match=rf"^line 2: model 'm2': confidence .* {reason}$"):
        list(fileio.load_predictions(path))


def test_integer_confidence_loads_as_float(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d",
        "predictions": {"m": {"text": "AB", "confidence": 1}},
    }) + "\n")
    (sample,) = list(fileio.load_predictions(path))
    confidence = sample.predictions["m"].confidence
    assert type(confidence) is float and confidence == 1.0
    out = tmp_path / "out.jsonl"
    fileio.dump_predictions([sample], out)
    assert '"confidence":1.0' in out.read_text()


def test_non_utf8_bytes_name_their_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_bytes(b'\n{"b": "\xc3("}\n')
    with pytest.raises(errors.ParseError, match=r"^line 2: not UTF-8"):
        list(fileio.load_predictions(path))
    with pytest.raises(errors.ParseError, match=r"^line 2: not UTF-8"):
        list(fileio.load_fused(path))


@pytest.mark.parametrize("bad", [
    b"\xc3\n",          # a sequence cut short by the line's end
    b"\xe2\x82",        # a sequence cut short by the file's end
    b"\xff",             # a byte that starts no sequence
    b"\xed\xa0\x80",    # an encoded surrogate
])
def test_non_utf8_error_matches_whole_file_decoding(tmp_path, bad):
    data = b'\n{"b": "' + bad + (b'"}\n' if not bad.endswith(b"\n") else b"")
    path = tmp_path / "p.jsonl"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decoded:
        data.decode("utf-8")
    expected = (f"line 2: not UTF-8 ({decoded.value.reason} "
                f"at byte {decoded.value.start})")
    for load in (fileio.load_predictions, fileio.load_fused, fileio.read_text):
        with pytest.raises(errors.ParseError) as exc:
            list(load(path))
        assert str(exc.value) == expected


def test_parse_predictions_yields_each_sample_before_reading_the_next():
    lines = [json.dumps({**_SAMPLE, "sample_id": f"s{i}"}) for i in range(2)]
    samples = fileio.parse_predictions("\n".join([*lines, '{"sample_id": "s2"']))
    assert next(samples).sample_id == "s0"
    assert next(samples).sample_id == "s1"
    with pytest.raises(errors.ParseError, match="^line 3: invalid JSON"):
        next(samples)


def _held_sample_lines(separators):
    n = 2000
    return [json.dumps({
        "sample_id": f"s{i:05d}", "dataset": f"d{i % 3}", "ground_truth": "AB1C",
        "predictions": {f"m{j}": {"text": f"AB{i % 10}C", "confidence": (i + j) % 97 / 100}
                        for j in range(3)},
    }, separators=separators) for i in range(n)]


def _held_sample_overhead(lines, read_confs):
    """The bytes a sample of ``lines`` held in a list costs beyond the
    objects that hold its values, once every sample's ``confs`` is read if
    ``read_confs``; and how many samples held confidence texts when loaded."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = list(fileio.parse_predictions(lines))
        deferred = sum(type(s.predictions._confs[0]) is str for s in held)
        if read_confs:
            for s in held:
                s.predictions.confs
        held_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    values = {id(v): v for s in held
              for e in [s.predictions]
              for v in (s.sample_id, s.dataset, s.ground_truth, e, e.texts, e.confs,
                        *e.texts, *e.confs)}
    return (held_bytes - sum(map(sys.getsizeof, values.values()))) / len(held), deferred


def test_a_held_sample_costs_little_beyond_its_values():
    # `fuse --normalize per-model-mean` holds every loaded sample. Beyond the
    # objects that hold its values (its strings, floats, ensemble and the
    # ensemble's tuples), a slotted sample and its place in the list cost
    # about 70 bytes on Python 3.11; with an instance dict, about 245.
    overhead, deferred = _held_sample_overhead(_held_sample_lines(None), read_confs=False)
    assert deferred == 0
    assert overhead < 128, overhead


def test_a_template_read_sample_holds_no_confidence_text_once_read():
    # The same samples in compact lines: all but the two that build the
    # template are read from it and hold their confidences' texts until
    # `confs` is read, which must keep the floats only.
    lines = _held_sample_lines((",", ":"))
    overhead, deferred = _held_sample_overhead(lines, read_confs=True)
    assert deferred == len(lines) - 2
    assert overhead < 128, overhead


def test_normalizing_a_compact_corpus_peaks_no_higher_than_its_spaced_twin(tmp_path):
    # `--normalize per-model-mean` holds every sample. It reads each one's
    # confidences as it collects them, so no template-read sample keeps its
    # texts: collecting all first would hold 12 texts a sample, ~1.5 MB here.
    path = tmp_path / "corpus.jsonl"
    fileio.dump_predictions(generate(SynthConfig(seed=4, n_models=12, n_samples=2000,
                                                 plate_length=7)), path)
    compact = path.read_text(encoding="utf-8").splitlines()
    spaced = [json.dumps(json.loads(line)) for line in compact]
    peaks = []
    for lines in (compact, spaced):
        # A first pass makes what a load makes only once (the template's
        # compiled pattern, say), and a full collection empties the
        # interpreter's free lists, so both traced passes start alike.
        normalize_confidences(fileio.parse_predictions(lines), "per-model-mean")
        gc.collect()
        tracemalloc.start()
        try:
            normalize_confidences(fileio.parse_predictions(lines), "per-model-mean")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Each path's transients at the peak differ by a few hundred bytes.
    assert peaks[0] <= peaks[1] + 4096, peaks


def test_load_predictions_reads_a_pipe(tmp_path):
    lines = [json.dumps({**_SAMPLE, "sample_id": f"s{i}"}) for i in range(3)]
    for data, outcome in ((("\n".join(lines) + "\n").encode(), None),
                          (b'\n\xff\n', "^line 2: not UTF-8")):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        if outcome is None:
            assert [s.sample_id for s in fileio.load_predictions(fifo)] == \
                ["s0", "s1", "s2"]
        else:
            with pytest.raises(errors.ParseError, match=outcome):
                list(fileio.load_predictions(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def test_a_rejection_is_reported_ahead_of_a_later_bad_byte(tmp_path):
    # Each file is read once, so a bad byte is met only when its line is
    # reached, from a regular file as from a pipe.
    data = b'{"a": 1}\n{"b": "\xc3("}\n'
    path = tmp_path / "p.jsonl"
    path.write_bytes(data)
    for load in (fileio.load_predictions, fileio.load_fused, fileio.load_profiles):
        with pytest.raises(errors.ParseError, match=r"^line 1: unknown field\(s\) 'a'$"):
            list(load(path))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        with pytest.raises(errors.ParseError, match=r"^line 1: unknown field\(s\) 'a'$"):
            list(load(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


_SAMPLE = {"sample_id": "s1", "dataset": "d",
           "predictions": {"m": {"text": "AB", "confidence": 0.5}}}


@pytest.mark.parametrize("record,message", [
    ({**_SAMPLE, "sample_id": "s\ud800"}, r"sample_id 's\\ud800'"),
    ({**_SAMPLE, "sample_id": "s2", "dataset": "\udfff"}, r"dataset '\\udfff'"),
    ({**_SAMPLE, "sample_id": "s2",
      "predictions": {"m\ud800": {"text": "AB", "confidence": 0.5}}},
     r"model id 'm\\ud800'"),
])
def test_predictions_reject_unencodable_identifiers(tmp_path, record, message):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(_SAMPLE) + "\n" + json.dumps(record) + "\n")
    for strict in (True, False):
        with pytest.raises(errors.ParseError,
                           match=rf"^line 2: {message} is not encodable as UTF-8$"):
            list(fileio.load_predictions(path, strict=strict))


def test_bad_symbol_names_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d",
        "predictions": {"m": {"text": "A#B", "confidence": 0.5}},
    }) + "\n")
    with pytest.raises(errors.SymbolOutsideAlphabet, match="line 1"):
        list(fileio.load_predictions(path))


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"sample_id": "s1"\n')
    with pytest.raises(errors.ParseError, match="line 1"):
        list(fileio.load_predictions(path))


def test_unknown_field_strict_vs_tolerant(tmp_path, caplog):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d", "source": "cam3",
        "predictions": {"m": {"text": "AB", "confidence": 0.5}},
    }) + "\n")
    with pytest.raises(errors.ParseError, match="'source'"):
        list(fileio.load_predictions(path, strict=True))
    with caplog.at_level(logging.WARNING, logger="platefuse.fileio"):
        samples = list(fileio.load_predictions(path, strict=False))
    assert len(samples) == 1
    assert any("source" in record.message for record in caplog.records)


def test_duplicate_sample_id_strict(tmp_path, caplog):
    line = json.dumps({"sample_id": "s1", "dataset": "d",
                       "predictions": {"m": {"text": "AB", "confidence": 0.5}}})
    path = tmp_path / "p.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(errors.ParseError, match="duplicate"):
        list(fileio.load_predictions(path))
    with caplog.at_level(logging.WARNING, logger="platefuse.fileio"):
        assert len(list(fileio.load_predictions(path, strict=False))) == 1
    assert [r.message for r in caplog.records] == [
        "line 2: duplicate sample_id 's1' (ignored)"]


def test_tolerant_mode_logs_the_first_fault_of_each_kind_and_counts_the_rest(
        tmp_path, caplog):
    samples = list(generate(SynthConfig(seed=5, n_models=3, n_samples=50, plate_length=6)))
    path = tmp_path / "corpus.jsonl"
    fileio.dump_predictions(samples, path)
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["source"] = "cam3"
        for entry in record["predictions"].values():
            entry["camera"] = "c1"
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines + lines[-5:]) + "\n")
    with pytest.raises(errors.ParseError, match="line 1: unknown field"):
        list(fileio.load_predictions(path))
    with caplog.at_level(logging.WARNING, logger="platefuse.fileio"):
        assert list(fileio.load_predictions(path, strict=False)) == samples
    assert [r.getMessage() for r in caplog.records] == [
        "line 1: unknown field(s) 'source' (ignored)",
        "line 1: model 'm00': unknown field(s) 'camera' (ignored)",
        "line 51: duplicate sample_id 's45' (ignored)",
        "54 more records with unknown fields (ignored)",
        "164 more predictions with unknown fields (ignored)",
        "4 more duplicate sample_ids (ignored)"]


def test_predictions_round_trip(tmp_path):
    cfg = SynthConfig(
        seed=303, n_models=4, n_samples=50, plate_length=6,
        per_model=tuple(
            ErrorModel(per_char_sub_rate=0.3, insertion_rate=0.1,
                       deletion_rate=0.1)
            for _ in range(4)
        ),
    )
    samples = list(generate(cfg))
    path = tmp_path / "corpus.jsonl"
    fileio.dump_predictions(samples, path)
    assert list(fileio.load_predictions(path)) == samples
    # Serialization itself is deterministic.
    first = path.read_bytes()
    fileio.dump_predictions(samples, path)
    assert path.read_bytes() == first


# --- profiles ----------------------------------------------------------------

def test_stock_profiles_latencies():
    profiles = fileio.load_stock_profiles()
    assert len(profiles) == 12
    by_rank = sorted(profiles, key=lambda p: p.accuracy_rank)
    assert [p.latency_ms for p in by_rank] == [
        7.3, 7.1, 16.9, 5.3, 13.0, 3.0, 4.6, 2.5, 8.5, 15.9, 2.9, 2.3
    ]


def test_profiles_duplicate_rank(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text(
        '{"id":"a","accuracy_rank":1,"latency_ms":1.0}\n'
        '{"id":"b","accuracy_rank":1,"latency_ms":2.0}\n'
    )
    with pytest.raises(errors.DuplicateRank):
        fileio.load_profiles(path)


def test_profiles_duplicate_id(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text(
        '{"id":"a","accuracy_rank":1,"latency_ms":1.0}\n'
        '{"id":"a","accuracy_rank":2,"latency_ms":2.0}\n'
    )
    with pytest.raises(errors.DuplicateModelId):
        fileio.load_profiles(path)


def test_profiles_single_entry(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text('{"id":"a","accuracy_rank":1,"latency_ms":4.5}\n')
    (profile,) = fileio.load_profiles(path)
    assert profile.model_id == "a"
    assert profile.latency_ms == 4.5


def test_profiles_reject_unencodable_id(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text('{"id":"a","latency_ms":1.0}\n{"id":"b\\ud800","latency_ms":2.0}\n')
    with pytest.raises(errors.ParseError,
                       match=r"^line 2: id 'b\\ud800' is not encodable"):
        fileio.load_profiles(path)


@pytest.mark.parametrize("latency", [True, "7", None, 0, float("inf"), float("nan"),
                                     1e-310, 1e30, 1e308])
def test_profile_latency_must_be_a_positive_number(latency):
    with pytest.raises(errors.InvalidConfig, match="latency_ms"):
        ModelProfile("m", latency)


def test_profile_integer_latency_is_stored_as_float(tmp_path):
    profile = ModelProfile("m", 7, 1)
    assert type(profile.latency_ms) is float and profile.latency_ms == 7.0
    path = tmp_path / "profiles.jsonl"
    path.write_text('{"id":"m","accuracy_rank":1,"latency_ms":7}\n')
    assert fileio.load_profiles(path) == [profile]
    fileio.dump_profiles([profile], path)
    assert path.read_text() == '{"id":"m","accuracy_rank":1,"latency_ms":7.0}\n'


def test_profile_bad_latency_names_line(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text('{"id":"a","latency_ms":1.0}\n{"id":"b","latency_ms":true}\n')
    with pytest.raises(errors.ParseError,
                       match=r"^line 2: latency_ms True is not a number$"):
        fileio.load_profiles(path)


@pytest.mark.parametrize("rank", ["[1]", "true", "1.5", "0", "-3", '"2"'])
def test_profiles_loader_checks_a_rank_as_model_profile_does(tmp_path, rank):
    with pytest.raises(errors.InvalidConfig) as built:
        ModelProfile("b", 2.0, json.loads(rank))
    path = tmp_path / "profiles.jsonl"
    path.write_text('{"id":"a","accuracy_rank":1,"latency_ms":1.0}\n'
                    f'{{"id":"b","accuracy_rank":{rank},"latency_ms":2.0}}\n')
    with pytest.raises(errors.ParseError, match=f"^line 2: {re.escape(str(built.value))}$"):
        fileio.load_profiles(path)


def test_profiles_round_trip(tmp_path):
    profiles = fileio.load_stock_profiles()
    path = tmp_path / "profiles.jsonl"
    fileio.dump_profiles(profiles, path)
    assert fileio.load_profiles(path) == profiles


# --- fused outputs -------------------------------------------------------------

_FUSED = {"sample_id": "s1", "dataset": "d", "text": "AB1", "winning_votes": 2,
          "tie_broken": False, "contributors": ["m1", "m2"]}


def _write_fused(tmp_path, *records):
    path = tmp_path / "fused.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_fused_round_trip(tmp_path):
    (record,) = fileio.load_fused(_write_fused(tmp_path, _FUSED))
    assert record == fileio.FusedRecord("s1", "d", "AB1", 2, False, ("m1", "m2"))


@pytest.mark.parametrize("field,value,message", [
    ("text", 5, "line 2: text must be a string"),
    ("winning_votes", "x", "line 2: winning_votes must be"),
    ("tie_broken", "no", "line 2: tie_broken must be"),
    ("contributors", "m1", "line 2: contributors must be"),
    ("text", "ab-1", "line 2: text 'ab-1' is not normalized"),
    ("sample_id", "s\ud800", r"line 2: sample_id 's\\ud800' is not encodable"),
    ("dataset", "d\ud800", r"line 2: dataset 'd\\ud800' is not encodable"),
    ("contributors", [["m1"]], "line 2: contributor"),
    ("contributors", ["m1", "\udc80"],
     r"line 2: contributor '\\udc80' is not encodable"),
])
def test_fused_rejects_bad_field_in_both_modes(tmp_path, field, value, message):
    path = _write_fused(tmp_path, _FUSED, {**_FUSED, "sample_id": "s2", field: value})
    for strict in (True, False):
        with pytest.raises(errors.ParseError, match=message):
            list(fileio.load_fused(path, strict=strict))


# Each value is rejected by load_fused on a line of _FUSED, under any alphabet.
_FUSED_REJECTED = [
    ("sample_id", ""), ("sample_id", 5), ("sample_id", "s\ud800"),
    ("dataset", ""), ("dataset", "a,b"), ("dataset", "a\nb"), ("dataset", "d\ud800"),
    ("text", 5), ("text", ""), ("text", "ab-1"), ("text", "A-B"), ("text", "ß"),
    ("winning_votes", True), ("winning_votes", -1), ("winning_votes", 1.0),
    ("winning_votes", "x"), ("winning_votes", None),
    ("tie_broken", 0), ("tie_broken", "no"), ("tie_broken", None),
    ("contributors", "m1"), ("contributors", None), ("contributors", [""]),
    ("contributors", [5]), ("contributors", [["m1"]]),
    ("contributors", ["m1", "\udc80"]),
]


@pytest.mark.parametrize("field,value", _FUSED_REJECTED)
def test_a_fused_record_rejects_what_load_fused_rejects(tmp_path, field, value):
    # A writer must not write what its own loader rejects: the record names
    # the field, as the loader does.
    name = field.removesuffix("s")
    with pytest.raises(errors.PlatefuseError, match=f"^line 1: {name}"):
        list(fileio.load_fused(_write_fused(tmp_path, {**_FUSED, field: value})))
    with pytest.raises(errors.PlatefuseError, match=f"^{name}"):
        fileio.FusedRecord(**{**_FUSED, field: value})


def test_a_fused_record_stores_its_contributors_as_a_tuple():
    record = fileio.FusedRecord(**_FUSED)
    assert record.contributors == ("m1", "m2")
    assert record == fileio.FusedRecord(**{**_FUSED, "contributors": ("m1", "m2")})


def test_fused_text_checked_against_alphabet(tmp_path):
    path = _write_fused(tmp_path, {**_FUSED, "text": "AB"})
    assert list(fileio.load_fused(path, alphabet="AB"))[0].text == "AB"
    with pytest.raises(errors.SymbolOutsideAlphabet, match="line 1"):
        list(fileio.load_fused(path, alphabet="01"))


def test_loaders_reject_an_invalid_alphabet_before_any_record(tmp_path):
    # The message has no "line N:": no record has been read.
    fused = _write_fused(tmp_path, {**_FUSED, "text": "AB"})
    with pytest.raises(errors.InvalidConfig, match=r"^alphabet symbol '-' is a separator$"):
        fileio.load_fused(fused, alphabet="A-B")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d", "ground_truth": "aba",
        "predictions": {"m": {"text": "ab", "confidence": 0.5}},
    }) + "\n")
    with pytest.raises(errors.InvalidConfig,
                       match=r"^alphabet symbol 'a' is not its own uppercase$"):
        fileio.load_predictions(corpus, alphabet="ab")


def test_fused_duplicate_sample_id_strict_vs_tolerant(tmp_path, caplog):
    path = _write_fused(tmp_path, _FUSED, _FUSED)
    with pytest.raises(errors.ParseError, match="line 2: duplicate sample_id 's1'"):
        list(fileio.load_fused(path, strict=True))
    with caplog.at_level(logging.WARNING, logger="platefuse.fileio"):
        records = list(fileio.load_fused(path, strict=False))
    assert len(records) == 1
    assert [r.message for r in caplog.records] == [
        "line 2: duplicate sample_id 's1' (ignored)"]


# --- repeated keys ---------------------------------------------------------------

# Each repeats a key of a predictions record, put where REPEAT stands: a
# model id, a record field and a prediction field.
_REPEATS = {
    "m00": '{"sample_id":"s2","dataset":"d","predictions":{'
           '"m00":{"text":"AB","confidence":0.9},REPEAT{"text":"CD","confidence":0.9}}}',
    "dataset": '{"sample_id":"s2","dataset":"d",REPEAT"e",'
               '"predictions":{"m00":{"text":"AB","confidence":0.9}}}',
    "text": '{"sample_id":"s2","dataset":"d",'
            '"predictions":{"m00":{"text":"AB","confidence":0.9,REPEAT"CD"}}}',
}


def _escaped(key):
    """``key`` as a JSON string whose first character is escaped."""
    return f'"\\u{ord(key[0]):04x}{key[1:]}"'


@pytest.mark.parametrize("key", _REPEATS)
@pytest.mark.parametrize("spelling", ["space-before-colon", "escape"])
def test_predictions_reject_a_repeated_key_in_both_modes(tmp_path, key, spelling):
    repeat = f'"{key}" :' if spelling == "space-before-colon" else _escaped(key) + ":"
    line = _REPEATS[key].replace("REPEAT", repeat)
    assert json.loads(line)  # valid JSON, which keeps the last value
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_record("predictions", 1)) + "\n" + line + "\n")
    for strict in (True, False):
        with pytest.raises(errors.ParseError, match=f"^line 2: repeated key '{key}'$"):
            list(fileio.load_predictions(path, strict=strict))


@pytest.mark.parametrize("kind, line, key", [
    ("fused", json.dumps(_FUSED)[:-1] + ', "text" : "CD"}', "text"),
    ("profiles", '{"id":"m2","accuracy_rank":2,"latency_ms":1.0,"latency_ms" :2.0}',
     "latency_ms"),
    ("profiles", r'{"id":"m2","id":"m3","accuracy_rank":2,"latency_ms":1.0}', "id"),
])
def test_fused_and_profiles_reject_a_repeated_key_in_both_modes(tmp_path, kind, line,
                                                                key):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(_record(kind, 1)) + "\n" + line + "\n")
    for strict in (True, False):
        with pytest.raises(errors.ParseError, match=f"^line 2: repeated key '{key}'$"):
            _LOADERS[kind](path, strict=strict)


@pytest.mark.parametrize("document, key", [
    ('{"seed":7,"n_models":1,"n_samples":1,"plate_length":5,"seed" :8}', "seed"),
    ('{"seed":7,"n_models":1,"n_samples":1,"plate_length":5,'
     '"per_model":[{"deletion_rate":0.1,"deletion_rate":0.2}]}', "deletion_rate"),
])
def test_synth_config_rejects_a_repeated_key(document, key):
    with pytest.raises(errors.ParseError, match=f"^config: repeated key '{key}'$"):
        fileio.parse_synth_config(document)


def test_a_colon_inside_a_value_is_accepted(tmp_path):
    # More colons than keys: the line is decoded again, and accepted.
    record = {**_record("predictions", 1), "dataset": "cam:1"}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    fused = _write_fused(tmp_path, {**_FUSED, "dataset": "cam:1"})
    for strict in (True, False):
        (sample,) = fileio.load_predictions(corpus, strict=strict)
        assert sample.dataset == "cam:1"
        (fused_record,) = fileio.load_fused(fused, strict=strict)
        assert fused_record.dataset == "cam:1"


# --- line rule and line context ----------------------------------------------------

def _record(kind, i):
    """The i-th valid record of a file read by loader ``kind``."""
    if kind == "predictions":
        return {"sample_id": f"s{i}", "dataset": "d",
                "predictions": {"m": {"text": "AB", "confidence": 0.5}}}
    if kind == "profiles":
        return {"id": f"m{i}", "accuracy_rank": i + 1, "latency_ms": 1.0}
    return {**_FUSED, "sample_id": f"s{i}"}


_LOADERS = {"predictions": lambda *args, **kwargs: list(
                fileio.load_predictions(*args, **kwargs)),
            "profiles": fileio.load_profiles,
            "fused": lambda *args, **kwargs: list(fileio.load_fused(*args, **kwargs))}


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def _prediction(record, **entry):
    return {**record, "predictions": {"m": {"text": "AB", "confidence": 0.5, **entry}}}


# JSON that json.loads cannot decode: an integer past Python's 4300-digit
# limit (ValueError) and nesting past its recursion limit (RecursionError).
# Each sits where a decoded value would be rejected as a ParseError too, so
# the cases hold on a Python without the digit limit.
_HUGE_INT = "1" * 5000
_DEEP = "[" * 100_000

# Loader -> rejection kind -> (line 2 from a valid record, error class).
_CORRUPTIONS = {
    "predictions": {
        "bad-json": (lambda r: '{"sample_id": "s1"', errors.ParseError),
        "huge-integer": (lambda r: f'{{"sample_id": {_HUGE_INT}}}', errors.ParseError),
        "deep-nesting": (lambda r: _DEEP, errors.ParseError),
        "not-an-object": (lambda r: "[1]", errors.ParseError),
        "wrong-type": (lambda r: {**r, "dataset": 7}, errors.ParseError),
        "ground-truth-type": (lambda r: {**r, "ground_truth": ["AB"]}, errors.ParseError),
        "bad-symbol": (lambda r: _prediction(r, text="A#B"), errors.SymbolOutsideAlphabet),
        "empty-text": (lambda r: {**r, "ground_truth": "-"},
                       errors.EmptyAfterNormalization),
        "bad-confidence": (lambda r: _prediction(r, confidence=1.5),
                           errors.InvalidConfidence),
        "unknown-field": (lambda r: _prediction(r, source="cam"), errors.ParseError),
        "missing-field": (lambda r: _without(r, "predictions"), errors.ParseError),
        "duplicate-id": (lambda r: {**r, "sample_id": "s0"}, errors.ParseError),
        "report-character": (lambda r: {**r, "dataset": "gate,cam"}, errors.ParseError),
        # Prediction values that are not canonical, so none is accepted inline.
        "integer-confidence": (lambda r: _prediction(r, confidence=2),
                               errors.InvalidConfidence),
        "bool-confidence": (lambda r: _prediction(r, confidence=True),
                            errors.InvalidConfidence),
        "string-confidence": (lambda r: _prediction(r, confidence="0.5"),
                              errors.InvalidConfidence),
        "nan-confidence": (lambda r: _prediction(r, confidence=float("nan")),
                           errors.InvalidConfidence),
        "missing-confidence": (lambda r: {**r, "predictions": {"m": {"text": "AB"}}},
                               errors.InvalidConfidence),
        "text-type": (lambda r: _prediction(r, text=5), errors.ParseError),
        "empty-prediction-text": (lambda r: _prediction(r, text=""),
                                  errors.EmptyAfterNormalization),
        "separator-only-text": (lambda r: _prediction(r, text=" -."),
                                errors.EmptyAfterNormalization),
        "lowercase-bad-symbol": (lambda r: _prediction(r, text="ab#"),
                                 errors.SymbolOutsideAlphabet),
        "unknown-field-and-bad-symbol": (lambda r: _prediction(r, text="A#", note=1),
                                         errors.ParseError),
        "prediction-type": (lambda r: {**r, "predictions": {"m": ["AB", 0.5]}},
                            errors.ParseError),
        "model-id": (lambda r: {**r, "predictions": {"": {"text": "AB", "confidence": 0.5}}},
                     errors.ParseError),
    },
    "profiles": {
        "bad-json": (lambda r: '{"id": "m1",', errors.ParseError),
        "huge-integer": (lambda r: f'{{"id": {_HUGE_INT}}}', errors.ParseError),
        "deep-nesting": (lambda r: _DEEP, errors.ParseError),
        "wrong-type": (lambda r: {**r, "accuracy_rank": "2"}, errors.ParseError),
        "bad-latency": (lambda r: {**r, "latency_ms": -1.0}, errors.ParseError),
        "missing-field": (lambda r: _without(r, "latency_ms"), errors.ParseError),
        "unknown-field": (lambda r: {**r, "note": 1}, errors.ParseError),
        "duplicate-id": (lambda r: {**r, "id": "m0"}, errors.DuplicateModelId),
        "duplicate-rank": (lambda r: {**r, "accuracy_rank": 1}, errors.DuplicateRank),
        "report-character": (lambda r: {**r, "id": "m\n1"}, errors.ParseError),
    },
    "fused": {
        "bad-json": (lambda r: '{"sample_id": "s1",', errors.ParseError),
        "huge-integer": (lambda r: f'{{"sample_id": {_HUGE_INT}}}', errors.ParseError),
        "deep-nesting": (lambda r: _DEEP, errors.ParseError),
        "wrong-type": (lambda r: {**r, "winning_votes": "2"}, errors.ParseError),
        "bad-symbol": (lambda r: {**r, "text": "A#"}, errors.SymbolOutsideAlphabet),
        "missing-field": (lambda r: _without(r, "tie_broken"), errors.ParseError),
        "unknown-field": (lambda r: {**r, "extra": 1}, errors.ParseError),
        "duplicate-id": (lambda r: {**r, "sample_id": "s0"}, errors.ParseError),
        "report-character": (lambda r: {**r, "dataset": "d\r"}, errors.ParseError),
    },
}


@pytest.mark.parametrize("kind,case", [
    pytest.param(kind, case, id=f"{kind}-{case}")
    for kind, cases in _CORRUPTIONS.items() for case in cases
])
def test_every_rejection_names_its_line(tmp_path, kind, case):
    path = _corrupted(tmp_path, kind, case)
    with pytest.raises(_CORRUPTIONS[kind][case][1]) as exc:
        _LOADERS[kind](path, strict=True)
    assert str(exc.value).startswith("line 2: ")
    assert not str(exc.value).startswith("line 2: line")


def _corrupted(tmp_path, kind, case, **fields):
    """A file of three ``kind`` records whose second has the fault ``case``;
    the first and third also hold ``fields``."""
    bad = _CORRUPTIONS[kind][case][0](_record(kind, 1))
    lines = [json.dumps({**_record(kind, 0), **fields}),
             bad if isinstance(bad, str) else json.dumps(bad),
             json.dumps({**_record(kind, 2), **fields})]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _rejection(load):
    """The class and message of what ``load()`` raises, or None."""
    try:
        load()
    except errors.PlatefuseError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", list(_CORRUPTIONS["predictions"]))
def test_eval_fused_rejects_what_fuse_rejects(tmp_path, capsys, case):
    # eval scores each sample as it is read, so the valid records around the
    # fault need a ground truth for the fault to be the first error.
    corpus = _corrupted(tmp_path, "predictions", case, ground_truth="AB")
    fused = tmp_path / "fused.jsonl"
    fused.write_text("".join(json.dumps(_record("fused", i)) + "\n" for i in range(3)))
    for strict in (True, False):
        built = _rejection(lambda: list(fileio.load_predictions(corpus, strict=strict)))
        if built is None:
            assert not strict  # tolerant mode ignores some faults
            continue
        flag = ["--strict"] if strict else []
        assert cli.main(["fuse", "--input", str(corpus), "--strategy", "mv-hc",
                         "--output", str(tmp_path / "out.jsonl"), *flag]) == 1
        fuse_err = capsys.readouterr().err
        assert cli.main(["eval", "--input", str(corpus), "--fused", str(fused),
                         *flag]) == 1
        assert capsys.readouterr().err == fuse_err == f"error: {built[1]}\n"


# Each predictions rejection, recorded before canonical values were accepted
# inline: strict message, then the tolerant outcome where it differs (None:
# the fault is ignored). A JSON rejection reads as json.loads's own message.
_JSON_REJECTION = object()
_PREDICTION_REJECTIONS = {
    "bad-json": _JSON_REJECTION,
    "huge-integer": _JSON_REJECTION,
    "deep-nesting": _JSON_REJECTION,
    "not-an-object": "line 2: record is not an object",
    "wrong-type": "line 2: dataset must be a non-empty string",
    "ground-truth-type": "line 2: ground_truth must be a string",
    "bad-symbol": "line 2: model 'm': text: symbol '#' in 'A#B' is not in the alphabet",
    "empty-text": "line 2: ground_truth: nothing left of '-' after normalization",
    "bad-confidence": "line 2: model 'm': confidence 1.5 outside [0, 1]",
    "unknown-field": ("line 2: model 'm': unknown field(s) 'source'", None),
    "missing-field": "line 2: predictions must be a non-empty object",
    "duplicate-id": ("line 2: duplicate sample_id 's0'", None),
    "report-character": "line 2: dataset 'gate,cam' holds a comma or line break",
    "integer-confidence": "line 2: model 'm': confidence 2.0 outside [0, 1]",
    "bool-confidence": "line 2: model 'm': confidence True is not a number",
    "string-confidence": "line 2: model 'm': confidence '0.5' is not a number",
    "nan-confidence": "line 2: model 'm': confidence nan outside [0, 1]",
    "missing-confidence": "line 2: model 'm': confidence None is not a number",
    "text-type": "line 2: model 'm': text must be a string",
    "empty-prediction-text": "line 2: model 'm': text: nothing left of '' after normalization",
    "separator-only-text":
        "line 2: model 'm': text: nothing left of ' -.' after normalization",
    "lowercase-bad-symbol":
        "line 2: model 'm': text: symbol '#' in 'ab#' is not in the alphabet",
    "unknown-field-and-bad-symbol": (
        "line 2: model 'm': unknown field(s) 'note'",
        (errors.SymbolOutsideAlphabet,
         "line 2: model 'm': text: symbol '#' in 'A#' is not in the alphabet")),
    "prediction-type": "line 2: model 'm': prediction must be an object",
    "model-id": "line 2: model id must be a non-empty string",
}


def _loads_outcome(text, where):
    """The repr of ``json.loads(text)``, or the message ``_json`` must give."""
    try:
        return repr(json.loads(text))  # repr: NaN is not equal to itself
    except json.JSONDecodeError as exc:
        return f"{where}: invalid JSON ({exc.msg})"
    except (ValueError, RecursionError) as exc:
        return f"{where}: invalid JSON ({exc})"


@pytest.mark.parametrize("case", list(_CORRUPTIONS["predictions"]))
def test_predictions_rejections_keep_their_class_and_message(tmp_path, case):
    path = _corrupted(tmp_path, "predictions", case)
    error = _CORRUPTIONS["predictions"][case][1]
    expected = _PREDICTION_REJECTIONS[case]
    if expected is _JSON_REJECTION:
        expected = _loads_outcome(path.read_text().split("\n")[1], "line 2")
        if not expected.startswith("line 2: invalid JSON"):
            pytest.skip("this Python decodes the line")
    strict, tolerant = expected if isinstance(expected, tuple) else (expected, expected)
    if isinstance(tolerant, str):
        tolerant = (error, tolerant)
    for mode, outcome in ((True, (error, strict)), (False, tolerant)):
        assert _rejection(lambda: list(fileio.load_predictions(
            path, strict=mode))) == outcome


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_unicode_line_separators_stay_inside_their_line(tmp_path, kind, separator):
    path = tmp_path / "records.jsonl"
    first = _record(kind, 0)
    if kind == "profiles":
        first["id"] = f"m{separator}0"
    else:
        first["dataset"] = f"d{separator}x"
    path.write_text(json.dumps(first, ensure_ascii=False) + "\n"
                    + '{"bad": \n', encoding="utf-8")
    with pytest.raises(errors.ParseError, match="^line 2: invalid JSON"):
        _LOADERS[kind](path)
    path.write_text(json.dumps(first, ensure_ascii=False) + "\n", encoding="utf-8")
    (loaded,) = _LOADERS[kind](path)
    assert separator in (loaded.model_id if kind == "profiles" else loaded.dataset)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_crlf_accepted_and_bare_cr_rejected(tmp_path, kind):
    lines = [json.dumps(_record(kind, i)) for i in range(2)]
    path = tmp_path / "records.jsonl"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n\r\n")
    assert len(_LOADERS[kind](path)) == 2
    path.write_bytes("\r".join(lines).encode() + b"\r")
    with pytest.raises(errors.ParseError, match="^line 1: carriage return"):
        _LOADERS[kind](path)


@pytest.mark.parametrize("name", ["gate,cam", "gate\ncam", "gate\rcam"])
def test_report_breaking_names_rejected_in_both_modes(tmp_path, name):
    for kind, field in (("predictions", "dataset"), ("fused", "dataset"),
                        ("profiles", "id")):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(_record(kind, 0)) + "\n"
                        + json.dumps({**_record(kind, 1), field: name}) + "\n")
        message = rf"^line 2: {field} {re.escape(repr(name))} holds a comma or line break$"
        for strict in (True, False):
            with pytest.raises(errors.ParseError, match=message):
                _LOADERS[kind](path, strict=strict)


def test_reformat_report_line_rule():
    text = "dataset,total,correct,rate\n\nd\u2028x,1,1,100.0\n"
    assert fileio.reformat_report(text, "delimited") == text.replace("\n\n", "\n")
    crlf = text.replace("\n", "\r\n")
    assert fileio.reformat_report(crlf, "table") == fileio.reformat_report(text, "table")
    with pytest.raises(errors.ParseError, match="^line 1: carriage return"):
        fileio.reformat_report(text.replace("\n", "\r"), "table")
    with pytest.raises(errors.ParseError, match="^line 3: expected 4 columns, found 5$"):
        fileio.reformat_report(text.replace("x,", "x,,"), "table")


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, "x", null, true]}', '"\\ud800"', "[1e400]",
    '\ufeff{"a": 1}', ' {"a": 1}', '{"a": 1} ', '\t[1]\t', "",
    '{"a": 1}{"b": 2}', "[1] x", "1 2", '{"a": 1', "tru",
    "NaN", "[NaN]", '{"a": -Infinity}',
    _HUGE_INT, f"[{_HUGE_INT}]", _DEEP, _DEEP + " ",
], ids=lambda text: repr(text[:12]))
def test_json_decodes_as_json_loads(text):
    # The one-scan route must give json.loads's value or message.
    try:
        got = repr(fileio._json(text, "where"))
    except errors.ParseError as exc:
        got = str(exc)
    assert got == _loads_outcome(text, "where")


@pytest.mark.parametrize("kind,dump", [("predictions", fileio.dump_predictions),
                                       ("fused", fileio.dump_fused),
                                       ("profiles", fileio.dump_profiles)])
def test_an_empty_dump_writes_an_empty_file(tmp_path, kind, dump):
    path = tmp_path / f"{kind}.jsonl"
    dump([], path)
    assert path.read_bytes() == b""
    with pytest.raises(errors.EmptyFile):
        _LOADERS[kind](path)


# --- atomic writes ---------------------------------------------------------------

def test_dump_fused_failure_keeps_old_file(tmp_path):
    path = _write_fused(tmp_path, _FUSED)
    old = path.read_bytes()

    def records():
        # The first record is written to the temporary file, then the
        # second fails.
        yield fileio.FusedRecord("s0", "d", "AB", 1, False, ("m1",))
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        fileio.dump_fused(records(), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["fused.jsonl"]


def test_write_atomic_modes_and_links(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    new = tmp_path / "new.txt"
    fileio.write_atomic(new, ["a\n", "b\n"])
    assert new.read_bytes() == b"a\nb\n"
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask

    new.chmod(0o600)
    fileio.write_atomic(new, ["c\n"])
    assert new.read_bytes() == b"c\n"
    assert stat.S_IMODE(new.stat().st_mode) == 0o600

    link = tmp_path / "link.txt"
    link.symlink_to(new)
    fileio.write_atomic(link, ["d\n"])
    assert link.is_symlink() and new.read_bytes() == b"d\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "new.txt"]


def test_write_atomic_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    fileio.write_atomic(fifo, ["x\n"])
    reader.join(timeout=10)
    assert received == [b"x\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


# --- synth config ---------------------------------------------------------------

def test_load_synth_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 7, "n_models": 2, "n_samples": 3, "plate_length": 5,
        "alphabet": "AB01",
        "per_model": [
            {"per_char_sub_rate": 0.1},
            {"per_char_sub_rate": 0.2, "overconfident": True},
        ],
    }))
    cfg = fileio.load_synth_config(path)
    assert cfg.seed == 7
    assert cfg.alphabet == "AB01"
    assert cfg.per_model[1].overconfident


def test_synth_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 7, "n_models": 1, "n_samples": 1, "plate_length": 5,
        "typo_field": 1,
    }))
    with pytest.raises(errors.InvalidConfig, match="typo_field"):
        fileio.load_synth_config(path)


def test_synth_config_names_missing_fields_in_field_order():
    with pytest.raises(errors.InvalidConfig,
                       match=r"^config: missing field\(s\) seed, n_samples$"):
        fileio.parse_synth_config(json.dumps({"plate_length": 5, "n_models": 2}))
    with pytest.raises(errors.InvalidConfig,
                       match=r"^config: missing field\(s\) seed, n_models, "
                             r"n_samples, plate_length$"):
        fileio.parse_synth_config(json.dumps({"dataset": "d"}))


@pytest.mark.parametrize("document", [f"[{_HUGE_INT}]", _DEEP],
                         ids=["huge-integer", "deep-nesting"])
def test_synth_config_rejects_json_python_cannot_decode(document):
    with pytest.raises(errors.ParseError, match="^config: "):
        fileio.parse_synth_config(document)


_CONFIG = {"seed": 7, "n_models": 2, "n_samples": 3, "plate_length": 5}


@pytest.mark.parametrize("fields,message", [
    ({"seed": True}, r"^seed must be"),
    ({"per_model": [{}, {"overconfident": "no"}]},
     r"^per_model\[1\]: overconfident must be a boolean"),
    ({"per_model": [{"deletion_rate": False}, {}]},
     r"^per_model\[0\]: deletion_rate False is not a number$"),
    ({"dataset": 7}, r"^dataset must be a non-empty string"),
    ({"alphabet": ["A", "B"]}, r"^alphabet must be a string"),
    ({"per_model": [{"confidence_when_correct": [True, 0.1]}, {}]},
     r"^per_model\[0\]: confidence_when_correct True is not a number$"),
    ({"per_model": [{"confidence_when_correct": 0.9}, {}]},
     r"^per_model\[0\]: confidence_when_correct must be a \(mean, spread\) pair"),
    ({"per_model": [{}, {"per_char_sub_rate": "0.1"}]},
     r"^per_model\[1\]: per_char_sub_rate '0\.1' is not a number$"),
    ({"per_model": 5}, r"^per_model must be a list"),
    ({"dataset": "gate,cam"}, r"^dataset 'gate,cam' holds a comma or line break$"),
    ({"dataset": "d\ud800"}, r"^dataset 'd\\ud800' is not encodable as UTF-8$"),
    ({"alphabet": "ab"}, r"^alphabet symbol 'a' is not its own uppercase$"),
    ({"alphabet": "\ud800A"}, r"^alphabet symbol '\\ud800' is not encodable as UTF-8$"),
])
def test_synth_config_rejects_wrong_types(fields, message):
    # Each message is given after the "config: " prefix every config error carries.
    with pytest.raises(errors.InvalidConfig,
                       match="^config: " + message.removeprefix("^")):
        fileio.parse_synth_config(json.dumps({**_CONFIG, **fields}))


# --- display rounding -------------------------------------------------------------

def test_format_percent():
    assert fileio.format_percent(0.92406) == "92.4%"
    assert fileio.format_percent(0.97575) == "97.6%"
    assert fileio.format_percent(1.0) == "100.0%"
    assert fileio.format_percent(0.0345) == "3.5%"  # half-up, not banker's


def test_format_latency_and_fps():
    assert fileio.format_latency_ms(59.69999999) == "59.7"
    assert fileio.format_fps(16.75) == "17"
    assert fileio.format_fps(136.986) == "137"
    assert fileio.format_fps(11.5) == "12"  # half-up


# --- report rendering ----------------------------------------------------------------

def test_render_dataset_reports_delimited_and_table():
    reports = [DatasetReport("alpha", 100, 97), DatasetReport("beta", 50, 43)]
    csv_text = fileio.render_report(reports, "delimited")
    assert csv_text.splitlines()[0] == "dataset,total,correct,rate"
    assert "alpha,100,97,97.0" in csv_text
    assert csv_text.splitlines()[-1].startswith("average,,,")
    table = fileio.render_report(reports, "table")
    assert "97.0%" in table
    assert "average" in table
    # Deterministic bytes.
    assert fileio.render_report(reports, "table") == table


def test_a_dataset_table_left_aligns_only_the_dataset():
    reports = [DatasetReport("alpha", 100, 97), DatasetReport("b", 5, 4)]
    table = ("dataset  total  correct   rate\n"
             "-------  -----  -------  -----\n"
             "alpha      100       97  97.0%\n"
             "b            5        4  80.0%\n"
             "average                  88.5%\n")
    assert fileio.render_report(reports, "table") == table
    csv_text = fileio.render_report(reports, "delimited")
    assert fileio.reformat_report(csv_text, "table") == (
        "dataset  total  correct  rate\n"
        "-------  -----  -------  ----\n"
        "alpha      100       97  97.0\n"
        "b            5        4  80.0\n"
        "average                  88.5\n")
    # Other reports keep their two leading text columns.
    assert fileio.reformat_report("n,model,rate\n1,ab,5\n", "table") == (
        "n  model  rate\n-  -----  ----\n1  ab        5\n")


def test_render_sweep_formats(stock_profiles, showcase_samples):
    top5 = [p for p in stock_profiles if p.accuracy_rank <= 5]
    ranking = rank_models(top5, "accuracy")
    strategies = [FusionStrategy(n, ranking) for n in ("mv-hc", "mv-bm")]
    report = sweep_top_n(showcase_samples, top5, strategies, "accuracy")
    csv_text = fileio.render_report(report, "delimited")
    header = csv_text.splitlines()[0]
    assert header == "n,added_model,mv-hc,mv-bm,cumulative_latency_ms,fps"
    first = csv_text.splitlines()[1].split(",")
    assert first[0] == "1" and first[1] == "ViTSTR-Base"
    assert first[-2] == "7.3" and first[-1] == "137"
    table = fileio.render_report(report, "table")
    assert "7.3 / 137" in table
    assert "14.4 / 69" in table


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
@pytest.mark.parametrize("fmt", ["delimited", "table"])
def test_render_rejects_a_cell_that_would_split(name, fmt):
    # A report built directly may hold a dataset or model id that Sample,
    # ModelProfile and the loaders reject; its cell would split in two, or
    # its row, and no reader could parse the report back.
    sweep = SweepReport(("hc",), (SweepRow(1, name, {"hc": 1.0}, 2.0),))
    message = rf"^report cell {re.escape(repr(name))} holds a comma or line break$"
    for report in ([DatasetReport(name, 2, 1)], sweep):
        with pytest.raises(errors.InvalidConfig, match=message):
            fileio.render_report(report, fmt)


def _written(field, value):
    """Records built with ``field`` set to ``value``, their dumper and loader."""
    if field == "id":
        return [ModelProfile(value, 2.0, 1)], fileio.dump_profiles, fileio.load_profiles
    record = {"sample_id": "s1", "dataset": "d", "ground_truth": "AB",
              "predictions": {"m": Prediction("AB", 0.5)}, field: value}
    return [Sample(**record)], fileio.dump_predictions, fileio.load_predictions


_IDS_WRITTEN = ["d", "gäte", "a b", "a,b", "a\nb", "a\rb", "", "a\ud800", 5]


@pytest.mark.parametrize("field,value", [
    *[(field, value) for field in ("dataset", "id") for value in _IDS_WRITTEN],
    *[("ground_truth", value) for value in ["AB", None, 5, "", ["AB"], "ab", "A-B", "ß"]],
    ("predictions", {}),
])
def test_a_value_is_rejected_when_built_or_loads_back_equal(tmp_path, field, value):
    # A writer must not write what its own loader rejects.
    try:
        records, dump, load = _written(field, value)
    except errors.PlatefuseError:
        return
    path = tmp_path / "written.jsonl"
    dump(records, path)
    assert list(load(path)) == records


def test_render_rejects_unknown_format(stock_profiles, showcase_samples):
    top2 = [p for p in stock_profiles if p.accuracy_rank <= 2]
    sweep = sweep_top_n(showcase_samples, top2,
                        [FusionStrategy("mv-hc", rank_models(top2, "accuracy"))],
                        "accuracy")
    # render_report checks the format before it reads the report.
    for report in ([DatasetReport("d", 1, 1)], sweep, [], None):
        with pytest.raises(errors.InvalidConfig, match="^unknown report format 'yaml'$"):
            fileio.render_report(report, "yaml")
    # reformat_report checks the format after the lines and their columns.
    text = "dataset,total,correct,rate\nd,1,1,100.0\n"
    with pytest.raises(errors.InvalidConfig, match="^unknown report format 'yaml'$"):
        fileio.reformat_report(text, "yaml")
    with pytest.raises(errors.EmptyFile):
        fileio.reformat_report("\n", "yaml")
    with pytest.raises(errors.ParseError, match="^line 2: expected 4 columns, found 3$"):
        fileio.reformat_report(text.replace("d,", ""), "yaml")
    with pytest.raises(errors.ParseError, match="^line 1: carriage return"):
        fileio.reformat_report(text.replace("\n", "\r"), "yaml")


def test_reformat_report_round_trip():
    reports = [DatasetReport("alpha", 100, 97)]
    csv_text = fileio.render_report(reports, "delimited")
    assert fileio.reformat_report(csv_text, "delimited") == csv_text
    table = fileio.reformat_report(csv_text, "table")
    assert table.splitlines()[0].split() == ["dataset", "total", "correct", "rate"]
