"""The line templates of the corpus and fused loaders.

A line either matches its template and loads as the general path, which
decodes it as JSON and checks each value, would load it, or is declined and
takes the general path itself: the same values, accepts, messages and warnings.
"""

import copy
import gc
import json
import logging
import math
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from platefuse import (ErrorModel, FusionStrategy, Prediction, Sample, SynthConfig,
                       apply_strategy, errors, fileio, generate)
from platefuse.core import DEFAULT_ALPHABET


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _exact(record):
    """A loaded record's values, with their types and every float bit."""
    if isinstance(record, Sample):
        e = record.predictions
        return (record.sample_id, record.dataset, record.ground_truth, e.ids, e.texts,
                tuple(map(float.hex, e.confs)))
    return tuple(map(repr, (record.sample_id, record.dataset, record.text,
                            record.winning_votes, record.tie_broken, record.contributors)))


def _outcome(load):
    """What ``load()`` yields, exactly, or the class and message of what it
    raises; and the warnings it logs."""
    handler = _Messages()
    logger = logging.getLogger("platefuse.fileio")
    logger.addHandler(handler)
    try:
        result = [_exact(r) for r in load()]
    except errors.PlatefuseError as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def _never(*args):
    """A template builder whose templates match nothing."""
    return lambda line: None


def _counting(name):
    """A stand-in for the template builder ``fileio.<name>`` whose templates
    count the lines they match."""
    build = getattr(fileio, name)
    matched = []
    def counted(*args):
        fullmatch = build(*args)
        def match(line):
            result = fullmatch(line)
            matched.extend([line] if result else [])
            return result
        return match
    return mock.patch.object(fileio, name, counted), matched


def _both_paths(load):
    """The outcomes of ``load()`` with the templates and with none, each in
    strict and tolerant mode, and whether a template matched a line."""
    sample_patch, sample_matched = _counting("_sample_template")
    fused_patch, fused_matched = _counting("_fused_template")
    with sample_patch, fused_patch:
        with_templates = [_outcome(lambda: load(strict)) for strict in (True, False)]
    with mock.patch.object(fileio, "_sample_template", _never), \
            mock.patch.object(fileio, "_fused_template", _never):
        general = [_outcome(lambda: load(strict)) for strict in (True, False)]
    return with_templates, general, bool(sample_matched or fused_matched)


# --- canonical lines, and lines that differ from them --------------------------

# "-" is a separator, which no alphabet may hold; "]", "^", "\\" and '"' are
# symbols a character class must escape or leave out, and "\x01" is a control.
ALPHABETS = [DEFAULT_ALPHABET, 'AB]^\\"0', "ÄÖ€ΩZ", '"\\', "AB\x01"]

# Other JSON texts for each field of a canonical line: escapes, characters
# json would escape written raw, values a loader normalizes or rejects, and
# numbers in other spellings. Each is tried on its own below, and a few at a
# time in the generated lines.
_ODD_STRINGS = ['""', '" "', '"\\u0073"', '"s\\"0"', '"s\\\\0"', '"é"', '"\\u00e9"',
                '"\\ud800"', '"\x01"', '"\\u0001"', '"a,b"', '" "', "5", "null",
                '["s"]']
_ODD_TEXTS = ['"ab"', '"A-B"', '"A#"', '""', '"\\u0041"', "5", "null", '"A\x01"',
              '"A\\u0001"', '"]^"', '"\\""', '"Ä"', '"\\u00c4"', '"ä"']
_ODD_CORPUS = {
    "sample_id": _ODD_STRINGS,
    "dataset": [*_ODD_STRINGS, '"d\\n"'],
    "ground_truth": [*_ODD_TEXTS, '"A#B"', '"-"'],
    "model_id": ['"\\u006d0"', '"m1"', '"é"', '"\\u00e9"', '""'],
    "text": _ODD_TEXTS,
    "confidence": ["1", "1.00", "-0.0", "NaN", "Infinity", "1e0", "5e-00", "1e-400",
                   "0.5e-3", "2.0", "1.5e-0", "true", '"0.5"', "0.", "1E-5", "1e-05",
                   "5e-324", "9.5e-1"],
}
_ODD_FUSED = {
    "sample_id": _ODD_STRINGS,
    "dataset": [*_ODD_STRINGS, '"d\\n"'],
    "text": _ODD_TEXTS,
    "winning_votes": ["03", "-1", "-0", "1.0", "1e2", "true", "null", '"3"', "1" * 18,
                      "1" * 19, "1" * 5000],
    "tie_broken": ["1", "0", "null", '"true"', "True"],
    "contributors": ["[]", '[""]', '["m0",""]', '["a\\"b"]', '["é"]', '["\\u00e9"]',
                     "[5]", '["m0","m0"]', '["m0", "m1"]', '"m0"', '["a,b"]'],
}
# Changes to a line's layout rather than to one value.
_LAYOUTS = ["spaces", "key-order", "unknown-key", "entry-unknown-key", "entry-key-order",
            "repeated-entry", "entry-order", "bom", "cr", "trailing-space"]
_FUSED_LAYOUTS = ["spaces", "key-order", "unknown-key", "bom", "trailing-space"]


def _symbol(alphabet):
    """A symbol of ``alphabet`` as a JSON string, raw if json reads it so."""
    plain = [s for s in alphabet if s >= " " and s not in '"\\']
    return json.dumps((plain or alphabet)[0], ensure_ascii=False)


def _object(pairs, layouts):
    """A JSON object of ``(key, JSON text)`` pairs."""
    if "key-order" in layouts:
        pairs = pairs[::-1]
    if "unknown-key" in layouts:
        pairs = [*pairs, ('"note"', "1")]
    colon, comma = (": ", ", ") if "spaces" in layouts else (":", ",")
    return "{" + comma.join(k + colon + v for k, v in pairs) + "}"


def _line(fields, layouts=()):
    """The line of ``fields``, ``(key, JSON text)`` pairs whose texts may be
    lists of them, laid out canonically except for ``layouts``."""
    def value(v):
        if not isinstance(v, list):
            return v
        entries = [(k, _object(e, [x.removeprefix("entry-") for x in layouts
                                   if x.startswith("entry-") or x == "spaces"]))
                   for k, e in v]
        if "repeated-entry" in layouts:
            entries.append(entries[0])
        if "entry-order" in layouts:
            entries.reverse()
        return _object(entries, [x for x in layouts if x == "spaces"])
    line = _object([(f'"{k}"', value(v)) for k, v in fields],
                   [x for x in layouts if x in ("spaces", "key-order", "unknown-key")])
    if "bom" in layouts:
        line = "\ufeff" + line
    if "cr" in layouts:
        line += "\r"
    if "trailing-space" in layouts:
        line += " "
    return line


def _corpus_fields(alphabet, sample_id='"s9"', dataset='"d"', ground_truth=None,
                   entries=None):
    """The fields of a corpus line, model entries as ``(id, text, confidence)``."""
    symbol = _symbol(alphabet)
    if entries is None:
        entries = [('"m0"', symbol, "0.5"), ('"m1"', symbol, "0.25")]
    fields = [("sample_id", sample_id), ("dataset", dataset)]
    if ground_truth is not None:
        fields.append(("ground_truth", ground_truth))
    fields.append(("predictions", [(m, [('"text"', t), ('"confidence"', c)])
                                   for m, t, c in entries]))
    return fields


def _priming(ids, alphabet, number):
    """A canonical line naming ``ids`` in their order."""
    return json.dumps({"sample_id": f"prime{number}", "dataset": "d", "predictions": {
        m: {"text": alphabet[0], "confidence": 0.5} for m in ids}}, separators=(",", ":"))


def _check_corpus_line(alphabet, ids, line):
    """Assert that ``line``, read after two lines that build the template of
    ``ids``, loads the same with or without templates; whether it matched."""
    text = "\n".join([_priming(ids, alphabet, 1), _priming(ids, alphabet, 2), line])
    with_templates, general, matched = _both_paths(
        lambda strict: fileio.parse_predictions(text, strict=strict, alphabet=alphabet))
    assert with_templates == general, line
    return matched


def _check_fused_line(path, alphabet, line):
    """The same for a fused line, written to ``path``."""
    path.write_text(line + "\n", encoding="utf-8")
    with_templates, general, matched = _both_paths(
        lambda strict: fileio.load_fused(path, strict=strict, alphabet=alphabet))
    assert with_templates == general, line
    return matched


def _fused_fields(alphabet, **values):
    fields = {"sample_id": '"s9"', "dataset": '"d"', "text": _symbol(alphabet),
              "winning_votes": "3", "tie_broken": "false", "contributors": '["m0","m1"]'}
    return list({**fields, **values}.items())


@pytest.fixture(scope="module")
def fused_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fused") / "fused.jsonl"


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=ascii)
def test_a_canonical_line_matches_its_template(fused_path, alphabet):
    has_symbols = fileio._symbols_group(alphabet) is not None
    for truth in (None, _symbol(alphabet)):
        line = _line(_corpus_fields(alphabet, ground_truth=truth))
        assert _check_corpus_line(alphabet, ("m0", "m1"), line) == has_symbols
    assert _check_fused_line(fused_path, alphabet, _line(_fused_fields(alphabet))) == \
        has_symbols


@pytest.mark.parametrize("field", _ODD_CORPUS)
def test_each_other_corpus_value_loads_the_same_with_or_without_templates(field):
    for alphabet in ALPHABETS:
        for odd in _ODD_CORPUS[field]:
            if field in ("sample_id", "dataset", "ground_truth"):
                fields = _corpus_fields(alphabet, **{field: odd})
            else:
                entry = {"model_id": (odd, _symbol(alphabet), "0.5"),
                         "text": ('"m0"', odd, "0.5"),
                         "confidence": ('"m0"', _symbol(alphabet), odd)}[field]
                fields = _corpus_fields(alphabet, entries=[
                    entry, ('"m1"', _symbol(alphabet), "0.25")])
            _check_corpus_line(alphabet, ("m0", "m1"), _line(fields))


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_each_other_layout_loads_the_same_with_or_without_templates(fused_path, layout):
    for alphabet in ALPHABETS:
        line = _line(_corpus_fields(alphabet, ground_truth=_symbol(alphabet)), [layout])
        matched = _check_corpus_line(alphabet, ("m0", "m1"), line)
        assert not matched or layout == "cr"
        if layout in _FUSED_LAYOUTS:
            line = _line(_fused_fields(alphabet), [layout])
            assert not _check_fused_line(fused_path, alphabet, line)


@pytest.mark.parametrize("field", _ODD_FUSED)
def test_each_other_fused_value_loads_the_same_with_or_without_templates(fused_path,
                                                                         field):
    for alphabet in ALPHABETS:
        for odd in _ODD_FUSED[field]:
            _check_fused_line(fused_path, alphabet,
                              _line(_fused_fields(alphabet, **{field: odd})))


# Generated lines: canonical lines of drawn values, with a few values replaced
# by other ones and a few changes of layout.
_CLEAN_STRINGS = st.sampled_from(["s0", "s1", "d", "gate 1", "a:b"]).map(json.dumps)
_CLEAN_CONFIDENCES = st.floats(0.0, 1.0).map(repr)


def _clean_texts(alphabet):
    plain = [s for s in alphabet if s >= " " and s not in '"\\'] or [alphabet[0]]
    return st.text(st.sampled_from(plain), min_size=1, max_size=4).map(
        lambda t: json.dumps(t, ensure_ascii=False))


@st.composite
def corpus_lines(draw):
    """An alphabet, the model ids a line names, and the line."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    ids = sorted(draw(st.lists(st.sampled_from(["m0", "m1", "m2", "m 3"]), min_size=1,
                               max_size=3, unique=True)))
    texts = _clean_texts(alphabet)
    values = {"sample_id": draw(_CLEAN_STRINGS), "dataset": draw(_CLEAN_STRINGS),
              "ground_truth": draw(st.none() | texts)}
    entries = [[json.dumps(m), draw(texts), draw(_CLEAN_CONFIDENCES)] for m in ids]
    changes = draw(st.lists(st.sampled_from([*_ODD_CORPUS, *_LAYOUTS]), max_size=2))
    for field in set(changes) & set(_ODD_CORPUS):
        odd = draw(st.sampled_from(_ODD_CORPUS[field]))
        if field in values:
            values[field] = odd
        else:
            entry = draw(st.sampled_from(entries))
            entry[["model_id", "text", "confidence"].index(field)] = odd
    line = _line(_corpus_fields(alphabet, **values, entries=entries), changes)
    return alphabet, tuple(ids), line


@given(corpus_lines())
@settings(max_examples=500, deadline=None)
def test_a_corpus_line_loads_the_same_with_or_without_its_template(case):
    if _check_corpus_line(*case):
        event("the template matches")


@st.composite
def fused_lines(draw):
    """An alphabet and a fused line."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    values = {"sample_id": draw(_CLEAN_STRINGS), "dataset": draw(_CLEAN_STRINGS),
              "text": draw(_clean_texts(alphabet)),
              "winning_votes": str(draw(st.integers(0, 10 ** 18 - 1))),
              "tie_broken": draw(st.sampled_from(["true", "false"])),
              "contributors": "[" + ",".join(draw(st.lists(_CLEAN_STRINGS, min_size=1,
                                                           max_size=3))) + "]"}
    changes = draw(st.lists(st.sampled_from([*_ODD_FUSED, *_FUSED_LAYOUTS]), max_size=2))
    for field in set(changes) & set(_ODD_FUSED):
        values[field] = draw(st.sampled_from(_ODD_FUSED[field]))
    return alphabet, _line(_fused_fields(alphabet, **values), changes)


@given(fused_lines())
@settings(max_examples=300, deadline=None)
def test_a_fused_line_loads_the_same_with_or_without_its_template(fused_path, case):
    if _check_fused_line(fused_path, *case):
        event("the template matches")


# --- every line written from an ASCII alphabet matches -------------------------

# The fast path must not go dead unnoticed: every line the writers join from
# ASCII values that json writes unescaped matches its template.
_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\')
_ASCII_IDS = st.text(_ASCII, min_size=1, max_size=4)
_ASCII_CELLS = _ASCII_IDS.filter(lambda s: "," not in s)
_ASCII_ALPHABETS = st.sampled_from([DEFAULT_ALPHABET, 'AB]^\\"0', "Z"])


def _symbol_texts(alphabet):
    return st.text(st.sampled_from(alphabet.replace('"', "").replace("\\", "")),
                   min_size=1, max_size=6)


def _confidences():
    return st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 0.1 + 0.2]) | st.floats(0.0, 1.0)


@st.composite
def ascii_corpora(draw):
    alphabet = draw(_ASCII_ALPHABETS)
    texts = _symbol_texts(alphabet)
    samples = []
    for i in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(_ASCII_IDS, min_size=1, max_size=4, unique=True))
        samples.append(Sample(f"s{i}", draw(_ASCII_CELLS), draw(st.none() | texts),
                              {m: Prediction(draw(texts), draw(_confidences()))
                               for m in ids}))
    return alphabet, samples


@pytest.fixture(scope="module")
def written_path(tmp_path_factory):
    return tmp_path_factory.mktemp("written") / "lines.jsonl"


@given(ascii_corpora())
@settings(max_examples=200, deadline=None)
def test_every_corpus_line_written_from_ascii_values_matches_its_template(written_path,
                                                                          case):
    alphabet, samples = case
    fileio.dump_predictions(samples, written_path)
    lines = written_path.read_text(encoding="utf-8").splitlines()
    symbols = fileio._symbols_group(alphabet)
    for sample, line in zip(samples, lines, strict=True):
        match = fileio._sample_template(sample.predictions.ids, symbols)(line)
        assert match is not None, line
    assert list(fileio.load_predictions(written_path, alphabet=alphabet)) == samples


@given(_ASCII_ALPHABETS.flatmap(lambda alphabet: st.tuples(st.just(alphabet), st.lists(
    st.builds(fileio.FusedRecord, _ASCII_IDS, _ASCII_CELLS, _symbol_texts(alphabet),
              st.integers(0, 10 ** 18 - 1), st.booleans(),
              st.lists(_ASCII_IDS, min_size=1, max_size=4).map(tuple)),
    min_size=1, max_size=4))))
@settings(max_examples=200, deadline=None)
def test_every_fused_line_written_from_ascii_values_matches_its_template(written_path,
                                                                         case):
    # fuse writes one or more contributors and far fewer votes than 10**18.
    alphabet, records = case
    fileio.dump_fused(records, written_path)
    template = fileio._fused_template(fileio._symbols_group(alphabet))
    for line in written_path.read_text(encoding="utf-8").splitlines():
        assert template(line) is not None, line


def test_the_loaders_read_the_lines_of_their_writers_through_their_templates(tmp_path):
    config = SynthConfig(seed=3, n_models=12, n_samples=50, plate_length=7)
    corpus, fused = tmp_path / "corpus.jsonl", tmp_path / "fused.jsonl"
    fileio.dump_predictions(generate(config), corpus)
    patch, matched = _counting("_sample_template")
    with patch:
        samples = list(fileio.load_predictions(corpus))
    # Lines 1 and 2 build the template, and it reads every line after them.
    assert len(matched) == 48
    assert samples == list(generate(config))
    fileio.dump_fused([fileio.FusedRecord(s.sample_id, s.dataset, "AB", 2, False, ("m00",))
                       for s in samples], fused)
    patch, matched = _counting("_fused_template")
    with patch:
        assert len(list(fileio.load_fused(fused))) == 50
    assert len(matched) == 50


# --- confidences read from a matched line -----------------------------------------

@given(st.from_regex(fileio._CONFIDENCE, fullmatch=True))
@settings(max_examples=500, deadline=None)
def test_every_confidence_text_a_template_admits_is_a_confidence(text):
    # A matched line's confidences are decoded only when read, so float() of
    # each must give what the general path gives and never fail.
    value = float(text)
    assert 0.0 <= value <= 1.0
    assert value.hex() == json.loads(text).hex()


# Confidence forms a template admits: one float.__repr__ would not write,
# the top of the range, the smallest subnormal, an exponent with a leading
# zero and one with many.
_CONFIDENCE_FORMS = ["0.50", "1.0", "5e-324", "1e-05", "2.5e-0001"]
_FORM_IDS = tuple(f"m{i}" for i in range(len(_CONFIDENCE_FORMS)))


def _form_ensembles():
    """The ensemble of a line holding each of ``_CONFIDENCE_FORMS``, read
    from its template, and the same line's, read the general way."""
    line = _line(_corpus_fields(DEFAULT_ALPHABET, entries=[
        (f'"{m}"', '"AB"', c) for m, c in zip(_FORM_IDS, _CONFIDENCE_FORMS)]))
    ensembles = []
    for last in (line, _spaced(line)):
        text = "\n".join([_priming(_FORM_IDS, DEFAULT_ALPHABET, 1),
                          _priming(_FORM_IDS, DEFAULT_ALPHABET, 2), last])
        ensembles.append(list(fileio.parse_predictions(text))[-1].predictions)
    matched, general = ensembles
    assert matched._confs == tuple(_CONFIDENCE_FORMS)
    return matched, general


@pytest.mark.parametrize("view", [
    pytest.param(lambda e: e, id="eq"),
    pytest.param(lambda e: pickle.loads(pickle.dumps(e)), id="pickle"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(repr, id="repr"),
    pytest.param(lambda e: [e[m] for m in _FORM_IDS], id="getitem"),
    pytest.param(lambda e: tuple(map(float.hex, e.confs)), id="confs"),
])
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_template_read_ensemble_is_its_general_twin(view, read_first):
    matched, general = _form_ensembles()
    if read_first:
        matched.confs
    assert view(matched) == view(general)
    assert matched == general and general == matched
    confs = matched.confs
    assert matched.confs is confs
    assert type(matched._confs[0]) is float


@pytest.mark.parametrize("name", ["hc", "mv-bm", "mvcp-bm", "mv-hc", "mvcp-hc"])
def test_a_vote_reads_a_matched_lines_confidences_only_to_order_by_them(name):
    # hc always reads them. An mv or mvcp vote reads them only to settle a
    # tie most confident first: "AB" against "CD" ties, "AB" twice does not,
    # and a ranked (-bm) vote settles its tie without them.
    lines = _corpus_lines(3)
    for third, tie in ((lines[2], True), (lines[2].replace('"CD"', '"AB"'), False)):
        text = "\n".join([*lines[:2], third])
        ensemble = list(fileio.parse_predictions(text))[-1].predictions
        assert type(ensemble._confs[0]) is str
        result = apply_strategy(ensemble, FusionStrategy(name, ("m1", "m0")))
        assert result.tie_broken == (tie and name != "hc")
        decoded = name == "hc" or (tie and name.endswith("-hc"))
        assert (type(ensemble._confs[0]) is float) == decoded


def test_reading_each_streamed_samples_confidences_leaves_nothing_behind():
    # `fuse --strategy hc` and `sweep` read each sample's confs and drop the
    # sample. A decode into a tuple that is resized in place left one freed
    # 12-tuple a sample on the interpreter's free list (up to 2,000, ~270 KB).
    config = SynthConfig(seed=3, n_models=12, n_samples=2000, plate_length=7)
    text = _written(generate(config))
    for traced in (False, True):
        # The first pass builds what a load builds once; a full collection
        # empties the free lists, which then refill by some 14 KB of the
        # bounded lists of floats, dicts and the like.
        gc.collect()
        if traced:
            tracemalloc.start()
        for sample in fileio.parse_predictions(text):
            assert type(sample.predictions.confs[0]) is float
        if traced:
            left = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
    assert left < 64_000, left


def test_threads_reading_confs_first_at_once_all_read_the_floats():
    # A first read decodes and stores; two at once may both decode, and
    # each must still return, and leave, the same floats.
    text = _written(generate(SynthConfig(seed=5, n_models=12, n_samples=300,
                                         plate_length=7)))
    expected = [s.predictions.confs for s in fileio.parse_predictions(
        "\n".join(map(_spaced, text.splitlines())))]
    samples = list(fileio.parse_predictions(text))
    reads = [[] for _ in range(4)]
    threads = [threading.Thread(target=lambda out: out.extend(
        s.predictions.confs for s in samples), args=(out,)) for out in reads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [expected] * 4
    assert [s.predictions.confs for s in samples] == expected


# --- rejections on a template-matched line --------------------------------------

def _written(samples):
    """What :func:`fileio.dump_predictions` writes for ``samples``."""
    lines = []
    with mock.patch.object(fileio, "write_atomic", lambda path, chunks: lines.extend(chunks)):
        fileio.dump_predictions(samples, "unused")
    return "".join(lines)


def _corpus_lines(n=4):
    """The canonical lines of ``n`` samples of one model set: lines 1 and 2
    build its template, and each later line matches it."""
    lines = _written([Sample(f"s{i}", "d", "AB", {"m0": Prediction("AB", 0.5),
                                                  "m1": Prediction("CD", 0.25)})
                      for i in range(n)]).splitlines()
    template = fileio._sample_template(("m0", "m1"), fileio._symbols_group(DEFAULT_ALPHABET))
    assert all(map(template, lines))
    return lines


def _spaced(line):
    """``line`` with a space after its first colon, which no template matches."""
    return line.replace(":", ": ", 1)


@pytest.mark.parametrize("truth, error, message", [
    ("A#B", errors.SymbolOutsideAlphabet,
     "line 3: ground_truth: symbol '#' in 'A#B' is not in the alphabet"),
    ("-", errors.EmptyAfterNormalization,
     "line 3: ground_truth: nothing left of '-' after normalization"),
    ("ab", None, None),  # normalized, as on the general path
])
def test_a_ground_truth_on_a_matched_line_is_read_as_on_the_general_path(truth, error,
                                                                          message):
    lines = _corpus_lines()
    lines[2] = lines[2].replace('"ground_truth":"AB"', f'"ground_truth":"{truth}"')
    outcomes = []
    for third in (lines[2], _spaced(lines[2])):
        text = "\n".join([*lines[:2], third, lines[3]])
        outcomes.append([_outcome(lambda: fileio.parse_predictions(text, strict=strict))
                         for strict in (True, False)])
    assert outcomes[0] == outcomes[1]
    if error is not None:
        assert outcomes[0][0] == ((error, message), [])
    else:
        assert [s[2] for s in outcomes[0][0][0]] == ["AB"] * 4


def test_a_repeated_sample_id_on_a_matched_line_is_read_as_on_the_general_path():
    lines = _corpus_lines()
    # Lines 4 and 5 repeat the ids of lines 1 and 3.
    repeats = [lines[0], lines[2]]
    outcomes = []
    for repeat in (lambda line: line, _spaced):
        text = "\n".join([*lines[:3], *map(repeat, repeats)])
        outcomes.append([_outcome(lambda: fileio.parse_predictions(text, strict=strict))
                         for strict in (True, False)])
    assert outcomes[0] == outcomes[1]
    strict, tolerant = outcomes[0]
    assert strict == ((errors.ParseError, "line 4: duplicate sample_id 's0'"), [])
    assert [s[0] for s in tolerant[0]] == ["s0", "s1", "s2"]
    assert tolerant[1] == ["line 4: duplicate sample_id 's0' (ignored)",
                           "1 more duplicate sample_ids (ignored)"]


def test_a_file_of_one_line_repeated_keeps_the_first_and_a_blank_file_is_empty():
    # A file cannot hold duplicates only: the first line of each id is kept.
    # What the loader drops must not count as a record, and a file with no
    # record is empty on either path.
    line = _corpus_lines(1)[0]
    text = "\n".join([line] * 5)
    result, warnings = _outcome(lambda: fileio.parse_predictions(text, strict=False))
    assert [s[0] for s in result] == ["s0"]
    assert warnings == ["line 2: duplicate sample_id 's0' (ignored)",
                        "3 more duplicate sample_ids (ignored)"]
    assert _outcome(lambda: fileio.parse_predictions("\n \n\t\n")) == (
        (errors.EmptyFile, "no prediction records found"), [])


# --- lines with two faults ----------------------------------------------------------

# A line with two faults reports the one its checks reach first: unknown record
# fields, the sample id, the dataset and the ground truth, then each prediction
# in line order, and a repeated sample id last. Tolerant mode logs an ignored
# fault before it reaches the rejection. Each case: the line's fields (fused:
# the second line's, after one of sample id "s0"), its layouts, the strict
# rejection, and the tolerant one with its warnings.
_GROUND_TRUTH = (errors.SymbolOutsideAlphabet,
                 "line 3: ground_truth: symbol '#' in 'A#' is not in the alphabet")
_M0_TEXT = (errors.SymbolOutsideAlphabet,
            "line 3: model 'm0': text: symbol '#' in 'B#' is not in the alphabet")
_TWO_FAULT_CORPUS_LINES = {
    "ground truth, then text": (
        dict(ground_truth='"A#"', entries=[('"m0"', '"B#"', "0.5"),
                                           ('"m1"', '"AB"', "0.25")]), [],
        _GROUND_TRUTH, (_GROUND_TRUTH, [])),
    "ground truth, then unknown prediction field": (
        dict(ground_truth='"A#"'), ["entry-unknown-key"],
        _GROUND_TRUTH, (_GROUND_TRUTH, [])),
    "unknown record field, then ground truth": (
        dict(ground_truth='"A#"'), ["unknown-key"],
        (errors.ParseError, "line 3: unknown field(s) 'note'"),
        (_GROUND_TRUTH, ["line 3: unknown field(s) 'note' (ignored)"])),
    "unknown prediction field, then text": (
        dict(entries=[('"m0"', '"B#"', "0.5"), ('"m1"', '"AB"', "0.25")]),
        ["entry-unknown-key"],
        (errors.ParseError, "line 3: model 'm0': unknown field(s) 'note'"),
        (_M0_TEXT, ["line 3: model 'm0': unknown field(s) 'note' (ignored)"])),
    "confidence, then a later text": (
        dict(entries=[('"m0"', '"AB"', "1.5"), ('"m1"', '"B#"', "0.25")]), [],
        (errors.InvalidConfidence, "line 3: model 'm0': confidence 1.5 outside [0, 1]"),
        None),
    "text, then a later confidence": (
        dict(entries=[('"m0"', '"B#"', "0.5"), ('"m1"', '"AB"', "1.5")]), [],
        _M0_TEXT, None),
    "sample id, then dataset": (
        dict(sample_id='""', dataset='"a,b"'), [],
        (errors.ParseError, "line 3: sample_id must be a non-empty string"), None),
    "dataset, then ground truth": (
        dict(dataset='"a,b"', ground_truth='"-"'), [],
        (errors.ParseError, "line 3: dataset 'a,b' holds a comma or line break"), None),
    "text, then repeated sample id": (
        dict(sample_id='"prime1"', entries=[('"m0"', '"AB"', "0.5"),
                                            ('"m1"', '"B#"', "0.25")]), [],
        (errors.SymbolOutsideAlphabet,
         "line 3: model 'm1': text: symbol '#' in 'B#' is not in the alphabet"), None),
    # The template matches this line: its ground-truth group admits "A#".
    "ground truth, then repeated sample id": (
        dict(sample_id='"prime1"', ground_truth='"A#"'), [], _GROUND_TRUTH, None),
}
_TWO_FAULT_FUSED_LINES = {
    "text, then winning votes": (
        dict(text='"ab"', winning_votes="-1"), [],
        (errors.ParseError, "line 2: text 'ab' is not normalized (expected 'AB')"), None),
    "winning votes, then tie flag": (
        dict(winning_votes="-1", tie_broken="1"), [],
        (errors.ParseError,
         "line 2: winning_votes must be a non-negative integer, got -1"), None),
    "unknown field, then text": (
        dict(text='"A#"'), ["unknown-key"],
        (errors.ParseError, "line 2: unknown field(s) 'note'"),
        ((errors.SymbolOutsideAlphabet,
          "line 2: text: symbol '#' in 'A#' is not in the alphabet"),
         ["line 2: unknown field(s) 'note' (ignored)"])),
    "text, then repeated sample id": (
        dict(sample_id='"s0"', text='"ab"'), [],
        (errors.ParseError, "line 2: text 'ab' is not normalized (expected 'AB')"), None),
    "contributors, then repeated sample id": (
        dict(sample_id='"s0"', contributors='[""]'), [],
        (errors.ParseError, "line 2: contributor must be a non-empty string"), None),
}


def _check_two_faults(outcomes, strict, tolerant):
    with_templates, general, _ = outcomes
    assert with_templates == general
    assert general == [(strict, []), tolerant or (strict, [])]


@pytest.mark.parametrize("case", _TWO_FAULT_CORPUS_LINES)
def test_a_corpus_line_with_two_faults_reports_the_first_checked(case):
    values, layouts, strict, tolerant = _TWO_FAULT_CORPUS_LINES[case]
    line = _line(_corpus_fields(DEFAULT_ALPHABET, **values), layouts)
    text = "\n".join([_priming(("m0", "m1"), DEFAULT_ALPHABET, 1),
                      _priming(("m0", "m1"), DEFAULT_ALPHABET, 2), line])
    _check_two_faults(_both_paths(lambda strict: fileio.parse_predictions(
        text, strict=strict)), strict, tolerant)


@pytest.mark.parametrize("case", _TWO_FAULT_FUSED_LINES)
def test_a_fused_line_with_two_faults_reports_the_first_checked(fused_path, case):
    values, layouts, strict, tolerant = _TWO_FAULT_FUSED_LINES[case]
    lines = [_line(_fused_fields(DEFAULT_ALPHABET, sample_id='"s0"')),
             _line(_fused_fields(DEFAULT_ALPHABET, **values), layouts)]
    fused_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _check_two_faults(_both_paths(lambda strict: fileio.load_fused(
        fused_path, strict=strict)), strict, tolerant)


# --- template builds are bounded ----------------------------------------------------

def _builds(text):
    """How many templates loading ``text`` builds, and the samples it loads."""
    built = []
    def counted(ids, symbols):
        built.append(ids)
        return build(ids, symbols)
    build = fileio._sample_template
    with mock.patch.object(fileio, "_sample_template", counted):
        samples = list(fileio.parse_predictions(text))
    return len(built), samples


def _samples(n, model_set):
    """``n`` samples; sample ``i`` has the model ids ``model_set(i)``."""
    return [Sample(f"s{i}", "d", "AB", {m: Prediction("AB", 0.5) for m in model_set(i)})
            for i in range(n)]


@pytest.mark.parametrize("run, expected", [
    (1, 0),  # a model set per line: no two lines in a row share one
    # Sets changing every two lines: one build at line 2, then at most one
    # every 1,024 lines (lines 1026 and 2050).
    (2, 3),
])
def test_templates_are_built_at_most_once_per_1024_lines(run, expected):
    n = 3000
    samples = _samples(n, lambda i: ("m0", "m1", f"x{i // run:04d}"))
    builds, loaded = _builds(_written(samples))
    assert builds == expected <= math.ceil(n / fileio._TEMPLATE_LINES)
    assert loaded == samples


def test_no_template_is_built_for_a_corpus_written_with_other_separators():
    samples = _samples(3000, lambda i: ("m0", "m1"))
    spaced = "".join(json.dumps(json.loads(line)) + "\n"
                     for line in _written(samples).splitlines())
    assert _builds(spaced) == (0, samples)


def test_no_template_is_built_for_the_varied_twin_corpus():
    # The shape of test_cli.varied_corpora, in canonical lines: 12 models
    # shared, and one of each sample's own.
    config = SynthConfig(seed=21, n_models=12, n_samples=500, plate_length=7,
                         per_model=tuple(ErrorModel(per_char_sub_rate=0.1)
                                         for _ in range(12)))
    samples = [Sample(s.sample_id, s.dataset, s.ground_truth,
                      {**{m: s.predictions[m] for m in s.predictions},
                       f"x{i:05d}": Prediction("A", 0.5)})
               for i, s in enumerate(generate(config))]
    builds, loaded = _builds(_written(samples))
    assert builds == 0
    assert loaded == samples
    # The same samples on their 12 shared models build one template.
    shared = [Sample(s.sample_id, s.dataset, s.ground_truth,
                     {m: s.predictions[m] for m in s.predictions if m.startswith("m")})
              for s in samples]
    assert _builds(_written(shared)) == (1, shared)
