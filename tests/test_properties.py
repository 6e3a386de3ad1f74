"""Property-based tests for the fusion and scoring invariants."""

import dataclasses
import json
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_ensemble
from oracles import reference_generate
from platefuse import (
    DatasetReport,
    Ensemble,
    ErrorModel,
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    SynthConfig,
    apply_strategy,
    core,
    errors,
    fileio,
    generate,
    hc_fuse,
    macro_average,
    mv_fuse,
    mvcp_fuse,
    rank_models,
    synth,
)
from platefuse.core import DEFAULT_ALPHABET, STRATEGY_NAMES

CONFS = st.sampled_from([i / 20 for i in range(1, 21)])
TEXTS = st.text(alphabet="AB01", min_size=1, max_size=8)
MODEL_IDS = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


def predictions_maps(min_size=1, max_size=9, texts=TEXTS):
    return st.dictionaries(
        MODEL_IDS, st.builds(Prediction, texts, CONFS),
        min_size=min_size, max_size=max_size,
    )


def _all_strategies(predictions):
    ranking = tuple(sorted(predictions))
    return [FusionStrategy(n, ranking)
            for n in ("hc", "mv-bm", "mv-hc", "mvcp-bm", "mvcp-hc")]


@given(predictions_maps(), st.text(alphabet="AB01", min_size=1, max_size=8))
@settings(max_examples=200)
def test_unanimity(base, text):
    predictions = {m: Prediction(text, p.confidence) for m, p in base.items()}
    for strategy in _all_strategies(predictions):
        assert apply_strategy(predictions, strategy).text == text


@given(MODEL_IDS, TEXTS, CONFS)
@settings(max_examples=200)
def test_singleton_identity(model_id, text, conf):
    predictions = {model_id: Prediction(text, conf)}
    for strategy in _all_strategies(predictions):
        result = apply_strategy(predictions, strategy)
        assert result.text == text
        assert result.contributors == (model_id,)


@given(predictions_maps(max_size=4), TEXTS, CONFS)
@settings(max_examples=200)
def test_strict_majority_dominates(minority, text, conf)  :
    majority = {
        f"M{i}": Prediction(text, conf) for i in range(len(minority) + 1)
    }
    predictions = {**minority, **majority}
    ranking = tuple(sorted(predictions))
    for tiebreak in (None, ranking):
        result = mv_fuse(predictions, tiebreak)
        assert result.text == text
        assert result.winning_votes >= len(majority)


@given(predictions_maps())
@settings(max_examples=200)
def test_vote_count_soundness(predictions):
    for tiebreak in (None, tuple(sorted(predictions))):
        result = mv_fuse(predictions, tiebreak)
        counts = Counter(p.text for p in predictions.values())
        assert result.winning_votes == counts[result.text] == max(counts.values())
        assert result.contributors == tuple(
            m for m in sorted(predictions) if predictions[m].text == result.text
        )


@given(predictions_maps())
@settings(max_examples=200)
def test_hc_argmax_invariance_under_monotone_transforms(predictions):
    ranking = tuple(sorted(predictions))
    baseline = hc_fuse(predictions, ranking).text
    for transform in (lambda c: c / 2, lambda c: 0.25 + c / 2, lambda c: c * c):
        rescaled = {
            m: Prediction(p.text, transform(p.confidence))
            for m, p in predictions.items()
        }
        assert hc_fuse(rescaled, ranking).text == baseline


@given(predictions_maps(min_size=2), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_permutation_invariance(predictions, shuffler)   :
    items = list(predictions.items())
    shuffler.shuffle(items)
    reordered = dict(items)
    ranking = tuple(sorted(predictions))
    for tiebreak in (None, ranking):
        assert mv_fuse(predictions, tiebreak) == mv_fuse(reordered, tiebreak)
        assert mvcp_fuse(predictions, tiebreak) == mvcp_fuse(reordered, tiebreak)
    assert hc_fuse(predictions, ranking) == hc_fuse(reordered, ranking)


@given(predictions_maps())
@settings(max_examples=200)
def test_determinism_on_reconstructed_inputs(predictions):
    clone = {m: Prediction(p.text, p.confidence) for m, p in predictions.items()}
    for strategy in _all_strategies(predictions):
        assert apply_strategy(predictions, strategy) == \
            apply_strategy(clone, strategy)


@given(predictions_maps(min_size=1, texts=st.text(alphabet="AB01", min_size=5,
                                                  max_size=5)))
@settings(max_examples=200)
def test_mvcp_equal_length_reduction(predictions):
    # With equal lengths and strict per-position modes, mvcp equals the
    # position-wise mode string from an independent histogram.
    modes = []
    for pos in range(5):
        counts = Counter(p.text[pos] for p in predictions.values())
        ranked = counts.most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            return  # tie at this position: reduction does not apply
        modes.append(ranked[0][0])
    expected = "".join(modes)
    for tiebreak in (None, tuple(sorted(predictions))):
        assert mvcp_fuse(predictions, tiebreak).text == expected


@given(predictions_maps())
@settings(max_examples=200)
def test_result_invariants(predictions):
    n = len(predictions)
    for strategy in _all_strategies(predictions):
        result = apply_strategy(predictions, strategy)
        assert 0 <= result.winning_votes <= n
        assert result.contributors == tuple(
            m for m in sorted(predictions) if m in result.contributors)
        if strategy.name == "hc":
            assert result.winning_votes == 0


# --- ensembles ---------------------------------------------------------------------

SEEDS = st.integers(0, 2 ** 32 - 1)


@given(SEEDS, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_an_ensemble_fuses_as_the_map_it_was_built_from(seed, shuffler):
    predictions, ranking = random_ensemble(np.random.default_rng(seed))
    items = list(predictions.items())
    shuffler.shuffle(items)
    ensemble = Sample("s", "d", None, dict(items)).predictions
    assert type(ensemble) is Ensemble
    assert ensemble == predictions == pickle.loads(pickle.dumps(ensemble))
    assert list(ensemble) == sorted(predictions)
    for name in STRATEGY_NAMES:
        strategy = FusionStrategy(name, ranking)
        assert apply_strategy(ensemble, strategy) == apply_strategy(predictions, strategy)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.jsonl"


# Each example writes a file, and one write on a busy disk can outlast
# hypothesis's default 200 ms deadline: what is checked here is what the
# loader returns, not how fast, so no deadline applies.
@given(st.lists(SEEDS, min_size=1, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_a_corpus_loads_the_ensembles_it_was_written_from(corpus_path, seeds,
                                                          shuffler):
    samples = [Sample(f"s{i}", "d", "AB",
                      random_ensemble(np.random.default_rng(seed), max_models=4)[0])
               for i, seed in enumerate(seeds)]
    fileio.dump_predictions(samples, corpus_path)
    loaded = list(fileio.load_predictions(corpus_path))
    assert loaded == samples
    # Consecutive samples with equal model ids share one ids tuple.
    for before, after in zip(loaded, loaded[1:]):
        ids = before.predictions.ids
        assert (after.predictions.ids is ids) == (after.predictions.ids == ids)
    # A record whose model ids are out of order loads as the sorted one.
    lines = []
    for line in corpus_path.read_text().splitlines():
        record = json.loads(line)
        items = list(record["predictions"].items())
        shuffler.shuffle(items)
        record["predictions"] = dict(items)
        lines.append(json.dumps(record))
    assert list(fileio.parse_predictions("\n".join(lines))) == samples


# Characters json escapes (a quote, a backslash, control characters, U+2028,
# and one outside the BMP, written as a surrogate pair) and any other that
# UTF-8 can encode.
_ESCAPED = (st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600')
            | st.characters(exclude_categories=("Cs",)))
_WRITTEN_IDS = st.text(_ESCAPED, min_size=1, max_size=5)
_WRITTEN_DATASETS = _WRITTEN_IDS.filter(lambda d: not {",", "\r", "\n"} & set(d))
# A text holds only characters that some alphabet may hold.
_WRITTEN_TEXTS = st.text(_ESCAPED.filter(lambda ch: core._symbol_fault(ch) is None),
                         min_size=1, max_size=5)
_WRITTEN_CONFS = st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 0.1 + 0.2]) | st.floats(0.0, 1.0)
_WRITTEN_ENSEMBLES = st.builds(Ensemble, st.dictionaries(
    _WRITTEN_IDS, st.builds(Prediction, _WRITTEN_TEXTS, _WRITTEN_CONFS),
    min_size=1, max_size=4))


def _record(sample: Sample) -> dict:
    """The record of ``sample`` that a corpus line holds, as a dict."""
    record = {"sample_id": sample.sample_id, "dataset": sample.dataset}
    if sample.ground_truth is not None:
        record["ground_truth"] = sample.ground_truth
    e = sample.predictions
    record["predictions"] = {m: {"text": t, "confidence": c}
                             for m, t, c in zip(e.ids, e.texts, e.confs)}
    return record


@given(st.lists(_WRITTEN_ENSEMBLES, min_size=1, max_size=3),
       st.lists(st.tuples(_WRITTEN_IDS, _WRITTEN_DATASETS, st.none() | _WRITTEN_TEXTS,
                          st.integers(0, 2)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_each_corpus_line_is_the_json_encoding_of_its_record(corpus_path, ensembles,
                                                             rows):
    # Samples that share an ensemble share its ids tuple, as the samples of a
    # generated or loaded corpus do.
    samples = [Sample(sample_id, dataset, truth, ensembles[i % len(ensembles)])
               for sample_id, dataset, truth, i in rows]
    fileio.dump_predictions(samples, corpus_path)
    assert corpus_path.read_bytes().decode("ascii").split("\n") == [
        *(json.dumps(_record(s), separators=(",", ":")) for s in samples), ""]


_WRITTEN_FUSED = st.builds(
    fileio.FusedRecord, _WRITTEN_IDS, _WRITTEN_DATASETS, _WRITTEN_TEXTS,
    st.sampled_from([0, 1, 2 ** 70]) | st.integers(0, 12), st.booleans(),
    st.lists(_WRITTEN_IDS, max_size=4).map(tuple))


@given(st.lists(_WRITTEN_FUSED, max_size=6))
@settings(max_examples=100, deadline=None)
def test_each_fused_line_is_the_json_encoding_of_its_record(corpus_path, records):
    fileio.dump_fused(records, corpus_path)
    assert corpus_path.read_bytes().decode("ascii").split("\n") == [
        *(json.dumps(dataclasses.asdict(r), separators=(",", ":")) for r in records), ""]
    if records:
        # And it loads back, under an alphabet of the texts' characters.
        alphabet = "".join(sorted({ch for r in records for ch in r.text}))
        assert list(fileio.load_fused(corpus_path, alphabet=alphabet,
                                      strict=False)) == _first_of_each_id(records)


def _first_of_each_id(records):
    first = {}
    for r in records:
        first.setdefault(r.sample_id, r)
    return list(first.values())


@given(st.lists(st.tuples(st.integers(1, 500), st.integers(0, 500)),
                min_size=1, max_size=12))
@settings(max_examples=200)
def test_macro_average_bounds(pairs):
    reports = [
        DatasetReport(f"d{i}", total, min(correct, total))
        for i, (total, correct) in enumerate(pairs)
    ]
    value = macro_average(reports)
    rates = [r.rate for r in reports]
    # The exact mean lies in [min, max]; the float one can overshoot by an ulp
    # (sum and division each round once), so allow that much.
    assert min(rates) - 1e-12 <= value <= max(rates) + 1e-12
    assert all(0.0 <= r <= 1.0 for r in rates)


@given(st.lists(st.tuples(st.floats(0.5, 50.0), st.booleans()),
                min_size=1, max_size=12, unique_by=lambda t: t[0]))
@settings(max_examples=200)
def test_ranking_totality(rows):
    profiles = [
        ModelProfile(f"m{i:02d}", latency, i + 1)
        for i, (latency, _) in enumerate(rows)
    ]
    for mode in ("accuracy", "speed"):
        order = rank_models(profiles, mode)
        assert sorted(order) == sorted(p.model_id for p in profiles)


# --- constructors ------------------------------------------------------------------

# Field values a decoded JSON document or a careless caller can pass, including
# integers past float range.
NUMBERS = st.integers() | st.floats() | st.sampled_from([10 ** 400, -10 ** 400])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=3,
)


def _field(valid):
    """A field that is often well-formed, so that later checks are reached too."""
    return valid | JSON_VALUES


_IDS = st.text(alphabet="abm1", min_size=1, max_size=3)
_COUNTS = st.integers(1, 4)
_RATES = st.floats(0.0, 0.2)
_PAIRS = st.lists(st.floats(0.0, 1.0) | NUMBERS, min_size=2, max_size=2)
_TEXTS = st.text(alphabet="AB", min_size=1, max_size=4)
_ENSEMBLES = st.dictionaries(_IDS, st.builds(Prediction, _TEXTS, st.floats(0.0, 1.0)),
                             max_size=3)
CONSTRUCTOR_FIELDS = {
    Prediction: dict(text=_field(_TEXTS), confidence=_field(NUMBERS)),
    Ensemble: dict(predictions=_field(_ENSEMBLES)),
    Sample: dict(sample_id=_field(_IDS), dataset=_field(_IDS),
                 ground_truth=_field(st.none() | _TEXTS), predictions=_field(_ENSEMBLES)),
    ModelProfile: dict(model_id=_field(_IDS), latency_ms=_field(NUMBERS),
                       accuracy_rank=_field(st.integers())),
    ErrorModel: dict(per_char_sub_rate=_field(_RATES), insertion_rate=_field(_RATES),
                     deletion_rate=_field(_RATES),
                     confidence_when_correct=_field(_PAIRS),
                     confidence_when_wrong=_field(_PAIRS),
                     overconfident=_field(st.booleans())),
    SynthConfig: dict(seed=_field(st.integers()), n_models=_field(_COUNTS),
                      n_samples=_field(_COUNTS), plate_length=_field(_COUNTS),
                      alphabet=_field(st.just("AB")),
                      per_model=_field(st.lists(st.builds(ErrorModel), max_size=3)),
                      dataset=_field(_IDS)),
    FusionStrategy: dict(name=_field(st.sampled_from(STRATEGY_NAMES)),
                         ranking=_field(st.none() | st.lists(_IDS, max_size=3))),
}


@pytest.mark.parametrize("constructor", CONSTRUCTOR_FIELDS, ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=200)
def test_constructors_fail_only_with_a_platefuse_error(constructor, data):
    fields = data.draw(st.fixed_dictionaries(CONSTRUCTOR_FIELDS[constructor]))
    try:
        constructor(**fields)
    except errors.PlatefuseError:
        pass


@given(JSON_VALUES | st.floats(0.0, 1.0))
@settings(max_examples=300)
def test_prediction_applies_check_confidence(value):
    # One confidence rule: the corpus loader calls it directly, without
    # building a Prediction.
    try:
        stored = Prediction("A", value).confidence
    except errors.PlatefuseError as exc:
        with pytest.raises(errors.PlatefuseError) as checked:
            core.check_confidence(value)
        assert type(checked.value) is type(exc)
        assert str(checked.value) == str(exc)
    else:
        accepted = core.check_confidence(value)
        assert type(stored) is type(accepted) is float
        assert repr(stored) == repr(accepted)


def _sample_record(number):
    return {"sample_id": f"s{number}", "dataset": "d", "ground_truth": "AB",
            "predictions": {"m": {"text": "AB", "confidence": 0.5}}}


def _fused_record(number):
    return {"sample_id": f"s{number}", "dataset": "d", "text": "AB",
            "winning_votes": 1, "tie_broken": False, "contributors": ["m"]}


def _profile_record(number):
    return {"id": f"m{number}", "accuracy_rank": number, "latency_ms": 5.0}


def _config_record(number):
    return {"seed": number, "n_models": 1, "n_samples": 2, "plate_length": 3,
            "alphabet": "AB", "dataset": "d",
            "per_model": [{"per_char_sub_rate": 0.1, "insertion_rate": 0.05,
                           "deletion_rate": 0.0, "confidence_when_correct": [0.9, 0.1],
                           "confidence_when_wrong": [0.5, 0.2], "overconfident": False}]}


def _model_ids(record):
    """The model ids that a loaded record names."""
    if isinstance(record, Sample):
        return record.predictions.ids
    if isinstance(record, fileio.FusedRecord):
        return record.contributors
    return (record.model_id,)


# Stands for a model id drawn from arbitrary text: the key of a second
# prediction, or a second contributor.
_MODEL_ID = object()
MODEL_IDS = (st.sampled_from(["", "m", "é", "\ud800"]) | _IDS
             | st.text(st.characters(exclude_categories=()), max_size=4))

# For each record file: a valid record for a line, its loader and dumper,
# and the paths of the fields that the property sets to an arbitrary value
# ("extra" names a field no record has). A generator config is one document
# whose every field is tried, and has no dumper.
BOUNDARIES = {
    "predictions": (_sample_record, fileio.load_predictions, fileio.dump_predictions,
                    [("sample_id",), ("dataset",), ("ground_truth",), ("predictions",),
                     ("predictions", "m"), ("predictions", "m", "text"),
                     ("predictions", "m", "confidence"), ("predictions", "m", "extra"),
                     ("predictions", "m2"), ("predictions", _MODEL_ID), ("extra",)]),
    "fused": (_fused_record, fileio.load_fused, fileio.dump_fused,
              [("sample_id",), ("dataset",), ("text",), ("winning_votes",),
               ("tie_broken",), ("contributors",), ("contributors", _MODEL_ID),
               ("extra",)]),
    "profiles": (_profile_record, fileio.load_profiles, fileio.dump_profiles,
                 [("id",), ("accuracy_rank",), ("latency_ms",), ("extra",)]),
    "config": (_config_record, fileio.load_synth_config, None,
               [(f.name,) for f in dataclasses.fields(SynthConfig)]
               + [("per_model", 0, f.name) for f in dataclasses.fields(ErrorModel)]
               + [("extra",), ("per_model", 0, "extra")]),
}


_REPEAT = "repeated key"


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


# Each example writes two or three files; as above, no deadline applies.
@pytest.mark.parametrize("kind", BOUNDARIES)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_arbitrary_field_is_accepted_exactly_or_rejected_with_its_line(
        boundary_dir, kind, data):
    record, load, dump, paths = BOUNDARIES[kind]
    *parents, name = data.draw(st.sampled_from(paths))
    second = record(2)
    target = second
    for key in parents:
        target = target[key]
    if name is _MODEL_ID:
        name = data.draw(MODEL_IDS)
        if isinstance(target, list):
            target.append(name)
        else:
            target[name] = {"text": "AB", "confidence": 0.5}
    else:
        target[name] = data.draw(JSON_VALUES)
    # Or the field is repeated: a stand-in key, longer than any key
    # JSON_VALUES draws, is written and then renamed to the field's name,
    # which no dict can hold twice. Whitespace before a colon must not hide it.
    # A contributor is no key, and is not repeated.
    repeat = isinstance(target, dict) and data.draw(st.booleans())
    if repeat:
        target[_REPEAT] = data.draw(JSON_VALUES)
    line = json.dumps(second, separators=data.draw(st.sampled_from([(", ", ": "),
                                                                     (",", " : ")])))
    if repeat:
        line = line.replace(json.dumps(_REPEAT), json.dumps(name), 1)
    path = boundary_dir / f"{kind}.jsonl"
    if kind == "config":
        path.write_text(line)
        where, modes = "config:", [None]
    else:
        path.write_text(json.dumps(record(1)) + "\n" + line + "\n")
        where, modes = "line 2:", [True, False]
    for strict in modes:
        try:
            records = load(path) if strict is None else list(load(path, strict=strict))
        except errors.PlatefuseError as exc:
            assert str(exc).startswith(where), exc
            if repeat:
                assert str(exc) == f"{where} repeated key {name!r}"
        else:
            assert not repeat
            if kind == "config":
                # An empty per_model stands for one default model each, and a
                # field a model leaves out takes its default. Both sides as
                # JSON values: a pair is a list, and an integer equals the
                # float it became.
                defaults = dataclasses.asdict(ErrorModel())
                per_model = [{**defaults, **m} for m in second["per_model"]]
                given = {**second,
                         "per_model": per_model or [defaults] * second["n_models"]}
                loaded = json.loads(json.dumps(dataclasses.asdict(records)))
                assert loaded == json.loads(json.dumps(given))
                continue
            for model_id in (m for r in records for m in _model_ids(r)):
                core.check_identifier(model_id, "model id", AssertionError)
            copy = boundary_dir / f"{kind}-copy.jsonl"
            dump(records, copy)
            assert list(load(copy)) == records


# --- generator against its reference ---------------------------------------------

BLOCK = synth._BLOCK
ERROR_MODELS = st.builds(
    ErrorModel,
    per_char_sub_rate=st.sampled_from([0.0, 0.1, 0.3, 0.49]),
    insertion_rate=st.sampled_from([0.0, 0.05, 0.2]),
    deletion_rate=st.sampled_from([0.0, 0.05, 0.2]),
    # (1.0, 0.5) clamps half its draws at 1; (0.1, 0.9) clamps some at 0.
    confidence_when_correct=st.sampled_from([(0.92, 0.06), (1.0, 0.5), (0.6, 0.0)]),
    confidence_when_wrong=st.sampled_from([(0.55, 0.25), (0.1, 0.9), (1.0, 1.0)]),
    overconfident=st.booleans(),
)


@st.composite
def synth_configs(draw):
    n_models = draw(st.integers(1, 5))
    return SynthConfig(
        seed=draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)),
        n_models=n_models,
        n_samples=draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                        2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])),
        plate_length=draw(st.integers(1, 9)),
        # Astral code points decode from UTF-32 too.
        alphabet=draw(st.sampled_from(
            [DEFAULT_ALPHABET, "AB", "XYZ0123", "ÄÖ€Ω中", "Z\U0001F600"])),
        per_model=tuple(draw(st.lists(ERROR_MODELS, min_size=n_models,
                                      max_size=n_models))),
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("synth")


def _uniforms(config, index, n):
    bits = np.random.Philox(key=config.seed, counter=index * 2**64)
    return np.random.Generator(bits).random(n)


# Deletions on one-symbol plates, which the guard skips (m00 deletes only),
# a non-ASCII alphabet and seed 0.
ONE_SYMBOL = SynthConfig(
    seed=0, n_models=2, n_samples=BLOCK + 1, plate_length=1, alphabet="ÄÖ€Ω中",
    per_model=(ErrorModel(deletion_rate=0.2),
               ErrorModel(insertion_rate=0.2, deletion_rate=0.2)))
# Insertions that a deletion undoes (m00 substitutes nothing), confidences
# clamped at 0 and at 1, and seed 2**64 - 1.
UNDONE = SynthConfig(
    seed=2**64 - 1, n_models=1, n_samples=2 * BLOCK, plate_length=3, alphabet="AB",
    per_model=(ErrorModel(per_char_sub_rate=0, insertion_rate=0.2, deletion_rate=0.2,
                          confidence_when_correct=(1.0, 0.5),
                          confidence_when_wrong=(0.1, 0.9)),))
# A model with insertions only (m00), deletions only (m01), neither (m02)
# and both (m03), on two-symbol plates: an insertion at the last slot, a
# deletion at slot 0 and a deletion of the inserted symbol.
MIXED = SynthConfig(
    seed=7, n_models=4, n_samples=2 * BLOCK, plate_length=2, alphabet="XYZ0123",
    per_model=(ErrorModel(insertion_rate=0.2), ErrorModel(deletion_rate=0.2),
               ErrorModel(), ErrorModel(insertion_rate=0.2, deletion_rate=0.2)))


def test_the_generator_examples_hold_the_cases_they_name():
    guarded = [s for i, s in enumerate(reference_generate(ONE_SYMBOL))
               if _uniforms(ONE_SYMBOL, i, 4)[3] < 0.2]
    assert guarded and all(len(s.predictions.texts[0]) == 1 for s in guarded)
    samples = list(reference_generate(UNDONE))
    assert {0.0, 1.0} <= {c for s in samples for c in s.predictions.confs}
    undone = [s for i, s in enumerate(samples)
              if _uniforms(UNDONE, i, 10)[9] < 0.2
              and s.predictions.texts[0] == s.ground_truth]
    assert undone
    # MIXED's uniforms: ground truth 0-1; m00 substitutions 2-5, insertion
    # 6-8, confidence 9; m01 10-13, deletion 14-15, 16; m02 17-20, 21; m03
    # 22-25, insertion 26-28, deletion 29-30, 31.
    rows = [(s.predictions.texts, _uniforms(MIXED, i, 32))
            for i, s in enumerate(reference_generate(MIXED))]
    assert any(u[6] < 0.2 and int(u[7] * 3) == 2
               and texts[0][2] == MIXED.alphabet[int(u[8] * 7)] for texts, u in rows)
    assert any(u[14] < 0.2 and int(u[15] * 2) == 0 and len(texts[1]) == 1
               for texts, u in rows)
    assert any(u[26] < 0.2 and u[29] < 0.2 and int(u[30] * 3) == int(u[27] * 3)
               and len(texts[3]) == 2 for texts, u in rows)


@given(config=synth_configs())
@example(config=ONE_SYMBOL)
@example(config=UNDONE)
@example(config=MIXED)
@settings(max_examples=60, deadline=None)
def test_generate_writes_the_bytes_of_the_reference(synth_dir, config):
    fast, slow = synth_dir / "generate.jsonl", synth_dir / "reference.jsonl"
    fileio.dump_predictions(generate(config), fast)
    fileio.dump_predictions(reference_generate(config), slow)
    assert fast.read_bytes() == slow.read_bytes()
