"""Property-based tests for the fusion and scoring invariants."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TB_HC, random_ensemble, tb_bm
from oracles import reference_generate
from platefuse import (
    DatasetReport,
    Ensemble,
    ErrorModel,
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    StrategyKind,
    SynthConfig,
    TieBreak,
    TieBreakKind,
    apply_strategy,
    core,
    errors,
    fileio,
    generate,
    hc_fuse,
    macro_average,
    mv_fuse,
    mvcp_fuse,
    parse_strategy,
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
    return [parse_strategy(n, ranking)
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
        assert result.contributors == frozenset({model_id})


@given(predictions_maps(max_size=4), TEXTS, CONFS)
@settings(max_examples=200)
def test_strict_majority_dominates(minority, text, conf)  :
    majority = {
        f"M{i}": Prediction(text, conf) for i in range(len(minority) + 1)
    }
    predictions = {**minority, **majority}
    ranking = tuple(sorted(predictions))
    for tiebreak in (TB_HC, tb_bm(ranking)):
        result = mv_fuse(predictions, tiebreak)
        assert result.text == text
        assert result.winning_votes >= len(majority)


@given(predictions_maps())
@settings(max_examples=200)
def test_vote_count_soundness(predictions):
    for tiebreak in (TB_HC, tb_bm(tuple(sorted(predictions)))):
        result = mv_fuse(predictions, tiebreak)
        counts = Counter(p.text for p in predictions.values())
        assert result.winning_votes == counts[result.text] == max(counts.values())
        assert result.contributors == frozenset(
            m for m, p in predictions.items() if p.text == result.text
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
    for tiebreak in (TB_HC, tb_bm(ranking)):
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
    for tiebreak in (TB_HC, tb_bm(tuple(sorted(predictions)))):
        assert mvcp_fuse(predictions, tiebreak).text == expected


@given(predictions_maps())
@settings(max_examples=200)
def test_result_invariants(predictions):
    n = len(predictions)
    for strategy in _all_strategies(predictions):
        result = apply_strategy(predictions, strategy)
        assert 0 <= result.winning_votes <= n
        assert result.contributors <= set(predictions)
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
        strategy = parse_strategy(name, ranking)
        assert apply_strategy(ensemble, strategy) == apply_strategy(predictions, strategy)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.jsonl"


@given(st.lists(SEEDS, min_size=1, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=100)
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
CONSTRUCTOR_FIELDS = {
    Prediction: dict(text=_field(_TEXTS), confidence=_field(NUMBERS)),
    Ensemble: dict(ids=_field(st.lists(_IDS, unique=True, max_size=3).map(sorted)),
                   texts=_field(st.lists(_TEXTS, max_size=3)),
                   confs=_field(st.lists(st.floats(0.0, 1.0) | NUMBERS, max_size=3))),
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
    TieBreak: dict(kind=_field(st.sampled_from(TieBreakKind)),
                   ranking=_field(st.lists(_IDS, max_size=3))),
    FusionStrategy: dict(kind=_field(st.sampled_from(StrategyKind)),
                         tiebreak=_field(st.sampled_from([TB_HC, tb_bm(("a", "b"))]))),
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


# For each record file: a valid record for a line, its loader and dumper,
# and the paths of the fields that the property sets to an arbitrary value
# ("extra" names a field no record has).
BOUNDARIES = {
    "predictions": (_sample_record, fileio.load_predictions, fileio.dump_predictions,
                    [("sample_id",), ("dataset",), ("ground_truth",), ("predictions",),
                     ("predictions", "m"), ("predictions", "m", "text"),
                     ("predictions", "m", "confidence"), ("predictions", "m", "extra"),
                     ("predictions", "m2"), ("extra",)]),
    "fused": (_fused_record, fileio.load_fused, fileio.dump_fused,
              [("sample_id",), ("dataset",), ("text",), ("winning_votes",),
               ("tie_broken",), ("contributors",), ("extra",)]),
    "profiles": (_profile_record, fileio.load_profiles, fileio.dump_profiles,
                 [("id",), ("accuracy_rank",), ("latency_ms",), ("extra",)]),
}


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.mark.parametrize("kind", BOUNDARIES)
@given(data=st.data())
@settings(max_examples=200)
def test_one_arbitrary_field_is_accepted_exactly_or_rejected_with_its_line(
        boundary_dir, kind, data):
    record, load, dump, paths = BOUNDARIES[kind]
    *parents, name = data.draw(st.sampled_from(paths))
    second = record(2)
    target = second
    for key in parents:
        target = target[key]
    target[name] = data.draw(JSON_VALUES)
    path = boundary_dir / f"{kind}.jsonl"
    path.write_text(json.dumps(record(1)) + "\n" + json.dumps(second) + "\n")
    for strict in (True, False):
        try:
            records = list(load(path, strict=strict))
        except errors.PlatefuseError as exc:
            assert str(exc).startswith("line 2:"), exc
        else:
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


@given(config=synth_configs())
@example(config=ONE_SYMBOL)
@example(config=UNDONE)
@settings(max_examples=60, deadline=None)
def test_generate_writes_the_bytes_of_the_reference(synth_dir, config):
    fast, slow = synth_dir / "generate.jsonl", synth_dir / "reference.jsonl"
    fileio.dump_predictions(generate(config), fast)
    fileio.dump_predictions(reference_generate(config), slow)
    assert fast.read_bytes() == slow.read_bytes()
