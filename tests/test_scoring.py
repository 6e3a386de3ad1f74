"""Unit tests for exact-match scoring, ranking, latency, and sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P
from platefuse import (
    DatasetReport,
    ModelProfile,
    Sample,
    apply_strategy,
    ensemble_latency,
    errors,
    is_correct,
    macro_average,
    parse_strategy,
    per_model_accuracy,
    rank_models,
    recognition_rate,
    sweep_top_n,
)
from platefuse.core import STRATEGY_NAMES

ACCURACY_ORDER = [
    "ViTSTR-Base", "STAR-Net", "TRBA", "CR-NET", "RARE", "Fast-OCR",
    "Rosetta", "Holistic-CNN", "GRCNN", "R2AM", "CRNN", "Multi-Task-LR",
]
SPEED_ORDER = [
    "Multi-Task-LR", "Holistic-CNN", "CRNN", "Fast-OCR", "Rosetta",
    "CR-NET", "STAR-Net", "ViTSTR-Base", "GRCNN", "RARE", "R2AM", "TRBA",
]


# --- is_correct ------------------------------------------------------------

def test_is_correct():
    assert not is_correct("MRD3095", "MRU3095")
    assert is_correct("AIQ1056", "AIQ1056")
    assert not is_correct("ABC123", "ABC1234")


def test_is_correct_requires_ground_truth():
    with pytest.raises(errors.MissingGroundTruth):
        is_correct("ABC123", None)


# --- recognition_rate ---------------------------------------------------------

def _sample(i, dataset, truth, text):
    return Sample(f"s{i}", dataset, truth, {"m": P(text, 0.5)})


def test_recognition_rate_simple_ratio():
    samples = [_sample(i, "d", "AAAA", "AAAA" if i < 2 else "BBBB")
               for i in range(4)]
    fused = {s.sample_id: s.predictions["m"].text for s in samples}
    (report,) = recognition_rate(samples, fused)
    assert (report.total, report.correct, report.rate) == (4, 2, 0.5)


def test_recognition_rate_all_correct():
    samples = [_sample(i, "d", "AAAA", "AAAA") for i in range(3)]
    fused = {s.sample_id: "AAAA" for s in samples}
    (report,) = recognition_rate(samples, fused)
    assert report.rate == 1.0


def test_recognition_rate_fixture_of_ten():
    # Hand-built fixture: 10 samples, 7 fused correctly.
    truths = ["AB1", "CD2", "EF3", "GH4", "IJ5", "KL6", "MN7", "OP8", "QR9", "ST0"]
    samples = [_sample(i, "d", t, t) for i, t in enumerate(truths)]
    fused = {f"s{i}": truths[i] if i < 7 else "XXX" for i in range(10)}
    (report,) = recognition_rate(samples, fused)
    assert report.correct == 7
    assert report.rate == pytest.approx(0.7)
    # Independent brute-force loop over the same fixture.
    brute = sum(fused[s.sample_id] == s.ground_truth for s in samples) / len(samples)
    assert report.rate == brute


def test_recognition_rate_groups_by_dataset():
    samples = (
        [_sample(i, "d1", "AA", "AA" if i < 2 else "BB") for i in range(4)]
        + [_sample(10 + i, "d2", "CC", "CC" if i < 5 else "DD") for i in range(6)]
    )
    fused = {s.sample_id: s.predictions["m"].text for s in samples}
    reports = recognition_rate(samples, fused)
    assert [r.dataset for r in reports] == ["d1", "d2"]
    assert [r.rate for r in reports] == [pytest.approx(0.5), pytest.approx(5 / 6)]
    # Macro average is unweighted: distinct from the micro rate 7/10.
    assert macro_average(reports) == pytest.approx((0.5 + 5 / 6) / 2)


def test_recognition_rate_uncovered_sample():
    samples = [_sample(0, "d", "AA", "AA")]
    with pytest.raises(errors.UncoveredSample):
        recognition_rate(samples, {})


def test_recognition_rate_missing_truth():
    samples = [Sample("s0", "d", None, {"m": P("AA", 0.5)})]
    with pytest.raises(errors.MissingGroundTruth):
        recognition_rate(samples, {"s0": "AA"})


def test_recognition_rate_empty():
    with pytest.raises(errors.EmptyInput):
        recognition_rate([], {})


# --- macro_average -----------------------------------------------------------

def test_macro_average_rows():
    vit = [87.0, 88.2, 86.7, 96.9, 99.4, 95.8, 89.7, 95.6]
    fused = [97.8, 97.1, 100.0, 98.1, 99.7, 99.1, 92.3, 96.5]
    reports_a = [DatasetReport(f"d{i}", 1000, round(v * 10)) for i, v in enumerate(vit)]
    assert macro_average(reports_a) == pytest.approx(0.924125)
    reports_b = [DatasetReport(f"d{i}", 1000, round(v * 10)) for i, v in enumerate(fused)]
    assert macro_average(reports_b) == pytest.approx(0.97575)


def test_macro_average_single_dataset():
    assert macro_average([DatasetReport("d", 4, 3)]) == 0.75


def test_macro_average_empty():
    with pytest.raises(errors.EmptyInput):
        macro_average([])


# --- rank_models / ensemble_latency ---------------------------------------------

def test_rank_models_accuracy(stock_profiles):
    assert rank_models(stock_profiles, "accuracy") == ACCURACY_ORDER


def test_rank_models_speed(stock_profiles):
    assert rank_models(stock_profiles, "speed") == SPEED_ORDER


def test_rank_models_singleton():
    assert rank_models([ModelProfile("m", 1.0, 1)], "accuracy") == ["m"]


def test_rank_models_duplicate_rank():
    profiles = [ModelProfile("a", 1.0, 1), ModelProfile("b", 2.0, 1)]
    with pytest.raises(errors.DuplicateRank):
        rank_models(profiles, "accuracy")


def test_rank_models_missing_rank():
    with pytest.raises(errors.MissingAccuracyRank):
        rank_models([ModelProfile("a", 1.0)], "accuracy")


def test_rank_models_speed_ties_by_id():
    profiles = [ModelProfile("b", 1.0, 1), ModelProfile("a", 1.0, 2)]
    assert rank_models(profiles, "speed") == ["a", "b"]


def test_ensemble_latency(stock_profiles):
    ordered = sorted(stock_profiles, key=lambda p: p.accuracy_rank)
    lat1, fps1 = ensemble_latency(ordered, 1)
    assert lat1 == pytest.approx(7.3)
    assert fps1 == pytest.approx(1000 / 7.3)
    lat2, fps2 = ensemble_latency(ordered, 2)
    assert lat2 == pytest.approx(14.4)
    assert fps2 == pytest.approx(1000 / 14.4)
    lat8, fps8 = ensemble_latency(ordered, 8)
    assert lat8 == pytest.approx(59.7)
    assert round(fps8) == 17


def test_ensemble_latency_out_of_range(stock_profiles):
    with pytest.raises(errors.NOutOfRange):
        ensemble_latency(stock_profiles, 13)
    with pytest.raises(errors.NOutOfRange):
        ensemble_latency(stock_profiles, 0)


# --- sweep ------------------------------------------------------------------------

def _planted_corpus():
    """22 samples, 3 models, hand-counted fusion outcomes per ensemble size."""
    truth = "AAAA"
    groups = [
        # (count, m1 text, m1 conf, m2 text, m2 conf, m3 text, m3 conf)
        (8, "AAAA", 0.9, "AAAA", 0.8, "AAAA", 0.7),
        (4, "AAAA", 0.9, "XXXX", 0.2, "YYYY", 0.3),
        (3, "BBBB", 0.95, "AAAA", 0.5, "AAAA", 0.4),
        (5, "BBBB", 0.9, "BBBB", 0.8, "AAAA", 0.6),
        (2, "CCCC", 0.3, "AAAA", 0.9, "AAAA", 0.5),
    ]
    samples = []
    i = 0
    for count, *row in groups:
        for _ in range(count):
            samples.append(Sample(
                f"s{i:02d}", "lab", truth,
                {"m1": P(row[0], row[1]), "m2": P(row[2], row[3]),
                 "m3": P(row[4], row[5])},
            ))
            i += 1
    profiles = [
        ModelProfile("m1", 2.0, 1),
        ModelProfile("m2", 1.0, 2),
        ModelProfile("m3", 3.0, 3),
    ]
    return samples, profiles


# Hand-counted correct totals out of 22 per (strategy, n).
PLANTED_EXPECTED = {
    "hc": [12, 14, 14],
    "mv-bm": [12, 12, 17],
    "mv-hc": [12, 14, 17],
    "mvcp-bm": [12, 12, 17],
    "mvcp-hc": [12, 14, 17],
}


def test_sweep_planted_votes():
    samples, profiles = _planted_corpus()
    ranking = rank_models(profiles, "accuracy")
    strategies = [parse_strategy(name, ranking) for name in PLANTED_EXPECTED]
    report = sweep_top_n(samples, profiles, strategies, "accuracy")
    assert [row.n for row in report.rows] == [1, 2, 3]
    assert [row.added_model for row in report.rows] == ["m1", "m2", "m3"]
    for name, counts in PLANTED_EXPECTED.items():
        got = [row.per_strategy_rate[name] for row in report.rows]
        assert got == pytest.approx([c / 22 for c in counts]), name
    assert [row.cumulative_latency_ms for row in report.rows] == \
        pytest.approx([2.0, 3.0, 6.0])


def test_sweep_singleton_rates_match_across_strategies():
    samples, profiles = _planted_corpus()
    ranking = rank_models(profiles, "accuracy")
    strategies = [parse_strategy(n, ranking) for n in PLANTED_EXPECTED]
    report = sweep_top_n(samples, profiles, strategies, "accuracy")
    first = report.rows[0].per_strategy_rate
    assert len(set(first.values())) == 1


def test_sweep_monotone_bookkeeping(stock_profiles, showcase_samples):
    # Showcase corpus has the top-5 models only.
    top5 = [p for p in stock_profiles if p.accuracy_rank <= 5]
    strategies = [parse_strategy("mv-hc")]
    report = sweep_top_n(showcase_samples, top5, strategies, "accuracy")
    latencies = [row.cumulative_latency_ms for row in report.rows]
    fps = [row.fps for row in report.rows]
    assert latencies == sorted(latencies) and len(set(latencies)) == len(latencies)
    assert fps == sorted(fps, reverse=True) and len(set(fps)) == len(fps)


def test_sweep_full_ensemble_row_matches_direct_eval(stock_profiles,
                                                     showcase_samples):
    # At n=5 the sweep fuses the whole showcase ensemble; mv-hc recognizes
    # cases a, c, e, f, g of the eight.
    top5 = [p for p in stock_profiles if p.accuracy_rank <= 5]
    report = sweep_top_n(showcase_samples, top5,
                         [parse_strategy("mv-hc")], "accuracy")
    assert report.rows[-1].n == 5
    assert report.rows[-1].per_strategy_rate["mv-hc"] == pytest.approx(5 / 8)


def _tie_rich_corpus(rng, n_samples=150, n_models=6):
    """Samples over two datasets whose predictions share few symbols and
    confidences, so vote and confidence ties are frequent at every n."""
    models = [f"m{j}" for j in range(n_models)]
    samples = []
    for i in range(n_samples):
        truth = "".join(rng.choice(list("ABC"), size=4))
        predictions = {}
        for m in models:
            length = int(rng.integers(3, 6))
            text = "".join(rng.choice(list("ABC"), size=length))
            if rng.random() < 0.4:
                text = truth
            predictions[m] = P(text, float(rng.choice([0.25, 0.5, 0.75, 1.0])))
        samples.append(Sample(f"s{i}", f"d{i % 2}", truth, predictions))
    # Equal latencies make the speed order fall back to model ids.
    latencies = [3.0, 1.0, 2.0, 1.0, 5.0, 4.0]
    profiles = [ModelProfile(m, latencies[j], n_models - j)
                for j, m in enumerate(models)]
    return samples, profiles


def _assert_rows_match_direct_evaluation(samples, profiles, strategies, mode):
    """Every row of the sweep equals fusing each top-n ensemble through
    apply_strategy and scoring it directly."""
    report = sweep_top_n(samples, profiles, strategies, mode)
    ranking = rank_models(profiles, mode)
    assert [row.n for row in report.rows] == list(range(1, len(ranking) + 1))
    for row in report.rows:
        members = ranking[:row.n]
        assert row.added_model == members[-1]
        for strategy in strategies:
            fused = {
                s.sample_id: apply_strategy(
                    {m: s.predictions[m] for m in members}, strategy).text
                for s in samples
            }
            expected = macro_average(recognition_rate(samples, fused))
            assert row.per_strategy_rate[strategy.name] == expected, \
                (mode, row.n, strategy.name)


# The sweep reuses a text another strategy of the same sample already fixes,
# so the rows must not depend on which strategies are asked for, or in what
# order. Keyed by test id suffix. "hc-by-id" is hc built without a ranking,
# whose confidence ties go to the smallest model id: the one tie-break order
# that neither a ranking nor the confidences give.
SWEEP_STRATEGY_LISTS = {
    "": STRATEGY_NAMES,
    "-reversed": STRATEGY_NAMES[::-1],
    "-mvcp-bm": ("mvcp-bm",),
    "-mvcp-hc+mv-bm": ("mvcp-hc", "mv-bm"),
    "-repeated": ("mv-hc", "mvcp-bm", "mv-hc"),
    "-hc-by-id": ("mvcp-hc", "hc-by-id", "mv-bm"),
}


def _strategy(name, ranking):
    return parse_strategy("hc") if name == "hc-by-id" else parse_strategy(name, ranking)


@pytest.mark.parametrize("mode,names", [
    pytest.param(mode, names, id=mode + suffix)
    for mode in ("accuracy", "speed")
    for suffix, names in SWEEP_STRATEGY_LISTS.items()
])
def test_every_sweep_row_matches_direct_evaluation(mode, names):
    samples, profiles = _tie_rich_corpus(np.random.default_rng(31))
    accuracy_ranking = rank_models(profiles, "accuracy")
    strategies = [_strategy(name, accuracy_ranking) for name in names]
    _assert_rows_match_direct_evaluation(samples, profiles, strategies, mode)


@st.composite
def tie_rich_sweeps(draw):
    """A few samples over 1-5 models with texts of 1-3 symbols from ``AB``,
    four confidences, shuffled accuracy ranks and repeated latencies."""
    n_models = draw(st.integers(1, 5))
    models = [f"m{j}" for j in range(n_models)]
    ranks = draw(st.permutations(range(1, n_models + 1)))
    profiles = [ModelProfile(m, draw(st.sampled_from([1.0, 2.0])), rank)
                for m, rank in zip(models, ranks)]
    texts = st.text(alphabet="AB", min_size=1, max_size=3)
    samples = [
        Sample(f"s{i}", draw(st.sampled_from(["d0", "d1"])), draw(texts), {
            m: P(draw(texts), draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])))
            for m in models
        })
        for i in range(draw(st.integers(1, 6)))
    ]
    return samples, profiles


@given(sweep=tie_rich_sweeps(),
       names=st.sampled_from(list(SWEEP_STRATEGY_LISTS.values())))
@settings(max_examples=200, deadline=None)
def test_every_sweep_row_matches_direct_evaluation_on_random_corpora(sweep, names):
    samples, profiles = sweep
    accuracy_ranking = rank_models(profiles, "accuracy")
    strategies = [_strategy(name, accuracy_ranking) for name in names]
    for mode in ("accuracy", "speed"):
        _assert_rows_match_direct_evaluation(samples, profiles, strategies, mode)


def test_sweep_rejects_an_incomplete_ranking_without_ties():
    # Unanimous ensembles never read the mv-bm tie-break, yet its ranking,
    # which lacks m3, must still cover the members.
    models = ("m1", "m2", "m3")
    samples = [Sample(f"s{i}", "lab", "AB", {m: P("AB", 0.5) for m in models})
               for i in range(3)]
    profiles = [ModelProfile(m, 1.0, rank) for rank, m in enumerate(models, 1)]
    strategies = [parse_strategy("mv-hc"), parse_strategy("mv-bm", ("m1", "m2"))]
    with pytest.raises(errors.IncompleteRanking, match="'m3'"):
        sweep_top_n(samples, profiles, strategies, "accuracy")


def test_sweep_missing_model_prediction(stock_profiles, showcase_samples):
    with pytest.raises(errors.MissingModelPrediction):
        sweep_top_n(showcase_samples, stock_profiles,
                    [parse_strategy("mv-hc")], "accuracy")


def test_sweep_requires_strategies(stock_profiles, showcase_samples):
    with pytest.raises(errors.EmptyInput):
        sweep_top_n(showcase_samples, stock_profiles, [], "accuracy")


# --- per_model_accuracy ----------------------------------------------------------

def test_per_model_accuracy():
    samples, _ = _planted_corpus()
    acc = per_model_accuracy(samples)
    assert acc["m1"] == pytest.approx(12 / 22)
    assert acc["m2"] == pytest.approx((8 + 3 + 2) / 22)
    assert acc["m3"] == pytest.approx((8 + 3 + 5 + 2) / 22)
