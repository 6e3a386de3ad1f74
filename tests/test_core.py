"""Unit tests for normalization, domain types, and the five fusion strategies."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, TOP5_RANKING, random_ensemble
from oracles import (
    normalize_by_table,
    oracle_mv,
    oracle_mvcp_lengths,
    oracle_mvcp_positions,
    reference_normalized_confidences,
    resolve_hc,
    resolve_mv,
    resolve_mvcp,
)
from platefuse import (
    DEFAULT_ALPHABET,
    Ensemble,
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    apply_strategy,
    errors,
    hc_fuse,
    mv_fuse,
    mvcp_fuse,
    normalize_confidences,
    normalize_text,
)
from platefuse import backend_name, core, kernels
from platefuse.core import STRATEGY_NAMES


# --- normalize_text ---------------------------------------------------------

def _reference_normalize(raw: str) -> str:
    # Independent reference: keep alphanumerics, uppercase.
    return "".join(ch for ch in raw.upper() if ch.isalnum())


@pytest.mark.parametrize("raw,expected", [
    ("abc-123", "ABC123"),
    ("AIQ1056", "AIQ1056"),
    ("4NIU770 ", "4NIU770"),
    ("ab.c 1-2", "ABC12"),
])
def test_normalize_text(raw, expected):
    assert normalize_text(raw) == expected
    assert normalize_text(raw) == _reference_normalize(raw)


def test_normalize_text_empty_after_stripping():
    with pytest.raises(errors.EmptyAfterNormalization):
        normalize_text("-- . ")


def test_normalize_text_names_bad_symbol():
    with pytest.raises(errors.SymbolOutsideAlphabet, match="'#'"):
        normalize_text("AB#1")


def test_normalize_text_custom_alphabet():
    assert normalize_text("aba", alphabet="AB") == "ABA"
    with pytest.raises(errors.SymbolOutsideAlphabet):
        normalize_text("abc", alphabet="AB")


@pytest.mark.parametrize("raw,symbol", [
    ("straße", "ß"),  # uppercases to two letters, 'SS'
    ("ﬁx12", "ﬁ"),    # ligature uppercases to 'FI'
    ("ı12", "ı"),     # dotless i uppercases to 'I' but is not its lowercase
])
def test_normalize_text_rejects_case_mappings_that_are_not_one_symbol(raw, symbol):
    with pytest.raises(errors.SymbolOutsideAlphabet, match=repr(symbol)):
        normalize_text(raw)


@given(st.text(alphabet=DEFAULT_ALPHABET + DEFAULT_ALPHABET.lower() + "-. \tßﬁıſİ#",
               max_size=12))
@settings(max_examples=300)
def test_normalize_text_only_drops_separators(raw):
    try:
        text = normalize_text(raw)
    except (errors.SymbolOutsideAlphabet, errors.EmptyAfterNormalization):
        return
    assert len(text) == len(raw) - sum(ch in "-. \t" for ch in raw)


def _outcome(normalize, raw, alphabet):
    try:
        return normalize(raw, alphabet)
    except errors.PlatefuseError as exc:
        return type(exc), str(exc)


# Separators, characters whose case mapping is not one symbol to one symbol,
# and a Unicode line separator.
_NOT_SYMBOLS = "-. \t\r\n\f\vßıſﬁ\u2028"


# The custom alphabets hold a symbol with no case and non-ASCII letters whose
# lowercase forms map to them.
@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, "AB#1",
                                      pytest.param("ÄΣ9", id="non-ascii")])
@given(data=st.data())
@settings(max_examples=300)
def test_normalize_text_matches_the_table_reference(alphabet, data):
    raw = data.draw(st.one_of(
        st.text(alphabet=alphabet, max_size=10),
        st.text(alphabet=alphabet + alphabet.lower() + _NOT_SYMBOLS, max_size=10),
    ))
    assert _outcome(normalize_text, raw, alphabet) == \
        _outcome(normalize_by_table, raw, alphabet)


@pytest.mark.parametrize("alphabet,message", [
    ("", r"^alphabet must not be empty$"),
    ("ABA", r"^alphabet symbols must be unique$"),
    ("A-B", r"^alphabet symbol '-' is a separator$"),
    ("AB-c1", r"^alphabet symbol '-' is a separator$"),
    ("ab", r"^alphabet symbol 'a' is not its own uppercase$"),
    ("x-Y9", r"^alphabet symbol 'x' is not its own uppercase$"),
    ("Aß", r"^alphabet symbol 'ß' is not its own uppercase$"),
    (("A", "B"), r"^alphabet must be a string, got \('A', 'B'\)$"),
    (["A", "B"], r"^alphabet must be a string, got \['A', 'B'\]$"),
    ("A\ud800B", r"^alphabet symbol '\\ud800' is not encodable as UTF-8$"),
])
def test_normalize_text_rejects_an_invalid_alphabet(alphabet, message):
    # Every symbol must normalize to itself: a separator would be dropped
    # from the texts and a lowercase symbol would reject its own texts. A
    # list cannot be a key of the table cache, yet gets the same error.
    with pytest.raises(errors.InvalidConfig, match=message):
        normalize_text("A", alphabet)


# --- domain type validation --------------------------------------------------

def test_prediction_rejects_bad_confidence():
    for bad in (1.3, -0.1, float("nan"), float("inf"), True, "0.5"):
        with pytest.raises(errors.InvalidConfidence):
            Prediction("ABC", bad)


def test_prediction_rejects_empty_text():
    with pytest.raises(errors.EmptyAfterNormalization):
        Prediction("", 0.5)
    with pytest.raises(errors.InvalidConfig,
                       match=r"^prediction text must be a string, got \[1\]$"):
        Prediction([1], 0.5)


def test_sample_requires_identifiers():
    with pytest.raises(errors.InvalidConfig):
        Sample("", "d", None, {"m": P("A", 0.5)})
    with pytest.raises(errors.InvalidConfig):
        Sample("s", "", None, {"m": P("A", 0.5)})
    with pytest.raises(errors.InvalidConfig,
                       match=r"^sample_id must be a non-empty string$"):
        Sample(5, 7, None, {})
    with pytest.raises(errors.InvalidConfig,
                       match=r"^dataset must be a non-empty string$"):
        Sample("s", 7, None, {})
    with pytest.raises(errors.InvalidConfig,
                       match=r"^model id must be a non-empty string$"):
        ModelProfile([1], 2.0)


@pytest.mark.parametrize("truth, error, message", [
    (5, errors.InvalidConfig, r"^{} must be a string, got 5$"),
    (["AB"], errors.InvalidConfig, r"^{} must be a string, got \['AB'\]$"),
    ("", errors.EmptyAfterNormalization, r"^{} is empty$"),
    ("ab", errors.InvalidConfig, r"^{} 'ab' holds 'a', which is not its own uppercase$"),
    ("A-B", errors.InvalidConfig, r"^{} 'A-B' holds '-', which is a separator$"),
    ("ß", errors.InvalidConfig, r"^{} 'ß' holds 'ß', which is not its own uppercase$"),
    ("A\ud800", errors.InvalidConfig,
     r"^{} 'A\\ud800' holds '\\ud800', which is not encodable as UTF-8$"),
], ids=["int", "list", "empty", "lowercase", "separator", "sharp-s", "surrogate"])
def test_a_ground_truth_is_checked_as_a_prediction_text_is(truth, error, message):
    # Scoring would die on 5 or ["AB"] and count "" as never matched, and the
    # corpus loader rejects all three. No alphabet holds 'a', '-', 'ß' or a lone
    # surrogate, so a text with one would not load back as written: "ab" loads
    # as "AB".
    with pytest.raises(error, match=message.format("ground_truth")):
        Sample("s", "d", truth, {"m": P("AB", 0.5)})
    with pytest.raises(error, match=message.format("prediction text")):
        Prediction(truth, 0.5)
    for valid in (None, "AB"):
        assert Sample("s", "d", valid, {"m": P("AB", 0.5)}).ground_truth == valid


def test_ensemble_checks_its_fields():
    ensemble = Ensemble({"b": P("Y", 0.5), "a": P("X", 1)})
    assert ensemble.ids == ("a", "b") and ensemble.texts == ("X", "Y")
    assert ensemble.confs == (1.0, 0.5) and type(ensemble.confs[0]) is float
    assert ensemble == {"b": P("Y", 0.5), "a": P("X", 1.0)}
    assert ensemble == Ensemble(ensemble) == Ensemble(predictions=dict(ensemble))
    for other in (Ensemble({"a": P("X", 1), "b": P("Y", 0.25)}),
                  Ensemble({"a": P("X", 1), "b": P("Z", 0.5)}),
                  Ensemble({"a": P("X", 1), "c": P("Y", 0.5)}),
                  {"a": P("X", 1)}, [("a", P("X", 1)), ("b", P("Y", 0.5))]):
        assert ensemble != other
    assert Ensemble({"a": P("X", -0.0)}) == Ensemble({"a": P("X", 0.0)})
    # Nothing could fuse an empty ensemble or load it back.
    message = r"^an ensemble needs at least one prediction$"
    with pytest.raises(errors.EmptyEnsemble, match=message):
        Ensemble({})
    with pytest.raises(errors.EmptyEnsemble, match=message):
        Sample("s", "d", None, {})
    for predictions, message in [
        ({"a": P("X", 0.1), "": P("Y", 0.2)}, r"^model id must be a non-empty string$"),
        ({5: P("X", 0.1)}, r"^model id must be a non-empty string$"),
        ({"a\ud800": P("X", 0.1)}, r"^model id 'a\\ud800' is not encodable as UTF-8$"),
        ({"m": ("A", 0.5)},
         r"^prediction of model 'm' must be a Prediction, got \('A', 0\.5\)$"),
        ([("a", P("X", 0.1))], r"^predictions must map model ids to Predictions, got \["),
        ("ab", r"^predictions must map model ids to Predictions, got 'ab'$"),
    ]:
        with pytest.raises(errors.InvalidConfig, match=message):
            Ensemble(predictions)
        with pytest.raises(errors.InvalidConfig, match=message):
            Sample("s", "d", None, predictions)
    with pytest.raises(AttributeError):
        ensemble.ids = ("c",)
    with pytest.raises(AttributeError):
        del ensemble.texts
    with pytest.raises(errors.EmptyEnsemble):
        hc_fuse({}, None)


def test_tiebreak_validation():
    # The one ranking rule, as every strategy applies it: *-hc checks the
    # ranking it is given before it drops it.
    for ranking, message in [
        (5, r"^tie-break ranking must be a sequence of model ids, got 5$"),
        ("m1", r"^tie-break ranking must be a sequence of model ids, got 'm1'$"),
        ({"a"}, r"^tie-break ranking must be a sequence of model ids, got \{'a'\}$"),
        ([[1]], r"^tie-break ranking entry must be a non-empty string$"),
        ([1, 2], r"^tie-break ranking entry must be a non-empty string$"),
        (["a", ""], r"^tie-break ranking entry must be a non-empty string$"),
        (("a", "a"), r"^tie-break ranking contains duplicates$"),
        ((), r"^tie-break ranking is empty$"),
    ]:
        for name in STRATEGY_NAMES:
            with pytest.raises(errors.InvalidConfig, match=message):
                FusionStrategy(name, ranking)


def test_strategy_rejects_malformed_fields():
    for name in ("mv", "bm", "MV-HC", "hc ", None, ["hc"]):
        with pytest.raises(errors.InvalidConfig, match=(
                rf"^unknown strategy {re.escape(repr(name))}; "
                r"expected one of hc, mv-bm, mv-hc, mvcp-bm, mvcp-hc$")):
            FusionStrategy(name, ("a", "b"))


def test_strategy_requires_tiebreak_for_votes():
    # A best-model vote needs a ranking; the other strategies fuse without.
    for name in ("mv-bm", "mvcp-bm"):
        with pytest.raises(errors.InvalidConfig,
                           match=rf"^strategy '{name}' requires a model ranking$"):
            FusionStrategy(name)
    for name in ("hc", "mv-hc", "mvcp-hc"):
        assert FusionStrategy(name).ranking is None
        assert apply_strategy({"m": P("A", 0.5)}, FusionStrategy(name)).text == "A"


def test_strategy_spellings():
    for name in STRATEGY_NAMES:
        strategy = FusionStrategy(name, ["m1", "m2"])
        assert strategy.name == name
        assert strategy.kind == name.partition("-")[0]
        # A list is stored as a tuple; *-hc reads no ranking and keeps none.
        ranking = None if name.endswith("-hc") else ("m1", "m2")
        assert strategy.ranking == ranking
    # So two strategies that fuse alike compare and hash alike.
    assert len({FusionStrategy("mv-hc", r) for r in (None, ["a"], ("b", "a"))}) == 1
    assert FusionStrategy("hc", ("a",)) != FusionStrategy("hc")
    assert repr(FusionStrategy("mv-bm", ("a",))) == (
        "FusionStrategy(name='mv-bm', ranking=('a',))")


@pytest.mark.parametrize("ranking,outcome", [
    pytest.param(("b", "a"), "XY", id="tuple"),
    pytest.param(["b", "a"], "XY", id="list"),
    pytest.param(None, "AB", id="none"),
    pytest.param("ba", r"^tie-break ranking must be a sequence of model ids, got 'ba'$",
                 id="string"),
    pytest.param(["b", "a", "b"], r"^tie-break ranking contains duplicates$",
                 id="repeated-id"),
    pytest.param(["b", 1, "a"], r"^tie-break ranking entry must be a non-empty string$",
                 id="non-string-id"),
    pytest.param((), r"^tie-break ranking is empty$", id="empty"),
])
def test_every_entry_point_reads_a_ranking_one_way(ranking, outcome):
    # Equal confidences and a 1-1 vote, so every fusion reads its tie-break:
    # a ranking that puts b first gives XY, no ranking gives the smallest id's.
    predictions = {"a": P("AB", 0.5), "b": P("XY", 0.5)}
    fuses = (hc_fuse, mv_fuse, mvcp_fuse)
    if outcome in ("AB", "XY"):
        for fuse in fuses:
            assert fuse(predictions, ranking).text == outcome
        for name in STRATEGY_NAMES:
            if ranking is not None or not name.endswith("-bm"):
                result = apply_strategy(predictions, FusionStrategy(name, ranking))
                assert result.text == ("AB" if name.endswith("-hc") else outcome)
        return
    for fuse in fuses:
        with pytest.raises(errors.InvalidConfig, match=outcome):
            fuse(predictions, ranking)
    for name in STRATEGY_NAMES:
        with pytest.raises(errors.InvalidConfig, match=outcome):
            FusionStrategy(name, ranking)


# --- highest confidence --------------------------------------------------------

FIG_A = {
    "ViTSTR-Base": P("AIQ1Q56", 0.93),
    "STAR-Net": P("ATQ1056", 0.59),
    "TRBA": P("AIQ1056", 0.98),
    "CR-NET": P("AIQ1056", 0.82),
    "RARE": P("AIQ1Q56", 0.92),
}


def test_hc_picks_max_confidence():
    result = hc_fuse(FIG_A, TOP5_RANKING)
    assert result.text == "AIQ1056"
    assert result.winning_votes == 0
    assert not result.tie_broken
    assert result.contributors == frozenset({"TRBA", "CR-NET"})


def test_hc_singleton():
    result = hc_fuse({"only": P("ABC1234", 0.50)}, ("only",))
    assert result.text == "ABC1234"


def test_hc_exact_tie_resolved_by_ranking():
    # Two maximal confidences; the model ranked earlier wins.
    preds = {"TRBA": P("4NTU770", 0.99), "RARE": P("4NIU770", 0.99)}
    result = hc_fuse(preds, TOP5_RANKING)
    # Exhaustive scan: among max-confidence holders, lowest ranking position.
    top = max(p.confidence for p in preds.values())
    holders = sorted(
        (TOP5_RANKING.index(m), p.text)
        for m, p in preds.items() if p.confidence == top
    )
    assert result.text == holders[0][1] == "4NTU770"
    assert result.tie_broken


def test_hc_empty_ensemble():
    with pytest.raises(errors.EmptyEnsemble):
        hc_fuse({}, ())


def test_hc_incomplete_ranking():
    with pytest.raises(errors.IncompleteRanking):
        hc_fuse({"a": P("X", 0.5)}, ("b",))


# --- majority vote ----------------------------------------------------------------

def test_mv_strict_majority():
    preds = {
        "ViTSTR-Base": P("MRU3095", 0.97),
        "STAR-Net": P("MR03095", 0.98),
        "TRBA": P("MRD3095", 0.72),
        "CR-NET": P("MRD3095", 0.94),
        "RARE": P("MRD3095", 0.87),
    }
    result = mv_fuse(preds)
    assert result.text == "MRD3095"
    assert result.winning_votes == 3
    assert not result.tie_broken
    assert result.contributors == frozenset({"TRBA", "CR-NET", "RARE"})


def test_mv_tie_resolved_by_confidence():
    result = mv_fuse(FIG_A)
    assert result.text == "AIQ1056"
    assert result.winning_votes == 2
    assert result.tie_broken


def test_mv_two_votes_beat_singletons():
    preds = {
        "ViTSTR-Base": P("HLP459A", 0.98),
        "STAR-Net": P("HLP4594", 0.97),
        "TRBA": P("HLPA594", 0.99),
        "CR-NET": P("HLP4594", 0.85),
        "RARE": P("HLPA59A", 0.93),
    }
    result = mv_fuse(preds)
    assert result.text == "HLP4594"
    assert result.winning_votes == 2
    assert not result.tie_broken


def test_mv_unanimity():
    preds = {m: P("XYZ999", c) for m, c in
             [("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4), ("e", 0.5)]}
    result = mv_fuse(preds)
    assert result.text == "XYZ999"
    assert result.winning_votes == 5


def test_mv_best_model_tiebreak_considers_only_tied_predictors():
    # The globally best model ("e") predicts a non-tied text; the tie goes to
    # the best-ranked model among predictors of the tied texts ("b").
    preds = {
        "a": P("XXXX", 0.9),
        "b": P("YYYY", 0.1),
        "c": P("XXXX", 0.8),
        "d": P("YYYY", 0.2),
        "e": P("ZZZZ", 0.99),
    }
    result = mv_fuse(preds, ("e", "b", "a", "c", "d"))
    assert result.text == "YYYY"
    assert result.tie_broken


# --- majority vote by character position ----------------------------------------

def test_mvcp_per_position_tally():
    preds = {
        "ViTSTR-Base": P("AS5I8D", 0.53),
        "STAR-Net": P("AS5180", 0.82),
        "TRBA": P("AS5180", 0.60),
        "CR-NET": P("AS518D", 0.83),
        "RARE": P("AS5I8D", 0.79),
    }
    result = mvcp_fuse(preds)
    assert result.text == "AS518D"
    # Brute-force per-position histogram oracle.
    from collections import Counter
    expected = "".join(
        Counter(p.text[i] for p in preds.values()).most_common(1)[0][0]
        for i in range(6)
    )
    assert result.text == expected
    assert result.winning_votes == 1  # only CR-NET printed exactly AS518D
    assert not result.tie_broken


def test_mvcp_majority_column():
    preds = {
        "ViTSTR-Base": P("KRM7E95", 0.99),
        "STAR-Net": P("KRH7E95", 0.59),
        "TRBA": P("KRM7E95", 0.51),
        "CR-NET": P("KRH7E95", 0.73),
        "RARE": P("KRM7E95", 0.60),
    }
    assert mvcp_fuse(preds).text == "KRM7E95"


def test_mvcp_length_majority():
    preds = {"a": P("ABC12", 0.9), "b": P("ABC123", 0.8), "c": P("ABC123", 0.7)}
    result = mvcp_fuse(preds)
    assert result.text == "ABC123"
    assert not result.tie_broken


def test_mvcp_unanimity():
    preds = {m: P("AB1", 0.5) for m in "abcde"}
    assert mvcp_fuse(preds).text == "AB1"


def test_mvcp_short_predictions_skip_late_positions():
    preds = {"a": P("AB", 0.9), "b": P("ABC", 0.1), "c": P("ABC", 0.2)}
    result = mvcp_fuse(preds)
    assert result.text == "ABC"


def test_mvcp_length_tie_uses_tiebreak():
    preds = {"x": P("AB", 0.5), "y": P("ABCD", 0.9)}
    assert mvcp_fuse(preds).text == "ABCD"  # y is more confident
    assert mvcp_fuse(preds, ("x", "y")).text == "AB"
    assert mvcp_fuse(preds).tie_broken


def test_mvcp_positional_tie_uses_sequence_confidence():
    preds = {"a": P("AX", 0.9), "b": P("AY", 0.8), "c": P("AZ", 0.7)}
    assert mvcp_fuse(preds).text == "AX"
    assert mvcp_fuse(preds, ("c", "b", "a")).text == "AZ"


def test_mvcp_empty_ensemble():
    with pytest.raises(errors.EmptyEnsemble):
        mvcp_fuse({})


# --- provenance against the brute-force oracles ------------------------------------

def _curated_ensemble(texts, confs, prio):
    """An ensemble whose i-th model (in id order) has ranking position prio[i]."""
    ids = [f"m{i:02d}" for i in range(len(texts))]
    predictions = {m: P(t, c) for m, t, c in zip(ids, texts, confs)}
    return predictions, tuple(m for _, m in sorted(zip(prio, ids)))


# Hand-picked edge cases, added to the random ensembles below.
CURATED_ENSEMBLES = [
    _curated_ensemble(["ABCD"], [0.5], [0]),  # singleton
    # three-way exact-confidence tie
    _curated_ensemble(["AAAA", "BBBB", "CCCC"], [0.5, 0.5, 0.5], [2, 0, 1]),
    # length tie between texts of different lengths
    _curated_ensemble(["AB", "ABCD"], [0.9, 0.9], [1, 0]),
    # duplicate texts with different confidences
    _curated_ensemble(["XY", "XY", "ZW", "ZW"], [0.1, 0.9, 0.5, 0.5], [0, 1, 2, 3]),
]


def _agreeing_ensemble(rng):
    """A random prediction map, mostly free of ties, plus a random ranking.

    As in a generated corpus, each model reads a shared base text and misses
    each character with probability 0.15, and no two confidences are equal,
    so most votes have a clear winner and every hc pick is unique.
    """
    n = int(rng.integers(1, 10))
    base = "".join(rng.choice(list("ABCDEFGH"), size=int(rng.integers(4, 9))))
    confs = rng.choice(np.arange(1, 1001) / 1000, size=n, replace=False)
    predictions = {}
    for j in range(n):
        text = "".join(ch if rng.random() >= 0.15 else rng.choice(list("ABCDEFGH"))
                       for ch in base)
        if rng.random() < 0.1:  # a dropped character, for the length vote
            text = text[:-1]
        predictions[f"m{j:02d}"] = P(text, float(confs[j]))
    ranking = list(predictions)
    rng.shuffle(ranking)
    return predictions, tuple(ranking)


def test_tie_flags_and_contributors_match_oracles():
    # Tie-rich ensembles take each function's second, ordered vote often;
    # agreeing ones mostly stop at the first vote, in model-id order.
    rng = np.random.default_rng(4242)
    ensembles = (CURATED_ENSEMBLES + [random_ensemble(rng) for _ in range(2000)]
                 + [_agreeing_ensemble(rng) for _ in range(2000)])
    tied_hc = tied_mv = tied_mvcp = 0
    for predictions, ranking in ensembles:
        top_conf = max(p.confidence for p in predictions.values())
        hc = hc_fuse(predictions, ranking)
        assert hc.text == resolve_hc(predictions, ranking)
        assert hc.tie_broken == (
            sum(p.confidence == top_conf for p in predictions.values()) > 1)
        assert hc.contributors == {
            m for m, p in predictions.items() if p.text == hc.text}
        tied_hc += hc.tie_broken
        for tiebreak in (None, ranking):
            mv = mv_fuse(predictions, tiebreak)
            tied_texts, top_votes = oracle_mv(predictions)
            assert mv.text == resolve_mv(predictions, tiebreak)
            assert mv.winning_votes == top_votes
            assert mv.tie_broken == (len(tied_texts) > 1)
            assert mv.contributors == {
                m for m, p in predictions.items() if p.text == mv.text}
            tied_mv += mv.tie_broken

            mvcp = mvcp_fuse(predictions, tiebreak)
            assert mvcp.text == resolve_mvcp(predictions, tiebreak)
            length_tied = len(oracle_mvcp_lengths(predictions)) > 1
            position_tied = any(
                len(chars) > 1
                for chars in oracle_mvcp_positions(predictions, len(mvcp.text)))
            assert mvcp.tie_broken == (length_tied or position_tied)
            assert mvcp.contributors == {
                m for m, p in predictions.items()
                if any(i < len(p.text) and p.text[i] == ch
                       for i, ch in enumerate(mvcp.text))
            }
            assert mvcp.winning_votes == sum(
                p.text == mvcp.text for p in predictions.values())
            tied_mvcp += mvcp.tie_broken
    # Both outcomes of each flag must occur often for the check to mean
    # anything.
    runs = 2 * len(ensembles)
    assert 100 < tied_hc < len(ensembles) - 100
    assert 100 < tied_mv < runs - 100 and 100 < tied_mvcp < runs - 100


# Two symbols, short texts and four confidences, so that vote ties, length
# ties and strict majorities are all common.
TIE_RICH_ENSEMBLES = st.dictionaries(
    st.sampled_from([f"m{j}" for j in range(8)]),
    st.builds(Prediction, st.text(alphabet="AB", min_size=1, max_size=3),
              st.sampled_from([0.25, 0.5, 0.75, 1.0])),
    min_size=1,
)


@given(predictions=TIE_RICH_ENSEMBLES, data=st.data())
@settings(max_examples=500)
def test_an_untied_vote_ignores_its_tiebreak_and_a_strict_mv_majority_is_mvcp(
        predictions, data):
    # Two properties of the vote rules, checked against apply_strategy and
    # the independent resolvers: a vote that needed no tie-break gives the
    # same text under any tie-break, and a strict mv majority is the mvcp text.
    ranking = tuple(data.draw(st.permutations(sorted(predictions))))
    # Each vote under either tie-break: confidence (-hc) or the ranking (-bm).
    strategies = {kind: (FusionStrategy(f"{kind}-hc"),
                         FusionStrategy(f"{kind}-bm", ranking))
                  for kind in ("mv", "mvcp")}
    resolvers = {"mv": resolve_mv, "mvcp": resolve_mvcp}
    # Rule 1: a vote that needed no tie-break gives its text under either.
    for kind, resolve in resolvers.items():
        for strategy in strategies[kind]:
            result = apply_strategy(predictions, strategy)
            assert result.text == resolve(predictions, strategy.ranking)
            if not result.tie_broken:
                for other in strategies[kind]:
                    assert apply_strategy(predictions, other).text == result.text
                    assert resolve(predictions, other.ranking) == result.text
    # The same holds for hc with and without a ranking.
    hc = apply_strategy(predictions, FusionStrategy("hc"))
    if not hc.tie_broken:
        assert hc_fuse(predictions, ranking).text == hc.text
        assert resolve_hc(predictions, ranking) == hc.text
    # Rule 2: a strict mv majority is the mvcp text, with no tie-break.
    for strategy in strategies["mv"]:
        mv = apply_strategy(predictions, strategy)
        if 2 * mv.winning_votes > len(predictions):
            for other in strategies["mvcp"]:
                mvcp = apply_strategy(predictions, other)
                assert mvcp.text == mv.text and not mvcp.tie_broken
                assert resolve_mvcp(predictions, other.ranking) == mv.text


@given(predictions=TIE_RICH_ENSEMBLES)
@settings(max_examples=300)
def test_hc_without_a_ranking_settles_confidence_ties_by_model_id(predictions):
    # The ensembles are built in arbitrary key order, so an exact confidence
    # tie must go to the smallest model id, not to the first one inserted:
    # in hc without a ranking and among the voters of the -hc tie-break.
    assert hc_fuse(predictions, None).text == resolve_hc(predictions, sorted(predictions))
    assert mv_fuse(predictions).text == resolve_mv(predictions, None)
    assert mvcp_fuse(predictions).text == resolve_mvcp(predictions, None)


# --- kernel implementation ----------------------------------------------------------

def test_backend_reports_a_name():
    assert core.kernels is kernels
    assert backend_name() == "python"


# --- strategy dispatch --------------------------------------------------------------

def test_apply_strategy_dispatches_all_five():
    # mv-bm: 2-2 vote tie; the best-ranked predictor of a tied text is
    # ViTSTR-Base (rank 1), which printed AIQ1Q56. mvcp has no column ties
    # here, so both flavors agree on AIQ1056.
    by_name = {
        "hc": "AIQ1056",
        "mv-bm": "AIQ1Q56",
        "mv-hc": "AIQ1056",
        "mvcp-bm": "AIQ1056",
        "mvcp-hc": "AIQ1056",
    }
    for name, expected in by_name.items():
        strategy = FusionStrategy(name, TOP5_RANKING)
        assert apply_strategy(FIG_A, strategy).text == expected, name


# Inserted out of id order; b and d share the top confidence, a and c the
# bottom one.
TIE_RICH = {"c": P("X", 0.5), "d": P("Y", 0.9), "a": P("X", 0.5),
            "b": P("Y", 0.9)}
TIE_RICH_RANKING = ("c", "a", "d", "b")


@pytest.mark.parametrize("strategy,expected", [
    pytest.param(FusionStrategy("hc", TIE_RICH_RANKING), ["c", "a", "d", "b"],
                 id="hc"),
    pytest.param(FusionStrategy("mv-bm", TIE_RICH_RANKING), ["c", "a", "d", "b"],
                 id="mv-bm"),
    pytest.param(FusionStrategy("mvcp-bm", TIE_RICH_RANKING),
                 ["c", "a", "d", "b"], id="mvcp-bm"),
    pytest.param(FusionStrategy("mv-hc", TIE_RICH_RANKING), ["b", "d", "a", "c"],
                 id="mv-hc"),
    pytest.param(FusionStrategy("mvcp-hc", TIE_RICH_RANKING),
                 ["b", "d", "a", "c"], id="mvcp-hc"),
    pytest.param(FusionStrategy("hc"), ["a", "b", "c", "d"], id="hc-no-ranking"),
    pytest.param(FusionStrategy("mv-hc"), ["b", "d", "a", "c"], id="mv-hc-no-ranking"),
])
def test_each_strategy_puts_the_ensemble_in_its_tiebreak_order(monkeypatch, strategy,
                                                               expected):
    # The fuse functions look _prepare up as a module global, so the wrapper
    # sees the order that apply_strategy puts the ensemble in.
    prepared = []
    prepare = core._prepare
    def record(ensemble, *args):
        prepared.append((ensemble, prepare(ensemble, *args)))
        return prepared[-1][1]
    monkeypatch.setattr(core, "_prepare", record)
    apply_strategy(TIE_RICH, strategy)
    [(ensemble, entries)] = prepared
    assert [ensemble.ids[i] for i in entries] == expected
    assert [ensemble.texts[i] for i in entries] == [TIE_RICH[m].text for m in expected]
    assert [ensemble.confs[i] for i in entries] == \
        [TIE_RICH[m].confidence for m in expected]


# No vote among these ties: d holds the top confidence alone, XY has three of
# four votes, and every length and position has a strict majority.
TIE_FREE = {"c": P("XY", 0.5), "d": P("XY", 0.9), "a": P("XZ", 0.7),
            "b": P("XY", 0.6)}

EVERY_STRATEGY = [
    pytest.param(FusionStrategy(name, ranking), id=f"{name}-{label}")
    for name in STRATEGY_NAMES
    for ranking, label in ((TIE_RICH_RANKING, "ranked"), (None, "unranked"))
    if ranking is not None or not name.endswith("-bm")
]


@pytest.mark.parametrize("predictions,calls", [
    pytest.param(TIE_FREE, 0, id="tie-free"),
    pytest.param(TIE_RICH, 1, id="tie-rich"),
])
@pytest.mark.parametrize("strategy", EVERY_STRATEGY)
def test_only_a_tied_vote_puts_the_ensemble_in_its_tiebreak_order(
        monkeypatch, strategy, predictions, calls):
    prepared = []
    prepare = core._prepare
    def record(*args):
        prepared.append(args)
        return prepare(*args)
    monkeypatch.setattr(core, "_prepare", record)
    result = apply_strategy(predictions, strategy)
    assert len(prepared) == calls
    assert result.tie_broken == bool(calls)


@pytest.mark.parametrize("fuse,name", [(hc_fuse, "hc"), (mv_fuse, "mv-bm"),
                                       (mvcp_fuse, "mvcp-bm")])
def test_an_incomplete_ranking_is_rejected_without_a_tie(fuse, name):
    # The vote needs no ranking here, yet every id is checked against it, and
    # the smallest missing one is named, whatever the map's order.
    message = r"^model 'a' is missing from the ranking$"
    with pytest.raises(errors.IncompleteRanking, match=message):
        fuse(TIE_FREE, ("d", "b"))
    with pytest.raises(errors.IncompleteRanking, match=message):
        apply_strategy(TIE_FREE, FusionStrategy(name, ("d", "b")))


# --- confidence normalization ---------------------------------------------------------

def _sample(idx, preds):
    return Sample(f"s{idx}", "d", None, preds)


def test_normalize_off_is_identity():
    samples = [_sample(0, {"m": P("A", 0.3)}), _sample(1, {"m": P("B", 0.9)})]
    assert normalize_confidences(samples, "off") == samples


def test_normalize_scales_by_model_mean():
    samples = [_sample(0, {"m": P("A", 0.5)}), _sample(1, {"m": P("B", 1.0)})]
    out = normalize_confidences(samples, "per-model-mean")
    # Reference computation: mean 0.75; 0.5/0.75 = 2/3; 1.0/0.75 clamps to 1.
    mean = (0.5 + 1.0) / 2
    assert out[0].predictions["m"].confidence == pytest.approx(0.5 / mean)
    assert out[1].predictions["m"].confidence == 1.0


@given(st.lists(st.tuples(st.sampled_from([("a", "b"), ("a", "c"), ("b",)]),
                          st.integers(1, 3), st.floats(0.0, 1.0)), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_normalize_matches_a_running_sum_per_model(runs):
    # Runs of samples sharing one ids tuple, as the loader and the generator
    # build them, and model sets that change between runs; the confidences
    # must match the reference bit for bit.
    samples, ids = [], ()
    for model_set, length, conf in runs:
        for i in range(length):
            confs = [conf * (i + 1) / length / (j + 1) for j in range(len(model_set))]
            e = Ensemble._trusted(model_set, ["A"] * len(model_set), confs, ids)
            ids = e.ids
            samples.append(Sample(f"s{len(samples)}", "d", None, e))
    out = normalize_confidences(samples, "per-model-mean")
    assert [tuple(map(float.hex, s.predictions.confs)) for s in out] == \
        [tuple(map(float.hex, c)) for c in reference_normalized_confidences(samples)]
    assert [s.predictions.ids for s in out] == [s.predictions.ids for s in samples]


def test_normalize_unknown_mode():
    with pytest.raises(errors.InvalidConfig):
        normalize_confidences([], "sigmoid")


def test_normalize_equal_means_preserves_mv_hc():
    # Two models with identical mean confidence; every decisive comparison sits
    # strictly below the mean so clamping cannot interfere.
    m1_conf = [0.9, 0.1, 0.3, 0.2, 0.25, 0.25]
    m2_conf = [0.1, 0.9, 0.2, 0.3, 0.25, 0.25]
    assert math.fsum(m1_conf) == math.fsum(m2_conf)
    m1_text = ["AA", "BB", "CC", "DD", "EE", "FF"]
    m2_text = ["AA", "BB", "XX", "YY", "ZZ", "FF"]
    samples = [
        _sample(i, {"m1": P(m1_text[i], m1_conf[i]), "m2": P(m2_text[i], m2_conf[i])})
        for i in range(6)
    ]
    scaled = normalize_confidences(samples, "per-model-mean")
    for before, after in zip(samples, scaled):
        assert mv_fuse(before.predictions).text == \
            mv_fuse(after.predictions).text
