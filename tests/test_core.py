"""Unit tests for normalization, domain types, and the five fusion strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, TB_HC, TOP5_RANKING, random_ensemble, tb_bm
from oracles import (
    normalize_by_table,
    oracle_mv,
    oracle_mvcp_lengths,
    oracle_mvcp_positions,
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
    StrategyKind,
    TieBreak,
    TieBreakKind,
    apply_strategy,
    errors,
    hc_fuse,
    mv_fuse,
    mvcp_fuse,
    normalize_confidences,
    normalize_text,
    parse_strategy,
)
from platefuse import backend_name, core, kernels


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


def test_ensemble_checks_its_fields():
    ensemble = Ensemble(["a", "b"], ["X", "Y"], [1, 0.5])
    assert ensemble.confs == (1.0, 0.5) and type(ensemble.confs[0]) is float
    assert ensemble == {"b": P("Y", 0.5), "a": P("X", 1.0)}
    for other in (Ensemble(["a", "b"], ["X", "Y"], [1, 0.25]),
                  Ensemble(["a", "b"], ["X", "Z"], [1, 0.5]),
                  Ensemble(["a", "c"], ["X", "Y"], [1, 0.5])):
        assert ensemble != other
    for fields, error, message in [
        ((["b", "a"], ["X", "Y"], [0.1, 0.2]), errors.InvalidConfig,
         "model ids must be strictly increasing"),
        ((["a", "a"], ["X", "Y"], [0.1, 0.2]), errors.InvalidConfig,
         "model ids must be strictly increasing"),
        ((["a"], ["X", "Y"], [0.1]), errors.InvalidConfig, "differ in length"),
        (("ab", "XY", [0.1, 0.2]), errors.InvalidConfig, "ids must be a sequence"),
        ((["a", ""], ["X", "Y"], [0.1, 0.2]), errors.InvalidConfig,
         "model id must be a non-empty string"),
        ((["a"], [""], [0.1]), errors.EmptyAfterNormalization, "text is empty"),
        ((["a"], ["X"], [1.5]), errors.InvalidConfidence, "outside"),
    ]:
        with pytest.raises(error, match=message):
            Ensemble(*fields)
    with pytest.raises(errors.InvalidConfig, match="must be a Prediction"):
        Sample("s", "d", None, {"m": ("A", 0.5)})
    with pytest.raises(AttributeError):
        ensemble.ids = ("c",)
    with pytest.raises(errors.EmptyEnsemble):
        hc_fuse(Ensemble(), None)


def test_tiebreak_validation():
    with pytest.raises(errors.InvalidConfig):
        TieBreak(TieBreakKind.BEST_MODEL)
    with pytest.raises(errors.InvalidConfig):
        TieBreak(TieBreakKind.BEST_MODEL, ("a", "a"))
    bm, hc = TieBreakKind.BEST_MODEL, TieBreakKind.HIGHEST_CONFIDENCE
    for kind, ranking, message in [
        ("bm", ("a",), r"^tie-break kind must be a TieBreakKind, got 'bm'$"),
        (bm, 5, r"^tie-break ranking must be a sequence of model ids, got 5$"),
        (bm, "m1", r"^tie-break ranking must be a sequence of model ids, got 'm1'$"),
        (bm, [[1]], r"^tie-break ranking entry must be a non-empty string$"),
        (bm, [1, 2], r"^tie-break ranking entry must be a non-empty string$"),
        (hc, ["a", ""], r"^tie-break ranking entry must be a non-empty string$"),
    ]:
        with pytest.raises(errors.InvalidConfig, match=message):
            TieBreak(kind, ranking)


def test_strategy_rejects_malformed_fields():
    with pytest.raises(errors.InvalidConfig,
                       match=r"^strategy kind must be a StrategyKind, got 'mv'$"):
        FusionStrategy("mv", tb_bm(("a", "b")))
    with pytest.raises(errors.InvalidConfig, match=r"^tiebreak must be a TieBreak, got 'bm'$"):
        FusionStrategy(StrategyKind.MV, "bm")


def test_strategy_requires_tiebreak_for_votes():
    with pytest.raises(errors.InvalidConfig):
        FusionStrategy(StrategyKind.MV)
    assert FusionStrategy(StrategyKind.HC).name == "hc"


def test_parse_strategy_spellings():
    assert parse_strategy("hc").name == "hc"
    assert parse_strategy("mv-hc").name == "mv-hc"
    assert parse_strategy("mvcp-hc").name == "mvcp-hc"
    assert parse_strategy("mv-bm", ("a", "b")).name == "mv-bm"
    assert parse_strategy("mvcp-bm", ("a", "b")).name == "mvcp-bm"
    with pytest.raises(errors.InvalidConfig):
        parse_strategy("mv")
    with pytest.raises(errors.InvalidConfig):
        parse_strategy("mv-bm")
    # A bare string is not split into one-character model ids.
    for name in ("hc", "mv-bm", "mvcp-bm"):
        with pytest.raises(errors.InvalidConfig,
                           match=r"^tie-break ranking must be a sequence"):
            parse_strategy(name, "m1")
    assert parse_strategy("mv-bm", ["m1"]).tiebreak.ranking == ("m1",)


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
    result = mv_fuse(preds, TB_HC)
    assert result.text == "MRD3095"
    assert result.winning_votes == 3
    assert not result.tie_broken
    assert result.contributors == frozenset({"TRBA", "CR-NET", "RARE"})


def test_mv_tie_resolved_by_confidence():
    result = mv_fuse(FIG_A, TB_HC)
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
    result = mv_fuse(preds, TB_HC)
    assert result.text == "HLP4594"
    assert result.winning_votes == 2
    assert not result.tie_broken


def test_mv_unanimity():
    preds = {m: P("XYZ999", c) for m, c in
             [("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4), ("e", 0.5)]}
    result = mv_fuse(preds, TB_HC)
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
    result = mv_fuse(preds, tb_bm(("e", "b", "a", "c", "d")))
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
    result = mvcp_fuse(preds, TB_HC)
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
    assert mvcp_fuse(preds, TB_HC).text == "KRM7E95"


def test_mvcp_length_majority():
    preds = {"a": P("ABC12", 0.9), "b": P("ABC123", 0.8), "c": P("ABC123", 0.7)}
    result = mvcp_fuse(preds, TB_HC)
    assert result.text == "ABC123"
    assert not result.tie_broken


def test_mvcp_unanimity():
    preds = {m: P("AB1", 0.5) for m in "abcde"}
    assert mvcp_fuse(preds, TB_HC).text == "AB1"


def test_mvcp_short_predictions_skip_late_positions():
    preds = {"a": P("AB", 0.9), "b": P("ABC", 0.1), "c": P("ABC", 0.2)}
    result = mvcp_fuse(preds, TB_HC)
    assert result.text == "ABC"


def test_mvcp_length_tie_uses_tiebreak():
    preds = {"x": P("AB", 0.5), "y": P("ABCD", 0.9)}
    assert mvcp_fuse(preds, TB_HC).text == "ABCD"  # y is more confident
    assert mvcp_fuse(preds, tb_bm(("x", "y"))).text == "AB"
    assert mvcp_fuse(preds, TB_HC).tie_broken


def test_mvcp_positional_tie_uses_sequence_confidence():
    preds = {"a": P("AX", 0.9), "b": P("AY", 0.8), "c": P("AZ", 0.7)}
    assert mvcp_fuse(preds, TB_HC).text == "AX"
    assert mvcp_fuse(preds, tb_bm(("c", "b", "a"))).text == "AZ"


def test_mvcp_empty_ensemble():
    with pytest.raises(errors.EmptyEnsemble):
        mvcp_fuse({}, TB_HC)


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


def test_tie_flags_and_contributors_match_oracles():
    rng = np.random.default_rng(4242)
    ensembles = CURATED_ENSEMBLES + [random_ensemble(rng) for _ in range(2000)]
    tied_mv = tied_mvcp = 0
    for predictions, ranking in ensembles:
        top_conf = max(p.confidence for p in predictions.values())
        hc = hc_fuse(predictions, ranking)
        assert hc.text == resolve_hc(predictions, ranking)
        assert hc.tie_broken == (
            sum(p.confidence == top_conf for p in predictions.values()) > 1)
        assert hc.contributors == {
            m for m, p in predictions.items() if p.text == hc.text}
        for tiebreak in (TB_HC, tb_bm(ranking)):
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
    # Both outcomes of each flag must occur for the check to mean anything.
    runs = 2 * len(ensembles)
    assert 0 < tied_mv < runs and 0 < tied_mvcp < runs


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
def test_sweep_reuse_rules(predictions, data):
    # The two rules sweep_top_n uses to skip a fusion, checked against
    # apply_strategy and the independent resolvers.
    ranking = tuple(data.draw(st.permutations(sorted(predictions))))
    tiebreaks = (TB_HC, tb_bm(ranking))
    resolvers = {StrategyKind.MV: resolve_mv, StrategyKind.MVCP: resolve_mvcp}
    # Rule 1: a vote that needed no tie-break gives its text under either.
    for kind, resolve in resolvers.items():
        for tiebreak in tiebreaks:
            result = apply_strategy(predictions, FusionStrategy(kind, tiebreak))
            assert result.text == resolve(predictions, tiebreak)
            if not result.tie_broken:
                for other in tiebreaks:
                    assert apply_strategy(
                        predictions, FusionStrategy(kind, other)).text == result.text
                    assert resolve(predictions, other) == result.text
    # The same holds for hc with and without a ranking.
    hc = apply_strategy(predictions, FusionStrategy(StrategyKind.HC))
    if not hc.tie_broken:
        assert hc_fuse(predictions, ranking).text == hc.text
        assert resolve_hc(predictions, ranking) == hc.text
    # Rule 2: a strict mv majority is the mvcp text, with no tie-break.
    for tiebreak in tiebreaks:
        mv = apply_strategy(predictions, FusionStrategy(StrategyKind.MV, tiebreak))
        if 2 * mv.winning_votes > len(predictions):
            for other in tiebreaks:
                mvcp = apply_strategy(
                    predictions, FusionStrategy(StrategyKind.MVCP, other))
                assert mvcp.text == mv.text and not mvcp.tie_broken
                assert resolve_mvcp(predictions, other) == mv.text


@given(predictions=TIE_RICH_ENSEMBLES)
@settings(max_examples=300)
def test_hc_without_a_ranking_settles_confidence_ties_by_model_id(predictions):
    # The ensembles are built in arbitrary key order, so an exact confidence
    # tie must go to the smallest model id, not to the first one inserted:
    # in hc without a ranking and among the voters of the -hc tie-break.
    assert hc_fuse(predictions, None).text == resolve_hc(predictions, sorted(predictions))
    assert mv_fuse(predictions, TB_HC).text == resolve_mv(predictions, TB_HC)
    assert mvcp_fuse(predictions, TB_HC).text == resolve_mvcp(predictions, TB_HC)


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
        strategy = parse_strategy(name, TOP5_RANKING)
        assert apply_strategy(FIG_A, strategy).text == expected, name


# Inserted out of id order; b and d share the top confidence, a and c the
# bottom one.
TIE_RICH = {"c": P("X", 0.5), "d": P("Y", 0.9), "a": P("X", 0.5),
            "b": P("Y", 0.9)}
TIE_RICH_RANKING = ("c", "a", "d", "b")


@pytest.mark.parametrize("strategy,expected", [
    pytest.param(parse_strategy("hc", TIE_RICH_RANKING), ["c", "a", "d", "b"],
                 id="hc"),
    pytest.param(parse_strategy("mv-bm", TIE_RICH_RANKING), ["c", "a", "d", "b"],
                 id="mv-bm"),
    pytest.param(parse_strategy("mvcp-bm", TIE_RICH_RANKING),
                 ["c", "a", "d", "b"], id="mvcp-bm"),
    pytest.param(parse_strategy("mv-hc", TIE_RICH_RANKING), ["b", "d", "a", "c"],
                 id="mv-hc"),
    pytest.param(parse_strategy("mvcp-hc", TIE_RICH_RANKING),
                 ["b", "d", "a", "c"], id="mvcp-hc"),
    pytest.param(parse_strategy("hc"), ["a", "b", "c", "d"], id="hc-no-ranking"),
    pytest.param(FusionStrategy(StrategyKind.HC, TB_HC), ["a", "b", "c", "d"],
                 id="hc-highest-confidence"),
])
def test_each_strategy_puts_the_ensemble_in_its_tiebreak_order(strategy, expected):
    ids, texts, confs = core._prepare(TIE_RICH, strategy.order)
    assert ids == expected
    assert texts == [TIE_RICH[m].text for m in expected]
    assert confs == [TIE_RICH[m].confidence for m in expected]


# --- confidence normalization ---------------------------------------------------------

def _sample(idx, preds):
    return Sample(f"s{idx}", "d", None, preds)


def test_normalize_off_is_identity():
    samples = [_sample(0, {"m": P("A", 0.3)}), _sample(1, {"m": P("B", 0.9)})]
    assert normalize_confidences(samples, "off") == samples


def test_normalize_scales_by_model_mean():
    samples = [_sample(0, {"m": P("A", 0.5)}), _sample(1, {"m": P("B", 1.0)})]
    out = normalize_confidences(samples, "per_model_mean_scaling")
    # Reference computation: mean 0.75; 0.5/0.75 = 2/3; 1.0/0.75 clamps to 1.
    mean = (0.5 + 1.0) / 2
    assert out[0].predictions["m"].confidence == pytest.approx(0.5 / mean)
    assert out[1].predictions["m"].confidence == 1.0


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
    scaled = normalize_confidences(samples, "per_model_mean_scaling")
    for before, after in zip(samples, scaled):
        assert mv_fuse(before.predictions, TB_HC).text == \
            mv_fuse(after.predictions, TB_HC).text
