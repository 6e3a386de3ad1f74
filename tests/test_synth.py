"""Unit tests for the synthetic generator, its estimator, and the oracles."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import P, TB_HC, random_ensemble, tb_bm
from oracles import (
    mvcp_accuracy_estimate,
    oracle_mv,
    oracle_mvcp_lengths,
    oracle_mvcp_positions,
    reference_generate,
    resolve_mv,
    resolve_mvcp,
)
from platefuse import (
    ErrorModel,
    SynthConfig,
    apply_strategy,
    errors,
    fileio,
    generate,
    mv_fuse,
    mvcp_fuse,
    parse_strategy,
    synth,
)


def _config(seed=42, n_models=3, n_samples=5, plate_length=7, **noise):
    return SynthConfig(
        seed=seed, n_models=n_models, n_samples=n_samples,
        plate_length=plate_length,
        per_model=tuple(ErrorModel(**noise) for _ in range(n_models)),
    )


# --- config validation -------------------------------------------------------

def test_error_model_ranges():
    with pytest.raises(errors.InvalidConfig):
        ErrorModel(per_char_sub_rate=0.5)
    with pytest.raises(errors.InvalidConfig):
        ErrorModel(insertion_rate=0.3)
    with pytest.raises(errors.InvalidConfig):
        ErrorModel(deletion_rate=-0.1)
    with pytest.raises(errors.InvalidConfig):
        ErrorModel(confidence_when_correct=(0.0, 0.1))
    # An integer past float range is an infinity, which the range checks reject.
    huge = 10 ** 400
    with pytest.raises(errors.InvalidConfig,
                       match=r"^confidence_when_correct mean must be in \(0, 1\]$"):
        ErrorModel(confidence_when_correct=(huge, 0.1))
    with pytest.raises(errors.InvalidConfig,
                       match=r"^confidence_when_wrong spread must be in \[0, 1\]$"):
        ErrorModel(confidence_when_wrong=(0.5, -huge))
    with pytest.raises(errors.InvalidConfig,
                       match=r"^insertion_rate must be in \[0, 0\.2\], got inf$"):
        ErrorModel(insertion_rate=huge)


def test_synth_config_validation():
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=-1, n_models=1, n_samples=1, plate_length=1)
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=0, n_models=0, n_samples=1, plate_length=1)
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=0, n_models=2, n_samples=1, plate_length=1,
                    per_model=(ErrorModel(),))
    with pytest.raises(errors.InvalidConfig):
        SynthConfig(seed=0, n_models=1, n_samples=1, plate_length=1,
                    alphabet="AAB")
    # A lone surrogate, which no written corpus could hold.
    with pytest.raises(errors.InvalidConfig,
                       match=r"^alphabet symbol '\\ud800' is not encodable as UTF-8$"):
        SynthConfig(seed=0, n_models=1, n_samples=1, plate_length=1,
                    alphabet="\ud800A")
    with pytest.raises(errors.InvalidConfig,
                       match=r"per_model\[1\] must be an ErrorModel"):
        SynthConfig(seed=0, n_models=2, n_samples=1, plate_length=1,
                    per_model=(ErrorModel(), {"per_char_sub_rate": 0.1}))
    with pytest.raises(errors.InvalidConfig,
                       match=r"^per_model must be a sequence of ErrorModel, got 5$"):
        SynthConfig(seed=0, n_models=1, n_samples=1, plate_length=1, per_model=5)
    with pytest.raises(errors.InvalidConfig, match=r"^n_models must be at most 1000$"):
        SynthConfig(seed=0, n_models=1001, n_samples=1, plate_length=1)
    with pytest.raises(errors.InvalidConfig, match=r"^plate_length must be at most 1000$"):
        SynthConfig(seed=0, n_models=1, n_samples=1, plate_length=1001)


def test_error_model_stores_integer_rates_as_floats():
    em = ErrorModel(per_char_sub_rate=0, confidence_when_correct=[1, 0])
    assert type(em.per_char_sub_rate) is float
    assert em.confidence_when_correct == (1.0, 0.0)


def test_default_error_models_fill_in():
    cfg = SynthConfig(seed=0, n_models=3, n_samples=1, plate_length=4)
    assert len(cfg.per_model) == 3


# --- generation ---------------------------------------------------------------

def test_zero_noise_reproduces_ground_truth():
    cfg = _config(per_char_sub_rate=0.0)
    samples = list(generate(cfg))
    assert len(samples) == 5
    for s in samples:
        assert set(s.predictions) == {"m00", "m01", "m02"}
        for p in s.predictions.values():
            assert p.text == s.ground_truth
        for name in ("hc", "mv-hc", "mvcp-hc"):
            strategy = parse_strategy(name, ("m00", "m01", "m02"))
            assert apply_strategy(s.predictions, strategy).text == s.ground_truth


def test_generation_is_deterministic():
    cfg = _config(per_char_sub_rate=0.25, insertion_rate=0.2, deletion_rate=0.1)
    assert list(generate(cfg)) == list(generate(cfg))


def test_seed_changes_corpus():
    a = list(generate(_config(seed=1, per_char_sub_rate=0.3)))
    b = list(generate(_config(seed=2, per_char_sub_rate=0.3)))
    assert a != b


def test_each_sample_draws_from_its_own_counter_region():
    # One Philox is re-keyed per sample and fills one row of a block. Each row
    # must be the one a fresh generator at counter index * 2**64 draws, also
    # where the index carries into the counter's third and fourth words, and
    # whatever the row before left in the buffer (41 draws leave three of a
    # four-word Philox block); the other rows are left as they were.
    seed, total = 2**64 - 3, 41
    fill = synth._sample_uniforms(seed)
    block = np.zeros((3, total))
    indices = (0, 1, 2**32 + 5, 2**64 - 1, 2**64 + 3, 2**128 + 7, 1, 0)
    for j, index in enumerate(indices):
        others = np.delete(block, j % 3, axis=0)
        fill(index, block[j % 3])
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=index * 2**64))
        assert block[j % 3].tolist() == fresh.random(total).tolist(), index
        assert np.array_equal(np.delete(block, j % 3, axis=0), others), index


def test_the_first_sample_comes_before_the_corpus_is_drawn():
    config = SynthConfig(seed=0, n_models=12, n_samples=10**9, plate_length=7)
    tracemalloc.start()
    try:
        first = next(generate(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.sample_id == "s" + "0" * 10
    assert peak < 2_000_000


def test_large_samples_are_drawn_in_small_blocks():
    # 100 models on 1000-symbol plates draw ~200k uniforms a sample, so a
    # block of 64 of them would hold ~100 MB; a block holds one.
    config = SynthConfig(seed=1, n_models=100, n_samples=synth._BLOCK,
                         plate_length=1000)
    tracemalloc.start()
    try:
        next(generate(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


@pytest.mark.parametrize("n", [1, synth._BLOCK - 1, synth._BLOCK + 3])
def test_a_longer_corpus_starts_with_the_shorter_one(n):
    noise = dict(per_char_sub_rate=0.2, insertion_rate=0.1, deletion_rate=0.1)
    short = list(generate(_config(n_samples=n, **noise)))
    longer = list(generate(_config(n_samples=n + synth._BLOCK + 1, **noise)))
    assert [(s.ground_truth, s.predictions) for s in short] == [
        (s.ground_truth, s.predictions) for s in longer[:n]]


def _dump(samples, path):
    fileio.dump_predictions(samples, path)
    return path.read_bytes()


@pytest.mark.parametrize("n_models, plate_length, n_samples", [
    (10, 100, 70),   # blocks of 31 samples
    (40, 900, 3),    # one sample a block
])
def test_large_samples_write_the_bytes_of_the_reference(n_models, plate_length, n_samples,
                                              tmp_path):
    config = _config(seed=9, n_models=n_models, n_samples=n_samples,
                     plate_length=plate_length, per_char_sub_rate=0.2,
                     insertion_rate=0.2, deletion_rate=0.2)
    assert _dump(generate(config), tmp_path / "a.jsonl") == _dump(
        reference_generate(config), tmp_path / "b.jsonl")


def test_noise_rates_apply():
    cfg = _config(n_samples=300, per_char_sub_rate=0.3,
                  insertion_rate=0.2, deletion_rate=0.2)
    samples = list(generate(cfg))
    lengths = {len(p.text) for s in samples for p in s.predictions.values()}
    assert lengths >= {6, 7, 8}  # deletions and insertions both fire
    wrong = sum(p.text != s.ground_truth
                for s in samples for p in s.predictions.values())
    assert wrong > 0
    # Confidences stay in range and texts stay in the alphabet.
    for s in samples:
        for p in s.predictions.values():
            assert 0.0 <= p.confidence <= 1.0
            assert set(p.text) <= set(cfg.alphabet)


def test_overconfident_uses_correct_distribution():
    base = dict(per_char_sub_rate=0.4, confidence_when_correct=(0.95, 0.02),
                confidence_when_wrong=(0.2, 0.05))
    cfg = SynthConfig(
        seed=7, n_models=1, n_samples=400, plate_length=6,
        per_model=(ErrorModel(overconfident=True, **base),),
    )
    samples = generate(cfg)
    wrong_confs = [
        p.confidence for s in samples for p in s.predictions.values()
        if p.text != s.ground_truth
    ]
    assert wrong_confs and min(wrong_confs) > 0.9


# Corpus bytes pinned per config. Together the configs exercise substitution,
# insertion, deletion (and the guard that keeps a one-symbol prediction), an
# overconfident model, confidences clamped at 0 and at 1, a non-default
# alphabet, integer rates of 0 and zero-padded sample ids.
PINNED_CORPORA = {
    "mixed": (
        SynthConfig(
            seed=2024, n_models=4, n_samples=120, plate_length=6,
            alphabet="XYZ0123", dataset="pins",
            per_model=(
                ErrorModel(per_char_sub_rate=0.3, insertion_rate=0.2,
                           deletion_rate=0.2,
                           confidence_when_correct=(0.9, 0.3),
                           confidence_when_wrong=(0.2, 0.5)),
                ErrorModel(per_char_sub_rate=0.25, overconfident=True,
                           confidence_when_wrong=(0.1, 0.2)),
                ErrorModel(per_char_sub_rate=0, insertion_rate=0,
                           deletion_rate=0.15),
                ErrorModel(per_char_sub_rate=0.1, insertion_rate=0.1),
            ),
        ),
        "7fa739183ad5a2b2be9497ca539d103ad097192e3c053ae288724dda3fe96ed4",
    ),
    "single_symbol": (
        SynthConfig(
            seed=7, n_models=3, n_samples=60, plate_length=1,
            per_model=(
                ErrorModel(deletion_rate=0.2),
                ErrorModel(insertion_rate=0.2, deletion_rate=0.2),
                ErrorModel(per_char_sub_rate=0.4),
            ),
        ),
        "6c4d4e9ff6e83e66b2a5f5b7df62dc35a8587f68faaec3d35bcf7bdbfb159c89",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CORPORA))
def test_generated_corpus_bytes_are_pinned(name, tmp_path):
    config, digest = PINNED_CORPORA[name]
    samples = list(generate(config))
    path = tmp_path / "corpus.jsonl"
    fileio.dump_predictions(samples, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    width = len(str(config.n_samples))
    assert samples[0].sample_id == "s" + "0" * width
    if name == "mixed":
        confs = {p.confidence for s in samples for p in s.predictions.values()}
        assert {0.0, 1.0} <= confs
        lengths = {len(p.text) for s in samples for p in s.predictions.values()}
        assert lengths == {5, 6, 7}


def test_estimator_requires_length_preserving_config():
    with pytest.raises(errors.InvalidConfig):
        mvcp_accuracy_estimate(_config(insertion_rate=0.1))


def test_estimator_matches_pipeline_at_small_scale():
    cfg = _config(seed=11, n_models=5, n_samples=1500, plate_length=5,
                  per_char_sub_rate=0.25)
    samples = generate(cfg)
    acc = np.mean([
        mvcp_fuse(s.predictions, TB_HC).text == s.ground_truth for s in samples
    ])
    est = mvcp_accuracy_estimate(cfg)
    assert abs(acc - est) < 0.03


# --- oracles ---------------------------------------------------------------------

FIG_H = {
    "ViTSTR-Base": P("MRU3095", 0.97),
    "STAR-Net": P("MR03095", 0.98),
    "TRBA": P("MRD3095", 0.72),
    "CR-NET": P("MRD3095", 0.94),
    "RARE": P("MRD3095", 0.87),
}

FIG_A = {
    "ViTSTR-Base": P("AIQ1Q56", 0.93),
    "STAR-Net": P("ATQ1056", 0.59),
    "TRBA": P("AIQ1056", 0.98),
    "CR-NET": P("AIQ1056", 0.82),
    "RARE": P("AIQ1Q56", 0.92),
}


def test_oracle_mv_unique_winner():
    tied, votes = oracle_mv(FIG_H)
    assert tied == ("MRD3095",)
    assert votes == 3


def test_oracle_mv_tied_set():
    tied, votes = oracle_mv(FIG_A)
    assert tied == ("AIQ1056", "AIQ1Q56")
    assert votes == 2


def test_oracle_mv_unanimity():
    preds = {m: P("AB1", 0.5) for m in "abc"}
    assert oracle_mv(preds) == (("AB1",), 3)


def test_oracle_mvcp_candidates():
    assert oracle_mvcp_lengths(FIG_A) == (7,)
    positions = oracle_mvcp_positions(FIG_A, 7)
    assert positions == [("A",), ("I",), ("Q",), ("1",), ("0",), ("5",), ("6",)]


def test_oracle_empty_ensemble():
    with pytest.raises(errors.EmptyEnsemble):
        oracle_mv({})


def test_resolvers_agree_with_fusion_on_random_ensembles():
    rng = np.random.default_rng(987)
    for _ in range(500):
        predictions, ranking = random_ensemble(rng)
        for tiebreak in (TB_HC, tb_bm(ranking)):
            mv = mv_fuse(predictions, tiebreak)
            tied, votes = oracle_mv(predictions)
            assert mv.winning_votes == votes
            assert mv.text in tied
            assert mv.text == resolve_mv(predictions, tiebreak)
            mvcp = mvcp_fuse(predictions, tiebreak)
            assert len(mvcp.text) in oracle_mvcp_lengths(predictions)
            for ch, cands in zip(
                mvcp.text, oracle_mvcp_positions(predictions, len(mvcp.text))
            ):
                assert ch in cands
            assert mvcp.text == resolve_mvcp(predictions, tiebreak)
