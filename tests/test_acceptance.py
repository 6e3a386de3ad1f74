"""Acceptance suite.

One test per release criterion, each enforcing its stated tolerance and
printing a ``[acceptance] ... PASS`` line (run ``pytest -s`` to see the lines
live). Tolerances are pinned here, not calibrated elsewhere:

1. Curated five-model disagreement cases fuse to their known outputs via the
   CLI (exact, < 1 s).
2. Macro-average rendering reproduces the published per-dataset rows
   ("92.4%", "97.6%") exactly after display rounding.
3. Cumulative ensemble latency on the shipped profiles matches the published
   column within 0.2 ms; rendered FPS within 2; speed ranking exact.
4. Kernel outputs agree with brute-force oracles over 10,000 random
   ensembles, including tie membership and independent tie resolution
   (0 failures, < 30 s).
5. Six fusion invariants hold over 1,000 randomized cases each (0 failures).
6. Positional-vote fusion beats the best single model by >= 30 points and
   tracks the Monte Carlo estimator within 2 points on every seed (< 60 s).
7. Length noise degrades the positional vote relative to the sequence vote
   in >= 7 of 10 seeds.
8. Per-model mean scaling leaves sequence-vote outputs unchanged for models
   whose confidences differ by a uniform factor.
"""

import math
import time

import numpy as np

from conftest import SHOWCASE_PATH, P, random_ensemble
from oracles import (
    mvcp_accuracy_estimate,
    oracle_mv,
    oracle_mvcp_lengths,
    oracle_mvcp_positions,
    resolve_hc,
    resolve_mv,
    resolve_mvcp,
)
from platefuse import (
    DatasetReport,
    ErrorModel,
    Sample,
    SynthConfig,
    cli,
    ensemble_latency,
    fileio,
    generate,
    hc_fuse,
    macro_average,
    mv_fuse,
    mvcp_fuse,
    normalize_confidences,
    per_model_accuracy,
    rank_models,
)


def _report(line: str) -> None:
    print(f"[acceptance] {line}")


# --- 1. golden fusion cases via the CLI ------------------------------------------

CLI_GOLDEN = {
    "case-a": "AIQ1056",
    "case-e": "KRM7E95",
    "case-f": "Y88096",
    "case-g": "HLP4594",
    "case-h": "MRD3095",
}


def test_criterion_1_showcase_goldens_via_cli(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "fused.jsonl"
    code = cli.main(["fuse", "--input", str(SHOWCASE_PATH),
                     "--strategy", "mv-hc", "--output", str(out)])
    assert code == 0
    texts = {r.sample_id: r.text for r in fileio.load_fused(out)}
    for sample_id, expected in CLI_GOLDEN.items():
        assert texts[sample_id] == expected, sample_id
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"criterion 1 (golden fusion cases, {elapsed:.2f}s): PASS")


# --- 2. macro-average rendering -----------------------------------------------------

def test_criterion_2_macro_average_rendering():
    rows = {
        "92.4%": [87.0, 88.2, 86.7, 96.9, 99.4, 95.8, 89.7, 95.6],
        "97.6%": [97.8, 97.1, 100.0, 98.1, 99.7, 99.1, 92.3, 96.5],
    }
    for expected, percents in rows.items():
        reports = [
            DatasetReport(f"d{i}", 1000, round(v * 10))
            for i, v in enumerate(percents)
        ]
        rendered = fileio.format_percent(macro_average(reports))
        assert rendered == expected
        table = fileio.render_report(reports, "table")
        assert table.rstrip().endswith(expected)
    _report("criterion 2 (macro-average rendering 92.4% / 97.6%): PASS")


# --- 3. latency accounting and rankings -----------------------------------------------

EXPECTED_CUMULATIVE_MS = [7.3, 14.4, 31.3, 36.6, 49.6, 52.6,
                          57.2, 59.7, 68.2, 84.2, 87.1, 89.4]
EXPECTED_FPS = [137, 70, 32, 27, 20, 19, 18, 17, 15, 12, 11, 11]
EXPECTED_SPEED_ORDER = [
    "Multi-Task-LR", "Holistic-CNN", "CRNN", "Fast-OCR", "Rosetta",
    "CR-NET", "STAR-Net", "ViTSTR-Base", "GRCNN", "RARE", "R2AM", "TRBA",
]


def test_criterion_3_latency_accounting(tmp_path):
    profiles = fileio.load_stock_profiles()
    ordered = [
        next(p for p in profiles if p.model_id == m)
        for m in rank_models(profiles, "accuracy")
    ]
    for n, (expected_ms, expected_fps) in enumerate(
        zip(EXPECTED_CUMULATIVE_MS, EXPECTED_FPS), start=1
    ):
        latency, fps = ensemble_latency(ordered, n)
        assert abs(latency - expected_ms) <= 0.2, n
        assert abs(int(fileio.format_fps(fps)) - expected_fps) <= 2, n
    assert rank_models(profiles, "speed") == EXPECTED_SPEED_ORDER

    # Same column through the sweep command on a corpus covering all models.
    corpus = tmp_path / "corpus.jsonl"
    fileio.dump_predictions(
        [Sample(f"s{i}", "d", "AB12",
                {p.model_id: P("AB12", 0.4 + 0.04 * j)
                 for j, p in enumerate(profiles)})
         for i in range(3)],
        corpus,
    )
    profiles_path = tmp_path / "profiles.jsonl"
    fileio.dump_profiles(profiles, profiles_path)
    sweep_out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--input", str(corpus),
                     "--profiles", str(profiles_path),
                     "--rank", "accuracy", "--strategies", "mv-hc",
                     "--output", str(sweep_out)])
    assert code == 0
    rows = [line.split(",") for line in sweep_out.read_text().splitlines()[1:]]
    for row, expected_ms in zip(rows, EXPECTED_CUMULATIVE_MS):
        assert abs(float(row[-2]) - expected_ms) <= 0.2
    _report("criterion 3 (latency accounting, FPS rendering, speed order): PASS")


# --- 4. oracle equivalence over 10,000 random ensembles ----------------------------------

def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    failures = 0
    tied_mv = tied_mvcp = 0
    for _ in range(10_000):
        predictions, ranking = random_ensemble(rng)
        for tiebreak in (None, ranking):
            mv = mv_fuse(predictions, tiebreak)
            tied, votes = oracle_mv(predictions)
            tied_mv += len(tied) > 1
            if mv.winning_votes != votes or mv.text not in tied:
                failures += 1
            if mv.text != resolve_mv(predictions, tiebreak):
                failures += 1
            mvcp = mvcp_fuse(predictions, tiebreak)
            lengths = oracle_mvcp_lengths(predictions)
            tied_mvcp += len(lengths) > 1
            if len(mvcp.text) not in lengths:
                failures += 1
            positions = oracle_mvcp_positions(predictions, len(mvcp.text))
            if any(ch not in cands for ch, cands in zip(mvcp.text, positions)):
                failures += 1
            if mvcp.text != resolve_mvcp(predictions, tiebreak):
                failures += 1
        hc = hc_fuse(predictions, ranking)
        if hc.text != resolve_hc(predictions, ranking):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    # The harness must actually exercise ties for the check to mean anything.
    assert tied_mv > 1000 and tied_mvcp > 500
    assert elapsed < 30.0
    _report(f"criterion 4 (oracle equivalence, 10,000 ensembles, "
            f"{elapsed:.1f}s, {tied_mv} vote ties seen): PASS")


# --- 5. invariant suite, 1,000 cases each ---------------------------------------------

CASES = 1000


def _random_text(rng, length=None):
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    n = length or int(rng.integers(4, 9))
    return "".join(alphabet[c] for c in rng.integers(0, 36, size=n))


def test_criterion_5_invariant_suite():
    rng = np.random.default_rng(55_000)
    grid = [i / 20 for i in range(1, 21)]

    for _ in range(CASES):  # unanimity
        predictions, ranking = random_ensemble(rng)
        text = _random_text(rng)
        forced = {m: P(text, p.confidence) for m, p in predictions.items()}
        for tiebreak in (None, ranking):
            assert mv_fuse(forced, tiebreak).text == text
            assert mvcp_fuse(forced, tiebreak).text == text
        assert hc_fuse(forced, ranking).text == text

    for _ in range(CASES):  # singleton identity
        text = _random_text(rng)
        conf = grid[int(rng.integers(len(grid)))]
        single = {"only": P(text, conf)}
        assert hc_fuse(single, ("only",)).text == text
        for tiebreak in (None, ("only",)):
            assert mv_fuse(single, tiebreak).text == text
            assert mvcp_fuse(single, tiebreak).text == text

    for _ in range(CASES):  # strict-majority dominance
        predictions, _ = random_ensemble(rng, max_models=4)
        text = _random_text(rng)
        majority = {
            f"w{j:02d}": P(text, grid[int(rng.integers(len(grid)))])
            for j in range(len(predictions) + 1)
        }
        merged = {**predictions, **majority}
        ranking = tuple(sorted(merged))
        for tiebreak in (None, ranking):
            assert mv_fuse(merged, tiebreak).text == text

    transforms = [lambda c: c / 2, lambda c: 0.25 + c / 2,
                  lambda c: c * c, math.sqrt]
    for i in range(CASES):  # highest-confidence argmax invariance
        predictions, ranking = random_ensemble(rng)
        transform = transforms[i % len(transforms)]
        rescaled = {m: P(p.text, transform(p.confidence))
                    for m, p in predictions.items()}
        assert hc_fuse(rescaled, ranking).text == \
            hc_fuse(predictions, ranking).text

    for _ in range(CASES):  # permutation invariance
        predictions, ranking = random_ensemble(rng)
        items = list(predictions.items())
        order = rng.permutation(len(items))
        reordered = {items[j][0]: items[j][1] for j in order}
        for tiebreak in (None, ranking):
            assert mv_fuse(predictions, tiebreak) == mv_fuse(reordered, tiebreak)
            assert mvcp_fuse(predictions, tiebreak) == \
                mvcp_fuse(reordered, tiebreak)
        assert hc_fuse(predictions, ranking) == hc_fuse(reordered, ranking)

    for _ in range(CASES):  # determinism
        predictions, ranking = random_ensemble(rng)
        clone = {m: P(p.text, p.confidence) for m, p in predictions.items()}
        for tiebreak in (None, ranking):
            assert mv_fuse(predictions, tiebreak) == mv_fuse(clone, tiebreak)
            assert mvcp_fuse(predictions, tiebreak) == \
                mvcp_fuse(clone, tiebreak)
        assert hc_fuse(predictions, ranking) == hc_fuse(clone, ranking)

    _report(f"criterion 5 (six invariants x {CASES} randomized cases): PASS")


# --- 6. positional fusion beats single models ---------------------------------------------

def _noise_config(seed, sub, n_samples, ins=0.0, dele=0.0):
    return SynthConfig(
        seed=seed, n_models=7, n_samples=n_samples, plate_length=7,
        per_model=tuple(
            ErrorModel(per_char_sub_rate=sub, insertion_rate=ins,
                       deletion_rate=dele)
            for _ in range(7)
        ),
    )


def test_criterion_6_fusion_benefit():
    start = time.perf_counter()
    # Rigorous floor: a position can only be lost when >= 4 of 7 models
    # substitute there, so sequence accuracy is at least (1 - P[>=4])^7.
    p_ge4 = sum(
        math.comb(7, k) * 0.2 ** k * 0.8 ** (7 - k) for k in range(4, 8)
    )
    floor = (1.0 - p_ge4) ** 7
    mvcp_accs, best_accs = [], []
    for seed in range(10):
        config = _noise_config(seed, sub=0.2, n_samples=10_000)
        samples = list(generate(config))
        mvcp_acc = sum(
            mvcp_fuse(s.predictions).text == s.ground_truth
            for s in samples
        ) / len(samples)
        best_single = max(per_model_accuracy(samples).values())
        estimate = mvcp_accuracy_estimate(config)
        assert mvcp_acc - best_single >= 0.30, seed
        assert abs(mvcp_acc - estimate) <= 0.02, seed
        assert mvcp_acc >= floor, seed
        mvcp_accs.append(mvcp_acc)
        best_accs.append(best_single)
    assert np.mean(mvcp_accs) >= np.mean(best_accs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "criterion 6 (positional fusion "
        f"{np.mean(mvcp_accs):.3f} vs best single {np.mean(best_accs):.3f}, "
        f"10 seeds, {elapsed:.1f}s): PASS"
    )


# --- 7. length noise hurts the positional vote more ------------------------------------------

def test_criterion_7_length_noise_sensitivity():
    reduced = dropped = 0
    for seed in range(10):
        margins = {}
        accs = {}
        for label, (ins, dele) in {
            "clean": (0.0, 0.0), "noisy": (0.2, 0.2)
        }.items():
            samples = list(generate(
                _noise_config(seed, sub=0.1, n_samples=4000, ins=ins, dele=dele)
            ))
            mv_acc = sum(
                mv_fuse(s.predictions).text == s.ground_truth
                for s in samples
            ) / len(samples)
            mvcp_acc = sum(
                mvcp_fuse(s.predictions).text == s.ground_truth
                for s in samples
            ) / len(samples)
            margins[label] = mvcp_acc - mv_acc
            accs[label] = mvcp_acc
        reduced += margins["noisy"] < margins["clean"]
        dropped += accs["noisy"] < accs["clean"]
        # Length noise never helps the positional vote beyond seed noise.
        assert accs["noisy"] <= accs["clean"] + 0.01, seed
    assert reduced >= 7
    assert dropped >= 6
    _report(f"criterion 7 (length noise cuts positional-vote margin in "
            f"{reduced}/10 seeds): PASS")


# --- 8. mean scaling preserves sequence-vote outputs ------------------------------------------

def test_criterion_8_mean_scaling_preserves_mv_hc():
    # Two models whose confidences differ by the exactly representable factor
    # 0.5, with per-model means that are exact powers of two: scaling is then
    # exact in IEEE arithmetic and post-scaling ties resolve deterministically.
    base_confs = [0.25, 0.75] * 6
    texts_m1 = ["AAA1", "BBB2", "CCC3", "DDD4"] * 3
    texts_m2 = ["AAA1", "XXX2", "CCC3", "YYY4"] * 3  # disagree on half
    samples = [
        Sample(f"s{i:02d}", "lab", None, {
            "m1": P(texts_m1[i], base_confs[i]),
            "m2": P(texts_m2[i], base_confs[i] * 0.5),
        })
        for i in range(12)
    ]
    scaled = normalize_confidences(samples, "per-model-mean")
    changed = sum(
        scaled[i].predictions["m1"].confidence
        != samples[i].predictions["m1"].confidence
        for i in range(12)
    )
    assert changed > 0  # the ablation switch really rescaled something
    for before, after in zip(samples, scaled):
        assert mv_fuse(before.predictions).text == \
            mv_fuse(after.predictions).text
    _report("criterion 8 (mean scaling preserves sequence-vote outputs): PASS")
