"""Brute-force voting oracles used to cross-check the fusion kernels.

Deliberately naive and structurally unlike :mod:`platefuse.core`: exhaustive
``Counter`` tallies plus ``min``/``max`` over flattened candidate tuples, with
no shared code. The ``oracle_*`` functions expose the full tied sets so tests
can assert that a kernel's choice is a member; the ``resolve_*`` functions
re-derive the final answer from the tie-break rules on their own.
:func:`normalize_by_table` is text normalization without its shortcut, and
:func:`reference_recognition_rate` scores a whole corpus against a map of
fused texts, the readable counterpart of the counts the CLI and the sweep
keep while the corpus streams.

:func:`reference_normalized_confidences` is per-model-mean rescaling with
one running sum per model id, one sample at a time.

:func:`mvcp_accuracy_estimate` is the generator's counterpart: a vectorized
Monte Carlo re-implementation of the noise protocol of
:mod:`platefuse.synth` with its own positional vote. It draws from the same
keyed generator at counter ``2**128`` (disjoint from every sample region), so
it is statistically independent of the corpus while still fully determined by
the seed.

:func:`reference_generate` is the generator's readable reference semantics:
the noise protocol of :mod:`platefuse.synth` applied as written, one sample
and one prediction at a time, to each sample's uniforms drawn from a fresh
Philox at that sample's counter.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

import numpy as np

from platefuse import errors
from platefuse.core import Ensemble, Prediction, Sample, _symbol_table
from platefuse.scoring import DatasetReport
from platefuse.synth import SynthConfig

_ESTIMATOR_COUNTER = 1 << 128


def _require(predictions: Mapping[str, Prediction]) -> None:
    if not predictions:
        raise errors.EmptyEnsemble("no predictions to fuse")


def oracle_mv(predictions: Mapping[str, Prediction]) -> tuple[tuple[str, ...], int]:
    """All texts sharing the maximal vote count, sorted, plus that count."""
    _require(predictions)
    counts = Counter(p.text for p in predictions.values())
    top = max(counts.values())
    return tuple(sorted(t for t, c in counts.items() if c == top)), top


def oracle_mvcp_lengths(predictions: Mapping[str, Prediction]) -> tuple[int, ...]:
    """All lengths sharing the maximal vote count, sorted."""
    _require(predictions)
    counts = Counter(len(p.text) for p in predictions.values())
    top = max(counts.values())
    return tuple(sorted(v for v, c in counts.items() if c == top))


def oracle_mvcp_positions(predictions: Mapping[str, Prediction],
                          length: int) -> list[tuple[str, ...]]:
    """Per-position tied character sets for an output of ``length``."""
    _require(predictions)
    out = []
    for pos in range(length):
        counts = Counter(
            p.text[pos] for p in predictions.values() if len(p.text) > pos
        )
        top = max(counts.values())
        out.append(tuple(sorted(ch for ch, c in counts.items() if c == top)))
    return out


def _break_tie(predictions, ranking, tied, value_of, eligible):
    """Pick the winning value among ``tied``: the best-ranked predictor's in
    ``ranking``, or without one the most confident predictor's."""
    pool = [
        (model_id, p)
        for model_id, p in predictions.items()
        if eligible(p) and value_of(p) in tied
    ]
    if ranking is None:
        # Highest confidence wins; exact ties go to the smallest model id.
        best = min(pool, key=lambda mp: (-mp[1].confidence, mp[0]))
    else:
        position = {m: i for i, m in enumerate(ranking)}
        best = min(pool, key=lambda mp: position[mp[0]])
    return value_of(best[1])


def resolve_hc(predictions: Mapping[str, Prediction],
               ranking) -> str:
    """Independent highest-confidence selection with rank-ordered tie fallback."""
    _require(predictions)
    position = {m: i for i, m in enumerate(ranking)}
    best = min(
        predictions.items(),
        key=lambda mp: (-mp[1].confidence, position[mp[0]]),
    )
    return best[1].text


def resolve_mv(predictions: Mapping[str, Prediction], ranking) -> str:
    """Independent whole-sequence vote resolution."""
    tied, _ = oracle_mv(predictions)
    if len(tied) == 1:
        return tied[0]
    return _break_tie(
        predictions, ranking, set(tied),
        value_of=lambda p: p.text,
        eligible=lambda p: True,
    )


def resolve_mvcp(predictions: Mapping[str, Prediction], ranking) -> str:
    """Independent per-position vote resolution."""
    lengths = oracle_mvcp_lengths(predictions)
    if len(lengths) == 1:
        length = lengths[0]
    else:
        length = _break_tie(
            predictions, ranking, set(lengths),
            value_of=lambda p: len(p.text),
            eligible=lambda p: True,
        )
    chars = []
    for pos, tied in enumerate(oracle_mvcp_positions(predictions, length)):
        if len(tied) == 1:
            chars.append(tied[0])
            continue
        chars.append(_break_tie(
            predictions, ranking, set(tied),
            value_of=lambda p: p.text[pos],
            eligible=lambda p: len(p.text) > pos,
        ))
    return "".join(chars)


def normalize_by_table(raw: str, alphabet: str) -> str:
    """:func:`platefuse.core.normalize_text` with no already-normalized shortcut.

    Every character is looked up in the symbol table. The table is shared
    with the code under test on purpose: this checks the shortcut, and other
    tests check the table.
    """
    table = _symbol_table(alphabet)
    out = []
    for ch in raw:
        if ch not in table:
            raise errors.SymbolOutsideAlphabet(
                f"symbol {ch!r} in {raw!r} is not in the alphabet")
        out.append(table[ch])
    text = "".join(out)
    if not text:
        raise errors.EmptyAfterNormalization(
            f"nothing left of {raw!r} after normalization")
    return text


def reference_recognition_rate(samples: Iterable[Sample],
                               fused: Mapping[str, str]) -> list[DatasetReport]:
    """Per-dataset exact-match reports of ``fused`` texts, scored in one place.

    ``fused`` maps sample id -> fused text and must cover every sample; each
    sample needs a ground truth. Reports come back sorted by dataset name.
    """
    totals: dict[str, int] = {}
    corrects: dict[str, int] = {}
    for s in samples:
        if s.sample_id not in fused:
            raise errors.UncoveredSample(
                f"no fused output for sample {s.sample_id!r}")
        if s.ground_truth is None:
            raise errors.MissingGroundTruth(
                f"sample {s.sample_id!r} has no ground truth")
        totals[s.dataset] = totals.get(s.dataset, 0) + 1
        if fused[s.sample_id] == s.ground_truth:
            corrects[s.dataset] = corrects.get(s.dataset, 0) + 1
    if not totals:
        raise errors.EmptyInput("no samples to score")
    return [DatasetReport(d, totals[d], corrects.get(d, 0)) for d in sorted(totals)]


def reference_normalized_confidences(samples: list[Sample]) -> list[tuple[float, ...]]:
    """Each sample's confidences divided by its model's corpus-wide mean and
    clamped to 1; a model whose mean is zero is left unscaled."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in samples:
        for m in s.predictions:
            sums[m] = sums.get(m, 0.0) + s.predictions[m].confidence
            counts[m] = counts.get(m, 0) + 1
    out = []
    for s in samples:
        scaled = []
        for m in s.predictions:
            c, mean = s.predictions[m].confidence, sums[m] / counts[m]
            scaled.append(c if mean == 0.0 else min(1.0, c / mean))
        out.append(tuple(scaled))
    return out


def mvcp_accuracy_estimate(config: SynthConfig) -> float:
    """Monte Carlo estimate of per-position-vote sequence accuracy.

    Simulates the error process of ``config`` directly on integer symbol
    grids and tallies positional votes with plain array counting, without
    touching the fusion kernels: an independent oracle for the pipeline that
    generates a corpus and fuses it per position with confidence tie-breaks.
    Only length-preserving configs are supported (insertion and deletion
    rates must be zero).
    """
    for em in config.per_model:
        if em.insertion_rate > 0 or em.deletion_rate > 0:
            raise errors.InvalidConfig(
                "the estimator supports only zero insertion/deletion rates"
            )
    S, K, L, A = (config.n_samples, config.n_models,
                  config.plate_length, len(config.alphabet))
    rng = np.random.Generator(
        np.random.Philox(key=config.seed, counter=_ESTIMATOR_COUNTER)
    )
    gt = (rng.random((S, L)) * A).astype(np.int64)
    sub_u = rng.random((S, K, L))
    offsets = (rng.random((S, K, L)) * (A - 1)).astype(np.int64)
    conf_u = rng.random((S, K))

    rates = np.array([em.per_char_sub_rate for em in config.per_model])
    wrong = (gt[:, None, :] + 1 + offsets) % A
    pred = np.where(sub_u < rates[None, :, None], wrong, gt[:, None, :])

    correct = (pred == gt[:, None, :]).all(axis=2)
    means_c = np.array([em.confidence_when_correct[0] for em in config.per_model])
    spreads_c = np.array([em.confidence_when_correct[1] for em in config.per_model])
    means_w = np.array([em.confidence_when_wrong[0] for em in config.per_model])
    spreads_w = np.array([em.confidence_when_wrong[1] for em in config.per_model])
    overconf = np.array([em.overconfident for em in config.per_model])
    use_c = correct | overconf[None, :]
    mean = np.where(use_c, means_c[None, :], means_w[None, :])
    spread = np.where(use_c, spreads_c[None, :], spreads_w[None, :])
    conf = np.clip(mean + (2.0 * conf_u - 1.0) * spread, 0.0, 1.0)

    counts = np.zeros((S, L, A), dtype=np.int32)
    flat = counts.reshape(S * L, A)
    rows = np.arange(S * L)
    for k in range(K):
        flat[rows, pred[:, k, :].reshape(-1)] += 1
    winner_count = counts.max(axis=2)
    true_count = np.take_along_axis(counts, gt[..., None], axis=2)[..., 0]
    holders = (counts == winner_count[..., None]).sum(axis=2)

    pos_ok = (true_count == winner_count) & (holders == 1)
    # Tied positions are rare; resolve them exactly: among tied symbols the
    # one backed by the highest confidence wins, then lowest model index
    # (matching model-id order, since generated ids sort by index).
    tie_mask = (true_count == winner_count) & (holders > 1)
    for s_idx, p_idx in zip(*np.nonzero(tie_mask)):
        tied = np.nonzero(counts[s_idx, p_idx] == winner_count[s_idx, p_idx])[0]
        best_sym = -1
        best_key = None
        for sym in tied:
            backers = np.nonzero(pred[s_idx, :, p_idx] == sym)[0]
            k_best = max(backers, key=lambda k: (conf[s_idx, k], -k))
            key = (conf[s_idx, k_best], -k_best)
            if best_key is None or key > best_key:
                best_key = key
                best_sym = sym
        pos_ok[s_idx, p_idx] = best_sym == gt[s_idx, p_idx]
    return float(pos_ok.all(axis=1).mean())


def reference_generate(config: SynthConfig) -> Iterator[Sample]:
    """The corpus of ``config``, one sample at a time, as the protocol reads."""
    L = config.plate_length
    A = len(config.alphabet)
    alphabet = config.alphabet
    ids = tuple(config.model_ids())
    total = L + sum(2 * L + 1 + 3 * (em.insertion_rate > 0)
                    + 2 * (em.deletion_rate > 0) for em in config.per_model)
    width = len(str(config.n_samples))
    for i in range(config.n_samples):
        bits = np.random.Philox(key=config.seed, counter=i * 2**64)
        u = np.random.Generator(bits).random(total).tolist()
        gt = [int(x * A) for x in u[:L]]
        gt_text = "".join(map(alphabet.__getitem__, gt))
        off = L
        texts, confs = [], []
        for em in config.per_model:
            rate = em.per_char_sub_rate
            events = u[off:off + L]
            offsets = u[off + L:off + 2 * L]
            off += 2 * L
            symbols = [(g + 1 + int(o * (A - 1))) % A if e < rate else g
                       for g, e, o in zip(gt, events, offsets)]
            if em.insertion_rate > 0:
                ue, up, uc = u[off:off + 3]
                off += 3
                if ue < em.insertion_rate:
                    symbols.insert(int(up * (len(symbols) + 1)), int(uc * A))
            if em.deletion_rate > 0:
                ue, up = u[off:off + 2]
                off += 2
                if ue < em.deletion_rate and len(symbols) > 1:
                    del symbols[int(up * len(symbols))]
            text = "".join(map(alphabet.__getitem__, symbols))
            mean, spread = (
                em.confidence_when_correct
                if (text == gt_text or em.overconfident)
                else em.confidence_when_wrong
            )
            conf = min(1.0, max(0.0, mean + (2.0 * u[off] - 1.0) * spread))
            off += 1
            texts.append(text)
            confs.append(conf)
        yield Sample(
            sample_id=f"s{i:0{width}d}",
            dataset=config.dataset,
            ground_truth=gt_text,
            predictions=Ensemble._trusted(ids, texts, confs, ids),
        )
