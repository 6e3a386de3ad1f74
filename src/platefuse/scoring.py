"""Exact-match scoring, model ranking, top-N sweeps, and latency accounting.

A sequence counts as recognized only when every symbol matches the ground
truth. Rates are grouped per dataset; cross-dataset averages are unweighted
(macro) means. All internal values stay unrounded; rounding is applied only
when reports are rendered (see :mod:`platefuse.fileio`).

Everything here is a pure reduction over its inputs: samples may be scored in
any order or in parallel and the results are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import errors, kernels
from .core import (
    _CONFIDENCE_ORDER,
    Ensemble,
    FusionStrategy,
    ModelProfile,
    Sample,
    StrategyKind,
    apply_strategy,
    in_tiebreak_order,
)

RANK_BY_ACCURACY = "accuracy"
RANK_BY_SPEED = "speed"


@dataclass(frozen=True)
class DatasetReport:
    """Exact-match tally for one dataset."""

    dataset: str
    total: int
    correct: int

    def __post_init__(self):
        if self.total <= 0:
            raise errors.InvalidConfig("dataset total must be positive")
        if not 0 <= self.correct <= self.total:
            raise errors.InvalidConfig("correct count outside [0, total]")

    @property
    def rate(self) -> float:
        return self.correct / self.total


@dataclass(frozen=True)
class SweepRow:
    """One ensemble size in a top-N sweep."""

    n: int
    added_model: str
    per_strategy_rate: Mapping[str, float]
    cumulative_latency_ms: float

    @property
    def fps(self) -> float:
        return 1000.0 / self.cumulative_latency_ms


@dataclass(frozen=True)
class SweepReport:
    """Accuracy and latency bookkeeping for ensembles of size 1..K."""

    ranking_mode: str
    strategies: tuple[str, ...]
    rows: tuple[SweepRow, ...]


def is_correct(fused: str, ground_truth: str | None) -> bool:
    """Exact sequence match; both sides must already be normalized."""
    if ground_truth is None:
        raise errors.MissingGroundTruth("sample has no ground truth")
    return fused == ground_truth


def recognition_rate(samples: Iterable[Sample],
                     fused: Mapping[str, str]) -> list[DatasetReport]:
    """Per-dataset exact-match rates of ``fused`` texts against ground truths.

    ``fused`` maps sample id -> fused text and must cover every sample.
    Reports come back sorted by dataset name.
    """
    totals: dict[str, int] = {}
    corrects: dict[str, int] = {}
    seen = False
    for s in samples:
        seen = True
        if s.sample_id not in fused:
            raise errors.UncoveredSample(
                f"no fused output for sample {s.sample_id!r}"
            )
        if s.ground_truth is None:
            raise errors.MissingGroundTruth(
                f"sample {s.sample_id!r} has no ground truth"
            )
        totals[s.dataset] = totals.get(s.dataset, 0) + 1
        if fused[s.sample_id] == s.ground_truth:
            corrects[s.dataset] = corrects.get(s.dataset, 0) + 1
    if not seen:
        raise errors.EmptyInput("no samples to score")
    return [
        DatasetReport(d, totals[d], corrects.get(d, 0))
        for d in sorted(totals)
    ]


def macro_average(reports: Sequence[DatasetReport]) -> float:
    """Unweighted mean of per-dataset rates (dataset sizes do not weigh in)."""
    if not reports:
        raise errors.EmptyInput("no dataset reports to average")
    return math.fsum(r.rate for r in reports) / len(reports)


def rank_models(profiles: Sequence[ModelProfile], mode: str) -> list[str]:
    """Order model ids by accuracy rank or by ascending latency.

    Model ids must be unique. Accuracy mode requires every profile to carry
    a rank and rejects duplicate ranks. Speed ties are broken by id so the
    order is total.
    """
    if not profiles:
        raise errors.EmptyInput("no model profiles to rank")
    ids: set[str] = set()
    for p in profiles:
        if p.model_id in ids:
            raise errors.DuplicateModelId(f"duplicate model id {p.model_id!r}")
        ids.add(p.model_id)
    if mode == RANK_BY_ACCURACY:
        seen: dict[int, str] = {}
        for p in profiles:
            if p.accuracy_rank is None:
                raise errors.MissingAccuracyRank(
                    f"profile {p.model_id!r} has no accuracy rank"
                )
            if p.accuracy_rank in seen:
                raise errors.DuplicateRank(
                    f"rank {p.accuracy_rank} used by both "
                    f"{seen[p.accuracy_rank]!r} and {p.model_id!r}"
                )
            seen[p.accuracy_rank] = p.model_id
        return [p.model_id for p in sorted(profiles, key=lambda p: p.accuracy_rank)]
    if mode == RANK_BY_SPEED:
        return [
            p.model_id
            for p in sorted(profiles, key=lambda p: (p.latency_ms, p.model_id))
        ]
    raise errors.InvalidConfig(f"unknown ranking mode {mode!r}")


def ensemble_latency(profiles: Sequence[ModelProfile],
                     n: int) -> tuple[float, float]:
    """(summed latency in ms, frames per second) of the first ``n`` profiles."""
    if not 1 <= n <= len(profiles):
        raise errors.NOutOfRange(
            f"n={n} outside 1..{len(profiles)}"
        )
    latency = math.fsum(p.latency_ms for p in profiles[:n])
    return latency, 1000.0 / latency


_HC, _MV, _MVCP = (StrategyKind.HC.value, StrategyKind.MV.value,
                   StrategyKind.MVCP.value)


def sweep_top_n(samples: Sequence[Sample],
                profiles: Sequence[ModelProfile],
                strategies: Sequence[FusionStrategy],
                ranking_mode: str = RANK_BY_ACCURACY) -> SweepReport:
    """Evaluate every strategy on the top-N ensembles for N = 1..K.

    Models are ordered by ``ranking_mode``; for each N the samples'
    predictions are restricted to the first N models, fused per strategy,
    scored per dataset, and macro-averaged. Each row also carries the summed
    per-image latency of its members and the resulting FPS.

    The texts are those :func:`apply_strategy` gives, found without a top-N
    map or a fusion result per sample: the kernels vote on the values,
    read from each ensemble's tuples by index. A subsequence of a tie-break
    order is the tie-break order of its entries, so each N's top members are
    put in each strategy's order by :func:`core.in_tiebreak_order`: once per
    N and distinct ``ids`` tuple for a ranking or model-id order, which are
    the same for every sample with those ids, and per sample only when an
    ``*-hc`` vote needs its most-confident-first order. A ranking that
    misses a member raises ``IncompleteRanking`` there, at the smallest N
    that includes it, even where its tie-break is never read. Two exact
    rules skip a vote whose text an earlier result of the same sample and N
    already fixes:

    * a result that needed no tie-break is the text every strategy of the
      same kind gives, whatever its tie-break: the kernels read the entry
      order only when several values share the top count;
    * an mv text with a strict majority (``2 * votes > N``) is also the
      mvcp text for either tie-break: it wins the length vote and every
      character vote outright.

    So the report does not depend on the order of ``strategies`` or on
    which of them are present. The first sample of each N is still fused in
    full by every strategy through :func:`apply_strategy`, only so that the
    benchmark's traced ``sweep`` enters ``core.*_fuse``.
    """
    if not strategies:
        raise errors.EmptyInput("no strategies to sweep")
    ranking = rank_models(profiles, ranking_mode)
    by_id = {p.model_id: p for p in profiles}
    ordered = [by_id[m] for m in ranking]
    # Samples with equal ids tuples form one group, whose ranked models'
    # indices are resolved once.
    groups: dict[tuple[str, ...], int] = {}
    group_ensembles: list[Ensemble] = []
    group_of = []
    for s in samples:
        ids = s.predictions.ids
        group = groups.get(ids)
        if group is None:
            for m in ranking:
                if m not in ids:
                    raise errors.MissingModelPrediction(
                        f"sample {s.sample_id!r} has no prediction for model {m!r}"
                    )
            group = groups[ids] = len(group_ensembles)
            group_ensembles.append(s.predictions)
        group_of.append(group)
    if not samples:
        raise errors.EmptyInput("no samples to score")
    # Each distinct strategy once, mvcp last so that an mv majority is known
    # when the mvcp texts are needed. A strategy names its kind by value,
    # since an enum member hashes in Python code.
    distinct = sorted(dict.fromkeys(strategies),
                      key=lambda x: x.kind is StrategyKind.MVCP)
    kinds = [strategy.kind.value for strategy in distinct]
    rows = []
    for n in range(1, len(ranking) + 1):
        top_members = sorted(ranking[:n])
        # Per group: the top members' indices in id order, and for each
        # strategy the same indices in its tie-break order, or None where
        # that order is each sample's own.
        tops = []
        for ensemble in group_ensembles:
            top = [ensemble.ids.index(m) for m in top_members]
            tops.append((top, [None if strategy.order is _CONFIDENCE_ORDER
                               else in_tiebreak_order(top, strategy.order, ensemble)
                               for strategy in distinct]))
        columns: list[dict[str, str]] = [{} for _ in distinct]
        for j, s in enumerate(samples):
            predictions = s.predictions
            if j == 0:
                # Kept only because perfbench's traced sweep must enter
                # core.*_fuse (EXPECTED_SPANS); the rows are the same without.
                top_n = {m: predictions[m] for m in top_members}
                for column, strategy in zip(columns, distinct):
                    column[s.sample_id] = apply_strategy(top_n, strategy).text
                continue
            texts, confs = predictions.texts, predictions.confs
            top, orders = tops[group_of[j]]
            by_confidence = None
            settled: dict[str, str] = {}
            for column, kind, order in zip(columns, kinds, orders):
                text = settled.get(kind)
                if text is None:
                    if order is None:
                        if by_confidence is None:
                            by_confidence = in_tiebreak_order(
                                top, _CONFIDENCE_ORDER, predictions)
                        order = by_confidence
                    if kind == _HC:
                        index, tied = kernels.hc_select([confs[i] for i in order])
                        text = texts[order[index]]
                    else:
                        values = [texts[i] for i in order]
                        if kind == _MV:
                            text, votes, tied = kernels.mv_select(values)
                            if 2 * votes > n:
                                settled[_MVCP] = text
                        else:
                            text, tied = kernels.mvcp_select(values)
                    if not tied:
                        settled[kind] = text
                column[s.sample_id] = text
        fused = dict(zip(distinct, columns))
        rates = {
            strategy.name: macro_average(recognition_rate(samples, fused[strategy]))
            for strategy in strategies
        }
        latency, _ = ensemble_latency(ordered, n)
        rows.append(SweepRow(
            n=n,
            added_model=ranking[n - 1],
            per_strategy_rate=rates,
            cumulative_latency_ms=latency,
        ))
    return SweepReport(
        ranking_mode=ranking_mode,
        strategies=tuple(s.name for s in strategies),
        rows=tuple(rows),
    )


def per_model_accuracy(samples: Sequence[Sample]) -> dict[str, float]:
    """Exact-match rate of each model's raw predictions (micro, whole corpus)."""
    totals: dict[str, int] = {}
    corrects: dict[str, int] = {}
    for s in samples:
        if s.ground_truth is None:
            raise errors.MissingGroundTruth(
                f"sample {s.sample_id!r} has no ground truth"
            )
        for m, text in zip(s.predictions.ids, s.predictions.texts):
            totals[m] = totals.get(m, 0) + 1
            if text == s.ground_truth:
                corrects[m] = corrects.get(m, 0) + 1
    return {m: corrects.get(m, 0) / totals[m] for m in totals}
