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

from . import errors
from .core import (
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    StrategyKind,
    apply_strategy,
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

    Accuracy mode requires every profile to carry a rank and rejects
    duplicates. Speed ties are broken by id so the order is total.
    """
    if not profiles:
        raise errors.EmptyInput("no model profiles to rank")
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


def _fused_texts(predictions: Mapping[str, Prediction],
                 strategies: Sequence[FusionStrategy],
                 reuse: bool) -> list[str]:
    """The text each of ``strategies`` fuses ``predictions`` to, in order.

    Two exact rules fix some texts without fusing again:

    * a result that needed no tie-break is the text every strategy of the
      same kind gives, whatever its tie-break: a tie-break only sets the
      order of the entries, and the kernels read that order only when
      several values share the top count;
    * an mv text with a strict majority (``2 * winning_votes > n``) is also
      the mvcp text for either tie-break: it wins the length vote and the
      vote at every position outright.

    With ``reuse`` such a text is taken instead of calling
    :func:`apply_strategy`; without it every strategy is fused. The second
    rule needs the mv strategies ahead of the mvcp ones.
    """
    settled: dict[StrategyKind, str] = {}
    texts = []
    for strategy in strategies:
        text = settled.get(strategy.kind) if reuse else None
        if text is None:
            result = apply_strategy(predictions, strategy)
            text = result.text
            if not result.tie_broken:
                settled[strategy.kind] = text
                if (strategy.kind is StrategyKind.MV
                        and 2 * result.winning_votes > len(predictions)):
                    settled[StrategyKind.MVCP] = text
        texts.append(text)
    return texts


def sweep_top_n(samples: Sequence[Sample],
                profiles: Sequence[ModelProfile],
                strategies: Sequence[FusionStrategy],
                ranking_mode: str = RANK_BY_ACCURACY) -> SweepReport:
    """Evaluate every strategy on the top-N ensembles for N = 1..K.

    Models are ordered by ``ranking_mode``; for each N the samples'
    predictions are restricted to the first N models, fused per strategy,
    scored per dataset, and macro-averaged. Each row also carries the summed
    per-image latency of its members and the resulting FPS.

    A sample's texts come from :func:`_fused_texts`, which skips a fusion
    whose text an earlier result of the same sample already fixes: a vote
    that needed no tie-break gives the same text under the other tie-break,
    and a strict mv majority is also the mvcp text. Either rule is exact, so
    the report is the one that fusing every strategy gives, whatever the
    order of ``strategies`` and whichever of them are present.
    """
    if not strategies:
        raise errors.EmptyInput("no strategies to sweep")
    ranking = rank_models(profiles, ranking_mode)
    by_id = {p.model_id: p for p in profiles}
    ordered = [by_id[m] for m in ranking]
    for s in samples:
        for m in ranking:
            if m not in s.predictions:
                raise errors.MissingModelPrediction(
                    f"sample {s.sample_id!r} has no prediction for model {m!r}"
                )
    # Each distinct strategy once, mvcp last so that an mv majority is known
    # when the mvcp texts are needed.
    distinct = sorted(dict.fromkeys(strategies),
                      key=lambda x: x.kind is StrategyKind.MVCP)
    rows = []
    for n in range(1, len(ranking) + 1):
        members = ranking[:n]
        columns: list[dict[str, str]] = [{} for _ in distinct]
        for i, s in enumerate(samples):
            top_n = {m: s.predictions[m] for m in members}
            # Every strategy fuses the first sample, so a ranking that misses
            # a member raises IncompleteRanking even where a text could be
            # reused; every sample has the same members.
            for column, text in zip(columns,
                                    _fused_texts(top_n, distinct, i > 0)):
                column[s.sample_id] = text
        fused = dict(zip(distinct, columns))
        rates = {
            strategy.name: macro_average(recognition_rate(samples, fused[strategy]))
            for strategy in strategies
        }
        latency, _ = ensemble_latency(ordered, n)
        rows.append(SweepRow(
            n=n,
            added_model=members[-1],
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
        for m, p in s.predictions.items():
            totals[m] = totals.get(m, 0) + 1
            if p.text == s.ground_truth:
                corrects[m] = corrects.get(m, 0) + 1
    return {m: corrects.get(m, 0) / totals[m] for m in totals}
