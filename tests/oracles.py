"""Brute-force voting oracles used to cross-check the fusion kernels.

Deliberately naive and structurally unlike :mod:`platefuse.core`: exhaustive
``Counter`` tallies plus ``min``/``max`` over flattened candidate tuples, with
no shared code. The ``oracle_*`` functions expose the full tied sets so tests
can assert that a kernel's choice is a member; the ``resolve_*`` functions
re-derive the final answer from the tie-break rules on their own.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from platefuse import errors
from platefuse.core import Prediction, TieBreak, TieBreakKind


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


def _break_tie(predictions, tiebreak, tied, value_of, eligible):
    """Pick the winning value among ``tied`` per the tie-break rule."""
    pool = [
        (model_id, p)
        for model_id, p in predictions.items()
        if eligible(p) and value_of(p) in tied
    ]
    if tiebreak.kind is TieBreakKind.HIGHEST_CONFIDENCE:
        # Highest confidence wins; exact ties go to the smallest model id.
        best = min(pool, key=lambda mp: (-mp[1].confidence, mp[0]))
    else:
        position = {m: i for i, m in enumerate(tiebreak.ranking)}
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


def resolve_mv(predictions: Mapping[str, Prediction],
               tiebreak: TieBreak) -> str:
    """Independent whole-sequence vote resolution."""
    tied, _ = oracle_mv(predictions)
    if len(tied) == 1:
        return tied[0]
    return _break_tie(
        predictions, tiebreak, set(tied),
        value_of=lambda p: p.text,
        eligible=lambda p: True,
    )


def resolve_mvcp(predictions: Mapping[str, Prediction],
                 tiebreak: TieBreak) -> str:
    """Independent per-position vote resolution."""
    lengths = oracle_mvcp_lengths(predictions)
    if len(lengths) == 1:
        length = lengths[0]
    else:
        length = _break_tie(
            predictions, tiebreak, set(lengths),
            value_of=lambda p: len(p.text),
            eligible=lambda p: True,
        )
    chars = []
    for pos, tied in enumerate(oracle_mvcp_positions(predictions, length)):
        if len(tied) == 1:
            chars.append(tied[0])
            continue
        chars.append(_break_tie(
            predictions, tiebreak, set(tied),
            value_of=lambda p: p.text[pos],
            eligible=lambda p: len(p.text) > pos,
        ))
    return "".join(chars)
