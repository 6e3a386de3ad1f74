"""Vote/selection kernels: the fusion primitives of every strategy.

``platefuse.core`` calls them for each fusion, so ``fuse`` and ``eval`` vote
with them. ``scoring.sweep_top_n`` counts through ``platefuse.blockvote``
instead, which takes the same plurality rounds for a block of samples and
every top-N at once; these kernels stay its readable reference.

Each kernel takes one sequence over an ensemble's entries: :func:`hc_select`
their confidences (floats in [0, 1]), :func:`mv_select` and
:func:`mvcp_select` their normalized prediction texts.

Every kernel settles a tie by the order of its entries alone: the earliest
entry wins. A round without a tie gives the same result in every order, so
``platefuse.core`` votes on an ensemble in model-id order first, and only
when a kernel reports a tie votes again with the entries in tie-break order
(see ``core._prepare``): ranking order, most confident first, or model-id
order.

Every vote is one plurality round over the values the entries cast (whole
texts, lengths, or the characters of one position), counted first and
resolved lazily, in this order:

1. the first value wins outright when it holds a strict majority;
2. otherwise the votes are counted, and a unique maximal count wins;
3. only when several values share the maximal count is a tied value chosen:
   the one whose earliest voter comes first.

Callers guarantee non-empty inputs and non-empty texts.
"""

from __future__ import annotations


def hc_select(confs):
    """Index of the most confident entry.

    Returns ``(index, tied)`` where ``tied`` is True when the maximal
    confidence is shared by more than one entry (the earliest of them wins).
    """
    top = max(confs)
    return confs.index(top), confs.count(top) > 1


def _plurality(values):
    """One plurality round; the shared primitive of every vote kernel.

    Entry ``i`` votes for ``values[i]``. Returns ``(winner, votes, tied)``:
    the winning value, its count, and whether several values shared the
    maximal count. The steps are taken in the order the module docstring
    gives.
    """
    first = values[0]
    top = values.count(first)
    if 2 * top > len(values):
        return first, top, False
    counts: dict[object, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    # In order of each value's earliest voter.
    tied = [v for v, c in counts.items() if c == top]
    return tied[0], top, len(tied) > 1


# The whole-sequence vote is one plurality round over the texts: it returns
# ``(text, votes, tied)``. mvcp_select calls _plurality by its own name, so
# that a tracer wrapping mv_select counts whole-sequence votes only.
mv_select = _plurality


def mvcp_select(texts):
    """Per-position plurality vote.

    The output length is itself chosen by plurality over prediction lengths;
    each position then takes the modal character among predictions long enough
    to vote there. Returns ``(fused_text, tied)`` where ``tied`` is True if
    the length vote or any position needed tie-breaking.
    """
    lengths = [len(t) for t in texts]
    length, _, any_tie = _plurality(lengths)
    out = []
    # Every text votes at the positions the shortest one reaches.
    for column in zip(*texts):
        ch, _, tie = _plurality(column)
        out.append(ch)
        any_tie = any_tie or tie
    for p in range(min(lengths), length):
        ch, _, tie = _plurality([t[p] for t in texts if len(t) > p])
        out.append(ch)
        any_tie = any_tie or tie
    return "".join(out), any_tie
