"""Vote/selection kernels: the fusion primitives ``platefuse.core`` calls.

All kernels take parallel lists describing one ensemble:

* ``texts[i]``  normalized prediction string of entry ``i``
* ``confs[i]``  its confidence (float in [0, 1])

Entries arrive in tie-break order (ranking order when the caller has a
ranking, model-id order otherwise; see ``core._prepare``); the earliest wins.

Every vote is one plurality round over the values the entries cast (whole
texts, lengths, or the characters of one position), counted first and
resolved lazily, in this order:

1. the first value wins outright when it holds a strict majority;
2. otherwise the votes are counted, and a unique maximal count wins;
3. only when several values share the maximal count is a tied value chosen:
   with ``use_conf=True`` the one cast by the most confident entry voting for
   a tied value; with ``use_conf=False`` the one cast by the earliest such
   entry. Either way the earliest entry wins among equals.

Most columns are unanimous or have a clear majority, so confidences are
rarely looked at. Callers guarantee non-empty inputs and non-empty texts.
"""

from __future__ import annotations


def hc_select(confs):
    """Index of the most confident entry.

    Returns ``(index, tied)`` where ``tied`` is True when the maximal
    confidence is shared by more than one entry (the earliest of them wins).
    """
    top = max(confs)
    return confs.index(top), confs.count(top) > 1


def _plurality(values, confs, use_conf):
    """One plurality round; the shared primitive of every vote kernel.

    ``values`` and ``confs`` are parallel: entry ``i`` votes for
    ``values[i]``. Returns ``(winner, votes, tied)``: the winning value, its
    count, and whether several values shared the maximal count. The steps are
    taken in the order the module docstring gives.
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
    if len(tied) == 1:
        return tied[0], top, False
    if use_conf:
        pool = [i for i, v in enumerate(values) if counts[v] == top]
        return values[max(pool, key=confs.__getitem__)], top, True
    return tied[0], top, True


def mv_select(texts, confs, use_conf):
    """Whole-sequence plurality vote.

    Returns ``(text, votes, tied)``: the winning text, its count, and whether
    several texts shared the maximal count.
    """
    return _plurality(texts, confs, use_conf)


def mvcp_select(texts, confs, use_conf):
    """Per-position plurality vote.

    The output length is itself chosen by plurality over prediction lengths;
    each position then takes the modal character among predictions long enough
    to vote there. Returns ``(fused_text, tied)`` where ``tied`` is True if
    the length vote or any position needed tie-breaking.
    """
    lengths = [len(t) for t in texts]
    length, _, any_tie = _plurality(lengths, confs, use_conf)
    out = []
    # Every text votes at the positions the shortest one reaches.
    for column in zip(*texts):
        ch, _, tie = _plurality(column, confs, use_conf)
        out.append(ch)
        any_tie = any_tie or tie
    for p in range(min(lengths), length):
        voters = [i for i, n in enumerate(lengths) if n > p]
        ch, _, tie = _plurality([texts[i][p] for i in voters],
                                [confs[i] for i in voters], use_conf)
        out.append(ch)
        any_tie = any_tie or tie
    return "".join(out), any_tie
