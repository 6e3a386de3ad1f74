"""Vote/selection kernels: the fusion primitives ``platefuse.core`` calls.

All kernels take parallel lists describing one ensemble, already put in
canonical order by the caller (sorted by model id):

* ``texts[i]``  normalized prediction string of entry ``i``
* ``confs[i]``  its confidence (float in [0, 1])
* ``prio[i]``   a total order used for deterministic tie resolution, lower
  wins: the ranking position for best-model rules, the model-id order
  otherwise. Values are distinct across entries.

Every vote is one plurality round over the values the entries cast (whole
texts, lengths, or the characters of one position), counted first and
resolved lazily, in this order:

1. the first value wins outright when it holds a strict majority;
2. otherwise the votes are counted, and a unique maximal count wins;
3. only when several values share the maximal count are the entries voting
   for them scanned, and the tied value of the entry with the best key wins:
   with ``use_conf=True`` the highest confidence, then the lowest ``prio``;
   with ``use_conf=False`` the lowest ``prio``.

Most columns are unanimous or have a clear majority, so the per-entry
tie-break keys are rarely looked at. Callers guarantee non-empty inputs and
non-empty texts.
"""

from __future__ import annotations


def hc_select(confs, prio):
    """Index of the most confident entry.

    Returns ``(index, tied)`` where ``tied`` is True when the maximal
    confidence is shared by more than one entry (resolved by lowest ``prio``).
    """
    best = 0
    holders = 1
    for i in range(1, len(confs)):
        c = confs[i]
        if c > confs[best]:
            best = i
            holders = 1
        elif c == confs[best]:
            holders += 1
            if prio[i] < prio[best]:
                best = i
    return best, holders > 1


def _plurality(values, confs, prio, use_conf):
    """One plurality round; the shared primitive of every vote kernel.

    ``values``, ``confs`` and ``prio`` are parallel: entry ``i`` votes for
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
    tied = [v for v, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0], top, False
    pool = [i for i, v in enumerate(values) if counts[v] == top]
    if use_conf:
        best = min(pool, key=lambda i: (-confs[i], prio[i]))
    else:
        best = min(pool, key=prio.__getitem__)
    return values[best], top, True


def mv_select(texts, confs, prio, use_conf):
    """Whole-sequence plurality vote.

    Returns ``(rep_index, votes, tied)``: ``rep_index`` is the first entry
    carrying the winning text, ``votes`` the winning count, ``tied`` whether
    several texts shared the maximal count.
    """
    text, votes, tied = _plurality(texts, confs, prio, use_conf)
    return texts.index(text), votes, tied


def mvcp_select(texts, confs, prio, use_conf):
    """Per-position plurality vote.

    The output length is itself chosen by plurality over prediction lengths;
    each position then takes the modal character among predictions long enough
    to vote there. Returns ``(fused_text, tied)`` where ``tied`` is True if
    the length vote or any position needed tie-breaking.
    """
    lengths = [len(t) for t in texts]
    length, _, any_tie = _plurality(lengths, confs, prio, use_conf)
    out = []
    # Every text votes at the positions the shortest one reaches.
    for column in zip(*texts):
        ch, _, tie = _plurality(column, confs, prio, use_conf)
        out.append(ch)
        any_tie = any_tie or tie
    for p in range(min(lengths), length):
        voters = [i for i, n in enumerate(lengths) if n > p]
        ch, _, tie = _plurality([texts[i][p] for i in voters],
                                [confs[i] for i in voters],
                                [prio[i] for i in voters], use_conf)
        out.append(ch)
        any_tie = any_tie or tie
    return "".join(out), any_tie
