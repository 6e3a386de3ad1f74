"""Pure-Python vote/selection kernels.

These functions are the reference semantics for the fusion primitives;
``platefuse._kernels`` is a compiled twin with identical behavior, used by
``platefuse.core`` in place of this module whenever the extension is built.

All kernels take parallel lists describing one ensemble, already put in
canonical order by the caller (sorted by model id):

* ``texts[i]``  normalized prediction string of entry ``i``
* ``confs[i]``  its confidence (float in [0, 1])
* ``prio[i]``   a total order used for deterministic tie resolution, lower
  wins: the ranking position for best-model rules, the model-id order
  otherwise. Values are distinct across entries.

Tie resolution between tied slots is always:

* ``use_conf=True``  higher best confidence wins; on an exact confidence tie,
  the slot whose best-confidence holder has the lower ``prio`` wins.
* ``use_conf=False`` the slot containing the entry with the lowest ``prio``
  wins.

Callers guarantee non-empty inputs and non-empty texts.
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


def _plurality(ballots, confs, prio, use_conf):
    """One plurality round; the shared primitive of every vote kernel.

    ``ballots`` yields ``(i, value)``: entry ``i`` votes for ``value``.
    Returns ``(rep_index, votes, tied)``: ``rep_index`` is the first entry
    voting for the winning value, ``votes`` the winning count, ``tied``
    whether several values shared the maximal count.
    """
    # value -> [count, rep_index, best_conf, best_conf_prio, best_prio]
    slots: dict[object, list] = {}
    for i, v in ballots:
        s = slots.get(v)
        c = confs[i]
        r = prio[i]
        if s is None:
            slots[v] = [1, i, c, r, r]
            continue
        s[0] += 1
        if c > s[2] or (c == s[2] and r < s[3]):
            s[2] = c
            s[3] = r
        if r < s[4]:
            s[4] = r
    top = max(s[0] for s in slots.values())
    tied = [s for s in slots.values() if s[0] == top]
    winner = tied[0]
    for s in tied[1:]:
        if use_conf:
            if s[2] > winner[2] or (s[2] == winner[2] and s[3] < winner[3]):
                winner = s
        elif s[4] < winner[4]:
            winner = s
    return winner[1], top, len(tied) > 1


def mv_select(texts, confs, prio, use_conf):
    """Whole-sequence plurality vote.

    Returns ``(rep_index, votes, tied)``: ``rep_index`` is the first entry
    carrying the winning text, ``votes`` the winning count, ``tied`` whether
    several texts shared the maximal count.
    """
    return _plurality(enumerate(texts), confs, prio, use_conf)


def mvcp_select(texts, confs, prio, use_conf):
    """Per-position plurality vote.

    The output length is itself chosen by plurality over prediction lengths;
    each position then takes the modal character among predictions long enough
    to vote there. Returns ``(fused_text, tied)`` where ``tied`` is True if
    the length vote or any position needed tie-breaking.
    """
    rep, _, any_tie = _plurality(
        ((i, len(t)) for i, t in enumerate(texts)), confs, prio, use_conf
    )
    length = len(texts[rep])
    out = []
    for p in range(length):
        rep, _, tie = _plurality(
            ((i, t[p]) for i, t in enumerate(texts) if len(t) > p),
            confs, prio, use_conf,
        )
        out.append(texts[rep][p])
        any_tie = any_tie or tie
    return "".join(out), any_tie
