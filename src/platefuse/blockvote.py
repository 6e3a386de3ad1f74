"""The votes of a top-N sweep, over a block of samples at once, with numpy.

:func:`platefuse.scoring.sweep_top_n` gives a :class:`TopNVote` each
sample's ranked members (texts and confidences in ``--rank`` order), its
ground truth and its dataset. The vote keeps, per dataset, how many samples
each strategy fuses correctly at each N: the counts that fusing every top-N
ensemble through :func:`platefuse.core.apply_strategy` gives. No fused
string is built.

Every vote is the kernels' plurality round (see :mod:`platefuse.kernels`).
A member's tie-break key is its place among the members in the strategy's
ranking, or in model-id order where it has none: the order in which
:func:`platefuse.core.apply_strategy` breaks ties. After the first N
members, a value's score is its vote count, then the smallest key among its
voters, and the best score wins: a tie goes to the value whose earliest
voter comes first. When member ``j`` joins, only the score of the value it
casts changes, and only upwards, so the winner either stays or becomes that
value. So the vote of every N is one walk along the ranking, a numpy step
per member for a whole block.

A block is held until it reaches ``_BLOCK`` samples or ``_BLOCK_CELLS``
cells (samples x (members + 1) x the longest text or truth), and voted when
the next sample would not fit (a sample that alone exceeds the cell cap is
a block of its own).
"""

from __future__ import annotations

import numpy as np

from . import errors

# Samples voted at once: enough to spread numpy's per-call cost, few enough
# to keep the working arrays small; long texts make smaller blocks.
_BLOCK = 128
_BLOCK_CELLS = 1 << 16

class _Walk:
    """The running winners of one vote for several tie-break keys at once.

    ``right`` says per member whether the value it casts is the truth's,
    for each of ``n`` members. ``rkey`` holds ``n - key``, which is larger
    for an earlier key, per strategy and member: shaped like ``right`` with
    a leading strategy axis. A value's score is its votes times ``n + 1``
    plus the largest ``n - key`` among its voters. ``by_n[:, N - 1]`` ends
    up saying whether the top-N winner is right.
    """

    def __init__(self, rkey, right):
        self.rkey, self.right = rkey, right
        self.base = len(right) + 1
        self.best = np.zeros(rkey[:, 0].shape, rkey.dtype)
        # Where no member has voted yet: only a position no member reaches,
        # which lies past the winning length.
        self.won = np.ones(rkey[:, 0].shape, bool)
        self.by_n = np.empty(rkey.shape, bool)

    def step(self, j: int, same) -> None:
        """Member ``j`` joins; ``same[i]`` says whether member ``i <= j``
        votes for the value ``j`` casts. Where ``j`` casts none, that is the
        score of a value as it was, which beats nothing."""
        score = (same.sum(0, dtype=self.rkey.dtype) * self.base
                 + (same * self.rkey[:, :j + 1]).max(1))
        better = score > self.best
        np.maximum(self.best, score, out=self.best)
        np.copyto(self.won, self.right[j], where=better)
        self.by_n[:, j] = self.won


class TopNVote:
    """Correct counts per (strategy, N, dataset) of a top-N sweep.

    ``strategies`` are :class:`~platefuse.core.FusionStrategy` values and
    ``members`` the ranked model ids, in ``--rank`` order, as every sample's
    texts and confidences are given. A strategy's tie-break keys are each
    member's place among ``members`` in its ranking, or in model-id order
    when it has none; a ranking that misses a member raises
    ``IncompleteRanking`` naming the first such member. Where confidence
    comes first (every ``hc`` strategy, and every strategy without a
    ranking), the members are ordered by confidence, highest first, equal
    confidences by key.
    """

    def __init__(self, strategies, members):
        self._strategies = []
        for strategy in strategies:
            confident = strategy.kind == "hc" or strategy.ranking is None
            ranking = sorted(members) if strategy.ranking is None else strategy.ranking
            for m in members:
                if m not in ranking:
                    raise errors.IncompleteRanking(
                        f"model {m!r} is missing from the ranking")
            ranked = [m for m in ranking if m in members]
            keys = tuple(ranked.index(m) for m in members)
            self._strategies.append((strategy.kind, confident, keys))
        self._size = n = len(members)
        # A score (see _Walk) must hold n * (n + 1) + n.
        self._dtype = np.min_scalar_type(n * (n + 2))
        # Dataset -> (strategy, N) array of correct counts.
        self.corrects: dict[str, np.ndarray] = {}
        self._texts: list[str] = []
        self._confs: list[float] = []
        self._datasets: list[str] = []
        self._width = 0

    def add(self, dataset: str, truth: str, texts: list[str], confs: list[float]):
        """Hold one sample, voting the held block first if it would not fit."""
        width = max(len(truth), *map(len, texts))
        held = len(self._datasets)
        if held and (held == _BLOCK or (held + 1) * (self._size + 1)
                     * max(width, self._width) > _BLOCK_CELLS):
            self.flush()
        self._width = max(width, self._width)
        self._texts += texts
        self._texts.append(truth)
        self._confs += confs
        self._datasets.append(dataset)

    def flush(self) -> None:
        """Vote the held block, if any, and add its counts to ``corrects``."""
        if self._datasets:
            self._count(self._vote())
        self._texts, self._confs, self._datasets = [], [], []
        self._width = 0

    def _count(self, correct) -> None:
        local: dict[str, int] = {}
        index = np.array([local.setdefault(d, len(local)) for d in self._datasets])
        for dataset, k in local.items():
            counts = correct[..., index == k].sum(-1)
            total = self.corrects.get(dataset)
            self.corrects[dataset] = counts if total is None else total + counts

    def _vote(self):
        """(strategy, N, sample) booleans: is the top-N fused text correct."""
        n, width, dtype = self._size, self._width, self._dtype
        rows = len(self._datasets)
        # Each sample's members, then its truth, as code points padded with 0;
        # the lengths, not the padding, tell where each text ends. The arrays
        # are member-major, so that a vote over members reduces the first axis.
        lengths = np.fromiter(map(len, self._texts), np.intp, len(self._texts)
                              ).reshape(rows, n + 1)
        codes = np.zeros((rows, n + 1, width), np.uint32)
        codes[np.arange(width) < lengths[..., None]] = np.frombuffer(
            "".join(self._texts).encode("utf-32-le"), "<u4")
        codes = np.ascontiguousarray(codes.transpose(1, 0, 2))
        lengths = lengths.T
        truth, truth_len = codes[n], lengths[n]
        codes, lengths = codes[:n], lengths[:n]
        confs = np.array(self._confs).reshape(rows, n).T
        right_len = lengths == truth_len
        # Two texts are equal when their lengths are and their padded code
        # points, compared as one opaque value per text, are.
        texts = codes.view(f"V{4 * width}")[..., 0]
        hit = right_len & (texts == truth.view(f"V{4 * width}")[:, 0])
        # Where confidence comes first, per distinct keys: the members most
        # confident first, equal confidences by key, and each member's place
        # in that order.
        by_confidence = {}
        correct = np.empty((len(self._strategies), n, rows), bool)
        rkeys = []
        for s, (kind, confident, keys) in enumerate(self._strategies):
            place = np.array(keys)[:, None]
            if confident:
                if keys not in by_confidence:
                    order = np.lexsort((np.broadcast_to(place, (n, rows)), -confs), 0)
                    by_confidence[keys] = order, order.argsort(0)
                order, place = by_confidence[keys]
            if kind == "hc":
                # The first member in that order among the top N.
                first = np.minimum.accumulate(place, 0)
                correct[s] = np.take_along_axis(
                    hit, np.take_along_axis(order, first, 0), 0)
            # Per member, unbroadcast, as a broadcast axis is slow.
            rkeys.append(np.broadcast_to(n - place, (n, rows)))
        rkeys = np.stack(rkeys).astype(dtype)
        mv = [kind == "mv" for kind, _, _ in self._strategies]
        mvcp = [kind == "mvcp" for kind, _, _ in self._strategies]
        text = chars = None
        if any(mv):
            text = _Walk(rkeys[mv], hit)
        if any(mvcp):
            length = _Walk(rkeys[mvcp], right_len)
            # A character matches where it equals the truth's, or lies past
            # the truth's end: only a winning length equal to the truth's
            # reads the characters.
            past_truth = np.arange(width) >= truth_len[:, None]
            chars = _Walk(np.repeat(rkeys[mvcp][..., None], width, -1),
                          (codes == truth) | past_truth)
            voters = np.arange(width) < lengths[..., None]
        for j in range(n):
            same_len = lengths[:j + 1] == lengths[j]
            if text is not None:
                text.step(j, same_len & (texts[:j + 1] == texts[j]))
            if chars is not None:
                length.step(j, same_len)
                # Only texts long enough to reach a position vote there.
                chars.step(j, (codes[:j + 1] == codes[j]) & voters[:j + 1])
        if text is not None:
            correct[mv] = text.by_n
        if chars is not None:
            correct[mvcp] = length.by_n & chars.by_n.all(-1)
        return correct
