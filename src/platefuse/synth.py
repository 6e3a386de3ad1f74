"""Seeded synthetic-ensemble generator.

Corpora are reproducible down to the bit from a single 64-bit seed, across
machines and (given this documented protocol) across reimplementations.

Random source
-------------
All randomness comes from Philox4x64-10 keyed with ``SynthConfig.seed``.
Sample ``i`` owns the counter region starting at ``i * 2**64`` and consumes a
single run of float64 uniforms in the layout below; integer draws are
``floor(u * n)``. This is what makes parallel generation safe: partitioning
by sample index cannot change the corpus. Each run is what
``Generator(Philox(key=seed, counter=i * 2**64)).random(n)`` returns;
:func:`generate` draws it from one Philox whose counter it resets per sample,
rather than building a generator per sample.

Per-sample uniform layout (``L`` = plate_length, ``A`` = alphabet size;
:func:`_layout` gives its columns)::

    L                  ground-truth symbols           floor(u * A)
    per model, in id order:
      L                substitution events            event iff u < sub_rate
      L                substitution offsets           floor(u * (A-1)); the
                                                      wrong symbol is
                                                      (true + 1 + off) % A
      3 (if insertion_rate > 0)
                       event / position / symbol      pos = floor(u*(len+1))
      2 (if deletion_rate > 0)
                       event / position               pos = floor(u*len)
      1                confidence                     mean + (2u-1)*spread,
                                                      clamped to [0, 1]

Substitutions apply first, then at most one insertion, then at most one
deletion (skipped if it would empty the prediction). The confidence
distribution is the "correct" one when the finished prediction equals the
ground truth, or always when the model is flagged overconfident; otherwise
the "wrong" one. The numeric confidence defaults below are a construction of
this package, not measurements.

The protocol is applied to a block of samples at once. :func:`generate`
fills one reused array with the uniforms of up to ``_BLOCK`` samples, a row
each, and computes every prediction with numpy, its models a chunk at a
time: the substitutions, the insertion, the deletion and the confidence.
Each step is the IEEE operation of the protocol's scalar formula, so every
value is the same bit for bit. The texts of a block are decoded from one
buffer of code points. Samples are yielded one by one but drawn a block at
a time: a block is drawn when the samples before it have been consumed, so
a corpus is never held whole. ``tests/oracles.py`` keeps the protocol as
written, one sample at a time, as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import errors
from .core import DEFAULT_ALPHABET, Ensemble, Sample, _real, check_alphabet, check_cell

_WORD = (1 << 64) - 1
# Without per_model, one default ErrorModel is built per model, and each
# sample draws more than plate_length * (2 * n_models + 1) uniforms at once;
# the bounds keep a huge n_models or plate_length from filling memory.
_MAX_MODELS = 1000
_MAX_PLATE_LENGTH = 1000
# Samples that generate draws and transforms at once: enough to spread
# numpy's per-call cost, few enough to keep the working arrays small. Large
# samples make smaller blocks, of at most _BLOCK_DRAWS uniforms (at least
# one sample).
_BLOCK = 64
_BLOCK_DRAWS = 1 << 16


@dataclass(frozen=True)
class ErrorModel:
    """Noise profile of one synthetic recognizer.

    ``per_char_sub_rate`` is the independent per-position substitution
    probability; insertions/deletions happen at most once per prediction.
    Confidences are uniform on mean +/- spread, clamped to [0, 1]. An
    overconfident model draws wrong predictions' confidences from the
    "correct" distribution, so its confidence carries no signal.
    Every rate and pair entry must be a real number (see :func:`core.is_number`);
    an integer is stored as the equal float, and one too large for a float
    as an infinity, which the range checks reject.
    """

    per_char_sub_rate: float = 0.1
    insertion_rate: float = 0.0
    deletion_rate: float = 0.0
    confidence_when_correct: tuple[float, float] = (0.92, 0.06)
    confidence_when_wrong: tuple[float, float] = (0.55, 0.25)
    overconfident: bool = False

    def __post_init__(self):
        for name in ("per_char_sub_rate", "insertion_rate", "deletion_rate"):
            rate = _real(getattr(self, name), name, errors.InvalidConfig)
            object.__setattr__(self, name, rate)
        if not 0.0 <= self.per_char_sub_rate < 0.5:
            raise errors.InvalidConfig(
                f"per_char_sub_rate must be in [0, 0.5), got {self.per_char_sub_rate!r}"
            )
        for name in ("insertion_rate", "deletion_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 0.2:
                raise errors.InvalidConfig(
                    f"{name} must be in [0, 0.2], got {rate!r}"
                )
        for name in ("confidence_when_correct", "confidence_when_wrong"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise errors.InvalidConfig(
                    f"{name} must be a (mean, spread) pair, got {pair!r}"
                )
            mean, spread = (_real(v, name, errors.InvalidConfig) for v in pair)
            object.__setattr__(self, name, (mean, spread))
            if not 0.0 < mean <= 1.0:
                raise errors.InvalidConfig(f"{name} mean must be in (0, 1]")
            if not 0.0 <= spread <= 1.0:
                raise errors.InvalidConfig(f"{name} spread must be in [0, 1]")
        if not isinstance(self.overconfident, bool):
            raise errors.InvalidConfig(
                f"overconfident must be a boolean, got {self.overconfident!r}"
            )


@dataclass(frozen=True)
class SynthConfig:
    """Full description of a synthetic corpus."""

    seed: int
    n_models: int
    n_samples: int
    plate_length: int
    alphabet: str = DEFAULT_ALPHABET
    per_model: tuple[ErrorModel, ...] = ()
    dataset: str = "synthetic"

    def __post_init__(self):
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or not 0 <= self.seed < 2 ** 64):
            raise errors.InvalidConfig("seed must be a 64-bit unsigned integer")
        for name in ("n_models", "n_samples", "plate_length"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise errors.InvalidConfig(f"{name} must be a positive integer")
        if self.n_models > _MAX_MODELS:
            raise errors.InvalidConfig(f"n_models must be at most {_MAX_MODELS}")
        if self.plate_length > _MAX_PLATE_LENGTH:
            raise errors.InvalidConfig(
                f"plate_length must be at most {_MAX_PLATE_LENGTH}")
        if len(check_alphabet(self.alphabet)) < 2:
            raise errors.InvalidConfig("alphabet needs at least two symbols")
        # The corpus loaders' rule, so that every corpus written loads.
        check_cell(self.dataset, "dataset", errors.InvalidConfig)
        if isinstance(self.per_model, str) or not isinstance(self.per_model, Iterable):
            raise errors.InvalidConfig(
                f"per_model must be a sequence of ErrorModel, got {self.per_model!r}")
        per_model = tuple(self.per_model)
        if not per_model:
            per_model = tuple(ErrorModel() for _ in range(self.n_models))
        for index, em in enumerate(per_model):
            if not isinstance(em, ErrorModel):
                raise errors.InvalidConfig(
                    f"per_model[{index}] must be an ErrorModel")
        if len(per_model) != self.n_models:
            raise errors.InvalidConfig(
                f"per_model has {len(per_model)} entries for {self.n_models} models"
            )
        object.__setattr__(self, "per_model", per_model)

    def model_ids(self) -> list[str]:
        width = max(2, len(str(self.n_models - 1)))
        return [f"m{i:0{width}d}" for i in range(self.n_models)]


def _layout(config: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray, int]:
    """The uniform layout of a sample, as column indices into its row.

    Returns ``(first, insertion, deletion, confidence, total)``: each model's
    first uniform (its ``L`` substitution events, then its ``L`` offsets),
    the columns of its insertion event, position and symbol, of its deletion
    event and position, and of its confidence, and the draws per sample. A
    model without insertions (deletions) reads column 0 against a rate of 0,
    which no uniform is below.
    """
    L = config.plate_length
    first, insertion, deletion, confidence = [], [], [], []
    off = L
    for em in config.per_model:
        first.append(off)
        off += 2 * L
        insertion.append((off, off + 1, off + 2) if em.insertion_rate > 0
                         else (0, 0, 0))
        off += 3 * (em.insertion_rate > 0)
        deletion.append((off, off + 1) if em.deletion_rate > 0 else (0, 0))
        off += 2 * (em.deletion_rate > 0)
        confidence.append(off)
        off += 1
    return (np.array(first), np.array(insertion), np.array(deletion),
            np.array(confidence), off)


def _sample_uniforms(seed: int) -> Callable[[int, np.ndarray], None]:
    """A function that fills a float64 row with a sample's uniforms.

    ``fill(index, row)`` writes the first ``len(row)`` uniforms of sample
    ``index``. One Philox keyed with ``seed`` is re-keyed for each sample: it
    is given back the state it was built with, whose buffer is empty, with
    the 256-bit counter set to ``index * 2**64`` (all four 64-bit words, least
    significant first, so an index past ``2**64`` carries into the higher
    words). That is the state ``Philox(key=seed, counter=index * 2**64)``
    starts in.
    """
    bits = np.random.Philox(key=seed)
    draw = np.random.Generator(bits).random
    state = bits.state
    counter = state["state"]["counter"]

    def fill(index: int, row: np.ndarray) -> None:
        counter[:] = (0, index & _WORD, (index >> 64) & _WORD, (index >> 128) & _WORD)
        bits.state = state
        draw(out=row)

    return fill


def generate(config: SynthConfig) -> Iterator[Sample]:
    """Yield the corpus described by ``config``, one sample at a time.

    A generator over blocks of at most ``_BLOCK`` samples: a block is drawn
    and transformed when the samples before it have been consumed, so at
    most one block is held in memory. Deterministic for a fixed config; see
    the module docstring for the exact protocol.
    """
    L = config.plate_length
    A = len(config.alphabet)
    # Zero-padded, so in model-id order; every sample shares the tuple.
    ids = tuple(config.model_ids())
    M = len(ids)
    width = len(str(config.n_samples))
    fill = _sample_uniforms(config.seed)
    codes = np.array([ord(c) for c in config.alphabet], dtype="<u4")
    first, insertion, deletion, confidence, total = _layout(config)
    # Each ErrorModel field as an array over the models; a (mean, spread)
    # pair as two.
    (sub_rate, ins_rate, del_rate, (mean_r, spread_r), (mean_w, spread_w),
     overconfident) = (
        np.array([getattr(em, name) for em in config.per_model]).T
        for name in ("per_char_sub_rate", "insertion_rate", "deletion_rate",
                     "confidence_when_correct", "confidence_when_wrong", "overconfident"))
    rows = max(1, min(_BLOCK, _BLOCK_DRAWS // total, config.n_samples))
    # Models taken at once: their per-slot arrays hold at most _BLOCK_DRAWS entries.
    chunk = max(1, _BLOCK_DRAWS // (rows * (L + 1)))
    slots = np.arange(L + 1)
    u = np.empty((rows, total))
    # Per sample: the ground truth, then each model's prediction, in L + 1
    # slots (room for an insertion), and their lengths. Zero-filled, so that
    # every slot, past a text's length too, holds a symbol of the alphabet.
    symbols = np.zeros((rows, M + 1, L + 1), dtype=np.int32)
    lengths = np.full((rows, M + 1), L)
    confs = np.empty((rows, M))
    for start in range(0, config.n_samples, rows):
        n = min(rows, config.n_samples - start)
        for b in range(n):
            fill(start + b, u[b])
        block = u[:n]
        gt = (block[:, :L] * A).astype(np.int32)
        symbols[:n, 0, :L] = gt
        gt = gt[:, None]
        for lo in range(0, M, chunk):
            models = slice(lo, lo + chunk)
            out = symbols[:n, 1:][:, models]
            cols = first[models, None] + slots[:L]
            events = block[:, cols] < sub_rate[models, None]
            wrong = (gt + 1 + (block[:, cols + L] * (A - 1)).astype(np.int32)) % A
            out[..., :L] = np.where(events, wrong, gt)
            # At most one insertion: the slots past ``at`` move one on, and
            # ``at`` takes the new symbol.
            draw = block[:, insertion[models]]
            inserted = (draw[..., 0] < ins_rate[models])[..., None]
            at = (draw[..., 1:2] * (L + 1)).astype(np.intp)
            out[..., 1:] = np.where(inserted & (slots[1:] > at),
                                    out[..., :-1], out[..., 1:])
            np.copyto(out, (draw[..., 2:] * A).astype(np.int32),
                      where=inserted & (slots == at))
            length = L + inserted[..., 0]
            # At most one deletion, unless it would empty the prediction:
            # the slots from ``gone`` on take the next slot's symbol.
            draw = block[:, deletion[models]]
            deleted = (draw[..., 0] < del_rate[models]) & (length > 1)
            gone = (draw[..., 1] * length).astype(np.intp)[..., None]
            out[..., :-1] = np.where(deleted[..., None] & (slots[:-1] >= gone),
                                     out[..., 1:], out[..., :-1])
            length -= deleted
            lengths[:n, 1:][:, models] = length
            right = ((length == L) & (out[..., :L] == gt).all(axis=2)
                     | overconfident[models])
            mean = np.where(right, mean_r[models], mean_w[models])
            spread = np.where(right, spread_r[models], spread_w[models])
            draw = block[:, confidence[models]]
            np.minimum(np.maximum(mean + (2.0 * draw - 1.0) * spread, 0.0), 1.0,
                       out=confs[:n, models])
        count = lengths[:n]
        text = str(codes[symbols[:n][slots < count[..., None]]], "utf-32-le")
        ends = np.cumsum(count).tolist()
        texts = [text[a:b] for a, b in zip([0, *ends], ends)]
        conf_rows = confs[:n].tolist()
        for b in range(n):
            k = b * (M + 1)
            # Checked already: the config by SynthConfig, and every text is
            # made of alphabet symbols.
            yield Sample._trusted(
                f"s{start + b:0{width}d}", config.dataset, texts[k],
                Ensemble._trusted(ids, texts[k + 1:k + M + 1], conf_rows[b], ids))
        # Free this block's values before the next block makes its own.
        del texts, conf_rows
