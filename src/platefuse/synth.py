"""Seeded synthetic-ensemble generator.

Corpora are reproducible down to the bit from a single 64-bit seed, across
machines and (given this documented protocol) across reimplementations.

Random source
-------------
All randomness comes from Philox4x64-10 keyed with ``SynthConfig.seed``.
Sample ``i`` owns the counter region starting at ``i * 2**64`` and consumes a
single block of float64 uniforms in the layout below; integer draws are
``floor(u * n)``. This is what makes parallel generation safe: partitioning
by sample index cannot change the corpus.

Per-sample uniform layout (``L`` = plate_length, ``A`` = alphabet size)::

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

numpy supplies only the Philox bit generator and each sample's block of
uniforms, which :func:`generate` turns into a Python list; the protocol above
is then applied to that list as written, one sample at a time. On plates of a
few symbols this is faster than array code, and it is the one implementation
of the protocol in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .core import DEFAULT_ALPHABET, Prediction, Sample, check_alphabet, check_cell, is_number

_SAMPLE_STRIDE = 1 << 64


def _number(value, name: str):
    """``value`` itself if it is a number (see :func:`core.is_number`)."""
    if not is_number(value):
        raise errors.InvalidConfig(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class ErrorModel:
    """Noise profile of one synthetic recognizer.

    ``per_char_sub_rate`` is the independent per-position substitution
    probability; insertions/deletions happen at most once per prediction.
    Confidences are uniform on mean +/- spread, clamped to [0, 1]. An
    overconfident model draws wrong predictions' confidences from the
    "correct" distribution, so its confidence carries no signal.
    """

    per_char_sub_rate: float = 0.1
    insertion_rate: float = 0.0
    deletion_rate: float = 0.0
    confidence_when_correct: tuple[float, float] = (0.92, 0.06)
    confidence_when_wrong: tuple[float, float] = (0.55, 0.25)
    overconfident: bool = False

    def __post_init__(self):
        if not 0.0 <= _number(self.per_char_sub_rate, "per_char_sub_rate") < 0.5:
            raise errors.InvalidConfig(
                f"per_char_sub_rate must be in [0, 0.5), got {self.per_char_sub_rate!r}"
            )
        for name in ("insertion_rate", "deletion_rate"):
            v = getattr(self, name)
            if not 0.0 <= _number(v, name) <= 0.2:
                raise errors.InvalidConfig(
                    f"{name} must be in [0, 0.2], got {v!r}"
                )
        for name in ("confidence_when_correct", "confidence_when_wrong"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise errors.InvalidConfig(
                    f"{name} must be a (mean, spread) pair, got {pair!r}"
                )
            mean, spread = (float(_number(v, name)) for v in pair)
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
        if len(check_alphabet(self.alphabet)) < 2:
            raise errors.InvalidConfig("alphabet needs at least two symbols")
        # The corpus loaders' rule, so that every corpus written loads.
        check_cell(self.dataset, "dataset", errors.InvalidConfig)
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


def _draws_per_sample(cfg: SynthConfig) -> int:
    total = cfg.plate_length
    for em in cfg.per_model:
        total += 2 * cfg.plate_length + 1
        if em.insertion_rate > 0:
            total += 3
        if em.deletion_rate > 0:
            total += 2
    return total


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=seed, counter=index * _SAMPLE_STRIDE)
    )


def generate(config: SynthConfig) -> list[Sample]:
    """Materialize the corpus described by ``config``.

    Deterministic for a fixed config; see the module docstring for the exact
    protocol.
    """
    L = config.plate_length
    A = len(config.alphabet)
    alphabet = config.alphabet
    ids = config.model_ids()
    total = _draws_per_sample(config)
    width = len(str(config.n_samples))
    samples = []
    for i in range(config.n_samples):
        u = _sample_rng(config.seed, i).random(total).tolist()
        gt = [int(x * A) for x in u[:L]]
        gt_text = "".join(map(alphabet.__getitem__, gt))
        off = L
        predictions = {}
        for model_id, em in zip(ids, config.per_model):
            rate = em.per_char_sub_rate
            events = u[off:off + L]
            offsets = u[off + L:off + 2 * L]
            off += 2 * L
            symbols = [(g + 1 + int(o * (A - 1))) % A if e < rate else g
                       for g, e, o in zip(gt, events, offsets)]
            if em.insertion_rate > 0:
                ue, up, uc = u[off:off + 3]
                off += 3
                if ue < em.insertion_rate:
                    symbols.insert(int(up * (len(symbols) + 1)), int(uc * A))
            if em.deletion_rate > 0:
                ue, up = u[off:off + 2]
                off += 2
                if ue < em.deletion_rate and len(symbols) > 1:
                    del symbols[int(up * len(symbols))]
            text = "".join(map(alphabet.__getitem__, symbols))
            mean, spread = (
                em.confidence_when_correct
                if (text == gt_text or em.overconfident)
                else em.confidence_when_wrong
            )
            conf = min(1.0, max(0.0, mean + (2.0 * u[off] - 1.0) * spread))
            off += 1
            predictions[model_id] = Prediction(text, conf)
        samples.append(Sample(
            sample_id=f"s{i:0{width}d}",
            dataset=config.dataset,
            ground_truth=gt_text,
            predictions=predictions,
        ))
    return samples
