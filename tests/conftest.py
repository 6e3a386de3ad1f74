"""Shared fixtures and ensemble builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from platefuse import Prediction, fileio

DATA_DIR = Path(__file__).parent / "data"
SHOWCASE_PATH = DATA_DIR / "showcase_plates.jsonl"

TOP5_RANKING = ("ViTSTR-Base", "STAR-Net", "TRBA", "CR-NET", "RARE")


def P(text: str, confidence: float) -> Prediction:
    return Prediction(text, confidence)


@pytest.fixture(scope="session")
def showcase_samples():
    return list(fileio.load_predictions(SHOWCASE_PATH, strict=True))


@pytest.fixture(scope="session")
def stock_profiles():
    return fileio.load_stock_profiles()


# Confidence grid coarse enough to make exact ties common in random tests.
CONF_GRID = [i / 20 for i in range(1, 21)]


def random_ensemble(rng: np.random.Generator, *, max_models: int = 9,
                    alphabet: str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
                    tie_rich: bool = True):
    """A random prediction map plus a random tie-break ranking.

    Lengths vary around a base in 4..8 so the positional vote sees both equal
    and mixed lengths; with ``tie_rich`` symbols come from a 4-letter pool so
    vote and confidence ties are frequent.
    """
    n = int(rng.integers(1, max_models + 1))
    base_len = int(rng.integers(4, 9))
    pool = alphabet[:4] if (tie_rich and rng.random() < 0.85) else alphabet
    ids = [f"m{j:02d}" for j in range(n)]
    predictions = {}
    for model_id in ids:
        length = min(8, max(4, base_len + int(rng.integers(-1, 2))))
        chars = rng.integers(0, len(pool), size=length)
        text = "".join(pool[c] for c in chars)
        conf = CONF_GRID[int(rng.integers(len(CONF_GRID)))]
        predictions[model_id] = Prediction(text, conf)
    ranking = list(ids)
    rng.shuffle(ranking)
    return predictions, tuple(ranking)
