"""Fusion of multi-model string recognizer outputs.

Combines the per-input predictions of several sequence recognizers (e.g.
license-plate readers) by highest confidence, whole-sequence majority vote, or
per-character-position majority vote, with deterministic best-model or
highest-confidence tie-breaking. Ships exact-match evaluation, top-N
accuracy/latency sweeps, a seeded synthetic-ensemble generator for property
testing, and a CLI.
"""

from . import fileio
from .core import (
    DEFAULT_ALPHABET,
    Ensemble,
    FusionResult,
    FusionStrategy,
    ModelProfile,
    Prediction,
    Sample,
    apply_strategy,
    backend_name,
    hc_fuse,
    mv_fuse,
    mvcp_fuse,
    normalize_confidences,
    normalize_text,
)
from .scoring import (
    DatasetReport,
    SweepReport,
    SweepRow,
    ensemble_latency,
    macro_average,
    per_model_accuracy,
    rank_models,
    recognition_rate,
    sweep_top_n,
)
from .synth import ErrorModel, SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHABET",
    "DatasetReport",
    "Ensemble",
    "ErrorModel",
    "FusionResult",
    "FusionStrategy",
    "ModelProfile",
    "Prediction",
    "Sample",
    "SweepReport",
    "SweepRow",
    "SynthConfig",
    "apply_strategy",
    "backend_name",
    "ensemble_latency",
    "fileio",
    "generate",
    "hc_fuse",
    "macro_average",
    "mv_fuse",
    "mvcp_fuse",
    "normalize_confidences",
    "normalize_text",
    "per_model_accuracy",
    "rank_models",
    "recognition_rate",
    "sweep_top_n",
    "__version__",
]
