"""Exception types raised across the package.

Everything derives from :class:`PlatefuseError` so callers (and the CLI) can
catch one base class. Messages carry the context needed to locate the problem
(offending symbol, sample id, file line, model id).
"""


class PlatefuseError(Exception):
    """Base class for all errors raised by platefuse."""


# --- text / prediction ingestion -------------------------------------------

class EmptyAfterNormalization(PlatefuseError):
    """Nothing remained of a raw string after normalization."""


class SymbolOutsideAlphabet(PlatefuseError):
    """A normalized string contains a symbol not in the configured alphabet."""


class InvalidConfidence(PlatefuseError):
    """A confidence value is NaN, infinite, or outside [0, 1]."""


# --- fusion ------------------------------------------------------------------

class EmptyEnsemble(PlatefuseError):
    """Fusion was requested on an empty prediction map."""


class IncompleteRanking(PlatefuseError):
    """A model ranking does not cover every prediction in the ensemble."""


# --- scoring / sweeps --------------------------------------------------------

class MissingGroundTruth(PlatefuseError):
    """Exact-match scoring needs a ground truth that is absent."""


class UncoveredSample(PlatefuseError):
    """A fused-output map is missing an entry for a sample id."""


class UnknownSample(PlatefuseError):
    """A fused record names a sample id that the corpus does not contain."""


class EmptyInput(PlatefuseError):
    """An aggregate was requested over an empty collection."""


class DuplicateRank(PlatefuseError):
    """Two model profiles claim the same accuracy rank."""


class MissingAccuracyRank(PlatefuseError):
    """Accuracy-based ranking was requested but a profile has no rank."""


class NOutOfRange(PlatefuseError):
    """A top-N request exceeds the number of available profiles."""


class MissingModelPrediction(PlatefuseError):
    """A sample lacks a prediction for a model required by a sweep."""


# --- files / config ----------------------------------------------------------

class InvalidConfig(PlatefuseError):
    """A configuration value violates its documented range or shape."""


class ParseError(PlatefuseError):
    """A record file could not be parsed; the message names the line."""


class EmptyFile(PlatefuseError):
    """A record file contains no records."""


class DuplicateModelId(PlatefuseError):
    """A profile list contains the same model id twice."""
