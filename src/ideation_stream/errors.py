"""Exception hierarchy shared across the library.

Every error that callers are expected to handle derives from
:class:`IdeationStreamError`. Each concrete class carries a stable
``exit_code``, the CLI's exit status when that error ends a command.
"""


class IdeationStreamError(Exception):
    """Base class for all library errors."""
    exit_code = 1


# -- corpus ingest ------------------------------------------------------

class MissingColumn(IdeationStreamError):
    """A named CSV column is absent from the header row."""
    exit_code = 10


class EmptyCorpus(IdeationStreamError):
    """No usable rows survived loading."""
    exit_code = 11


class UnknownLabel(IdeationStreamError):
    """A label cell holds something other than the two known classes."""
    exit_code = 12


class DegenerateSplit(IdeationStreamError):
    """A train/test split would leave one side empty."""
    exit_code = 13


# -- feature extraction -------------------------------------------------

class EmptyVocabulary(IdeationStreamError):
    """No gram survived the corpus-frequency threshold."""
    exit_code = 20


class NotFitted(IdeationStreamError):
    """A pipeline was used before fitting."""
    exit_code = 21


class DimensionMismatch(IdeationStreamError):
    """Vector dimension does not match the model or IDF dimension."""
    exit_code = 22


# -- classifiers --------------------------------------------------------

class NegativeFeature(IdeationStreamError):
    """Multinomial models require nonnegative feature values."""
    exit_code = 30


class DegenerateLabels(IdeationStreamError):
    """Training data contains a single class only."""
    exit_code = 31


class TooFewRows(IdeationStreamError):
    """Not enough rows for the requested fold count."""
    exit_code = 32


class FoldWorkerDied(IdeationStreamError):
    """A cross-validation worker process ended without sending its folds'
    results."""
    exit_code = 33


class InvalidHyperparameter(IdeationStreamError, ValueError):
    """A trainer argument is outside the range the trainer accepts."""
    exit_code = 34


# -- evaluation ---------------------------------------------------------

class LengthMismatch(IdeationStreamError):
    """Prediction and gold label sequences differ in length."""
    exit_code = 40


class EmptyMatrix(IdeationStreamError):
    """A confusion matrix with zero total cannot be scored."""
    exit_code = 41


class SingleClass(IdeationStreamError):
    """ROC-AUC needs both classes present in the gold labels."""
    exit_code = 42


class UnknownClass(IdeationStreamError):
    """The requested class does not occur in the corpus."""
    exit_code = 43


# -- model store --------------------------------------------------------

class VersionMismatch(IdeationStreamError):
    """Stored format version is not supported by this build."""
    exit_code = 50


class CorruptPayload(IdeationStreamError):
    """Checksum, framing, or tag validation failed on load."""
    exit_code = 51


class IoFailure(IdeationStreamError):
    """Underlying file operation failed."""
    exit_code = 52


# -- message broker -----------------------------------------------------

class TopicExists(IdeationStreamError):
    """create_topic on a name already in use."""
    exit_code = 60


class UnknownTopic(IdeationStreamError):
    """Operation on a topic that was never created."""
    exit_code = 61


class OffsetOutOfRange(IdeationStreamError):
    """Commit or replay offset beyond the log end."""
    exit_code = 62
