"""Exception hierarchy shared across the library.

Every error that callers are expected to handle derives from
:class:`IdeationStreamError`; the CLI maps each concrete class to a stable
exit code.
"""


class IdeationStreamError(Exception):
    """Base class for all library errors."""


# -- corpus ingest ------------------------------------------------------

class MissingColumn(IdeationStreamError):
    """A named CSV column is absent from the header row."""


class EmptyCorpus(IdeationStreamError):
    """No usable rows survived loading."""


class UnknownLabel(IdeationStreamError):
    """A label cell holds something other than the two known classes."""


class DegenerateSplit(IdeationStreamError):
    """A train/test split would leave one side empty."""


# -- feature extraction -------------------------------------------------

class EmptyVocabulary(IdeationStreamError):
    """No gram survived the corpus-frequency threshold."""


class NotFitted(IdeationStreamError):
    """A pipeline was used before fitting."""


class DimensionMismatch(IdeationStreamError):
    """Vector dimension does not match the model or IDF dimension."""


# -- classifiers --------------------------------------------------------

class NegativeFeature(IdeationStreamError):
    """Multinomial models require nonnegative feature values."""


class DegenerateLabels(IdeationStreamError):
    """Training data contains a single class only."""


class TooFewRows(IdeationStreamError):
    """Not enough rows for the requested fold count."""


# -- evaluation ---------------------------------------------------------

class LengthMismatch(IdeationStreamError):
    """Prediction and gold label sequences differ in length."""


class EmptyMatrix(IdeationStreamError):
    """A confusion matrix with zero total cannot be scored."""


class SingleClass(IdeationStreamError):
    """ROC-AUC needs both classes present in the gold labels."""


class UnknownClass(IdeationStreamError):
    """The requested class does not occur in the corpus."""


# -- model store --------------------------------------------------------

class VersionMismatch(IdeationStreamError):
    """Stored format version is not supported by this build."""


class CorruptPayload(IdeationStreamError):
    """Checksum, framing, or tag validation failed on load."""


class IoFailure(IdeationStreamError):
    """Underlying file operation failed."""


# -- message broker -----------------------------------------------------

class TopicExists(IdeationStreamError):
    """create_topic on a name already in use."""


class UnknownTopic(IdeationStreamError):
    """Operation on a topic that was never created."""


class OffsetOutOfRange(IdeationStreamError):
    """Commit or replay offset beyond the log end."""
