"""Error taxonomy shared across the lab."""


class XopdError(Exception):
    """Base class for all lab-specific failures."""


class ConfigurationError(XopdError):
    """Invalid or inconsistent configuration values."""


class ModalityError(XopdError):
    """A model was given a conditioning modality it cannot consume."""


class LengthError(XopdError):
    """Sequence exceeds the model's maximum length."""


class VocabError(XopdError):
    """Token outside the known vocabulary."""


class FramingError(XopdError):
    """Speech frame sequence length is not a whole number of tokens."""


class DataError(XopdError):
    """Dataset/example content is missing or malformed."""


class UsageError(XopdError):
    """API called with arguments that make no sense."""


class CheckpointError(XopdError):
    """A checkpoint file is truncated, corrupted or not a checkpoint."""


class GenerationQualityError(XopdError):
    """Corpus generation rejected too many examples."""


class TrainingFailure(XopdError):
    """A training run did not meet its target or diverged.

    Carries an optional reference to the last good checkpoint.
    """

    def __init__(self, message: str, last_good_checkpoint: str | None = None):
        super().__init__(message)
        self.last_good_checkpoint = last_good_checkpoint
