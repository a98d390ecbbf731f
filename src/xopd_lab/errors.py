"""Error taxonomy shared across the lab, and the value-type rule every
config dataclass checks before its own range checks."""

import math
from dataclasses import fields


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


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_field_types(cfg) -> None:
    """Raise ConfigurationError unless every ``int`` field of the dataclass
    ``cfg`` holds an integer and every ``float`` field a finite number; a
    bool is neither."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in ("int", int) and not is_int(value):
            raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
        finite = is_int(value) or (isinstance(value, float) and math.isfinite(value))
        if f.type in ("float", float) and not finite:
            raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
