"""Exception hierarchy.

Everything raised for bad data or bad parameters derives from SvcforgeError
so the CLI can map it onto a single "data/validation" exit status, as it does
an OSError (a path the OS refuses). Unexpected exceptions are left alone and
surface as internal errors.
"""


class SvcforgeError(Exception):
    """Base class for all data and validation errors raised by this package."""


class InvalidParameterError(SvcforgeError, ValueError):
    """An argument violates a documented precondition."""


# The most elements a size may ask of one array or model: 2**24 float64
# values take 128 MiB. Checked before allocating, so a size far beyond
# memory is a validation error rather than a MemoryError.
MAX_ELEMENTS = 1 << 24


def check_elements(count: int, what: str) -> None:
    """Raise InvalidParameterError when `count` exceeds MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise InvalidParameterError(f"{what} would hold {count} elements, more than {MAX_ELEMENTS}")


class MissingFileError(SvcforgeError, FileNotFoundError):
    """Input path is not a regular file: missing, a directory, a FIFO or a device."""


class MalformedWavError(SvcforgeError):
    """WAV file header or chunk structure is broken or truncated."""


class UnsupportedEncodingError(SvcforgeError):
    """WAV file is valid but uses an encoding this package does not read."""


class RateMismatchError(SvcforgeError):
    """Clip sample rate does not match what the operation requires."""


class ClipTooShortError(SvcforgeError):
    """Clip has fewer samples than one analysis window."""


class ShapeMismatchError(SvcforgeError):
    """Array shapes disagree where the contract requires agreement."""


class NoVoicedFramesError(SvcforgeError):
    """Speaker statistics requested but no voiced frames were found."""


class DegenerateStatsError(SvcforgeError):
    """Source log-F0 standard deviation is zero; sigma scaling is undefined."""


class ZeroNormError(SvcforgeError):
    """A vector with zero norm was passed where a direction is required."""


class TensorFormatError(SvcforgeError):
    """SVCF tensor file is malformed or has an unsupported version."""


class ManifestFormatError(SvcforgeError):
    """Manifest JSONL or spec JSON could not be parsed."""


class UnknownSpecError(SvcforgeError):
    """Training-set spec name is not one of the canonical specs."""


class OverlappingNotesError(SvcforgeError):
    """Note events overlap or are out of order."""
