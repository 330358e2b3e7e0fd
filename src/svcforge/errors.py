"""Exception hierarchy.

Everything raised for bad data or bad parameters derives from SvcforgeError
so the CLI can map it onto a single "data/validation" exit status, as it does
an OSError (a path the OS refuses). Unexpected exceptions are left alone and
surface as internal errors.
"""


class SvcforgeError(Exception):
    """Base class for all data and validation errors raised by this package."""


class InvalidParameterError(SvcforgeError, ValueError):
    """A value violates a documented precondition: out of range, a wrong rate,
    shape or length, degenerate statistics, an unknown name, overlapping notes."""


class FormatError(SvcforgeError):
    """A WAV, SVCF or JSON file is malformed or in an unsupported encoding. Not
    a ValueError, so an `except ValueError` around a reader never rewraps it."""


class MissingFileError(SvcforgeError, FileNotFoundError):
    """Input path is not a regular file: missing, a directory, a FIFO or a device."""


# The most elements a size may ask of one array or model: 2**24 float64
# values take 128 MiB. Checked before allocating, so a size far beyond
# memory is a validation error rather than a MemoryError.
MAX_ELEMENTS = 1 << 24


def check_elements(count: int, what: str) -> None:
    """Raise InvalidParameterError when `count` exceeds MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise InvalidParameterError(f"{what} would hold {count} elements, more than {MAX_ELEMENTS}")
