"""Exception types shared across the package, and the one text-file reader
every input goes through."""

from pathlib import Path


class RadlError(Exception):
    """Base class for all package-specific errors."""


class MalformedDoc(RadlError):
    """Layout document is not valid JSON or is missing a required field."""


class InvalidBBox(RadlError):
    """Bounding box violates 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1."""


class TooManyInstances(RadlError):
    """Layout exceeds the configured instance cap."""


class ShapeMismatch(RadlError):
    """Array arguments do not conform in shape."""


class NoBranches(RadlError):
    """Fusion was called with an empty branch sequence."""


class MissingCache(RadlError):
    """A backward routine was called without its forward cache."""


class StepOutOfRange(RadlError):
    """Diffusion step index outside 1..T."""


class PlacementFailure(RadlError):
    """Scene generator could not place instances without overlap."""


class NonFiniteLoss(RadlError):
    """Training loss became NaN or infinite."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step
        self.value = value


class UnknownColor(RadlError):
    """Color name missing from the HSV range table."""


def read_utf8(path) -> str:
    """A text file's contents; a file that is not UTF-8 is a MalformedDoc
    that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise MalformedDoc(f"{path} is not UTF-8: {e}") from e
