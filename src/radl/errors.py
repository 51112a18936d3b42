"""Exception types shared across the package, the one text-file reader
and JSON reader every input goes through, and the scripts' argument parser."""

import argparse
import json
import math
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


def parse_json(text: str, what: str):
    """json.loads of text; text that is not JSON is a MalformedDoc that
    names `what`.  Besides JSONDecodeError, json.loads raises RecursionError
    past the interpreter's nesting limit and ValueError on an integer
    longer than its digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise MalformedDoc(f"{what} is not valid JSON: {e}") from e


def finite_number(x) -> bool:
    """x is a JSON number (not a bool) that a float64 holds as a finite
    value: json reads NaN and Infinity, and integers of any size."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float64 range
        return False


class OneLineParser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise `argparse.ArgumentError` with
    argparse's one-line message, where ArgumentParser prints its usage block
    and exits; `--help` still prints and exits 0."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)
