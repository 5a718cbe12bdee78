"""Error taxonomy shared across the engine.

InputError maps to CLI exit code 2, BackendError/ProtocolError to 3.
"""

import dataclasses
import numbers
import sys


class StreamMemError(Exception):
    """Base class for all engine errors."""


class InputError(StreamMemError):
    """Malformed or inconsistent caller input (bad shapes, bad trace, ...)."""


class BackendError(StreamMemError):
    """A model port (stub or remote) failed to produce a result."""

    def __init__(self, message, endpoint=None, attempts=None):
        super().__init__(message)
        self.endpoint = endpoint
        self.attempts = attempts


class ProtocolError(BackendError):
    """A remote backend answered with a malformed payload."""


def call_port(what: str, fn, *args):
    """Call a model port.  An engine error passes through unchanged; any
    other failure becomes a BackendError, so a failing port is CLI exit 3
    (or an answer's error) and never a raw traceback."""
    try:
        return fn(*args)
    except StreamMemError:
        raise
    except Exception as exc:
        raise BackendError(f"{what} failed: {exc}") from exc


def require_number(name: str, value, integral: bool = False) -> None:
    """Raise InputError unless an input number is one: a string or a bool
    (which Python counts as an integer) is not, an integer must fit in a
    signed 64-bit value, and a real must be finite, which an integer too
    large for a float is not."""
    kind, noun = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{name} must be {noun}, got {value!r:.40}")
    if integral and not -(2**63) <= value < 2**63:
        raise InputError(f"{name} must be a 64-bit integer, got {value!r:.40}")
    if not integral and not abs(value) <= sys.float_info.max:  # NaN compares false too
        raise InputError(f"{name} must be finite, got {value!r:.40}")


def check_numbers(record, prefix: str = "") -> None:
    """require_number for each field of a dataclass record declared `int` or
    `float`, naming the field after the prefix.  Each record's module
    postpones annotations, so a field's type is its annotation's text."""
    for f in dataclasses.fields(record):
        if f.type in ("int", "float"):
            require_number(prefix + f.name, getattr(record, f.name), f.type == "int")
