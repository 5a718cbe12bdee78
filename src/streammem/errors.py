"""Error taxonomy shared across the engine.

InputError maps to CLI exit code 2, BackendError/ProtocolError to 3.
"""

import dataclasses
import math


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


def require_finite(config) -> None:
    """Raise InputError if a float field of a config dataclass is NaN or infinite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{f.name} must be finite, got {value}")
