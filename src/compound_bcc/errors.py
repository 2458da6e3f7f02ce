"""Exception types shared across the package, the checks of outside input,
and the one reader of input files.

Every failure mode that callers are expected to distinguish gets its own
class; plain ValueError is reserved for malformed arguments that indicate
a programming error at the call site.
"""

import math
import numbers
import sys

__all__ = [
    "CompoundBccError",
    "InvalidInputError",
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "FeasibilityError",
    "ConstructionError",
    "GenerationError",
    "ChannelFormatError",
    "InvalidGridError",
    "DegenerateBlockError",
    "DimensionMismatchError",
    "ConfigError",
]


class CompoundBccError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CompoundBccError, ValueError):
    """Raised when a numerical routine receives non-finite or malformed input."""


class NotHermitianError(CompoundBccError, ValueError):
    """Raised when a matrix fails the Hermitian residual check."""


class NotPositiveDefiniteError(CompoundBccError, ValueError):
    """Raised when a Cholesky factorization fails.

    Attributes
    ----------
    minor : int
        1-based index of the first leading minor that is not positive.
    """

    def __init__(self, minor):
        self.minor = int(minor)
        super().__init__(
            f"matrix is not positive definite: leading minor of order {self.minor} is not positive"
        )


class FeasibilityError(CompoundBccError, ValueError):
    """Raised when requested stream counts violate the null-space bounds."""


class ConstructionError(CompoundBccError, RuntimeError):
    """Raised when a built beamformer fails its numerical certificates."""


class GenerationError(CompoundBccError, RuntimeError):
    """Raised when channel generation exhausts its resampling budget."""


class ChannelFormatError(CompoundBccError, ValueError):
    """Raised when a channel file cannot be parsed; names the offending field."""


class InvalidGridError(CompoundBccError, ValueError):
    """Raised when an SNR grid is unusable for slope estimation."""


class DegenerateBlockError(CompoundBccError, RuntimeError):
    """Raised when a fading block has no usable zero-forcing beamformer."""


class DimensionMismatchError(CompoundBccError, ValueError):
    """Raised when two rate regions of different dimension are compared."""


class ConfigError(CompoundBccError, ValueError):
    """Raised when an experiment configuration is invalid."""


def check_count(value, name, error=InvalidInputError, minimum=1):
    """Return ``value`` if it is an int of at least ``minimum``.

    bool is rejected although it subclasses int, and so is every non-int
    (floats, strings, numpy scalars). A rejected value raises ``error``
    with a message naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise error(f"{name} must be {kind}, got {value!r}")
    return value


def check_counts(error=InvalidInputError, minimum=1, **values):
    """check_count of each of ``values``, in order, under its keyword name."""
    for name, value in values.items():
        check_count(value, name, error, minimum)


def check_real(value, name, error=InvalidInputError):
    """``value`` as a float if it is a finite int or float (bool is not); a
    rejected value raises ``error`` with a message naming ``name``."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
    if not math.isfinite(x):
        raise error(f"{name} must be a finite number, got {value!r}")
    return x


def check_index(value, name, stop, start=1):
    """``value`` as an int if it is an integer in start..stop: an int or a
    numpy integer, not a bool; else InvalidInputError naming ``name`` and
    the range."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and start <= value <= stop):
        raise InvalidInputError(f"{name} must be an integer in {start}..{stop}, got {value!r}")
    return int(value)


def user_index(k):
    """Position (0 or 1) of user ``k`` in a per-user pair; InvalidInputError
    unless ``k`` is the integer 1 or 2 (see check_index)."""
    return check_index(k, "user index", 2) - 1


def read_json(path, error, what):
    """The JSON object in the UTF-8 file at ``path``. Every way of not getting
    one raises ``error`` with a message led by ``what`` (say, "config file"):
    a syntax error, with its line and column; bytes that are not UTF-8; an
    integer of more digits than int() converts; nesting past the recursion
    limit; a document that is not an object. OSError passes through."""
    import json  # here, so that importing the package loads no json

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            problem = f"is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        except UnicodeDecodeError:
            problem = "is not UTF-8 text"
        except ValueError:  # the only other one: int() refuses a long digit string
            problem = f"holds an integer of more than {sys.get_int_max_str_digits()} digits"
        except RecursionError:
            problem = "nests arrays or objects past the recursion limit"
        else:
            problem = None if isinstance(data, dict) else "must contain a JSON object"
    if problem:
        raise error(f"{what} {problem}")
    return data
