"""Exception types shared across the package, and the one check of a numeric argument."""

import math
import numbers

import numpy as np


class ProvexError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ProvexError):
    """Shapes or lengths of operands do not agree."""


class ValidationError(ProvexError):
    """An input value violates a documented precondition."""


class SchemaError(ValidationError):
    """A serialized document does not match the expected schema.

    Carries the path of the offending field so callers can report it.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def check_number(name: str, value, *, integer=False, minimum=None, positive=False, maximum=None, must=None):
    """Return ``value`` if it is a number in its range, else raise a ValidationError that begins with ``name``.

    A bool is not a number, and an integer is a Python or numpy integer
    (so 2.0 is not one).  A value of the wrong type reads ``{name} must
    {must}, got {value!r}``, where ``must`` defaults to "be an integer" or
    "be a number".  The range is ``value >= minimum``, ``value > 0`` when
    ``positive`` and ``value <= maximum``, each bound optional; a value
    outside it reads ``{name} must be nonnegative, got {value}``, "be
    positive" or "lie in [m, M]" (or "(0, M]").  NaN is outside every
    range, and with no bound at all a value that is not finite reads
    ``{name} {value} is not a finite number``.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer) if integer else numbers.Real):
        raise ValidationError(f"{name} must {must or ('be an integer' if integer else 'be a number')}, got {value!r}")
    if minimum is None and maximum is None and not positive:
        if not integer and not math.isfinite(value):
            raise ValidationError(f"{name} {value} is not a finite number")
    elif not (
        (minimum is None or value >= minimum) and (value > 0 or not positive) and (maximum is None or value <= maximum)
    ):
        if maximum is None and (positive or minimum == 0):
            bounds = "be positive" if positive else "be nonnegative"
        else:
            low = "(0" if positive else "(-inf" if minimum is None else f"[{minimum}"
            bounds = f"lie in {low}, {'inf)' if maximum is None else f'{maximum}]'}"
        raise ValidationError(f"{name} must {bounds}, got {value}")
    return value
