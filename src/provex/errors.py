"""Exception types shared across the package, and the one check of a numeric argument and of an index collection."""

import math
import numbers
from collections import Counter

import numpy as np


# Every Python and numpy integer type, so a collection's types are checked as a set.
_INTEGER_TYPES = frozenset({int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])})


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


def check_indices(name: str, values, size: int, *, must="hold integer indices", each=None):
    """Return ``values`` if it holds indices below ``size``, else raise a ValidationError that begins with ``name``.

    Every member is an integer by ``check_number``'s rule (not a bool) in
    [0, size), and with ``each`` (a noun such as "neuron") no member appears
    twice.  A member that is not an integer reads ``{name} must {must}, got
    {value!r}``, a negative one ``{name} must be nonnegative, got {value}``,
    one of ``size`` or more ``{name} must be below {size}, got {value}``,
    and a repeat ``{name} must hold each {each} once, got {value} more than
    once``.  ``values`` is a sized collection: a one-dimensional integer
    array is checked with array reductions, anything else with builtins
    (a set of its member types, ``min``, ``max``, and ``len(set(...))``
    unless it is a set already); only a collection that fails is walked
    member by member, to name the first bad one.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and values.ndim == 1 and (
            not values.size
            or (
                values.min() >= 0
                and values.max() < size
                and (each is None or np.bincount(values.astype(np.intp, copy=False)).max() < 2)
            )
        ):
            return values
        members = values.tolist()
    else:
        members = values
    if (
        _INTEGER_TYPES.issuperset(map(type, members))
        and (not members or (min(members) >= 0 and max(members) < size))
        and (each is None or isinstance(members, (set, frozenset)) or len(set(members)) == len(members))
    ):
        return values
    for value in members:
        check_number(name, value, integer=True, minimum=0, must=must)
        if value >= size:
            raise ValidationError(f"{name} must be below {size}, got {value}")
    if each is not None:
        repeated = next((value for value, count in Counter(members).items() if count > 1), None)
        if repeated is not None:
            raise ValidationError(f"{name} must hold each {each} once, got {repeated} more than once")
    return values
