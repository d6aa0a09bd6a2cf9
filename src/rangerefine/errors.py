"""Exception types shared across the pipeline, the helper that locates them,
and the config field type check with its integer test.

The CLI maps these onto exit codes: DataFormatError -> 2, NumericError -> 3.
"""

import contextlib
import dataclasses
import math
import numbers


class DataFormatError(ValueError):
    """Malformed or inconsistent input data (truncated file, bad shape, bad label)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required (divergence, NaN activations)."""


@contextlib.contextmanager
def located(where: str):
    """Re-raise a DataFormatError or NumericError from the block as the same
    type, with ``where`` in front of its message."""
    try:
        yield
    except (DataFormatError, NumericError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """A real integer, not a bool, float or string, that fits the seed hash's
    64 bits, signed or unsigned: derived per-scan seeds reach 2**64 - 1."""
    return _is_number(value) and isinstance(value, numbers.Integral) and -(2**63) <= value < 2**64


# Field annotation -> (test of the value, what the value must be). The config
# modules postpone annotation evaluation, so each annotation is its source text.
_FIELD_CHECKS = {
    "int": (is_integer, "an integer in [-2**63, 2**64)"),
    "float": (lambda v: _is_number(v) and math.isfinite(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def check_field_types(cfg) -> None:
    """Reject each dataclass field annotated ``int``, ``float``, ``bool`` or
    ``str | None`` whose value does not fit it. Bools are not numbers, ints
    pass as floats unconverted, and floats must be finite."""
    for f in dataclasses.fields(cfg):
        if f.type in _FIELD_CHECKS:
            accepts, kind = _FIELD_CHECKS[f.type]
            value = getattr(cfg, f.name)
            if not accepts(value):
                raise DataFormatError(f"{f.name} must be {kind}, got {value!r}")
