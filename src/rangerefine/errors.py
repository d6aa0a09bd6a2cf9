"""Exception types shared across the pipeline, and the config field type checks.

The CLI maps these onto exit codes: DataFormatError -> 2, NumericError -> 3.
"""

import math
import numbers


class DataFormatError(ValueError):
    """Malformed or inconsistent input data (truncated file, bad shape, bad label)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required (divergence, NaN activations)."""


def require_int(cfg, *names: str) -> None:
    """Reject config fields that are not integers (floats and bools included)."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DataFormatError(f"{name} must be an integer, got {value!r}")


def require_float(cfg, *names: str) -> None:
    """Reject config fields that are not finite real numbers (bools included; ints pass)."""
    for name in names:
        value = getattr(cfg, name)
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise DataFormatError(f"{name} must be a finite number, got {value!r}")
