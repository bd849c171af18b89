"""Exception types shared across the package, and the input boundary
helpers that turn malformed files, documents and parameter lists into
:class:`InvalidInputError` where they are read."""

from contextlib import contextmanager


class AdagofError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AdagofError, ValueError):
    """An argument violates a documented precondition."""


class InsufficientSampleError(InvalidInputError):
    """The statistic needs more observations than were supplied."""


class SupportViolationError(InvalidInputError):
    """An observation lies outside the support required by the null family."""


class BudgetTooSmallError(InvalidInputError):
    """A Monte Carlo budget is below the minimum needed for stable quantiles."""


class CalibrationFailureError(AdagofError):
    """No grid point achieved the requested level.

    Carries the estimated level curve so the caller can densify the grid
    downward.
    """

    def __init__(self, message: str, u_grid, level_curve):
        super().__init__(message)
        self.u_grid = list(u_grid)
        self.level_curve = list(level_curve)


class TableMismatchError(InvalidInputError):
    """A calibration table does not match the data or test it is used with."""


class CalibrationMissingError(AdagofError):
    """An adaptive test was requested without its calibration table."""


@contextmanager
def invalid_input(what: str):
    """Re-raise a failure to read or parse outside input in the wrapped
    statements (a missing file or field, a malformed number, list or enum
    value) as InvalidInputError prefixed by ``what``.  Wrap only reading,
    parsing and validation, never computation, so a real bug still surfaces
    as itself."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInputError(f"{what}: missing field {exc}") from None
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise InvalidInputError(f"{what}: {exc}") from None


def parse_fields(text: str, types: tuple, what: str) -> list:
    """Comma-separated ``text`` parsed as one value per type in ``types``.

    ``int`` fields take integer literals only, so ``2.7`` is an error rather
    than a silent 2.
    """
    parts = text.split(",") if text else []
    if len(parts) != len(types):
        raise InvalidInputError(f"{what} takes {len(types)} comma-separated parameters, got {text!r}")
    with invalid_input(what):
        return [t(p) for t, p in zip(types, parts)]
