"""Exception types shared across the package."""


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
