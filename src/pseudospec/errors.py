"""Exception types shared across the package.

The CLI maps these onto exit codes: bad or infeasible inputs exit with 2,
numerical trouble with 3, and a failed verification verdict with 1.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDegreeError(InvalidInputError):
    """Extension degree m falls outside the supported table."""


class DegenerateCodeError(InvalidInputError):
    """The requested code collapses to dimension zero."""


class ArithmeticCorruptionError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical routine did not converge."""
