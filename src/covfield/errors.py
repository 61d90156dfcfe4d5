"""Exception types shared across the package."""


class CovfieldError(Exception):
    """Base class for package-specific failures."""


class FormatError(CovfieldError, ValueError):
    """A file could not be parsed (malformed CSV, ragged rows, ...)."""


class DegenerateDataError(CovfieldError, ValueError):
    """Input data carries no usable information (identical points,
    zero-variance column, all-zero estimator field, ...)."""


class IllConditionedKernelError(CovfieldError, ArithmeticError):
    """A kernel matrix could not be factored even after the jitter ladder."""


class NumericalConsistencyError(CovfieldError, ArithmeticError):
    """A quantity violated a tolerance that signals a broken factorization
    (e.g. a posterior variance far below zero)."""


class UnsupportedDimensionError(CovfieldError, ValueError):
    """Operation is defined for 1-d data only."""


class DivergenceError(CovfieldError, ArithmeticError):
    """An iterative solve produced non-finite iterates or broke down."""
