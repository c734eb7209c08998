"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericError(ArithmeticError):
    """A numeric routine detected an inconsistency it cannot repair."""
