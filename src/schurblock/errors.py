"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class ContractError(ValueError):
    """An input violates a documented precondition (not Hermitian, not PSD, ...)."""

