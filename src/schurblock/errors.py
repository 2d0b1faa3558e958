"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class ContractError(ValueError):
    """An input has non-finite entries (NaN or Inf)."""

