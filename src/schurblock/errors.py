"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class ContractError(ValueError):
    """An input has non-finite entries (NaN or Inf)."""


class JudgeError(RuntimeError):
    """The judge gave one of its planted claims the wrong verdict, so no
    residual it forms can be trusted."""
