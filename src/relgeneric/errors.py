"""Solver failure signals."""


class StabilityError(RuntimeError):
    """Time step exceeds the stability bound of the explicit scheme."""


class PositivityError(RuntimeError):
    """A density went below the allowed negative excursion."""
