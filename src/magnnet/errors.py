"""Shared exception types."""


class MagnnetError(Exception):
    """Base class for package errors."""


class ShapeError(MagnnetError, ValueError):
    """Operand shapes are incompatible."""


class NumericError(MagnnetError, ArithmeticError):
    """A computation produced NaN or Inf."""


class NoPathError(MagnnetError):
    """Search exhausted without reaching the goal."""


class PlacementError(MagnnetError):
    """Grid too small / too crowded to place all entities."""


class InvalidAssignmentError(MagnnetError, ValueError):
    """Assignment references an infinite-cost or out-of-range pair."""


class CheckpointMismatchError(MagnnetError):
    """A checkpoint is malformed, or does not fit its model or scenario."""
