"""Exception and warning types shared across the package."""

__all__ = [
    "HierarchyWarning",
    "DegenerateInputError",
    "HierarchyError",
    "ReducibleChainError",
    "InsufficientDataError",
    "FitError",
    "FitConvergenceError",
    "DegenerateFitError",
]


class HierarchyWarning(UserWarning):
    """Slow rates are not well separated from the fast optical rates.

    The closed-form period statistics assume the metastable rates are small
    compared with A31 and Omega31. Constructing parameters outside that
    regime is allowed (the formulas still evaluate) but the warning flags
    that their accuracy degrades.
    """


class DegenerateInputError(ValueError):
    """Input is structurally valid but describes a degenerate problem."""


class HierarchyError(ValueError):
    """No usable timescale window separates fast and slow dynamics."""


class ReducibleChainError(ValueError):
    """The period chain does not connect all states, so no unique
    stationary distribution exists."""


class InsufficientDataError(ValueError):
    """Not enough data points for the requested operation."""


class FitError(RuntimeError):
    """Base class for fitting failures."""


class FitConvergenceError(FitError):
    """The optimizer stopped without meeting the convergence test."""


class DegenerateFitError(FitError):
    """The data carry no usable signal for the requested model."""
