"""Exception taxonomy for the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from :class:`MarkovDimError` so blanket handling stays
possible at the CLI boundary.
"""
import math


class MarkovDimError(Exception):
    """Base class for all toolkit errors."""


class DomainError(MarkovDimError):
    """A parameter lies outside its mathematically valid range."""


class BoundaryError(MarkovDimError):
    """An orbit point landed on (or within tolerance of) a branch endpoint."""


class MixingError(MarkovDimError):
    """A subsystem is not primitive (not Markov-mixing), so pressure is undefined on it."""


class UnboundedError(MarkovDimError):
    """A scalar minimization failed to bracket a minimum within the search budget."""


class WorkLimitError(MarkovDimError):
    """An enumeration exceeded its declared work cap."""


class DegenerateError(MarkovDimError):
    """A root solve has no sign change at the smallest truncation level."""


class ConvergenceError(MarkovDimError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class InsufficientSampleError(MarkovDimError):
    """Too few Monte-Carlo samples survived a retention filter."""


class ConfigError(MarkovDimError):
    """A config failed schema or consistency checks; ``violations`` lists each problem."""

    def __init__(self, message: str, *, path: str | None = None,
                 violations: list[str] | None = None):
        self.path = path
        self.violations = [message] if violations is None else violations
        super().__init__(message + (f" [file={path}]" if path else ""))


def require_above(name: str, value: float, bound: float) -> None:
    """DomainError unless ``value`` is a finite number above ``bound``; NaN and
    infinities fail every comparison-based guard silently, so they are named."""
    if not (math.isfinite(value) and value > bound):
        raise DomainError(f"{name} must be a finite number above {bound:.6g}, got {value!r}")
