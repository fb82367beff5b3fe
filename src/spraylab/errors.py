"""Exception types shared across the package."""

from __future__ import annotations


class SprayLabError(Exception):
    """Base class for all package-specific errors."""


class JetDomainError(SprayLabError, ValueError):
    """An operation left the domain where the series map is defined.

    Raised for division by a jet with zero constant term and for
    sqrt/log/real powers applied to a jet with a non-positive constant term.
    """


class DegreeBudgetError(SprayLabError, ValueError):
    """A derivative order beyond the valid truncation degree was requested.

    Every derived jet carries the number of Taylor orders that are still
    exact after truncation; stacking one derivative operator too many
    exhausts that budget and must fail loudly instead of returning noise.
    """


class AdmissibilityError(SprayLabError, ValueError):
    """A tangent point violates the metric's admissibility predicate."""


class ConfigError(SprayLabError, ValueError):
    """Invalid user-facing configuration (CLI flags, config file, params)."""
