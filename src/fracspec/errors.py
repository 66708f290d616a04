"""Shared exception types.

ConfigurationError maps to CLI exit code 2, NumericError (with its
subtypes) to exit code 3.
"""


class ConfigurationError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class NumericError(RuntimeError):
    """A numeric routine failed (non-convergence, loss of positivity, ...)."""


class NotPositiveError(NumericError):
    """An operator required to be positive (semi)definite is not."""


class InvariantError(NumericError):
    """A computed object broke an invariant it must hold (symmetry, ordering)."""
