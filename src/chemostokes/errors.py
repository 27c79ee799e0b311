"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (configuration,
out-of-range model parameters) and runs that go numerically bad after a
valid start.  The CLI maps them to exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class ChemoStokesError(Exception):
    """Base class for all package errors."""


class ConfigError(ChemoStokesError):
    """Invalid configuration or model parameters (CLI exit code 1)."""


class ExponentDomainError(ConfigError):
    """Exponent-algebra input outside the hypotheses of the estimate it feeds."""


class NumericalError(ChemoStokesError):
    """A running simulation violated a guaranteed invariant (CLI exit code 2).

    Raised when a density update leaves some cell negative (positivity
    loss, the runtime check of the stability budget), or a linear solve
    leaves a residual above tolerance.  The message names the offending
    quantity, cell, and time.
    """
