"""Exception taxonomy shared across the library and the CLI.

Every exception carries a stable machine-readable ``code`` so the CLI can
report failures on stderr in a scriptable way.
"""

from __future__ import annotations

__all__ = [
    "PairscreenError",
    "SingularDesign",
    "Separation",
    "DegenerateVariance",
    "AllFitsFailed",
    "ParseError",
    "EmptyInput",
    "InvalidConfig",
]


class PairscreenError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class SingularDesign(PairscreenError):
    """Design matrix is rank deficient (singular-value ratio below 1e-10)."""

    code = "SINGULAR_DESIGN"


class Separation(PairscreenError):
    """Logistic fit diverged; fitted coefficients indicate complete separation."""

    code = "SEPARATION"


class DegenerateVariance(PairscreenError):
    """Requested variance entry is zero or non-finite (e.g. a perfect fit)."""

    code = "DEGENERATE_VARIANCE"


class AllFitsFailed(PairscreenError):
    """Every marginal stage-1 fit failed; screening cannot proceed."""

    code = "ALL_FITS_FAILED"


class ParseError(PairscreenError):
    """Malformed input file (ragged row, non-numeric cell, bad encoding value)."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


class EmptyInput(PairscreenError):
    """Input file contains no data rows."""

    code = "EMPTY_INPUT"


class InvalidConfig(PairscreenError):
    """Configuration value outside its documented domain."""

    code = "INVALID_CONFIG"
