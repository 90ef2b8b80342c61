"""Exception types shared across the package.

Two failure families are distinguished so that callers (and the CLI exit-code
mapping) can react differently: bad inputs versus a numerical method that did
not reach its requested accuracy.
"""

from __future__ import annotations

_REPR_MAX = 80  # characters of a rejected value's repr that a message shows


class FzwaveError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FzwaveError):
    """An input failed validation.

    Attributes
    ----------
    field : str
        Name of the offending parameter or argument.
    value : object
        The rejected value.
    admissible : str
        Human-readable description of the admissible set.

    The message shows at most the first _REPR_MAX characters of the value's
    repr, followed by the repr's full length, so that a huge number or a
    long list still makes a short line; a value whose repr raises (an int
    past Python's digit limit) is named by its type. ``value`` keeps the
    object itself.
    """

    def __init__(self, field: str, value: object, admissible: str):
        self.field = field
        self.value = value
        self.admissible = admissible
        try:
            shown = repr(value)
        except Exception:
            shown = f"<{type(value).__name__} without a printable repr>"
        if len(shown) > _REPR_MAX:
            shown = f"{shown[:_REPR_MAX]}... ({len(shown):,} characters)"
        super().__init__(f"{field}={shown} is invalid; admissible: {admissible}")


class NumericsError(FzwaveError):
    """A numerical routine could not meet its accuracy or budget contract.

    ``achieved`` carries the best error estimate available at the point of
    failure (or ``None`` when no estimate makes sense, e.g. a hard divergence
    guard).
    """

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        if achieved is not None:
            message = f"{message} (achieved error estimate: {achieved:.3e})"
        super().__init__(message)
