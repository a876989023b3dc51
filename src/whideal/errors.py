"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: ParseError -> 1, ValidationError -> 2,
SizeGuardError -> 3.  `require_int` is the one check of a size argument.
"""


class WhidealError(Exception):
    pass


class ParseError(WhidealError):
    """Malformed polynomial text.  `position` is a 0-based offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ValidationError(WhidealError):
    """A precondition or input invariant does not hold."""


class SizeGuardError(WhidealError):
    """An instance exceeds the configured size guard for exact elimination."""


def require_int(name: str, value) -> None:
    """ValidationError unless `value` is an int; a bool is not a size."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, got {value!r}")
